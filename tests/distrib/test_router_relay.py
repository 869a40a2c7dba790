"""The router's relay thread survives a failing dispatch and counts it.

A fake worker (a localhost socket speaking JSON lines) feeds the relay
events; the router's ``_dispatch`` raises on the first.  The relay must
log it, count it in ``stats()["relay_errors"]`` and go on to dispatch the
next — no process, no supervisor, no zoo.  When the failed event belongs
to a client's request, that client gets exactly one ``failed`` event.
A select that raises before it is routed keeps no admission slot.
"""

import io
import json
import socket
import threading
import time
from types import SimpleNamespace

from repro.distrib import RouterFrontEnd


class _FakeSupervisor:
    """Just enough of ``WorkerSupervisor`` for one pre-started worker."""

    def __init__(self, port: int) -> None:
        self.names = ["w0"]
        self._handle = SimpleNamespace(
            name="w0", port=port, generation=1, pid=0,
            banner={"zoo_version": "v0", "num_models": 0, "recovered": 0},
        )

    def workers(self):
        return [self._handle]

    def ensure_alive(self, name, timeout=None):
        return self._handle

    def stats(self):
        return {}


def test_relay_counts_dispatch_error_and_keeps_running(caplog):
    listener = socket.create_server(("127.0.0.1", 0))
    supervisor = _FakeSupervisor(listener.getsockname()[1])
    accepted = {}
    accepter = threading.Thread(
        target=lambda: accepted.setdefault("conn", listener.accept()[0])
    )
    accepter.start()
    router = RouterFrontEnd(supervisor)
    accepter.join(timeout=10)
    worker = accepted["conn"]

    dispatched = []
    second_seen = threading.Event()
    real_dispatch = router._dispatch

    def flaky_dispatch(link, payload):
        dispatched.append(payload["id"])
        if len(dispatched) == 1:
            raise RuntimeError("dispatch failed")
        real_dispatch(link, payload)
        second_seen.set()

    router._dispatch = flaky_dispatch
    relay = router._links["w0"].thread
    try:
        with caplog.at_level("ERROR", logger="repro.distrib.router"):
            for wire_id in ("c0-1", "c0-2"):
                event = {"event": "progress", "id": wire_id}
                worker.sendall((json.dumps(event) + "\n").encode())
            assert second_seen.wait(timeout=10)
        assert dispatched == ["c0-1", "c0-2"]
        assert router.stats()["relay_errors"] == 1
        assert relay.is_alive()
        assert any(
            "'w0'" in record.getMessage() and "'c0-1'" in record.getMessage()
            for record in caplog.records
        )
    finally:
        # EOF from the worker ends the relay; closing the router while the
        # relay still blocks in a read would wait out the socket timeout.
        worker.close()
        relay.join(timeout=10)
        router.close()
        listener.close()


class _Lines(io.StringIO):
    """A client stream whose emitted JSON lines can be read back."""

    def events(self):
        return [json.loads(line) for line in self.getvalue().splitlines()]


def test_relay_failure_sends_one_failed_event_to_the_client():
    listener = socket.create_server(("127.0.0.1", 0))
    supervisor = _FakeSupervisor(listener.getsockname()[1])
    accepted = {}
    accepter = threading.Thread(
        target=lambda: accepted.setdefault("conn", listener.accept()[0])
    )
    accepter.start()
    router = RouterFrontEnd(supervisor)
    accepter.join(timeout=10)
    worker = accepted["conn"]
    relay = router._links["w0"].thread

    real_dispatch = router._dispatch
    dispatched = []

    def flaky_dispatch(link, payload):
        dispatched.append(payload["event"])
        if payload["event"] == "accepted":
            raise RuntimeError("dispatch failed")
        real_dispatch(link, payload)

    router._dispatch = flaky_dispatch
    out = _Lines()
    session = router._attach(out)
    try:
        reply = router.handle_line(
            json.dumps({"op": "select", "id": "job-1", "target": "mnli"}),
            session,
        )
        assert reply is None
        forwarded = json.loads(worker.makefile("r").readline())
        wire_id = forwarded["id"]
        for event in ("accepted", "result"):
            line = json.dumps({"event": event, "id": wire_id}) + "\n"
            worker.sendall(line.encode())
        deadline = time.monotonic() + 10
        while len(dispatched) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert dispatched == ["accepted", "result"]
        events = out.events()
        assert len(events) == 1
        failed = events[0]
        assert failed["event"] == "failed"
        assert failed["id"] == "job-1"
        assert failed["target"] == "mnli"
        assert failed["error"]["code"] == "internal"
        stats = router.stats()
        assert stats["relay_errors"] == 1
        assert stats["pending_by_worker"] == {}
        assert stats["admission"]["inflight"] == 0
    finally:
        worker.close()
        relay.join(timeout=10)
        router.close()
        listener.close()


def test_select_raising_before_routing_keeps_no_admission_slot():
    listener = socket.create_server(("127.0.0.1", 0))
    supervisor = _FakeSupervisor(listener.getsockname()[1])
    accepted = {}
    accepter = threading.Thread(
        target=lambda: accepted.setdefault("conn", listener.accept()[0])
    )
    accepter.start()
    router = RouterFrontEnd(supervisor)
    accepter.join(timeout=10)
    worker = accepted["conn"]
    relay = router._links["w0"].thread

    def broken_lookup(key):
        raise RuntimeError("ring lookup failed")

    router._ring.lookup = broken_lookup
    session = router._attach(_Lines())
    try:
        for index in range(3):
            reply = router.handle_line(
                json.dumps({"op": "select", "id": index, "target": "mnli"}),
                session,
            )
            assert reply["event"] == "failed" and reply["id"] == index
            assert reply["error"]["code"] == "internal"
        assert router.stats()["admission"]["inflight"] == 0
    finally:
        worker.close()
        relay.join(timeout=10)
        router.close()
        listener.close()
