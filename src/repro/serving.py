"""JSON-lines front-end of the scheduled selection service.

``python -m repro serve`` wraps a :class:`~repro.service.SelectionService`
in a long-lived, line-oriented JSON protocol — over stdin/stdout by default
or a TCP socket with ``--port`` — so non-Python clients can drive the
epoch scheduler.  One request or response per line:

* ``{"op": "select", "target": "mnli", "id": "r1", "top_k": 4}`` —
  submit a request; answered immediately with an ``accepted`` event, then
  asynchronously with ``progress`` events as stages complete and finally a
  ``result`` (or ``failed``) event.  With ``"total_epochs"`` (alias
  ``"raise_budget"``) the request runs under a larger fine-selection
  budget — against a plan store this continues a finished request from its
  journaled rungs instead of restarting it.  ``"extrapolate": true``
  enables curve-extrapolation early stopping for this request;
  ``"exact": true`` forces the bitwise paper-faithful path regardless of
  the server's ``--extrapolate`` default (``docs/extrapolation.md``).
* ``{"op": "poll", "id": "r1"}`` — progress snapshot of one request;
  ``"best": true`` adds the anytime answer (current best candidate with
  confidence ordering) while the request is still training.
* ``{"op": "resume"}`` — resubmit journaled requests a crashed process
  left unfinished (requires ``--store-dir``); the recovered handles are
  tracked like fresh submissions and stream the usual events.
* ``{"op": "stats"}`` — service counters (scheduler + session pool included).
* ``{"op": "shutdown"}`` — drain outstanding requests and stop serving.

Responses echo the client-chosen ``id``.  Admission failures surface as
``failed`` events with the same structured error object the CLI's
``select``/``batch`` commands emit on budget exhaustion (see
:func:`error_payload`).  The protocol, fairness policies and tuning knobs
are documented in ``docs/serving.md``.
"""

from __future__ import annotations

import json
import logging
import queue
import socketserver
import threading
from typing import Dict, Optional, TextIO

from repro.core.results import TwoPhaseResult
from repro.utils.exceptions import ReproError

logger = logging.getLogger(__name__)

#: Exit code of CLI commands failing on scheduler admission/budget errors —
#: distinct from 2 (usage / library errors) so scripts can tell backpressure
#: from misuse.
EXIT_SCHEDULER = 3

#: Structured error codes per scheduler exception type.
_ERROR_CODES = {
    "QueueFullError": "queue_full",
    "BudgetExhaustedError": "budget_exhausted",
    "RequestTimeoutError": "timeout",
    "RateLimitError": "rate_limited",
    "WorkerLostError": "worker_lost",
    "InternalError": "internal",
}

def result_payload(result: TwoPhaseResult) -> Dict[str, object]:
    """JSON-friendly view of one two-phase result (shared with the CLI)."""
    payload = {
        "target": result.target_name,
        "selected_model": result.selected_model,
        "selected_accuracy": result.selected_accuracy,
        "total_cost": result.total_cost,
        "runtime_epochs": result.selection.runtime_epochs,
        "recall_epoch_cost": result.recall.epoch_cost,
        "recalled_models": list(result.recall.recalled_models),
    }
    extrapolation = result.selection.extras.get("extrapolation")
    if extrapolation:
        # Budget-honesty accounting of speculative early stops: which arms
        # were pruned, the epochs saved and the regret bound at decision
        # time.  Absent on the exact path, so exact payloads are unchanged.
        payload["extrapolation"] = extrapolation
    return payload


def error_payload(error: Exception) -> Dict[str, object]:
    """Structured JSON error object for scheduler/request failures."""
    name = type(error).__name__
    return {
        "error": {
            "code": _ERROR_CODES.get(name, "error"),
            "type": name,
            "message": str(error),
        }
    }


class ServeFrontEnd:
    """Line-oriented JSON protocol over one :class:`SelectionService`.

    One front end serves any number of streams/connections; submissions
    from all of them multiplex onto the service's single epoch scheduler,
    which is the point — concurrent clients share the training budget and
    session pool.
    """

    def __init__(
        self,
        service,
        *,
        default_timeout: Optional[float] = None,
        recover: bool = False,
    ) -> None:
        self.service = service
        self.default_timeout = default_timeout
        self._recover_lock = threading.Lock()
        #: Handles recovered at startup, waiting for the first stream to
        #: adopt them (so their result/failed events reach a client).
        self._startup_recovered = list(service.recover()) if recover else []

    def _adopt_recovered(self, emitter: "_EventEmitter") -> None:
        """Hand startup-recovered handles to the first connected stream."""
        with self._recover_lock:
            handles, self._startup_recovered = self._startup_recovered, []
        for handle in handles:
            emitter.track(f"recovered-{handle.id}", handle)

    @property
    def recovered_count(self) -> int:
        """Startup-recovered requests not yet adopted by a stream."""
        with self._recover_lock:
            return len(self._startup_recovered)

    # ------------------------------------------------------------------ #
    # stdin/stdout mode
    # ------------------------------------------------------------------ #
    def serve_stream(self, lines, out: TextIO) -> int:
        """Serve line-delimited JSON requests from ``lines`` until EOF/shutdown.

        Events for in-flight requests are emitted asynchronously between
        reads; at EOF (or an explicit ``shutdown`` op) outstanding requests
        are drained before returning.  Returns a process exit code.
        """
        emitter = _EventEmitter(out)
        emitter.start()
        self._adopt_recovered(emitter)
        try:
            for line in lines:
                line = line.strip()
                if not line:
                    continue
                response = self.handle_line(line, emitter)
                if response is not None:
                    emitter.emit(response)
                if emitter.shutdown_requested:
                    break
        finally:
            emitter.drain_and_stop()
        return 0

    def handle_line(self, line: str, emitter: "_EventEmitter") -> Optional[Dict]:
        """Dispatch one protocol line; return the immediate response (if any)."""
        try:
            message = json.loads(line)
        except json.JSONDecodeError as error:
            return {"event": "error", "message": f"malformed JSON: {error}"}
        if not isinstance(message, dict):
            return {"event": "error", "message": "expected a JSON object"}
        op = message.get("op")
        request_id = message.get("id")
        try:
            if op == "select":
                return self._handle_select(message, emitter)
            if op == "poll":
                return self._handle_poll(message, emitter)
            if op == "resume":
                return self._handle_resume(request_id, emitter)
            if op == "ping":
                # Cheap liveness probe: answered from the scheduler's lock
                # without touching artifacts — heartbeat traffic must stay
                # O(1) however loaded the service is.
                payload = {"event": "pong", **self.service.load()}
                if request_id is not None:
                    payload["id"] = request_id
                return payload
            if op == "refresh":
                return self._handle_refresh(message)
            if op == "stats":
                payload = {"event": "stats", "stats": self.service.stats()}
                if request_id is not None:
                    payload["id"] = request_id
                return payload
            if op == "shutdown":
                emitter.shutdown_requested = True
                payload = {"event": "shutting_down"}
                if request_id is not None:
                    payload["id"] = request_id
                return payload
            return {"event": "error", "id": request_id,
                    "message": f"unknown op {op!r}"}
        except ReproError as error:
            payload = {"event": "failed", **error_payload(error)}
            if request_id is not None:
                payload["id"] = request_id
            return payload

    def _handle_select(self, message: Dict, emitter: "_EventEmitter") -> Optional[Dict]:
        target = message.get("target")
        if not isinstance(target, str) or not target:
            return {"event": "error", "id": message.get("id"),
                    "message": "select needs a 'target' string"}
        total_epochs = message.get("total_epochs", message.get("raise_budget"))
        # Per-request speculative mode: "exact" wins over "extrapolate";
        # absent both, the service default applies.
        extrapolate = None
        if message.get("exact"):
            extrapolate = False
        elif message.get("extrapolate"):
            extrapolate = True
        handle = self.service.submit(
            target,
            top_k=message.get("top_k"),
            timeout=message.get("timeout", self.default_timeout),
            epoch_quota=message.get("epoch_quota"),
            total_epochs=total_epochs,
            extrapolate=extrapolate,
        )
        request_id = message.get("id", f"req-{handle.id}")
        # Written before tracking starts, so no event of this request can
        # overtake its ``accepted`` line.
        emitter.emit({"event": "accepted", "id": request_id, "target": target,
                      "request": handle.id})
        emitter.track(request_id, handle)
        return None

    def _handle_poll(self, message: Dict, emitter: "_EventEmitter") -> Dict:
        request_id = message.get("id")
        handle = emitter.tracked(request_id)
        if handle is None:
            return {"event": "error", "id": request_id,
                    "message": f"unknown request id {request_id!r}"}
        snapshot = self.service.poll(handle, best=bool(message.get("best")))
        # The scheduler's numeric id moves to "request"; "id" stays the
        # client-chosen correlation id.
        snapshot["request"] = snapshot.pop("id", None)
        return {"event": "status", "id": request_id, **snapshot}

    def _handle_refresh(self, message: Dict) -> Dict:
        """Apply a zoo update in place: in-flight requests drain on the old
        epoch, later admissions see the new one (``docs/zoo-updates.md``)."""
        added = message.get("added") or []
        removed = message.get("removed") or []
        if not added and not removed:
            return {"event": "error", "id": message.get("id"),
                    "message": "refresh needs 'added' and/or 'removed' model names"}
        result = self.service.refresh(added=added, removed=removed)
        payload: Dict[str, object] = {
            "event": "refreshed",
            "zoo_version": result.new_version.key,
            "old_version": result.old_version.key,
            "added": len(result.added),
            "removed": len(result.removed),
            "reclustered": result.reclustered,
        }
        if message.get("id") is not None:
            payload["id"] = message["id"]
        return payload

    def _handle_resume(self, request_id, emitter: "_EventEmitter") -> None:
        """Recover journaled in-flight requests and track them here."""
        self._adopt_recovered(emitter)  # startup recoveries join this stream
        tracked = [
            (f"recovered-{handle.id}", handle) for handle in self.service.recover()
        ]
        payload: Dict[str, object] = {
            "event": "recovered",
            "count": len(tracked),
            "requests": [
                {"id": rid, "target": handle.target_name, "request": handle.id}
                for rid, handle in tracked
            ],
        }
        if request_id is not None:
            payload["id"] = request_id
        # As with ``accepted``: the listing precedes the handles' events.
        emitter.emit(payload)
        for rid, handle in tracked:
            emitter.track(rid, handle)
        return None

    # ------------------------------------------------------------------ #
    # TCP mode
    # ------------------------------------------------------------------ #
    def serve_tcp(self, host: str, port: int):
        """Bind a threading TCP server speaking the same line protocol.

        Returns the started server; callers own its lifecycle
        (``server.serve_forever()`` / ``server.shutdown()``).  The bound
        port is ``server.server_address[1]`` (useful with ``port=0``).
        """
        front = self

        class Handler(socketserver.StreamRequestHandler):
            # Every line is a whole message: send it now, not after the
            # peer's delayed ACK of the previous one.
            disable_nagle_algorithm = True

            def handle(self) -> None:
                out = SocketLineWriter(self.wfile)
                emitter = _EventEmitter(out)
                emitter.start()
                front._adopt_recovered(emitter)
                try:
                    for raw in self.rfile:
                        line = raw.decode("utf-8").strip()
                        if not line:
                            continue
                        response = front.handle_line(line, emitter)
                        if response is not None:
                            emitter.emit(response)
                        if emitter.shutdown_requested:
                            break
                finally:
                    emitter.drain_and_stop()

        class Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        return Server((host, port), Handler)


class SocketLineWriter:
    """Minimal text adapter over a binary socket file.

    Shared with the distributed router (:mod:`repro.distrib.router`), whose
    TCP handler writes the same line-delimited JSON events.
    """

    def __init__(self, wfile) -> None:
        self._wfile = wfile

    def write(self, text: str) -> None:
        self._wfile.write(text.encode("utf-8"))

    def flush(self) -> None:
        self._wfile.flush()


#: Queue item that ends an emitter thread.
_STOP = object()


class _EventEmitter:
    """Streams request lifecycle events for one client stream.

    Every tracked handle gets a listener (:meth:`SelectionRequest
    .add_listener`) that queues a notification when the request completes
    a stage and once when it is terminal.  One thread drains that queue:
    per notification it emits a ``progress`` event for each newly
    completed stage, and for a terminal request its ``result``/``failed``
    event — so events leave as soon as the scheduler produces them, while
    socket writes never run on the scheduler's thread.  All writes share
    one lock so event lines never interleave.
    """

    def __init__(self, out) -> None:
        self._out = out
        self._write_lock = threading.Lock()
        #: Tracked id -> [handle, stages already reported].
        self._tracked: Dict[object, list] = {}
        self._lock = threading.Lock()
        self._notifications: "queue.SimpleQueue" = queue.SimpleQueue()
        self._thread: Optional[threading.Thread] = None
        self.shutdown_requested = False

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-emitter", daemon=True
        )
        self._thread.start()

    def emit(self, payload: Dict) -> None:
        with self._write_lock:
            self._out.write(json.dumps(payload) + "\n")
            self._out.flush()

    def track(self, request_id, handle) -> None:
        with self._lock:
            self._tracked[request_id] = [handle, 0]
        handle.add_listener(
            lambda _request: self._notifications.put((request_id, handle, False))
        )

    def tracked(self, request_id):
        with self._lock:
            entry = self._tracked.get(request_id)
        return entry[0] if entry is not None else None

    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        while True:
            item = self._notifications.get()
            if item is _STOP:
                return
            try:
                self._deliver(*item)
            except (OSError, ValueError):
                # The client went away mid-write; keep draining so later
                # notifications (and the stop sentinel) are still consumed.
                logger.debug("event stream closed", exc_info=True)

    def _deliver(self, request_id, handle, abandon: bool) -> None:
        """Emit what one notification made new for ``handle``.

        ``abandon`` (from :meth:`drain_and_stop`) ends the request's
        stream even though it is still running.
        """
        with self._lock:
            entry = self._tracked.get(request_id)
            if entry is None or entry[0] is not handle:
                return  # already terminal, or the id was reused
            sent = entry[1]
        terminal = handle.wait(0) or abandon
        plan = handle.plan
        # Stage records are append-only, so this slice is a consistent
        # prefix even while the scheduler thread advances the plan.
        stages = plan.stages[sent:] if plan is not None else []
        for number, record in enumerate(stages, start=sent + 1):
            self.emit({
                "event": "progress", "id": request_id,
                "target": handle.target_name,
                "stage": number, "num_stages": plan.num_stages,
                "surviving": list(record.surviving_models),
            })
        if not terminal:
            entry[1] = sent + len(stages)  # written on this thread only
            return
        with self._lock:
            if self._tracked.get(request_id) is entry:
                del self._tracked[request_id]
        self.emit(self._terminal_event(request_id, handle))

    @staticmethod
    def _terminal_event(request_id, handle) -> Dict:
        if handle.error is not None:
            return {"event": "failed", "id": request_id,
                    "target": handle.target_name, **error_payload(handle.error)}
        if handle.result is None:
            # Still running (drain timed out): report abandonment rather
            # than crash on a result that does not exist yet.
            return {
                "event": "failed", "id": request_id,
                "target": handle.target_name,
                "error": {"code": "timeout", "type": "ShutdownTimeout",
                          "message": "request still running at shutdown"},
            }
        payload = result_payload(handle.result)
        payload["latency_seconds"] = handle.latency_seconds()
        return {"event": "result", "id": request_id, **payload}

    def drain_and_stop(self) -> None:
        """Wait out every tracked request, emit its terminal event, stop."""
        with self._lock:
            pending = [(rid, entry[0]) for rid, entry in self._tracked.items()]
        for request_id, handle in pending:
            # Queued here, not only by the listener: the listener's
            # terminal call may still be on its way when STOP is queued.
            finished = handle.wait(timeout=60.0)
            self._notifications.put((request_id, handle, not finished))
        self._notifications.put(_STOP)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
