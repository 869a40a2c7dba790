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
:func:`error_payload`); a handler that raises anything else answers a
``failed`` event with code ``internal`` and the stream goes on.  The
protocol, fairness policies and tuning knobs are documented in
``docs/serving.md``.

:class:`JsonLinesFrontEnd` is the transport — line loop, TCP server,
parse, dispatch, id echo — and :class:`ServeFrontEnd` the op handlers of
one process; the routed tier's
:class:`~repro.distrib.router.RouterFrontEnd` is the other set of
handlers over the same transport.
"""

from __future__ import annotations

import json
import logging
import queue
import socketserver
import threading
from typing import Dict, Optional, TextIO

from repro.core.results import TwoPhaseResult
from repro.utils.exceptions import InternalError, ReproError

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


def echo_id(payload: Dict, request_id) -> Dict:
    """``payload`` carrying the client's correlation id, when it sent one."""
    if request_id is not None:
        payload.setdefault("id", request_id)
    return payload


#: Numeric ``select`` fields and the JSON number type each must have.
_SELECT_NUMBERS = (
    ("top_k", int), ("total_epochs", int), ("raise_budget", int),
    ("timeout", (int, float)), ("epoch_quota", (int, float)),
)


def select_field_error(message: Dict) -> Optional[str]:
    """Why a ``select``'s fields are unusable (``None`` if fine).

    Checked at ingress, before admission, so a wrongly typed field is an
    ``error`` reply on either tier instead of an exception deep in the
    scheduler.  A target with a lone surrogate (a ``\\ud800`` JSON
    escape) cannot be encoded for hashing or the journal, so it is
    rejected here too.
    """
    target = message.get("target")
    if not isinstance(target, str) or not target:
        return "select needs a 'target' string"
    try:
        target.encode("utf-8")
    except UnicodeEncodeError:
        return f"select needs a UTF-8 'target' string, got {target!r}"
    for field, kinds in _SELECT_NUMBERS:
        value = message.get(field)
        if value is not None and (
            isinstance(value, bool) or not isinstance(value, kinds)
        ):
            kind = "an integer" if kinds is int else "a number"
            return f"select needs {kind} {field!r}, got {value!r}"
    return None


class ClientStream:
    """One connected client: serialised event lines and the shutdown flag.

    Writes from the request thread and from asynchronous deliverers share
    one lock, so lines never interleave.  A failed write marks the stream
    closed and drops the event: the client is gone.
    """

    def __init__(self, out) -> None:
        self._out = out
        self._write_lock = threading.Lock()
        self.shutdown_requested = False
        self.closed = False

    def emit(self, payload: Dict) -> None:
        try:
            with self._write_lock:
                self._out.write(json.dumps(payload) + "\n")
                self._out.flush()
        except (OSError, ValueError):
            self.closed = True
            logger.debug("event stream closed", exc_info=True)


class JsonLinesFrontEnd:
    """The serve protocol's transport, shared by both deployment shapes.

    One line loop (stdin or a TCP connection), one JSON parse and op
    dispatch, one correlation-id echo and one error mapping.  A front end
    supplies a ``_op_<name>(message, stream)`` handler per op in
    :data:`OPS` and three stream hooks: ``_attach(out)`` returns the
    per-client stream state, ``_drain(stream)`` waits out its requests at
    EOF or ``shutdown``, and ``_detach(stream)`` releases it.  Each front
    end also defines its own ``handle_line(line, stream)``, which the loop
    calls and which only delegates to :meth:`_dispatch_line`: a per-class
    entry point that a tracer can wrap for one shape without the other.
    """

    OPS = ("select", "poll", "resume", "ping", "refresh", "stats", "shutdown")

    def _dispatch_line(self, line: str, stream) -> Optional[Dict]:
        try:
            message = json.loads(line)
        except json.JSONDecodeError as error:
            return {"event": "error", "message": f"malformed JSON: {error}"}
        if not isinstance(message, dict):
            return {"event": "error", "message": "expected a JSON object"}
        op = message.get("op")
        request_id = message.get("id")
        if op not in self.OPS:
            return {"event": "error", "id": request_id,
                    "message": f"unknown op {op!r}"}
        try:
            payload = getattr(self, f"_op_{op}")(message, stream)
        except ReproError as error:
            payload = {"event": "failed", **error_payload(error)}
        except Exception as error:  # noqa: BLE001 — a stream must outlive a bug
            logger.exception("op %r (id %r) raised", op, request_id)
            payload = {"event": "failed", **error_payload(
                InternalError(f"internal: op {op!r} failed: {error!r}")
            )}
        return echo_id(payload, request_id) if payload is not None else None

    def _op_shutdown(self, message: Dict, stream) -> Dict:
        stream.shutdown_requested = True
        return {"event": "shutting_down"}

    def serve_stream(self, lines, out: TextIO) -> int:
        """Serve protocol lines until EOF or a ``shutdown`` op.

        ``lines`` yields ``str`` or ``bytes``; a bytes line that is not
        UTF-8 gets the ``malformed JSON`` reply and the stream reads on.
        At EOF or ``shutdown`` the stream's requests are drained before
        returning; once a write has failed (the client is gone) the loop
        stops reading and nothing is drained.  Returns a process exit code.
        """
        stream = self._attach(out)
        try:
            for raw in lines:
                try:
                    line = raw.decode("utf-8") if isinstance(raw, bytes) else raw
                except UnicodeDecodeError as error:
                    response = {"event": "error",
                                "message": f"malformed JSON: {error}"}
                else:
                    line = line.strip()
                    if not line:
                        continue
                    response = self.handle_line(line, stream)
                if response is not None:
                    stream.emit(response)
                if stream.shutdown_requested or stream.closed:
                    break
            if not stream.closed:
                self._drain(stream)
        finally:
            self._detach(stream)
        return 0

    def serve_tcp(self, host: str, port: int):
        """Bind a threading TCP server; each connection is one stream.

        Returns the unstarted server; callers own its lifecycle
        (``server.serve_forever()`` / ``server.shutdown()``).  The bound
        port is ``server.server_address[1]`` (useful with ``port=0``).
        """
        front = self

        class Handler(socketserver.StreamRequestHandler):
            # Every line is a whole message: send it now, not after the
            # peer's delayed ACK of the previous one.
            disable_nagle_algorithm = True

            def handle(self) -> None:
                front.serve_stream(self.rfile, _SocketLineWriter(self.wfile))

        class Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        return Server((host, port), Handler)


class ServeFrontEnd(JsonLinesFrontEnd):
    """The serve protocol over one :class:`SelectionService`.

    One front end serves any number of streams/connections; submissions
    from all of them multiplex onto the service's single epoch scheduler,
    which is the point — concurrent clients share the training budget and
    session pool.  Each stream's events leave through its own emitter
    thread (:class:`_EventEmitter`).
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
    # stream hooks
    # ------------------------------------------------------------------ #
    def _attach(self, out) -> "_EventEmitter":
        emitter = _EventEmitter(out)
        emitter.start()
        self._adopt_recovered(emitter)
        return emitter

    def _drain(self, emitter: "_EventEmitter") -> None:
        emitter.drain()

    def _detach(self, emitter: "_EventEmitter") -> None:
        emitter.stop()

    # ------------------------------------------------------------------ #
    # ops
    # ------------------------------------------------------------------ #
    def handle_line(self, line: str, emitter: "_EventEmitter") -> Optional[Dict]:
        """Dispatch one protocol line; return the immediate response (if any)."""
        return self._dispatch_line(line, emitter)

    def _op_select(self, message: Dict, emitter: "_EventEmitter") -> Optional[Dict]:
        problem = select_field_error(message)
        if problem is not None:
            return {"event": "error", "id": message.get("id"), "message": problem}
        target = message["target"]
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

    def _op_poll(self, message: Dict, emitter: "_EventEmitter") -> Dict:
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

    def _op_ping(self, message: Dict, emitter: "_EventEmitter") -> Dict:
        # Cheap liveness probe: answered from the scheduler's lock without
        # touching artifacts — heartbeat traffic must stay O(1) however
        # loaded the service is.
        return {"event": "pong", **self.service.load()}

    def _op_stats(self, message: Dict, emitter: "_EventEmitter") -> Dict:
        return {"event": "stats", "stats": self.service.stats()}

    def _op_refresh(self, message: Dict, emitter: "_EventEmitter") -> Dict:
        """Apply a zoo update in place: in-flight requests drain on the old
        epoch, later admissions see the new one (``docs/zoo-updates.md``)."""
        added = message.get("added") or []
        removed = message.get("removed") or []
        if not added and not removed:
            return {"event": "error", "id": message.get("id"),
                    "message": "refresh needs 'added' and/or 'removed' model names"}
        result = self.service.refresh(added=added, removed=removed)
        return {
            "event": "refreshed",
            "zoo_version": result.new_version.key,
            "old_version": result.old_version.key,
            "added": len(result.added),
            "removed": len(result.removed),
            "reclustered": result.reclustered,
        }

    def _op_resume(self, message: Dict, emitter: "_EventEmitter") -> None:
        """Recover journaled in-flight requests and track them here."""
        self._adopt_recovered(emitter)  # startup recoveries join this stream
        tracked = [
            (f"recovered-{handle.id}", handle) for handle in self.service.recover()
        ]
        # As with ``accepted``: the listing precedes the handles' events.
        emitter.emit(echo_id({
            "event": "recovered",
            "count": len(tracked),
            "requests": [
                {"id": rid, "target": handle.target_name, "request": handle.id}
                for rid, handle in tracked
            ],
        }, message.get("id")))
        for rid, handle in tracked:
            emitter.track(rid, handle)
        return None


class _SocketLineWriter:
    """Minimal text adapter over a binary socket file (one TCP stream)."""

    def __init__(self, wfile) -> None:
        self._wfile = wfile

    def write(self, text: str) -> None:
        self._wfile.write(text.encode("utf-8"))

    def flush(self) -> None:
        self._wfile.flush()


#: Queue item that ends an emitter thread.
_STOP = object()


class _EventEmitter(ClientStream):
    """Streams request lifecycle events for one client stream.

    Every tracked handle gets a listener (:meth:`SelectionRequest
    .add_listener`) that queues a notification when the request completes
    a stage and once when it is terminal.  One thread drains that queue:
    per notification it emits a ``progress`` event for each newly
    completed stage, and for a terminal request its ``result``/``failed``
    event — so events leave as soon as the scheduler produces them, while
    socket writes never run on the scheduler's thread.
    """

    def __init__(self, out) -> None:
        super().__init__(out)
        #: Tracked id -> [handle, stages already reported].
        self._tracked: Dict[object, list] = {}
        self._lock = threading.Lock()
        self._notifications: "queue.SimpleQueue" = queue.SimpleQueue()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-emitter", daemon=True
        )
        self._thread.start()

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
            except Exception:  # noqa: BLE001 — keep draining the queue
                logger.exception("event delivery for %r failed", item[0])

    def _deliver(self, request_id, handle, abandon: bool) -> None:
        """Emit what one notification made new for ``handle``.

        ``abandon`` (from :meth:`drain`) ends the request's
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

    def drain(self) -> None:
        """Wait out every tracked request and queue its terminal event."""
        with self._lock:
            pending = [(rid, entry[0]) for rid, entry in self._tracked.items()]
        for request_id, handle in pending:
            # Queued here, not only by the listener: the listener's
            # terminal call may still be on its way when STOP is queued.
            finished = handle.wait(timeout=60.0)
            self._notifications.put((request_id, handle, not finished))

    def stop(self) -> None:
        """Emit what is queued, then end the emitter thread."""
        self._notifications.put(_STOP)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
