"""Consistent-hash router: one serve endpoint over N worker processes.

:class:`RouterFrontEnd` is the second set of op handlers over the serve
transport (:class:`repro.serving.JsonLinesFrontEnd`) — same ops, same
event shapes, same structured error objects — so clients cannot tell
``--workers 8`` from a single process.  Behind the protocol it:

* **routes** every ``select`` by consistent-hashing the request's
  session-key prefix (:func:`repro.distrib.ring.route_key`) onto one
  worker, so equal targets co-locate and PR 5's warm-session reuse
  survives sharding;
* **relays** the owning worker's asynchronous event stream back to the
  submitting client, rewriting only the correlation ids (each client
  keeps its own id namespace, exactly as with a single process);
* **admits** requests through a multi-tenant admission controller
  (global in-flight bound, per-tenant fair share, token-bucket rate
  limit, cumulative epoch quota) that fails fast with the structured
  ``queue_full``/``rate_limited``/``budget_exhausted`` errors clients
  already handle — graceful brownout, never latency collapse;
* **heals** worker death: when a relay hits EOF, the supervisor restarts
  the worker (same name, same journal slice) and the router resubmits
  the dead worker's in-flight requests verbatim; journal replay inside
  the replacement restores every charged step, so the client sees its
  original request complete under its original id;
* **refreshes** the zoo with zero downtime: a ``refresh`` op is applied
  worker by worker (requests in flight drain on their admitted version)
  and new admissions route under the new version key once the fleet
  converges.

Topology, tuning and failure semantics are documented in
``docs/distributed.md``.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.distrib.ring import HashRing, route_key
from repro.distrib.supervisor import WorkerSupervisor
from repro.distrib.wire import JsonLinesConnection
from repro.serving import (
    ClientStream,
    JsonLinesFrontEnd,
    echo_id,
    error_payload,
    select_field_error,
)
from repro.utils.exceptions import (
    BudgetExhaustedError,
    InternalError,
    QueueFullError,
    RateLimitError,
    ReproError,
    WorkerLostError,
)

logger = logging.getLogger(__name__)

#: Seconds between sweeps while draining a session's in-flight requests.
_DRAIN_POLL = 0.05

#: Seconds a drain waits per outstanding request before abandoning it
#: (the single-process emitter's per-handle drain timeout too).
_DRAIN_TIMEOUT = 60.0

#: Seconds the router waits for a worker (or a dead worker's replacement)
#: to come up before failing the requests routed to it.
_RESUBMIT_TIMEOUT = 120.0


# --------------------------------------------------------------------------- #
# multi-tenant admission
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class TenantPolicy:
    """Admission policy of the routed tier.

    ``max_inflight`` bounds requests in flight through the router across
    all tenants; each tenant's own share is ``max_inflight`` divided by
    the number of currently-active tenants (never below one), computed
    dynamically so a sole tenant may use the whole allowance while
    contending tenants are squeezed toward fairness.  ``tenant_rate`` is
    a token-bucket admission rate (requests/second, burst
    ``tenant_burst``); ``tenant_quota`` caps a tenant's *cumulative*
    charged fine-tuning epochs.  ``None`` disables a knob.
    """

    max_inflight: int = 32
    tenant_rate: Optional[float] = None
    tenant_burst: int = 4
    tenant_quota: Optional[float] = None


class _TenantState:
    __slots__ = ("inflight", "charged", "tokens", "refilled_at")

    def __init__(self, burst: int) -> None:
        self.inflight = 0
        self.charged = 0.0
        self.tokens = float(burst)
        self.refilled_at = time.monotonic()


class AdmissionController:
    """Fail-fast multi-tenant admission: admit or raise, never queue.

    Rejections are instant and structured — under overload the router
    browns out (every excess request gets a ``queue_full`` /
    ``rate_limited`` / ``budget_exhausted`` error in microseconds) while
    admitted requests keep their ordinary latency.
    """

    def __init__(self, policy: TenantPolicy) -> None:
        self.policy = policy
        self._lock = threading.Lock()
        self._tenants: Dict[str, _TenantState] = {}
        self._admitted = 0
        self._rejected: Dict[str, int] = {}

    def _state(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            state = self._tenants[tenant] = _TenantState(self.policy.tenant_burst)
        return state

    def _reject(self, code: str, error: ReproError) -> ReproError:
        self._rejected[code] = self._rejected.get(code, 0) + 1
        return error

    def admit(self, tenant: str) -> None:
        """Admit one request for ``tenant`` or raise a structured error."""
        policy = self.policy
        with self._lock:
            state = self._state(tenant)
            total = sum(entry.inflight for entry in self._tenants.values())
            if total >= policy.max_inflight:
                raise self._reject("queue_full", QueueFullError(
                    f"router at max_inflight={policy.max_inflight}; retry later"
                ))
            active = sum(
                1 for entry in self._tenants.values() if entry.inflight > 0
            )
            if state.inflight == 0:
                active += 1  # this admission would activate the tenant
            share = max(1, policy.max_inflight // active)
            if state.inflight >= share:
                raise self._reject("queue_full", QueueFullError(
                    f"tenant {tenant!r} at fair share {share} "
                    f"of {policy.max_inflight} in-flight slots"
                ))
            if policy.tenant_quota is not None and (
                state.charged >= policy.tenant_quota
            ):
                raise self._reject("budget_exhausted", BudgetExhaustedError(
                    f"tenant {tenant!r} exhausted its epoch quota "
                    f"({state.charged:.1f}/{policy.tenant_quota:.1f})"
                ))
            if policy.tenant_rate is not None:
                now = time.monotonic()
                state.tokens = min(
                    float(policy.tenant_burst),
                    state.tokens + (now - state.refilled_at) * policy.tenant_rate,
                )
                state.refilled_at = now
                if state.tokens < 1.0:
                    raise self._reject("rate_limited", RateLimitError(
                        f"tenant {tenant!r} above {policy.tenant_rate:g} "
                        "requests/second; retry later"
                    ))
                state.tokens -= 1.0
            state.inflight += 1
            self._admitted += 1

    def release(self, tenant: str, *, epochs: float = 0.0) -> None:
        """Return an in-flight slot; charge ``epochs`` against the quota."""
        with self._lock:
            state = self._state(tenant)
            state.inflight = max(0, state.inflight - 1)
            state.charged += float(epochs)

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "max_inflight": self.policy.max_inflight,
                "admitted": self._admitted,
                "rejected": dict(self._rejected),
                "inflight": sum(s.inflight for s in self._tenants.values()),
                "tenants": {
                    name: {"inflight": s.inflight, "charged": s.charged}
                    for name, s in sorted(self._tenants.items())
                },
            }


# --------------------------------------------------------------------------- #
# routing state
# --------------------------------------------------------------------------- #
class _Route:
    """One client request in flight on one worker."""

    __slots__ = (
        "worker", "wire_id", "client_id", "session", "message", "tenant",
        "target", "accepted", "suppress_accepted", "buffer",
    )

    def __init__(self, worker, wire_id, client_id, session, message,
                 tenant, target) -> None:
        self.worker = worker
        self.wire_id = wire_id
        self.client_id = client_id
        self.session = session
        self.message = message      # forwarded select, for resubmission
        self.tenant = tenant
        self.target = target
        self.accepted = False
        self.suppress_accepted = False
        self.buffer: List[Dict[str, object]] = []  # parked events


class _WorkerLink:
    """One persistent connection to a worker plus its relay thread."""

    def __init__(self, name: str, generation: int,
                 conn: JsonLinesConnection) -> None:
        self.name = name
        self.generation = generation
        self.conn = conn
        self.dead = False
        self.thread: Optional[threading.Thread] = None

    def send(self, payload: Dict[str, object]) -> None:
        self.conn.send(payload)


class _Collector:
    """Merge one broadcast op's per-worker replies; fire once complete."""

    def __init__(self, workers: List[str], callback) -> None:
        self._expected = set(workers)
        self._replies: Dict[str, Optional[Dict[str, object]]] = {}
        self._lock = threading.Lock()
        self._callback = callback
        self._done = False

    def add(self, worker: str, payload: Optional[Dict[str, object]]) -> None:
        with self._lock:
            if self._done or worker not in self._expected:
                return
            self._replies[worker] = payload
            if set(self._replies) != self._expected:
                return
            self._done = True
            replies = dict(self._replies)
        self._callback(replies)

    def fail(self, worker: str) -> None:
        self.add(worker, None)


class _RouterSession(ClientStream):
    """One connected client stream: its writer and id namespace."""

    def __init__(self, index: int, out) -> None:
        super().__init__(out)
        self.index = index
        #: client id -> (worker, wire id) of live requests (pruned on
        #: terminal events, as the single-process emitter prunes).
        self.by_client: Dict[object, Tuple[str, str]] = {}
        #: (worker, wire id) -> client id, retained until the session
        #: closes so late worker replies can still be rewritten.
        self.wire_to_client: Dict[Tuple[str, str], object] = {}


# --------------------------------------------------------------------------- #
# the router front end
# --------------------------------------------------------------------------- #
class RouterFrontEnd(JsonLinesFrontEnd):
    """Protocol-transparent consistent-hash router over a worker fleet."""

    def __init__(
        self,
        supervisor: WorkerSupervisor,
        *,
        policy: Optional[TenantPolicy] = None,
        replicas: int = 64,
    ) -> None:
        self._supervisor = supervisor
        self._admission = AdmissionController(policy or TenantPolicy())
        self._ring = HashRing(supervisor.names, replicas=replicas)
        self._lock = threading.RLock()
        self._links: Dict[str, _WorkerLink] = {}
        self._link_locks: Dict[str, threading.Lock] = {}
        self._routes: Dict[Tuple[str, str], _Route] = {}
        self._parked: List[_Route] = []
        self._collectors: Dict[Tuple[str, str], _Collector] = {}
        self._sessions: Dict[int, _RouterSession] = {}
        self._session_seq = 0
        self._wire_seq = 0
        self._refresh_lock = threading.Lock()
        self._stopped = False
        self._relay_errors = 0

        handles = supervisor.workers()
        versions = {
            str(handle.banner.get("zoo_version")) for handle in handles
        }
        if len(versions) != 1:
            raise ReproError(
                f"workers disagree on zoo version at startup: {sorted(versions)}"
            )
        self._version_key = versions.pop()
        self.recovered_count = sum(
            int(handle.banner.get("recovered", 0)) for handle in handles
        )
        self.num_models = int(handles[0].banner.get("num_models", 0))
        # Eager links: a worker's startup-recovered requests are adopted
        # by its first connection — which must be the router's relay, so
        # their event streams park here until the first client attaches.
        for name in supervisor.names:
            self._link(name)

    # ------------------------------------------------------------------ #
    # link + relay management
    # ------------------------------------------------------------------ #
    def _link(self, name: str) -> _WorkerLink:
        with self._lock:
            link = self._links.get(name)
            if link is not None and not link.dead:
                return link
            creating = self._link_locks.setdefault(name, threading.Lock())
        with creating:
            with self._lock:
                link = self._links.get(name)
                if link is not None and not link.dead:
                    return link
            handle = self._supervisor.ensure_alive(name, timeout=_RESUBMIT_TIMEOUT)
            if handle is None:
                raise WorkerLostError(f"worker {name!r} is not available")
            conn = JsonLinesConnection("127.0.0.1", handle.port, timeout=30.0)
            link = _WorkerLink(name, handle.generation, conn)
            with self._lock:
                self._links[name] = link
            link.thread = threading.Thread(
                target=self._relay, args=(link,),
                name=f"repro-relay-{name}", daemon=True,
            )
            link.thread.start()
            return link

    def _relay(self, link: _WorkerLink) -> None:
        while True:
            payload = link.conn.recv()
            if payload is None:
                break
            try:
                self._dispatch(link, payload)
            except Exception as error:  # noqa: BLE001 — a relay must never die
                with self._lock:
                    self._relay_errors += 1
                logger.exception(
                    "relay from worker %r failed to dispatch wire id %r",
                    link.name, payload.get("id"),
                )
                self._fail_relayed(link.name, payload.get("id"), error)
        link.dead = True
        self._on_link_down(link)

    def _fail_relayed(self, worker: str, wire_id, error: Exception) -> None:
        """Give the client of an undeliverable event its terminal event.

        The route closes with a structured ``internal`` failure, and the
        session forgets the wire id, so the worker's later events for the
        request (its result included) are dropped instead of following
        the ``failed`` event — the client sees exactly one terminal event.
        """
        with self._lock:
            route = self._routes.get((worker, wire_id))
            if route is None:
                return
            if route.session is not None:
                route.session.wire_to_client.pop((worker, wire_id), None)
        self._fail_route(route, InternalError(
            f"internal: relaying {wire_id!r} from worker {worker!r} "
            f"failed: {error!r}"
        ))

    def _dispatch(self, link: _WorkerLink, payload: Dict[str, object]) -> None:
        wire_id = payload.get("id")
        key = (link.name, wire_id)
        with self._lock:
            collector = self._collectors.get(key)
        if collector is not None:
            collector.add(link.name, payload)
            return
        with self._lock:
            route = self._routes.get(key)
        if route is None and isinstance(wire_id, str) and (
            wire_id.startswith("recovered-")
        ):
            # A worker's own startup recovery streaming unprompted: adopt.
            route = self._register_recovered(link.name, wire_id, None)
        if route is not None:
            self._route_event(route, payload)
            return
        self._fallback_deliver(link.name, wire_id, payload)

    def _fallback_deliver(self, worker, wire_id, payload) -> None:
        """Deliver a reply whose route already closed (e.g. a poll racing
        its request's completion) straight to the owning session."""
        if not isinstance(wire_id, str) or not wire_id.startswith("c"):
            return
        index_text = wire_id[1:].split("-", 1)[0]
        if not index_text.isdigit():
            return
        with self._lock:
            session = self._sessions.get(int(index_text))
            if session is None:
                return
            client_id = session.wire_to_client.get((worker, wire_id))
        if client_id is None:
            return
        payload = dict(payload)
        payload["id"] = client_id
        if payload.get("event") == "error" and "unknown request id" in str(
            payload.get("message", "")
        ):
            payload["message"] = f"unknown request id {client_id!r}"
        session.emit(payload)

    def _route_event(self, route: _Route, payload: Dict[str, object]) -> None:
        event = payload.get("event")
        if event == "accepted":
            if route.suppress_accepted:
                # Resubmission echo after a worker restart — the client
                # already saw this request accepted once.
                route.suppress_accepted = False
                return
            route.accepted = True
        payload = dict(payload)
        payload["id"] = route.client_id
        if event in ("result", "failed"):
            with self._lock:
                self._routes.pop((route.worker, route.wire_id), None)
                if route.session is not None:
                    route.session.by_client.pop(route.client_id, None)
            if route.tenant is not None:
                epochs = payload.get("runtime_epochs") or 0.0
                try:
                    epochs = float(epochs)
                except (TypeError, ValueError):
                    epochs = 0.0
                self._admission.release(route.tenant, epochs=epochs)
        self._deliver(route, payload)

    def _deliver(self, route: _Route, payload: Dict[str, object]) -> None:
        with self._lock:
            session = route.session
            if session is None:
                route.buffer.append(payload)
                return
        session.emit(payload)

    def _on_link_down(self, link: _WorkerLink) -> None:
        """A worker connection hit EOF: heal it.

        Fail in-flight broadcast ops, wait for the supervisor to produce
        the replacement worker, reconnect, and resubmit every routed
        request verbatim — the replacement replays their journals, so the
        resubmissions charge nothing already paid for and complete under
        their original client ids.
        """
        with self._lock:
            if self._stopped:
                return
            if self._links.get(link.name) is link:
                self._links.pop(link.name, None)
            affected = [
                route for (worker, _), route in list(self._routes.items())
                if worker == link.name
            ]
            collectors = [
                collector for (worker, _), collector in self._collectors.items()
                if worker == link.name
            ]
        for collector in collectors:
            collector.fail(link.name)
        if not affected:
            return
        replacement = self._supervisor.await_replacement(
            link.name, link.generation, timeout=_RESUBMIT_TIMEOUT
        )
        lost = WorkerLostError(
            f"worker {link.name!r} died and no replacement came up"
        )
        if replacement is None:
            for route in affected:
                self._fail_route(route, lost)
            return
        try:
            new_link = self._link(link.name)
        except ReproError:
            for route in affected:
                self._fail_route(route, lost)
            return
        for route in affected:
            if route.message is None:
                # A recovered adoptee has no original message to replay;
                # losing its worker twice is terminal.
                self._fail_route(route, WorkerLostError(
                    f"worker {link.name!r} died again while recovering "
                    f"request {route.client_id!r}"
                ))
                continue
            route.suppress_accepted = route.accepted
            try:
                new_link.send(route.message)
            except OSError:
                self._fail_route(route, lost)

    def _fail_route(self, route: _Route, error: ReproError) -> None:
        with self._lock:
            existing = self._routes.pop((route.worker, route.wire_id), None)
            if existing is not route:
                return  # already terminal
            if route.session is not None:
                route.session.by_client.pop(route.client_id, None)
        if route.tenant is not None:
            self._admission.release(route.tenant)
        payload: Dict[str, object] = {
            "event": "failed", "id": route.client_id, **error_payload(error)
        }
        if route.target is not None:
            payload["target"] = route.target
        self._deliver(route, payload)

    # ------------------------------------------------------------------ #
    # recovered-request adoption
    # ------------------------------------------------------------------ #
    def _register_recovered(
        self, worker: str, worker_rid: str, session: Optional[_RouterSession]
    ) -> _Route:
        """Route table entry for a worker-recovered request.

        Worker-local recovered ids (``recovered-<n>``) are rewritten to
        ``recovered-<worker>-<n>`` so ids stay unique across the fleet
        (clients only rely on the ``recovered-`` prefix).  Without a
        session the route parks and buffers its events until the first
        client attaches.
        """
        suffix = worker_rid[len("recovered-"):]
        client_id = f"recovered-{worker}-{suffix}"
        with self._lock:
            key = (worker, worker_rid)
            route = self._routes.get(key)
            if route is None:
                if session is None:
                    session = self._earliest_session()
                route = _Route(worker, worker_rid, client_id, session,
                               None, None, None)
                self._routes[key] = route
                if session is None:
                    self._parked.append(route)
            elif session is not None and route.session is None:
                self._attach_route(route, session)
            if route.session is not None:
                route.session.by_client[route.client_id] = key
                route.session.wire_to_client[key] = route.client_id
                buffered, route.buffer = route.buffer, []
            else:
                buffered = []  # still parked: keep buffering
        for payload in buffered:
            route.session.emit(payload)
        return route

    def _earliest_session(self) -> Optional[_RouterSession]:
        sessions = [
            session for session in self._sessions.values() if not session.closed
        ]
        return min(sessions, key=lambda s: s.index) if sessions else None

    def _attach_route(self, route: _Route, session: _RouterSession) -> None:
        # caller holds the lock
        route.session = session
        session.by_client[route.client_id] = (route.worker, route.wire_id)
        session.wire_to_client[(route.worker, route.wire_id)] = route.client_id

    def _adopt_parked(self, session: _RouterSession) -> None:
        """Hand parked (startup-recovered) event streams to ``session``."""
        with self._lock:
            parked, self._parked = self._parked, []
            flushes = []
            for route in parked:
                self._attach_route(route, session)
                buffered, route.buffer = route.buffer, []
                flushes.append(buffered)
        for buffered in flushes:
            for payload in buffered:
                session.emit(payload)

    # ------------------------------------------------------------------ #
    # ops
    # ------------------------------------------------------------------ #
    def handle_line(
        self, line: str, session: _RouterSession
    ) -> Optional[Dict[str, object]]:
        """Dispatch one protocol line; return the immediate response (if any)."""
        return self._dispatch_line(line, session)

    def _op_ping(self, message, session) -> Dict[str, object]:
        return {
            "event": "pong",
            "workers": len(self._supervisor.workers()),
            "sessions": len(self._sessions),
        }

    def _next_wire_id(self, session: _RouterSession, *, prefix: str = "") -> str:
        with self._lock:
            self._wire_seq += 1
            return f"c{session.index}-{prefix}{self._wire_seq}"

    def _op_select(self, message, session) -> Optional[Dict[str, object]]:
        problem = select_field_error(message)
        if problem is not None:
            return {"event": "error", "id": message.get("id"), "message": problem}
        target = message["target"]
        tenant = message.get("tenant")
        tenant = tenant if isinstance(tenant, str) and tenant else "default"
        # Everything that can raise runs before admission: a slot taken
        # here is released only through the route registered below.
        worker = self._ring.lookup(route_key(self._version_key, target))
        self._admission.admit(tenant)  # raises -> structured failed event
        wire_id = self._next_wire_id(session)
        client_id = message.get("id")
        if client_id is None:
            client_id = f"req-{wire_id}"
        forwarded = dict(message)
        forwarded["id"] = wire_id
        forwarded.pop("tenant", None)
        route = _Route(worker, wire_id, client_id, session, forwarded,
                       tenant, target)
        with self._lock:
            self._routes[(worker, wire_id)] = route
            session.by_client[client_id] = (worker, wire_id)
            session.wire_to_client[(worker, wire_id)] = client_id
        try:
            link = self._link(worker)
        except ReproError as error:
            self._fail_route(route, error)
            return None
        try:
            link.send(forwarded)
        except OSError:
            pass  # the relay's EOF recovery owns resubmission
        return None  # the worker's accepted event answers asynchronously

    def _op_poll(self, message, session) -> Optional[Dict[str, object]]:
        request_id = message.get("id")
        with self._lock:
            entry = session.by_client.get(request_id)
        if entry is None:
            return {"event": "error", "id": request_id,
                    "message": f"unknown request id {request_id!r}"}
        worker, wire_id = entry
        try:
            link = self._link(worker)
            link.send({"op": "poll", "id": wire_id,
                       "best": bool(message.get("best"))})
        except (ReproError, OSError):
            return {"event": "error", "id": request_id,
                    "message": f"unknown request id {request_id!r}"}
        return None

    def _broadcast(self, payload: Dict[str, object], callback) -> None:
        """Send ``payload`` to every worker; ``callback(replies)`` merges.

        A worker that is unreachable (or dies before answering — the
        relay's EOF handler fails its pending collectors) contributes
        ``None`` to ``replies``.
        """
        workers = list(self._supervisor.names)
        with self._lock:
            self._wire_seq += 1
            wire_id = f"b{self._wire_seq}"

        def done(replies: Dict[str, Optional[Dict[str, object]]]) -> None:
            with self._lock:
                for name in workers:
                    self._collectors.pop((name, wire_id), None)
            callback(replies)

        collector = _Collector(workers, done)
        with self._lock:
            for name in workers:
                self._collectors[(name, wire_id)] = collector
        for name in workers:
            try:
                link = self._link(name)
                link.send({**payload, "id": wire_id})
            except (ReproError, OSError):
                collector.fail(name)

    def _op_resume(self, message, session) -> None:
        self._adopt_parked(session)  # startup recoveries join this stream
        request_id = message.get("id")

        def merged(replies) -> None:
            count = 0
            requests: List[Dict[str, object]] = []
            for worker, reply in sorted(replies.items()):
                if not reply:
                    continue
                count += int(reply.get("count", 0))
                for entry in reply.get("requests", []):
                    worker_rid = str(entry.get("id"))
                    route = self._register_recovered(worker, worker_rid, session)
                    requests.append({**entry, "id": route.client_id})
            session.emit(echo_id({
                "event": "recovered", "count": count, "requests": requests,
            }, request_id))

        self._broadcast({"op": "resume"}, merged)
        return None

    def _op_stats(self, message, session) -> None:
        request_id = message.get("id")

        def merged(replies) -> None:
            stats = {
                "router": self.stats(),
                "workers": {
                    worker: (reply or {}).get("stats")
                    for worker, reply in sorted(replies.items())
                },
            }
            session.emit(echo_id({"event": "stats", "stats": stats}, request_id))

        self._broadcast({"op": "stats"}, merged)
        return None

    def _op_refresh(self, message, session) -> Optional[Dict[str, object]]:
        """Zero-downtime zoo refresh: apply worker by worker, then cut
        routing over to the new version for subsequent admissions."""
        added = message.get("added") or []
        removed = message.get("removed") or []
        request_id = message.get("id")
        if not added and not removed:
            return {"event": "error", "id": request_id,
                    "message": "refresh needs 'added' and/or 'removed' model names"}
        with self._refresh_lock:
            replies: Dict[str, Dict[str, object]] = {}
            for handle in self._supervisor.workers():
                # A dedicated control connection per worker: the refresh
                # reply must not interleave with the relay's event stream
                # bookkeeping, and refreshes are rare enough that the
                # extra connection is free.
                with JsonLinesConnection(
                    "127.0.0.1", handle.port, timeout=600.0
                ) as conn:
                    conn.send({"op": "refresh", "added": added,
                               "removed": removed, "id": "refresh"})
                    while True:
                        reply = conn.recv()
                        if reply is None:
                            raise WorkerLostError(
                                f"worker {handle.name!r} died mid-refresh"
                            )
                        if reply.get("event") in ("refreshed", "failed", "error"):
                            break
                if reply.get("event") != "refreshed":
                    # Propagate the first worker's failure verbatim; the
                    # fleet has not diverged (failures roll no one forward).
                    reply = dict(reply)
                    if request_id is not None:
                        reply["id"] = request_id
                    else:
                        reply.pop("id", None)
                    return reply
                replies[handle.name] = reply
            versions = {str(reply["zoo_version"]) for reply in replies.values()}
            if len(versions) != 1:
                return {"event": "error", "id": request_id,
                        "message": f"workers diverged on refresh: {sorted(versions)}"}
            old_version, self._version_key = self._version_key, versions.pop()
        first = next(iter(replies.values()))
        return {
            "event": "refreshed",
            "zoo_version": self._version_key,
            "old_version": old_version,
            "added": first.get("added"),
            "removed": first.get("removed"),
            "reclustered": first.get("reclustered"),
            "workers": len(replies),
        }

    # ------------------------------------------------------------------ #
    # stream hooks
    # ------------------------------------------------------------------ #
    def _attach(self, out) -> _RouterSession:
        with self._lock:
            index = self._session_seq
            self._session_seq += 1
            session = _RouterSession(index, out)
            self._sessions[index] = session
        # The first stream adopts whatever startup recovery parked, the
        # same way the single-process front end hands recovered handles
        # to its first connection.
        self._adopt_parked(session)
        return session

    def _drain(self, session: _RouterSession) -> None:
        """Wait out the session's in-flight requests, then abandon
        stragglers with the same ShutdownTimeout failure a single
        process emits."""
        deadline = time.monotonic() + _DRAIN_TIMEOUT
        while time.monotonic() < deadline:
            with self._lock:
                if not session.by_client:
                    return
            time.sleep(_DRAIN_POLL)
        with self._lock:
            leftovers = [
                self._routes.get(key)
                for key in list(session.by_client.values())
            ]
        for route in leftovers:
            if route is None:
                continue
            with self._lock:
                existing = self._routes.pop((route.worker, route.wire_id), None)
                if existing is not route:
                    continue  # completed while we were collecting
                if route.session is not None:
                    route.session.by_client.pop(route.client_id, None)
            if route.tenant is not None:
                self._admission.release(route.tenant)
            payload: Dict[str, object] = {
                "event": "failed", "id": route.client_id,
                "error": {"code": "timeout", "type": "ShutdownTimeout",
                          "message": "request still running at shutdown"},
            }
            if route.target is not None:
                payload["target"] = route.target
            self._deliver(route, payload)

    def _detach(self, session: _RouterSession) -> None:
        with self._lock:
            session.closed = True
            self._sessions.pop(session.index, None)
            stale = [
                self._routes.get(key) for key in list(session.by_client.values())
            ]
            session.by_client.clear()
        for route in stale:
            if route is None:
                continue
            with self._lock:
                self._routes.pop((route.worker, route.wire_id), None)
            if route.tenant is not None:
                self._admission.release(route.tenant)

    def close(self) -> None:
        """Stop relaying (the owner stops the supervisor itself)."""
        with self._lock:
            self._stopped = True
            links = list(self._links.values())
            self._links.clear()
        for link in links:
            link.conn.close()

    def stats(self) -> Dict[str, object]:
        """Router-side counters: fleet, pending routes, admission, relay errors.

        ``relay_errors`` counts worker events whose dispatch raised; the
        relay logs each one, fails the client's request with the
        ``internal`` error code and keeps reading.
        """
        with self._lock:
            pending_by_worker: Dict[str, int] = {}
            for (worker, _), _route in self._routes.items():
                pending_by_worker[worker] = pending_by_worker.get(worker, 0) + 1
            relay_errors = self._relay_errors
        return {
            "workers": len(self._supervisor.names),
            "zoo_version": self._version_key,
            "recovered": self.recovered_count,
            "pending_by_worker": pending_by_worker,
            "relay_errors": relay_errors,
            "admission": self._admission.stats(),
            "supervisor": self._supervisor.stats(),
        }

    # ------------------------------------------------------------------ #
    @property
    def version_key(self) -> str:
        """Zoo version new admissions route under (moves on refresh)."""
        return self._version_key

    def worker_summaries(self) -> List[Dict[str, object]]:
        """Banner-friendly list of the live workers (name, pid, port)."""
        return [
            {"name": handle.name, "pid": handle.pid, "port": handle.port,
             "generation": handle.generation}
            for handle in self._supervisor.workers()
        ]
