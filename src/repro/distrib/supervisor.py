"""Worker lifecycle for the routed serving tier: spawn, watch, restart.

The supervisor owns N worker processes (each a plain ``python -m repro
serve --port 0``, see :mod:`repro.distrib.worker`) and keeps the set
alive:

* **Spawn** — workers start concurrently; each one's readiness signal is
  its serving banner line (printed only after its TCP port is bound), so
  there are no fixed sleeps anywhere in the path.
* **Heartbeats** — a monitor thread polls process liveness every
  ``heartbeat_interval`` seconds and, every few beats, sends a real
  ``ping`` over TCP so a *hung* worker (alive but not serving) is caught
  too.  Two consecutive failed pings count as death.
* **SIGKILL detection + restart** — a dead worker is respawned under the
  same name and store slice, with its **generation** bumped; the router's
  relay threads block in :meth:`await_replacement` and resubmit the dead
  worker's in-flight requests against the replacement, whose journal
  replay restores every charged step without retraining.
* **Failpoint propagation** — when the deployment itself was armed with
  the ``REPRO_CRASH_SITE`` environment failpoint (the fault-injection
  harness's crash model), a worker dying with the failpoint's exit code
  means *the deployment* was told to die at that durability boundary: the
  supervisor propagates the exit instead of restarting, so a routed
  serve process looks exactly like a single-process one to the crash
  tests.  Restarted workers always get the failpoint stripped from their
  environment — a crash site fires at most once per worker name, never a
  crash loop.
"""

from __future__ import annotations

import logging
import os
import select
import subprocess
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.distrib.wire import ping
from repro.distrib.worker import PARENT_PID_ENV
from repro.utils.exceptions import ConfigurationError

logger = logging.getLogger(__name__)

#: Exit code of the environment failpoint (mirrors the harness constant).
_FAILPOINT_EXIT_CODE = 137

#: Environment variables of the crash failpoint, stripped from restarts.
_FAILPOINT_ENV = ("REPRO_CRASH_SITE", "REPRO_CRASH_AT")

#: Seconds a heartbeat ping waits for a worker's answer.
_PING_TIMEOUT = 5.0

#: Seconds a spawned worker has to print its serving banner.
_STARTUP_TIMEOUT = 120.0

#: Restarts after which a worker name is marked failed instead of respawned.
_MAX_RESTARTS = 8


class WorkerHandle:
    """One live worker process: its Popen, bound port and banner."""

    def __init__(self, name: str, proc, port: int, banner: Dict[str, object],
                 generation: int) -> None:
        self.name = name
        self.proc = proc
        self.port = port
        self.banner = banner
        self.generation = generation

    @property
    def pid(self) -> int:
        return self.proc.pid

    def alive(self) -> bool:
        return self.proc.poll() is None


class _WorkerState:
    """Supervisor-internal bookkeeping of one worker name."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.handle: Optional[WorkerHandle] = None
        self.generation = 0
        self.restarts = 0
        self.failed = False
        self.ping_strikes = 0
        self.monitor_errors = 0


class WorkerSupervisor:
    """Spawn and babysit the worker fleet of one routed deployment.

    Parameters
    ----------
    names:
        Worker names, e.g. ``["w0", "w1"]``.  Names are identity: the
        replacement of a dead ``w1`` is spawned as ``w1`` on ``w1``'s
        plan-store slice, which is what makes journal recovery line up
        with deterministic routing.
    argv_for:
        ``argv_for(name, restart=...)`` builds a worker's command line
        (see :func:`repro.distrib.worker.worker_argv`); ``restart=True``
        must suppress the worker's own startup recovery.
    log_dir:
        Directory for per-worker stderr logs (``<name>.log``, appended
        across generations).  ``None`` discards stderr.
    """

    def __init__(
        self,
        names: List[str],
        argv_for: Callable[..., List[str]],
        *,
        log_dir: Optional[str] = None,
        heartbeat_interval: float = 0.5,
        ping_every: int = 4,
    ) -> None:
        if not names:
            raise ConfigurationError("supervisor needs at least one worker name")
        if len(set(names)) != len(names):
            raise ConfigurationError("worker names must be unique")
        self._argv_for = argv_for
        self._log_dir = Path(log_dir) if log_dir is not None else None
        self.heartbeat_interval = float(heartbeat_interval)
        self._ping_every = max(1, int(ping_every))
        self._lock = threading.RLock()
        self._changed = threading.Condition(self._lock)
        self._states: Dict[str, _WorkerState] = {
            name: _WorkerState(name) for name in names
        }
        self._stopped = False
        self._monitor: Optional[threading.Thread] = None
        self._beats = 0
        #: Deployment-level failpoint arming, captured at construction: a
        #: worker dying with the failpoint exit code under an armed
        #: environment is a *deployment* crash to propagate, not a fault
        #: to heal.
        self._armed_failpoint = bool(os.environ.get("REPRO_CRASH_SITE"))

    # ------------------------------------------------------------------ #
    # spawning
    # ------------------------------------------------------------------ #
    def _worker_env(self, *, restart: bool) -> Dict[str, str]:
        env = dict(os.environ)
        env[PARENT_PID_ENV] = str(os.getpid())
        if restart:
            for key in _FAILPOINT_ENV:
                env.pop(key, None)
        return env

    def _open_log(self, name: str):
        if self._log_dir is None:
            return subprocess.DEVNULL
        self._log_dir.mkdir(parents=True, exist_ok=True)
        return open(self._log_dir / f"{name}.log", "a", encoding="utf-8")

    def _read_banner(self, proc, name: str) -> Dict[str, object]:
        import json

        deadline = time.monotonic() + _STARTUP_TIMEOUT
        while time.monotonic() < deadline:
            remaining = max(0.0, deadline - time.monotonic())
            ready, _, _ = select.select([proc.stdout], [], [], min(remaining, 1.0))
            if not ready:
                if proc.poll() is not None:
                    break
                continue
            line = proc.stdout.readline()
            if not line:
                break
            return json.loads(line)
        raise RuntimeError(
            f"worker {name!r} died or hung before its banner "
            f"(exit={proc.poll()!r})"
        )

    def _spawn(self, name: str, generation: int, *, restart: bool) -> WorkerHandle:
        argv = self._argv_for(name, restart=restart)
        log = self._open_log(name)
        proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=log,
            env=self._worker_env(restart=restart),
            text=True,
        )
        if log is not subprocess.DEVNULL:
            log.close()  # the child holds its own descriptor now
        try:
            banner = self._read_banner(proc, name)
        except Exception:
            proc.kill()
            proc.wait(timeout=10)
            raise
        return WorkerHandle(name, proc, int(banner["port"]), banner, generation)

    def start(self) -> None:
        """Spawn every worker concurrently; then start the monitor thread."""
        errors: Dict[str, BaseException] = {}

        def _boot(state: _WorkerState) -> None:
            try:
                handle = self._spawn(state.name, 0, restart=False)
            except BaseException as error:  # noqa: BLE001 — reported below
                errors[state.name] = error
                return
            with self._lock:
                state.handle = handle

        threads = [
            threading.Thread(target=_boot, args=(state,), daemon=True)
            for state in self._states.values()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=_STARTUP_TIMEOUT + 10)
        if errors:
            self.stop()
            name, error = next(iter(errors.items()))
            raise RuntimeError(f"worker {name!r} failed to start: {error}")
        self._monitor = threading.Thread(
            target=self._watch, name="repro-supervisor", daemon=True
        )
        self._monitor.start()

    # ------------------------------------------------------------------ #
    # monitoring + restart
    # ------------------------------------------------------------------ #
    def _watch(self) -> None:
        while True:
            with self._lock:
                if self._stopped:
                    return
                states = list(self._states.values())
            self._beats += 1
            ping_beat = self._beats % self._ping_every == 0
            for state in states:
                try:
                    self._check(state, ping_beat)
                except Exception:  # noqa: BLE001 — the monitor must never die
                    with self._lock:
                        state.monitor_errors += 1
                    logger.exception("monitor check of worker %r failed", state.name)
            time.sleep(self.heartbeat_interval)

    def _check(self, state: _WorkerState, ping_beat: bool) -> None:
        with self._lock:
            handle = state.handle
            if self._stopped or state.failed or handle is None:
                return
        code = handle.proc.poll()
        if code is not None:
            if code == _FAILPOINT_EXIT_CODE and self._armed_failpoint:
                # The deployment was armed to die at a durability
                # boundary and one of its workers just did: propagate, so
                # the routed tier honours the same crash contract as a
                # single process (skipping every finally/atexit, exactly
                # like the worker itself).
                os._exit(_FAILPOINT_EXIT_CODE)
            self._restart(state)
            return
        if ping_beat:
            try:
                ping("127.0.0.1", handle.port, timeout=_PING_TIMEOUT)
            except (OSError, TimeoutError):
                with self._lock:
                    state.ping_strikes += 1
                    strikes = state.ping_strikes
                if strikes >= 2:
                    # Alive but not serving: treat as dead.
                    handle.proc.kill()
                    handle.proc.wait(timeout=10)
                    self._restart(state)
            else:
                with self._lock:
                    state.ping_strikes = 0

    def _restart(self, state: _WorkerState) -> None:
        with self._lock:
            if self._stopped or state.failed:
                return
            if state.restarts >= _MAX_RESTARTS:
                state.failed = True
                state.handle = None
                self._changed.notify_all()
                return
            state.restarts += 1
            state.generation += 1
            state.ping_strikes = 0
            generation = state.generation
        try:
            handle = self._spawn(state.name, generation, restart=True)
        except Exception:
            logger.exception(
                "respawn of worker %r (generation %d) failed; marking it failed",
                state.name, generation,
            )
            with self._lock:
                state.failed = True
                state.handle = None
                self._changed.notify_all()
            return
        with self._lock:
            if self._stopped:
                handle.proc.kill()
                return
            state.handle = handle
            self._changed.notify_all()

    # ------------------------------------------------------------------ #
    # router-facing API
    # ------------------------------------------------------------------ #
    @property
    def names(self) -> List[str]:
        return sorted(self._states)

    def worker(self, name: str) -> Optional[WorkerHandle]:
        """Current handle of ``name`` (``None`` while dead or failed)."""
        with self._lock:
            state = self._states[name]
            return state.handle

    def workers(self) -> List[WorkerHandle]:
        """Live handles, in name order."""
        with self._lock:
            return [
                state.handle
                for _, state in sorted(self._states.items())
                if state.handle is not None
            ]

    def ensure_alive(self, name: str, *, timeout: float = 60.0) -> Optional[WorkerHandle]:
        """Handle of ``name``, waiting out an in-progress restart."""
        deadline = time.monotonic() + timeout
        with self._lock:
            state = self._states[name]
            while True:
                if state.failed or self._stopped:
                    return None
                handle = state.handle
                if handle is not None and handle.alive():
                    return handle
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self._changed.wait(timeout=remaining)

    def await_replacement(
        self, name: str, seen_generation: int, *, timeout: float = 120.0
    ) -> Optional[WorkerHandle]:
        """Block until ``name`` runs at a generation past ``seen_generation``.

        The router's relay calls this after a link EOF: the monitor will
        have noticed the death within one heartbeat and respawned the
        worker; the returned handle is the replacement to resubmit
        against.  Returns ``None`` when the worker is permanently failed,
        the supervisor stopped, or ``timeout`` passed.
        """
        deadline = time.monotonic() + timeout
        with self._lock:
            state = self._states[name]
            while True:
                if state.failed or self._stopped:
                    return None
                handle = state.handle
                if handle is not None and handle.generation > seen_generation:
                    return handle
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self._changed.wait(timeout=remaining)

    def stop(self) -> None:
        """Kill every worker and stop monitoring (idempotent).

        Teardown is best effort but never silent: a worker that cannot be
        signalled or is still alive 10 s after SIGKILL, and a monitor
        thread that outlives its join, are logged, and ``stop`` returns.
        """
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            handles = [
                state.handle for state in self._states.values()
                if state.handle is not None
            ]
            self._changed.notify_all()
        for handle in handles:
            try:
                handle.proc.kill()
            except OSError:
                logger.exception("could not kill worker %r (pid %d)", handle.name, handle.pid)
        for handle in handles:
            try:
                handle.proc.wait(timeout=10)
            except Exception:  # noqa: BLE001 — best-effort teardown, logged
                logger.exception(
                    "waiting for worker %r (pid %d) to exit after SIGKILL failed",
                    handle.name, handle.pid,
                )
        monitor = self._monitor
        if monitor is not None and monitor is not threading.current_thread():
            monitor.join(timeout=5.0)
            if monitor.is_alive():
                logger.error("monitor thread %r still running 5 s after stop", monitor.name)

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """Per-worker liveness: pid, port, generation, restart count.

        ``monitor_errors`` counts heartbeat checks of the worker that
        raised; the monitor logs each one and keeps watching.
        """
        with self._lock:
            report = {}
            for name, state in sorted(self._states.items()):
                handle = state.handle
                report[name] = {
                    "alive": handle is not None and handle.alive(),
                    "pid": handle.pid if handle is not None else None,
                    "port": handle.port if handle is not None else None,
                    "generation": state.generation,
                    "restarts": state.restarts,
                    "failed": state.failed,
                    "monitor_errors": state.monitor_errors,
                }
            return report
