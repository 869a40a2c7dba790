"""The supervisor's monitor survives a raising check; its teardown is never silent."""

import json
import logging
import subprocess
import sys

from repro.distrib.supervisor import WorkerSupervisor

#: A stand-in worker: print a serving banner, then idle until killed.
_IDLE_WORKER = (
    "import json, sys, time; "
    f"print(json.dumps({json.dumps({'port': 0})}), flush=True); "
    "time.sleep(600)"
)


def _idle_argv(name, *, restart):
    return [sys.executable, "-c", _IDLE_WORKER]


class TestMonitorContainment:
    def test_raising_check_leaves_monitor_restarting(self):
        supervisor = WorkerSupervisor(
            ["w0"], _idle_argv, heartbeat_interval=0.05, ping_every=10**6
        )
        real_check = supervisor._check
        raised = []

        def check_raising_once(state, ping_beat):
            if not raised:
                raised.append(state.name)
                raise RuntimeError("injected heartbeat failure")
            real_check(state, ping_beat)

        supervisor._check = check_raising_once
        supervisor.start()
        try:
            first = supervisor.worker("w0")
            first.proc.kill()
            first.proc.wait(timeout=10)
            replacement = supervisor.await_replacement("w0", first.generation, timeout=30)
            assert raised == ["w0"]
            assert supervisor._monitor.is_alive()
            assert replacement is not None and replacement.alive()
            stats = supervisor.stats()["w0"]
            assert stats["monitor_errors"] == 1
            assert stats["restarts"] == 1 and not stats["failed"]
        finally:
            supervisor.stop()


class TestStopTeardown:
    def test_worker_outliving_sigkill_is_logged_and_stop_returns(self, caplog):
        supervisor = WorkerSupervisor(
            ["w0"], _idle_argv, heartbeat_interval=0.05, ping_every=10**6
        )
        supervisor.start()
        handle = supervisor.worker("w0")
        real_wait = handle.proc.wait

        def wait_timing_out(timeout=None):
            raise subprocess.TimeoutExpired(handle.proc.args, timeout)

        handle.proc.wait = wait_timing_out
        try:
            with caplog.at_level(logging.ERROR, logger="repro.distrib.supervisor"):
                supervisor.stop()
        finally:
            real_wait(timeout=10)  # reap the killed worker
        messages = [record.getMessage() for record in caplog.records]
        assert (
            f"waiting for worker 'w0' (pid {handle.pid}) to exit after SIGKILL failed"
            in messages
        )
        assert not supervisor._monitor.is_alive()
