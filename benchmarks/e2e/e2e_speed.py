"""Host-speed probes of the end-to-end benchmark.

On a shared cloud host each core's speed changes by up to 1.8x for
seconds at a time, independently of the other core, in two ways.  Other
tenants share the physical cores, so the same work takes more CPU time;
and the hypervisor takes whole time slices away (steal time), which CPU
time leaves out but wall time does not: in one stretch serve-hot's wall
times doubled while CPU-time probes read unchanged.  The benchmark runs
one probe process per core its work runs on.  Every
:data:`PERIOD_S` the probe times a fixed piece of work (a pure-Python
loop and a small numpy kernel) in its own thread CPU time, which our
own load sharing the core does not inflate, and reads its core's busy
and steal ticks from ``/proc/stat``.  It appends ``<monotonic seconds>
<probe seconds> <busy ticks> <steal ticks>`` to a file.
``e2e_harness.speed_factor`` turns the samples taken around an
operation into the factor that scales its duration to the reference
speed.  A probe takes about 2.8 ms, so it holds its core about 3% of
the time, the same share in every run.

    python3 benchmarks/e2e/e2e_speed.py CORE OUT_FILE    # until SIGTERM
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: Seconds between probes.
PERIOD_S = 0.1
#: Size of the probe's two halves.
PY_ITERATIONS = 10_000
NP_ROUNDS = 10
NP_SIZE = 128


def probe_seconds(matrix) -> float:
    """Thread CPU seconds of one probe: a Python loop, then a numpy kernel."""
    import numpy as np

    started = time.thread_time()
    total = 0
    for i in range(PY_ITERATIONS):
        total += i * i
    x = matrix
    for _ in range(NP_ROUNDS):
        x = np.tanh(x @ matrix * 0.01)
    return time.thread_time() - started


def core_ticks(core: int) -> Tuple[int, int]:
    """Busy and steal ticks of ``core`` so far, from ``/proc/stat``."""
    prefix = f"cpu{core} "
    with open("/proc/stat", encoding="ascii") as stat:
        for line in stat:
            if line.startswith(prefix):
                user, nice, system, _idle, _iowait, irq, softirq, steal = map(
                    int, line.split()[1:9])
                return user + nice + system + irq + softirq, steal
    return 0, 0


def main(argv: Sequence[str]) -> int:
    import numpy as np

    core, out = int(argv[0]), Path(argv[1])
    os.sched_setaffinity(0, {core})
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    matrix = np.random.default_rng(0).random((NP_SIZE, NP_SIZE))
    with open(out, "w", encoding="utf-8") as handle:
        while not stop:
            started = time.perf_counter()
            probe = probe_seconds(matrix)
            busy, steal = core_ticks(core)
            handle.write(f"{started:.6f} {probe:.9f} {busy} {steal}\n")
            handle.flush()
            time.sleep(PERIOD_S)
    return 0


class Speedometer:
    """One probe process per core for the lifetime of a ``with`` block."""

    def __init__(self, cores: Sequence[int], work_dir: Path, env: Dict[str, str]) -> None:
        self._files = {core: work_dir / f"speed-{core}.txt" for core in cores}
        self._env = env
        self._procs: List[subprocess.Popen] = []

    def __enter__(self) -> "Speedometer":
        for core, path in self._files.items():
            self._procs.append(subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), str(core), str(path)],
                env=self._env, stdin=subprocess.DEVNULL,
            ))
        # Let every probe write its first samples before the work starts.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and not all(
                path.exists() and path.stat().st_size > 60 for path in self._files.values()):
            time.sleep(0.05)
        return self

    def __exit__(self, *exc) -> None:
        for proc in self._procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self._procs:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10.0)

    def samples(self) -> Dict[int, List[tuple]]:
        """``{core: [(monotonic s, probe s, busy ticks, steal ticks), ...]}`` in time order."""
        out: Dict[int, List[tuple]] = {}
        for core, path in self._files.items():
            rows = []
            if path.exists():
                for line in path.read_text(encoding="utf-8").splitlines():
                    parts = line.split()
                    if len(parts) == 4:  # a probe stopped mid-write leaves a short line
                        rows.append((float(parts[0]), float(parts[1]),
                                     int(parts[2]), int(parts[3])))
            out[core] = rows
        return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
