"""End-to-end benchmark of the two-phase model-selection system.

Four workloads, each run in its own subprocess and measured from outside
(the serve wire protocol, the ``stats`` op, ``/proc``, and timed calls
into public functions); see ``benchmarks/e2e/README.md``::

    python3 benchmarks/e2e/run.py --workload serve-hot --seed 3
    python3 benchmarks/e2e/run.py --workload serve-hot --workload zoo-scale --out run.json
    python3 benchmarks/e2e/run.py --workload zoo-scale --trace 1   # per-layer table
    python3 benchmarks/e2e/run.py compare parent/ change/           # bounds verdicts
    python3 benchmarks/e2e/run.py baseline set-a/ set-b/            # medians, quartiles
    python3 benchmarks/e2e/run.py --regen-expected                  # expected answers

Time metrics are scaled to a reference host speed measured by probes on
the cores the workload runs on (``e2e_speed.py``).  Every metric is printed
with its unit and sample count; the last line of standard output is one
JSON object (``correct``, ``attempted``, ``failed``, ``metrics``).  Any
wrong answer, failed op or surviving server process makes the exit code
non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import e2e_harness as h
from e2e_speed import Speedometer

#: The whole command must finish within this many seconds.
DEADLINE_SECONDS = 170.0
_SERVE = {"serve-hot", "serve-churn"}
#: Cores (``h.core`` indices) that carry each workload's measured work
#: and are probed for host speed.  The in-process workloads are pinned
#: to core 0; served processes float over both cores.
PROBED_CORES = {"serve-hot": (0, 1), "serve-churn": (0, 1), "paper-table6": (0,), "zoo-scale": (0,)}


def load_benchmark() -> Dict[str, object]:
    return json.loads((h.REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return max(1.0, self.end - time.monotonic())


# --------------------------------------------------------------------------- #
# one workload run
# --------------------------------------------------------------------------- #
def _spawn(argv: List[str], env: Dict[str, str]) -> subprocess.Popen:
    return subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=sys.stderr, env=env, text=True,
        cwd=str(h.REPO_ROOT), start_new_session=True,
    )


def _wait_ready(proc: subprocess.Popen, timeout: float) -> Optional[float]:
    """Monotonic time at which the child printed READY; ``None`` if it never did."""
    holder: List[tuple] = []
    reader = threading.Thread(
        target=lambda: holder.append((proc.stdout.readline(), time.perf_counter())), daemon=True)
    reader.start()
    reader.join(timeout)
    if holder and holder[0][0].strip() == "READY":
        return holder[0][1]
    return None


def _finish_child(proc: subprocess.Popen, timeout: float) -> Optional[int]:
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    finally:
        if proc.stdout is not None:
            proc.stdout.close()


def _run_child(name: str, common: List[str], env: Dict[str, str], deadline: Deadline,
               errors: List[str]) -> Tuple[Optional[int], List[list]]:
    """Run the workload script; return its exit code and its set-up spans.

    The serve script times its server's launch itself; the in-process
    script is pinned to core 0 here and its set-up runs from launch to
    its READY line.
    """
    if name in _SERVE:
        proc = _spawn([sys.executable, str(h.E2E_DIR / "e2e_serve.py"), *common], env)
        return _finish_child(proc, deadline.left()), []
    started = time.perf_counter()
    proc = _spawn([sys.executable, str(h.E2E_DIR / "e2e_offline.py"), *common], env)
    h.pin(proc.pid, {h.core(0)})
    ready = _wait_ready(proc, deadline.left())
    if ready is None:
        errors.append(f"{name}: no READY from the workload process")
        return _finish_child(proc, 5.0), []
    return _finish_child(proc, deadline.left()), [[started, ready]]


def run_workload(
    name: str, *, seed: int, seconds: float, traced: bool, deadline: Deadline
) -> Dict[str, object]:
    """Run one workload in its own subprocess; return its record."""
    work = h.WORK_DIR / f"{name}-{os.getpid()}-{int(time.time() * 1000)}"
    work.mkdir(parents=True)
    trace_dir = work / "trace" if traced else None
    record_path = work / "record.json"
    errors: List[str] = []
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--work-dir", str(work), "--record", str(record_path)]
    if trace_dir is not None and name in _SERVE:
        common += ["--trace-dir", str(trace_dir)]
    env = h.child_env(work, trace_dir=None if name in _SERVE else trace_dir)
    cores = sorted({h.core(index) for index in PROBED_CORES[name]})
    setup: List[list] = []
    try:
        with Speedometer(cores, work, h.child_env(work)) as speedometer:
            code, setup = _run_child(name, common, env, deadline, errors)
        if code is None:
            errors.append(f"{name}: workload process exceeded the time limit")
        elif code != 0:
            errors.append(f"{name}: workload process exited with code {code}")
    finally:
        survivors = h.kill_tagged(work)
        if survivors:
            errors.append(f"{name}: processes outlived the run and were killed: {survivors}")

    record: Dict[str, object] = {"attempted": 0, "failed": 0, "errors": [], "metrics": {}}
    if record_path.exists():
        record = json.loads(record_path.read_text(encoding="utf-8"))
    record["errors"] = list(record.get("errors", [])) + errors
    timings = record.setdefault("timings", {})
    timings["setup"] = timings.get("setup", []) + setup
    samples = speedometer.samples()
    try:
        metrics, unscaled = h.end_to_end_metrics(timings, samples)
    except ValueError as error:
        record["errors"].append(f"{name}: {error}")
    else:
        record["metrics"].update(metrics)
        record["unscaled"] = unscaled
    record["probes"] = {str(core): rows for core, rows in samples.items()}
    if trace_dir is not None:
        record["metrics"].update(h.trace_metrics(trace_dir, record["metrics"]))
    record.update(workload=name, seed=seed, seconds=seconds, traced=traced)
    if not record["errors"]:
        shutil.rmtree(work, ignore_errors=True)
    return record


# --------------------------------------------------------------------------- #
# reporting
# --------------------------------------------------------------------------- #
def _print_table(record: Dict[str, object], names: Sequence[str]) -> None:
    print(f"\n== {record['workload']}  seed {record['seed']}  "
          f"{'traced' if record['traced'] else 'untraced'}  "
          f"attempted {record['attempted']}  failed {record['failed']}")
    unscaled = record.get("unscaled", {})
    for name in names:
        entry = record["metrics"].get(name)
        if entry is None:
            print(f"  {name:<36} {'missing':>14}")
            continue
        raw = f"  unscaled {unscaled[name]:.6g}" if name in unscaled else ""
        print(f"  {name:<36} {entry['value']:>14.6g} {entry['unit']:<7} n={entry['samples']}{raw}")
    for error in record["errors"]:
        print(f"  ERROR: {error}")


def _selected(records: Sequence[Dict[str, object]], names: Sequence[str], prefix: bool):
    metrics = {}
    for record in records:
        for name in names:
            entry = record["metrics"].get(name)
            if entry is None:
                continue
            key = f"{record['workload']}/{name}" if prefix else name
            metrics[key] = {"value": entry["value"], "unit": entry["unit"]}
    return metrics


def _write_results(records: Sequence[Dict[str, object]], out: Optional[str]) -> None:
    h.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    environment = h.environment_record()
    for record in records:
        record["environment"] = environment
        stamp = time.strftime("%Y%m%dT%H%M%S")
        kind = "trace" if record["traced"] else "run"
        path = h.RESULTS_DIR / f"{record['workload']}-s{record['seed']}-{kind}-{stamp}-{os.getpid()}.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if out:
        Path(out).write_text(json.dumps({"runs": list(records)}, indent=1) + "\n", encoding="utf-8")


def measure(args, benchmark: Dict[str, object]) -> int:
    workloads = list(dict.fromkeys(args.workload or h.WORKLOADS))
    unknown = [w for w in workloads if w not in h.WORKLOADS]
    if unknown:
        print(f"error: unknown workload(s) {unknown}; known: {list(h.WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = args.seconds or float(benchmark["run_seconds"])
    end_to_end = [m["name"] for m in benchmark["end_to_end"]]
    per_layer = [m["name"] for m in benchmark["per_layer"]]
    traced = bool(args.trace)
    deadline = Deadline(DEADLINE_SECONDS * len(workloads))

    records = []
    for name in workloads:
        record = run_workload(name, seed=args.seed, seconds=seconds, traced=traced,
                              deadline=deadline)
        if traced:
            # A layer the workload never enters reads zero, not missing.
            for metric in per_layer:
                unit = h.PER_LAYER.get(metric, ("count",))[0]
                record["metrics"].setdefault(metric, {"value": 0.0, "unit": unit, "samples": 0})
        else:
            missing = [m for m in end_to_end if m not in record["metrics"]]
            if missing:
                record["errors"].append(f"metrics not measured: {missing}")
        records.append(record)
        _print_table(record, per_layer if traced else end_to_end)

    _write_results(records, args.out)
    names = per_layer if traced else end_to_end
    correct = all(not record["errors"] for record in records)
    summary = {
        "correct": correct,
        "attempted": sum(int(r["attempted"]) for r in records),
        "failed": sum(int(r["failed"]) for r in records),
        "metrics": _selected(records, names, prefix=len(records) > 1),
    }
    print(json.dumps(summary))
    return 0 if correct else 1


def compare(paths: Sequence[str], benchmark: Dict[str, object]) -> int:
    """``compare PARENT CHANGE``: one verdict row per (metric, workload)."""
    if len(paths) != 2:
        print("usage: run.py compare PARENT CHANGE (files or directories of run records)",
              file=sys.stderr)
        return 2
    parent, change = (h.load_records([p]) for p in paths)
    rows = h.compare_records(
        [r for r in parent if not r.get("traced")],
        [r for r in change if not r.get("traced")],
        benchmark["end_to_end"],
    )
    print(f"{'workload':<14} {'metric':<18} {'verdict':<11} {'worse':>8} {'bound':>6} "
          f"{'parent':>12} {'change':>12} {'spreads':>15} runs")
    for row in rows:
        print(f"{row['workload']:<14} {row['metric']:<18} {row['verdict']:<11} "
              f"{row['worse']:>+8.3f} {row['bound']:>6.2f} {row['parent_median']:>12.5g} "
              f"{row['change_median']:>12.5g} {row['parent_spread']:>7.3f}/{row['change_spread']:<7.3f}"
              f" {row['parent_runs']}/{row['change_runs']}")
    if not rows:
        print("no (metric, workload) pair is present in both run sets", file=sys.stderr)
        return 2
    return 0 if all(row["verdict"] == h.OK for row in rows) else 1


def baseline(paths: Sequence[str], benchmark: Dict[str, object]) -> int:
    """``baseline SET_A SET_B``: medians and quartiles of two run sets, as JSON.

    The output doubles as a ``compare`` input: its ``runs`` are the
    untraced records' end-to-end metrics.
    """
    if len(paths) != 2:
        print("usage: run.py baseline SET_A SET_B > baseline.json", file=sys.stderr)
        return 2
    names = [metric["name"] for metric in benchmark["end_to_end"]]
    document: Dict[str, object] = {"sets": [], "runs": []}
    for label, path in zip("AB", paths):
        records = [r for r in h.load_records([path]) if not r.get("traced")]
        summary = {}
        for workload in sorted({r["workload"] for r in records}):
            summary[workload] = {
                name: h.summary(h.metric_values(records, workload, name)) for name in names}
        document["sets"].append({
            "set": label, "seeds": sorted({r["seed"] for r in records}), "summary": summary})
        document["runs"] += [
            {"set": label, "workload": r["workload"], "seed": r["seed"],
             "metrics": {name: r["metrics"][name] for name in names if name in r["metrics"]}}
            for r in records
        ]
        document["environment"] = records[0].get("environment") if records else None
    print(json.dumps(document, indent=1))
    return 0


def regen_expected() -> int:
    """Regenerate ``expected/`` in pinned subprocesses (BLAS threads = 1)."""
    work = h.WORK_DIR / f"regen-{os.getpid()}"
    env = h.child_env(work)
    try:
        for script in ("e2e_serve.py", "e2e_offline.py"):
            code = subprocess.call([sys.executable, str(h.E2E_DIR / script), "--regen"],
                                   env=env, cwd=str(h.REPO_ROOT))
            if code != 0:
                return code
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not (h.SRC_DIR / "repro" / "__init__.py").exists():
        print(f"error: no repro sources under {h.SRC_DIR}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    if argv[:1] == ["compare"]:
        return compare(argv[1:], benchmark)
    if argv[:1] == ["baseline"]:
        return baseline(argv[1:], benchmark)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1),
                        help="1: per-layer table from a traced run")
    parser.add_argument("--out", default=None, help="also write the run records here")
    parser.add_argument("--regen-expected", action="store_true",
                        help="regenerate the expected answers under expected/")
    args = parser.parse_args(argv)
    if args.regen_expected:
        return regen_expected()
    return measure(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
