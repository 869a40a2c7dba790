"""Shared pieces of the end-to-end benchmark: schedules, statistics, bounds.

Everything here is pure (no servers, no ``repro`` imports) so the fast
harness tests can cover it: the seeded request schedules, nearest-rank
percentiles, the host-speed normalisation of measured durations, the
quartile spread the bounds are judged against, the ``compare``
verdicts, the environment every launched process gets, and the
``/proc`` readers used to measure server processes from outside.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

E2E_DIR = Path(__file__).resolve().parent
REPO_ROOT = E2E_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
TRACE_DIR = E2E_DIR / "trace"
EXPECTED_DIR = E2E_DIR / "expected"
RESULTS_DIR = E2E_DIR / "results"
#: Scratch space of one benchmark run (stores, spills, logs); gitignored.
WORK_DIR = E2E_DIR / ".work"

WORKLOADS = ("serve-hot", "serve-churn", "paper-table6", "zoo-scale")

#: The NLP repository's 24 benchmark datasets, in repository order.
NLP_BENCHMARKS = (
    "cola", "mrpc", "qnli", "qqp", "rte", "sst2", "stsb", "wnli", "cb",
    "copa", "wic", "imdb", "yelp_review_full", "yahoo_answers_topics",
    "dbpedia_14", "xnli", "anli", "app_reviews", "trec", "sick",
    "financial_phrasebank", "paws", "snli", "stsb_multi_mt",
)
#: The paper's four NLP target tasks, in the paper's order.
NLP_TARGETS = ("tweet_eval", "mnli", "multirc", "boolq")
#: Every task name the server accepts as a target.
NLP_TASKS = NLP_BENCHMARKS + NLP_TARGETS

#: Variables that would change what the launched program does.
_PROGRAM_ENV = (
    "REPRO_CACHE", "REPRO_CACHE_DIR", "REPRO_CACHE_MAX_ENTRIES",
    "REPRO_PARALLEL", "REPRO_EXPERIMENT_SCALE", "REPRO_CRASH_SITE",
    "REPRO_CRASH_AT", "REPRO_PARENT_PID", "REPRO_STORE_DIR",
)

TRACE_ENV = "E2E_TRACE_DIR"
#: Marks every process of one workload run, so none can outlive it unseen.
RUN_TAG_ENV = "E2E_RUN"

#: Span layers of the traced run, named after their modules (the tracer's
#: ``trace/sitecustomize.py`` wraps the callables behind each one).
SPAN_LAYERS = (
    "core.recall", "core.plan", "core.selection", "core.performance",
    "core.similarity", "cluster.distance", "cluster.merge", "cluster.incremental",
    "zoo.encode", "nn.train_serial", "nn.train_fused", "persist.journal_append",
    "persist.snapshot_publish", "service.refresh", "distrib.handle_line",
)
#: Layers that also run during set-up; their set-up self time is reported.
SETUP_LAYERS = (
    "core.performance", "zoo.encode", "nn.train_serial", "core.similarity",
    "cluster.distance", "cluster.merge",
)


def _per_layer() -> Dict[str, Tuple[str, str]]:
    metrics: Dict[str, Tuple[str, str]] = {}
    for layer in SPAN_LAYERS:
        metrics[f"{layer}.calls"] = ("count", "lower")
        metrics[f"{layer}.busy_s"] = ("s", "lower")
        metrics[f"{layer}.self_s"] = ("s", "lower")
    for layer in SETUP_LAYERS:
        metrics[f"setup.{layer}.self_s"] = ("s", "lower")
    metrics.update({
        "serving.notify_wait_ms_p50": ("ms", "lower"),
        "sched.pool.hit_ratio": ("ratio", "higher"),
        "sched.pool.reuse_ratio": ("ratio", "higher"),
        "sched.rounds_per_req": ("count", "lower"),
        "sched.train.fused_share": ("ratio", "higher"),
        "sched.train.probe_epochs": ("count", "lower"),
        "sched.arms_pruned": ("count", "higher"),
        "result.cost_epochs_per_op": ("epochs", "lower"),
        "proc.cpu_s": ("s", "lower"),
        "trace.coverage": ("ratio", "higher"),
        "trace.overhead_frac": ("ratio", "lower"),
        "loadgen.late_ms_p99": ("ms", "lower"),
    })
    return metrics


#: Every per-layer metric name with its unit and better direction.
PER_LAYER = _per_layer()


# --------------------------------------------------------------------------- #
# environment of launched processes
# --------------------------------------------------------------------------- #
def child_env(work_dir: Path, *, trace_dir: Optional[Path] = None) -> Dict[str, str]:
    """Environment for every process the benchmark starts.

    BLAS pools are pinned to one thread (unpinned set-up on two cores
    varies by a third), the program's own behaviour switches are cleared,
    and temporary files land in ``work_dir`` so a run writes only inside
    its checkout.  With ``trace_dir`` the bench-owned ``sitecustomize``
    goes first on ``PYTHONPATH``; servers pass it on to their workers.
    """
    env = {key: value for key, value in os.environ.items() if key not in _PROGRAM_ENV}
    env.pop(TRACE_ENV, None)
    env[RUN_TAG_ENV] = str(work_dir)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    tmp = work_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    env["REPRO_STORE_DIR"] = str(work_dir / "matrix-store")
    path = [str(SRC_DIR)]
    if trace_dir is not None:
        path.insert(0, str(TRACE_DIR))
        env[TRACE_ENV] = str(trace_dir)
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


# --------------------------------------------------------------------------- #
# cores and host speed
# --------------------------------------------------------------------------- #
#: Median probe time (s) on the host the baseline was taken on: the unit
#: every normalised duration is expressed in.  Changing it rescales every
#: time metric, so it is a constant of the benchmark, not a setting.
REFERENCE_PROBE_S = 0.0028
#: Seconds of probe samples taken on each side of an operation.
SPEED_PAD_S = 0.5
#: Fewest probe samples a factor is taken from.
SPEED_MIN_SAMPLES = 3


def core(index: int) -> int:
    """CPU id of the benchmark's ``index``-th core (wraps on smaller hosts)."""
    available = sorted(os.sched_getaffinity(0))
    return available[index % len(available)]


def pin(pid: int, cores: Iterable[int]) -> None:
    """Restrict every thread of ``pid`` to ``cores``."""
    cores = set(cores)
    try:
        tids = [int(tid) for tid in os.listdir(f"/proc/{pid}/task")]
    except OSError:
        tids = [pid]
    for tid in tids:
        try:
            os.sched_setaffinity(tid, cores)
        except (ProcessLookupError, PermissionError):
            pass


def speed_factor(samples: Dict[int, Sequence[tuple]], t0: float, t1: float) -> float:
    """Factor that scales a duration measured over ``[t0, t1]`` to reference speed.

    ``samples`` maps each probed core to its probe rows ``(monotonic s,
    probe s, busy ticks, steal ticks)``.  For each core, over the rows
    within :data:`SPEED_PAD_S` of the interval (or the nearest
    :data:`SPEED_MIN_SAMPLES`, if fewer fall inside): the speed while
    running, :data:`REFERENCE_PROBE_S` over the median probe time, times
    the share of the time the core wanted to run that the host did not
    steal.  The cores' factors are weighted by their busy ticks, so a
    core the work did not run on counts for little: an idle core's few
    wake-ups can be mostly steal.  Below 1 the host ran slow.
    """
    factors = []  # (busy ticks, factor) per core
    for rows in samples.values():
        if not rows:
            continue
        times = [row[0] for row in rows]
        window = rows[bisect.bisect_left(times, t0 - SPEED_PAD_S):
                      bisect.bisect_right(times, t1 + SPEED_PAD_S)]
        if len(window) < SPEED_MIN_SAMPLES:
            middle = (t0 + t1) / 2.0
            window = sorted(sorted(rows, key=lambda row: abs(row[0] - middle))
                            [:SPEED_MIN_SAMPLES])
        busy = window[-1][2] - window[0][2]
        steal = window[-1][3] - window[0][3]
        kept = busy / (busy + steal) if busy + steal > 0 else 1.0
        speed = REFERENCE_PROBE_S / statistics.median(row[1] for row in window)
        factors.append((busy, speed * kept))
    if not factors:
        raise ValueError("no host-speed samples")
    total = sum(busy for busy, _ in factors)
    if total <= 0:
        return statistics.fmean(factor for _, factor in factors)
    return sum(busy * factor for busy, factor in factors) / total


def end_to_end_metrics(
    timings: Dict[str, list], samples: Dict[int, Sequence[tuple]]
) -> Tuple[Dict[str, dict], Dict[str, float]]:
    """Time metrics of one run at reference speed, and the same unscaled.

    ``timings`` holds ``setup`` and ``latency`` spans ``[t0, t1]`` and
    ``throughput`` entries ``{"count": n, "spans": [[t0, t1], ...]}``,
    all on the monotonic clock the probes use.  Each span is scaled by
    the speed measured around it.  ``setup_s`` and ``throughput_ops_s``
    are medians over their samples; ``latency_p50_ms`` is the
    nearest-rank p50.
    """
    def summarise(measure) -> Dict[str, tuple]:
        setup = [measure(span) for span in timings.get("setup", [])]
        latency = [measure(span) * 1000.0 for span in timings.get("latency", [])]
        rates = [entry["count"] / sum(measure(span) for span in entry["spans"])
                 for entry in timings.get("throughput", [])]
        values = {
            "setup_s": (statistics.median, setup, "s"),
            "latency_p50_ms": (lambda xs: percentile(xs, 50), latency, "ms"),
            "throughput_ops_s": (statistics.median, rates, "1/s"),
        }
        return {name: (middle(xs), unit, len(xs))
                for name, (middle, xs, unit) in values.items() if xs}

    scaled = summarise(lambda span: (span[1] - span[0]) * speed_factor(samples, *span))
    unscaled = summarise(lambda span: span[1] - span[0])
    metrics = {name: {"value": value, "unit": unit, "samples": count}
               for name, (value, unit, count) in scaled.items()}
    return metrics, {name: value for name, (value, _, _) in unscaled.items()}


# --------------------------------------------------------------------------- #
# seeded schedules
# --------------------------------------------------------------------------- #
def poisson_arrivals(rng: random.Random, rate: float, duration: float) -> List[float]:
    """Send offsets (seconds) of a Poisson process of ``rate`` over ``duration``.

    The count is fixed at ``rate * duration`` and the times drawn uniformly,
    which is the Poisson process conditioned on its count: every seed
    then sends the same number of requests.
    """
    count = max(1, round(rate * duration))
    return sorted(rng.uniform(0.0, duration) for _ in range(count))


def zipf_weights(n: int, exponent: float) -> List[float]:
    """Unnormalised Zipf weights of ranks 1..n."""
    return [1.0 / (rank ** exponent) for rank in range(1, n + 1)]


def apportion(weights: Sequence[float], total: int) -> List[int]:
    """Whole counts summing to ``total`` in proportion to ``weights``.

    Largest-remainder rounding; ties go to the earlier (higher) rank.
    """
    scale = total / sum(weights)
    counts = [int(w * scale) for w in weights]
    by_remainder = sorted(range(len(weights)), key=lambda i: (counts[i] - weights[i] * scale, i))
    for index in by_remainder[: total - sum(counts)]:
        counts[index] += 1
    return counts


#: serve-hot: one client sends its requests back to back (a closed
#: loop), so a request's latency is the request path with no queue in
#: front of it.  Identical hot requests take 65-240 ms one at a time, so a
#: p50 that repeats needs about a hundred of them: an open loop at a rate
#: that keeps the server mostly idle fits only a third as many into the
#: window.  Requests per window second, Zipf exponent, cycles; each cycle
#: is a closed-loop segment followed by a burst.
HOT_REQUESTS_PER_SECOND = 6.0
HOT_ZIPF = 1.1
HOT_CYCLES = 3
#: Popularity ranks of serve-hot's targets, most requested first.  Rule,
#: not measurement (no traffic log exists): users select models for the
#: tasks the paper selects for, so its four targets take ranks 1-4 (58%
#: of requests at Zipf 1.1); the benchmark datasets follow in repository
#: order.
HOT_RANKS = NLP_TARGETS + NLP_BENCHMARKS

#: serve-churn: open-loop share, arrival rate, top_k mix and speculative
#: share of requests, cycles.  Each cycle is an open-loop segment with a
#: refresh at its midpoint, then a refresh on the idle server and a cold
#: burst of every task (28 requests: the router admits at most 32 in
#: flight).
CHURN_OPEN_SHARE = 0.5
CHURN_RATE = 5.0
CHURN_TOP_K = (5, 10, 15)
CHURN_SPECULATIVE = 0.25
CHURN_CYCLES = 3
CHURN_BURST_TOP_K = 10
#: Refreshes per run: two per cycle.
CHURN_REFRESHES = 2 * CHURN_CYCLES


def _shuffled(rng: random.Random, items: Sequence) -> list:
    order = list(items)
    rng.shuffle(order)
    return order


def _quota(rng: random.Random, values: Sequence, weights: Sequence[float], total: int) -> list:
    """``total`` items of ``values`` in proportion to ``weights``, seeded order.

    A run holds a few dozen requests; drawing each independently would
    change the mix of cheap and costly requests from seed to seed, so
    every seed gets the same multiset and the seed sets only its order.
    """
    counts = apportion(weights, total)
    return _shuffled(rng, [value for value, n in zip(values, counts) for _ in range(n)])


def serve_hot_schedule(seed: int, seconds: float) -> Dict[str, object]:
    """Closed-loop targets by Zipf rank, each segment then a burst.

    The targets are the Zipf shares of :data:`HOT_RANKS` apportioned to
    whole requests; the seed orders them and each burst.  A burst sends
    every task once.
    """
    rng = random.Random(seed)
    per_cycle = max(1, round(seconds * HOT_REQUESTS_PER_SECOND / HOT_CYCLES))
    targets = _quota(rng, HOT_RANKS, zipf_weights(len(HOT_RANKS), HOT_ZIPF),
                     per_cycle * HOT_CYCLES)
    return {"segments": [
        {"closed": targets[cycle * per_cycle:(cycle + 1) * per_cycle],
         "burst": _shuffled(rng, NLP_TASKS)}
        for cycle in range(HOT_CYCLES)
    ]}


def serve_churn_schedule(seed: int, seconds: float) -> Dict[str, object]:
    """Open-loop mixed requests around refreshes, each segment then a cold burst.

    Targets are spread evenly over the tasks and ``top_k`` over
    :data:`CHURN_TOP_K`, and a quarter of requests are speculative, each
    as a fixed multiset the seed shuffles (see :func:`_quota`); the seed
    also draws the Poisson arrival times.  Refresh times and bursts do
    not depend on the seed, so every seed walks the same zoo versions.
    """
    rng = random.Random(seed)
    duration = seconds * CHURN_OPEN_SHARE / CHURN_CYCLES
    arrivals = [poisson_arrivals(rng, CHURN_RATE, duration) for _ in range(CHURN_CYCLES)]
    total = sum(map(len, arrivals))
    mix = list(zip(
        _quota(rng, NLP_TASKS, [1.0] * len(NLP_TASKS), total),
        _quota(rng, CHURN_TOP_K, [1.0] * len(CHURN_TOP_K), total),
        _quota(rng, (True, False), (CHURN_SPECULATIVE, 1.0 - CHURN_SPECULATIVE), total),
    ))
    segments = []
    for times in arrivals:
        chosen, mix = mix[:len(times)], mix[len(times):]
        segments.append({
            "open": [{"at": at, "target": target, "top_k": top_k, "speculative": speculative}
                     for at, (target, top_k, speculative) in zip(times, chosen)],
            "refresh_at": duration / 2,
            "burst": [(task, CHURN_BURST_TOP_K) for task in NLP_TASKS],
        })
    return {"segments": segments, "segment_seconds": duration}


def churn_refresh(ordinal: int, held_out: Sequence[str]) -> Dict[str, List[str]]:
    """``added``/``removed`` of the ``ordinal``-th refresh (1-based).

    Refresh ``k`` adds the ``k``-th held-out model and removes the one the
    previous refresh added, so one extra model is served at a time.
    """
    if not 1 <= ordinal <= len(held_out):
        raise ValueError(f"refresh ordinal {ordinal} outside 1..{len(held_out)}")
    added = [held_out[ordinal - 1]]
    removed = [held_out[ordinal - 2]] if ordinal >= 2 else []
    return {"added": added, "removed": removed}


def answer_key(ordinal: int, target: str, top_k, speculative: bool) -> str:
    """Key of one expected select answer: zoo ordinal, target, top_k, mode."""
    mode = "spec" if speculative else "exact"
    return f"{ordinal}|{target}|{top_k if top_k is not None else 'default'}|{mode}"


#: Fields of a pruned arm's regret report that appear only when the session
#: pool already holds that arm's full curve, i.e. depend on earlier requests.
_POOL_DEPENDENT = ("actual_final", "actual_regret")


def payload_digest(payload: Dict[str, object]) -> str:
    """Digest of a result payload without its per-request fields.

    A speculative answer's realised-regret fields are left out: they are
    filled in only when an earlier request happened to train the pruned
    arm to the end, so they depend on the order requests arrived in.
    """
    stable = {
        key: value for key, value in payload.items()
        if key not in ("id", "event", "latency_seconds")
    }
    extrapolation = stable.get("extrapolation")
    if isinstance(extrapolation, dict) and isinstance(extrapolation.get("pruned"), dict):
        pruned = {
            arm: {k: v for k, v in report.items() if k not in _POOL_DEPENDENT}
            for arm, report in extrapolation["pruned"].items()
        }
        stable["extrapolation"] = dict(extrapolation, pruned=pruned)
    text = json.dumps(stable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct``% at or below."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < pct <= 100:
        raise ValueError("pct must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median (statistics.quantiles, n=4)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and spread of one metric over runs."""
    if len(values) < 2:
        value = float(values[0]) if values else float("nan")
        return {"median": value, "q1": value, "q3": value, "spread": 0.0, "runs": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": spread(values),
        "runs": len(values),
    }


# --------------------------------------------------------------------------- #
# compare
# --------------------------------------------------------------------------- #
OK, REGRESSED, UNRESOLVED = "OK", "REGRESSED", "UNRESOLVED"


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    *,
    bound: float,
    better: str,
) -> Tuple[str, float]:
    """Judge one (metric, workload) pair of run sets against its bound.

    Returns the verdict and the change's median worsening as a share of
    the parent's median (negative when it improved).  A spread wider than
    the bound on either side makes the pair UNRESOLVED, unless every run
    of the change beats every run of the parent.
    """
    if not parent or not change:
        raise ValueError("both run sets need at least one value")
    sign = 1.0 if better == "lower" else -1.0
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    worse = sign * (change_median - parent_median) / parent_median if parent_median else 0.0
    if spread(parent) > bound or spread(change) > bound:
        if all(sign * (c - p) < 0 for c in change for p in parent):
            return OK, worse
        return UNRESOLVED, worse
    return (REGRESSED if worse > bound else OK), worse


def load_records(paths: Iterable[str]) -> List[Dict[str, object]]:
    """Run records from JSON files or directories of them.

    A file holds one record, a list of records, or ``{"runs": [...]}``.
    """
    records: List[Dict[str, object]] = []
    for raw in paths:
        path = Path(raw)
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for file in files:
            data = json.loads(file.read_text(encoding="utf-8"))
            if isinstance(data, dict) and "runs" in data:
                data = data["runs"]
            records.extend(data if isinstance(data, list) else [data])
    return records


def metric_values(
    records: Sequence[Dict[str, object]], workload: str, metric: str
) -> List[float]:
    values = []
    for record in records:
        if record.get("workload") != workload:
            continue
        entry = (record.get("metrics") or {}).get(metric)
        if isinstance(entry, dict) and isinstance(entry.get("value"), (int, float)):
            values.append(float(entry["value"]))
    return values


def compare_records(
    parent: Sequence[Dict[str, object]],
    change: Sequence[Dict[str, object]],
    end_to_end: Sequence[Dict[str, object]],
) -> List[Dict[str, object]]:
    """One verdict row per (metric, workload) present on both sides."""
    workloads = sorted({str(r.get("workload")) for r in parent} & {str(r.get("workload")) for r in change})
    rows = []
    for workload in workloads:
        for metric in end_to_end:
            a = metric_values(parent, workload, metric["name"])
            b = metric_values(change, workload, metric["name"])
            if not a or not b:
                continue
            result, worse = verdict(a, b, bound=metric["bound"], better=metric["better"])
            rows.append({
                "workload": workload,
                "metric": metric["name"],
                "verdict": result,
                "worse": worse,
                "bound": metric["bound"],
                "parent_median": statistics.median(a),
                "change_median": statistics.median(b),
                "parent_spread": spread(a),
                "change_spread": spread(b),
                "parent_runs": len(a),
                "change_runs": len(b),
            })
    return rows


# --------------------------------------------------------------------------- #
# processes, measured from outside
# --------------------------------------------------------------------------- #
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def proc_cpu_seconds(pid: int) -> Optional[float]:
    """utime + stime of ``pid`` from ``/proc``; ``None`` once it is gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = text.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def proc_peak_rss_mb(pid: int) -> Optional[float]:
    """VmHWM (peak resident set) of ``pid`` in MB; ``None`` once it is gone."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes whose process group is ``pgid``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            text = (entry / "stat").read_text()
        except OSError:
            continue
        state_and_rest = text.rsplit(")", 1)[1].split()
        if state_and_rest[0] != "Z" and int(state_and_rest[2]) == pgid:
            members.append(int(entry.name))
    return members


def stop_group(proc, *, grace: float = 10.0) -> List[int]:
    """SIGTERM the process group led by ``proc``, SIGKILL what outlives it.

    Waits for the leader and for every other member to end.  Returns the
    members that needed SIGKILL (empty on a clean stop).
    """
    pgid = proc.pid
    try:
        os.killpg(pgid, signal.SIGTERM)
    except ProcessLookupError:
        pass
    deadline = time.monotonic() + grace
    try:
        proc.wait(timeout=grace)
    except subprocess.TimeoutExpired:
        pass
    while group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    killed = group_members(pgid)
    if killed or proc.poll() is None:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=grace)
        end = time.monotonic() + grace
        while group_members(pgid) and time.monotonic() < end:
            time.sleep(0.05)
    return killed


def tagged_processes(work_dir: Path) -> List[int]:
    """Live processes started for the run whose scratch dir is ``work_dir``."""
    marker = f"{RUN_TAG_ENV}={work_dir}".encode() + b"\0"
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            if marker not in (entry / "environ").read_bytes():
                continue
            if (entry / "stat").read_text().rsplit(")", 1)[1].split()[0] == "Z":
                continue
        except OSError:
            continue
        found.append(int(entry.name))
    return found


def kill_tagged(work_dir: Path, *, grace: float = 5.0) -> List[int]:
    """SIGKILL whatever of the run is still alive; return those pids."""
    survivors = tagged_processes(work_dir)
    for pid in survivors:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + grace
    while survivors and tagged_processes(work_dir) and time.monotonic() < deadline:
        time.sleep(0.05)
    return survivors


def trace_metrics(trace_dir: Path, metrics: Dict[str, dict]) -> Dict[str, dict]:
    """Per-layer metrics from the tracer's ``<pid>.<n>.json`` write-outs.

    Each traced process writes its totals at the window's start and end;
    the window is their difference, summed over processes, and set-up is
    the first write-out (launch, warm-up and any in-process set-up).  The
    tracer's overhead is its measured cost per span times the window's
    spans, as a share of the window's CPU time: on a shared two-CPU host
    the run-to-run noise of a traced-minus-untraced difference is larger
    than the overhead itself.
    """
    by_pid: Dict[str, Dict[int, dict]] = {}
    for path in trace_dir.glob("*.json"):
        pid, seq = path.stem.split(".")
        by_pid.setdefault(pid, {})[int(seq)] = json.loads(path.read_text())
    window = {layer: [0, 0.0, 0.0] for layer in SPAN_LAYERS}
    setup = {layer: 0.0 for layer in SPAN_LAYERS}
    overhead_s = 0.0
    for dumps in by_pid.values():
        first, last = dumps[min(dumps)], dumps[max(dumps)]
        spans = 0
        for layer in SPAN_LAYERS:
            start = first["layers"].get(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            end = last["layers"].get(layer, start)
            spans += end["calls"] - start["calls"]
            window[layer][0] += end["calls"] - start["calls"]
            window[layer][1] += end["busy_s"] - start["busy_s"]
            window[layer][2] += end["self_s"] - start["self_s"]
            setup[layer] += start["self_s"]
        overhead_s += spans * last.get("span_cost_ns", 0.0) / 1e9
    processes = len(by_pid)
    out: Dict[str, dict] = {}
    for layer, (calls, busy, own) in window.items():
        out[f"{layer}.calls"] = {"value": calls, "unit": "count", "samples": processes}
        out[f"{layer}.busy_s"] = {"value": busy, "unit": "s", "samples": processes}
        out[f"{layer}.self_s"] = {"value": own, "unit": "s", "samples": processes}
    for layer in SETUP_LAYERS:
        out[f"setup.{layer}.self_s"] = {"value": setup[layer], "unit": "s", "samples": processes}
    cpu = (metrics.get("proc.cpu_s") or {}).get("value")
    total = sum(own for _, _, own in window.values())
    out["trace.coverage"] = {
        "value": total / cpu if cpu else 0.0, "unit": "ratio", "samples": processes}
    out["trace.overhead_frac"] = {
        "value": overhead_s / cpu if cpu else 0.0, "unit": "ratio", "samples": processes}
    return out


def environment_record() -> Dict[str, object]:
    """nproc, interpreter, numpy/BLAS versions and the commit under test."""
    record: Dict[str, object] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    try:
        import numpy as np

        record["numpy"] = np.__version__
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        record["blas"] = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except Exception:  # noqa: BLE001 — informational only
        record.setdefault("numpy", "unavailable")
    record["commit"] = "unknown"
    if (REPO_ROOT / ".git").exists():
        # Only a checkout's own repository; never look in its parents.
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
                text=True, timeout=10,
                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(REPO_ROOT.parent)},
            )
            if commit.returncode == 0:
                record["commit"] = commit.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return record
