"""In-process workloads of the end-to-end benchmark: paper-table6 and zoo-scale.

Both time calls into the library's public functions from this process.
``run.py`` measures set-up from outside: it starts this script and stops
the clock when the script prints ``READY`` on standard output, after its
imports and inputs are built.  Everything else the script says goes to
standard error; its record is written to ``--record``.

* **paper-table6** builds the NLP and CV experiment contexts, then runs
  whole Table VI passes (8 targets x 2PH/BF/SH) in a seeded target
  order.  Every row must equal ``expected/paper-table6.json``.
* **zoo-scale** builds a seeded synthetic performance matrix (latent
  families plus noise), then alternates offline builds (in RAM and
  out-of-core) with chained 4-model refreshes through the incremental
  similarity and clustering updates, so both kinds of work sample the
  whole window.  Every build's labels must equal the first in-RAM
  build's, and the final incremental similarity must equal a
  from-scratch one bitwise.

The record carries the raw monotonic spans of every timed operation
(a Table VI row, a refresh) and of every throughput sample (a Table VI
pass; a cycle's two builds); ``run.py``, which pins this process to
core 0 and probes that core's speed, scales each span by the speed
measured around it.  ``--regen`` rewrites
``expected/paper-table6.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import e2e_harness as h

#: Table VI passes per run: one per this many seconds, at least two.
TABLE6_SECONDS_PER_PASS = 8.0

#: Synthetic zoo: models, benchmarks, latent families, noise, refresh size.
#: At n=1000 an n x n float64 matrix (8 MB) is reused from the allocator's
#: heap; from n=1200 each one is a fresh mapping, and its page faults made
#: refresh times vary twofold within a run on a shared host.
ZOO_MODELS = 1000
ZOO_DATASETS = 24
ZOO_FAMILIES = 60
ZOO_NOISE = 0.03
ZOO_SWAP = 4
#: Cycles per run: one per this many seconds.  A cycle is an in-RAM
#: build, refreshes, an out-of-core build, refreshes.
ZOO_SECONDS_PER_CYCLE = 3.5
#: Refreshes after each build.
ZOO_REFRESHES_PER_BUILD = 8
ZOO_IN_FLIGHT_BYTES = 64 * 1024 * 1024


class Outcome:
    """Counters, timed spans and errors of one in-process run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        # Monotonic spans of the gated samples (see h.end_to_end_metrics).
        self.timings: Dict[str, list] = {"latency": [], "throughput": []}
        self.cpu_s = 0.0
        self.extra: Dict[str, tuple] = {}

    def attempt(self, label: str, fn: Callable[[], object], spans: List[list]):
        """Run ``fn``, appending its span; a raise counts as a failed operation."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            result = fn()
        except Exception as error:  # noqa: BLE001 — counted and reported
            self.failed += 1
            self.errors.append(f"{label}: {error!r}")
            return None
        spans.append([started, time.perf_counter()])
        return result


def _mark() -> float:
    """Window boundary: CPU seconds so far, plus a trace write-out if tracing."""
    dump = getattr(sys.modules.get("sitecustomize"), "e2e_dump", None)
    if dump is not None:
        dump()
    times = os.times()
    return times.user + times.system


# --------------------------------------------------------------------------- #
# paper-table6
# --------------------------------------------------------------------------- #
def table6_records() -> List[Dict[str, object]]:
    """Table VI rows of both modalities (regenerates the expected file)."""
    from repro.experiments import table6_end_to_end
    from repro.experiments.context import get_context

    records = []
    for modality in ("nlp", "cv"):
        records.extend(table6_end_to_end.run(get_context(modality)))
    return records


def paper_table6(out: Outcome, seed: int, seconds: float, ready: Callable[[], None], work: Path):
    from repro.experiments import table6_end_to_end
    from repro.experiments.context import get_context

    expected = {
        (row["modality"], row["target"]): row
        for row in json.loads(
            (h.EXPECTED_DIR / "paper-table6.json").read_text(encoding="utf-8"))["records"]
    }
    contexts = {}
    for modality in ("nlp", "cv"):
        context = get_context(modality)
        context.matrix, context.clustering, context.selector
        # Source heads train lazily on a checkpoint's first proxy score;
        # every Table VI run pays that once, so it belongs to set-up.
        for model in context.hub.models():
            model.source_head()
        contexts[modality] = context
    ready()

    rows = [(m, target) for m, context in contexts.items() for target in context.target_names]
    passes = max(2, int(seconds // TABLE6_SECONDS_PER_PASS))
    rng = random.Random(seed)
    costs: List[float] = []
    cpu = _mark()
    for _ in range(passes):
        order = list(rows)
        rng.shuffle(order)
        started = time.perf_counter()
        for modality, target in order:
            records = out.attempt(
                f"{modality}/{target}",
                lambda: table6_end_to_end.run(contexts[modality], targets=[target]),
                out.timings["latency"],
            )
            if records is None:
                continue
            (record,) = records
            costs.append(float(record["runtime_2ph"]))
            if json.loads(json.dumps(record)) != expected.get((modality, target)):
                out.errors.append(f"Table VI row {modality}/{target} differs: {record}")
        out.timings["throughput"].append(
            {"count": len(rows), "spans": [[started, time.perf_counter()]]})
    out.cpu_s = _mark() - cpu
    out.extra["result.cost_epochs_per_op"] = (
        statistics.fmean(costs) if costs else 0.0, "epochs", len(costs))


# --------------------------------------------------------------------------- #
# zoo-scale
# --------------------------------------------------------------------------- #
def synthetic_zoo(seed: int, n: int, extra: int):
    """Performance matrix of ``n`` models plus ``extra`` spare columns.

    Each model is a seeded latent family's accuracy profile plus Gaussian
    noise, so the repository has real cluster structure and no ties.
    """
    import numpy as np

    from repro.core.performance import PerformanceMatrix

    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.3, 0.9, size=(ZOO_FAMILIES, ZOO_DATASETS))
    family = rng.integers(0, ZOO_FAMILIES, size=n + extra)
    noise = rng.normal(0.0, ZOO_NOISE, size=(n + extra, ZOO_DATASETS))
    values = np.clip(centers[family] + noise, 0.0, 1.0).T
    names = [f"m{index:05d}" for index in range(n + extra)]
    datasets = [f"d{index:02d}" for index in range(ZOO_DATASETS)]
    return PerformanceMatrix(dataset_names=datasets, model_names=names, values=values)


def zoo_scale(out: Outcome, seed: int, seconds: float, ready: Callable[[], None], work: Path):
    import numpy as np

    from repro.cluster.incremental import update_clustering
    from repro.core.config import PipelineConfig, SimilarityConfig
    from repro.core.model_clustering import ModelClusterer
    from repro.core.performance import PerformanceMatrix
    from repro.core.similarity import performance_similarity_matrix, update_similarity_matrix

    cycles = max(1, round(seconds / ZOO_SECONDS_PER_CYCLE))
    refreshes = 2 * cycles * ZOO_REFRESHES_PER_BUILD
    pool = synthetic_zoo(seed, ZOO_MODELS, refreshes * ZOO_SWAP)
    config = PipelineConfig.for_modality("nlp").clustering
    column = {name: index for index, name in enumerate(pool.model_names)}

    def matrix_of(names: Sequence[str]) -> PerformanceMatrix:
        return PerformanceMatrix(
            dataset_names=pool.dataset_names, model_names=list(names),
            values=pool.values[:, [column[name] for name in names]],
        )

    base = matrix_of(pool.model_names[:ZOO_MODELS])
    ready()

    rng = random.Random(seed)
    state = {"matrix": base, "clustering": None, "labels": None,
             "spare": list(pool.model_names[ZOO_MODELS:])}

    def build(index: int, ooc: bool, spans: List[list]) -> None:
        kind = "out-of-core" if ooc else "in-RAM"
        with tempfile.TemporaryDirectory(dir=work, prefix="ooc-") as store:
            similarity_config = SimilarityConfig(
                spill_threshold_bytes=0, max_bytes_in_flight=ZOO_IN_FLIGHT_BYTES,
                store_dir=store,
            ) if ooc else None
            clustering = out.attempt(f"build {index} ({kind})", lambda: ModelClusterer(
                config).cluster(base, cache=False, similarity_config=similarity_config),
                spans)
            if clustering is None:
                return
            labels = np.array(clustering.assignment.labels)
            if state["labels"] is None:
                state["labels"] = labels
                state["clustering"] = clustering  # the refresh chain starts here
            del clustering  # drop memmaps before their store goes
        if not np.array_equal(labels, state["labels"]):
            out.errors.append(f"build {index} ({kind}) labels differ from the first in-RAM build")

    def refresh() -> None:
        old_matrix, old = state["matrix"], state["clustering"]
        names = list(old_matrix.model_names)
        removed = set(rng.sample(names, ZOO_SWAP))
        added, state["spare"] = state["spare"][:ZOO_SWAP], state["spare"][ZOO_SWAP:]
        new_matrix = matrix_of([name for name in names if name not in removed] + added)

        def apply():
            similarity = update_similarity_matrix(
                old_matrix, old.similarity, new_matrix, top_k=config.top_k, cache=False)
            return update_clustering(old, new_matrix, similarity, config=config)

        update = out.attempt("refresh", apply, out.timings["latency"])
        if update is not None:
            state["matrix"], state["clustering"] = new_matrix, update.clustering

    cpu = _mark()
    for index in range(cycles):
        pair: List[list] = []  # one in-RAM and one out-of-core build
        for ooc in (False, True):
            build(index, ooc, pair)
            if state["clustering"] is not None:
                for _ in range(ZOO_REFRESHES_PER_BUILD):
                    refresh()
        if len(pair) == 2:
            out.timings["throughput"].append({"count": 2 * ZOO_MODELS, "spans": pair})
    out.cpu_s = _mark() - cpu

    final = state["clustering"]
    if final is not None:
        oracle = performance_similarity_matrix(state["matrix"], top_k=config.top_k, cache=False)
        if not np.array_equal(np.asarray(final.similarity), oracle):
            out.errors.append("incremental similarity differs from performance_similarity_matrix")


WORKLOADS = {"paper-table6": paper_table6, "zoo-scale": zoo_scale}


def _record(out: Outcome) -> Dict[str, object]:
    metrics: Dict[str, dict] = {}

    def put(name: str, value: float, unit: str, samples: int) -> None:
        metrics[name] = {"value": value, "unit": unit, "samples": samples}

    put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    put("proc.cpu_s", out.cpu_s, "s", 1)
    for name, (value, unit, samples) in out.extra.items():
        put(name, value, unit, samples)
    return {
        "attempted": out.attempted,
        "failed": out.failed,
        "errors": out.errors[:20],
        "metrics": metrics,
        "timings": out.timings,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--work-dir")
    parser.add_argument("--record", help="write the record here")
    parser.add_argument("--regen", action="store_true",
                        help="rewrite expected/paper-table6.json")
    args = parser.parse_args(argv)
    if args.regen:
        path = h.EXPECTED_DIR / "paper-table6.json"
        path.write_text(json.dumps({"records": table6_records()}, indent=1) + "\n",
                        encoding="utf-8")
        print(f"  wrote {path.relative_to(h.REPO_ROOT)}", file=sys.stderr)
        return 0
    if None in (args.workload, args.seed, args.seconds, args.work_dir, args.record):
        parser.error("--workload, --seed, --seconds, --work-dir and --record are required")

    def ready() -> None:
        print("READY", flush=True)

    out = Outcome()
    WORKLOADS[args.workload](out, args.seed, args.seconds, ready, Path(args.work_dir))
    Path(args.record).write_text(json.dumps(_record(out)), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
