"""Benchmark: out-of-core offline phase under a hard matrix-memory budget.

Demonstrates the PR-4 claim end-to-end: an ``n = 5000`` synthetic zoo's
offline phase (Eq. 1 similarity -> distance conversion -> merge-threshold
estimation -> agglomerative clustering) runs with every ``(n, n)`` matrix
memory-mapped in the :mod:`repro.store` matrix store, and peak *tracked*
matrix memory (``tracemalloc``) stays under a configurable budget —
~256 MB by default, where the dense in-RAM path would need more than
190 MB for the similarity matrix alone plus distance, working-copy and
threshold intermediates (~800 MB total).

Two tiers:

* full (default): an equivalence phase (dense vs out-of-core offline build
  at ``n = 400``, bitwise), then the budgeted ``n = 5000`` build with the
  memory gate.  About ten seconds on a 2-vCPU host: similarity, distance
  and the nnchain merge each stream in seconds (see ``docs/scaling.md``).
* ``--smoke``: the equivalence phase at ``n = 96`` plus a miniature
  budgeted build at ``n = 256``, seconds in total — this is what
  ``make bench-smoke`` runs in CI on every change.

Run with::

    PYTHONPATH=src python benchmarks/bench_ooc_scaling.py [--smoke]

Exits non-zero if any out-of-core result diverges bitwise from the dense
oracle or the budgeted build exceeds its memory gate.  Timing/memory
records are written as JSON (``--json-out``, default
``benchmarks/bench_ooc_scaling.json``) for the CI artifact upload.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.core.config import ClusteringConfig, SimilarityConfig
from repro.core.model_clustering import ModelClusterer
from repro.core.performance import PerformanceMatrix

NUM_DATASETS = 40
TOP_K = 5
#: Hard gate on tracked peak matrix memory of the budgeted build.
DEFAULT_BUDGET_MB = 256
#: In-flight streaming budget handed to SimilarityConfig.
DEFAULT_IN_FLIGHT_MB = 64


def _random_matrix(rng: np.random.Generator, n: int) -> PerformanceMatrix:
    return PerformanceMatrix(
        dataset_names=[f"d{i}" for i in range(NUM_DATASETS)],
        model_names=[f"m{j}" for j in range(n)],
        values=rng.uniform(0.1, 0.95, size=(NUM_DATASETS, n)),
    )


def _spill_config(store_dir: str, in_flight_mb: int) -> SimilarityConfig:
    return SimilarityConfig(
        spill_threshold_bytes=0,
        max_bytes_in_flight=in_flight_mb * 1024 * 1024,
        store_dir=store_dir,
    )


def run_equivalence(n: int) -> dict:
    """Dense vs out-of-core offline build at ``n`` — must match bitwise."""
    rng = np.random.default_rng(7)
    matrix = _random_matrix(rng, n)
    config = ClusteringConfig(top_k=TOP_K)
    dense = ModelClusterer(config).cluster(matrix, cache=False)
    with tempfile.TemporaryDirectory(prefix="bench-ooc-") as tmp:
        spilled = ModelClusterer(config).cluster(
            matrix,
            cache=False,
            similarity_config=_spill_config(tmp, in_flight_mb=1),
        )
        checks = {
            "similarity": bool(
                np.array_equal(dense.similarity, spilled.similarity)
            ),
            "labels": bool(
                np.array_equal(
                    dense.assignment.labels, spilled.assignment.labels
                )
            ),
            "representatives": dense.representatives == spilled.representatives,
            "threshold": dense.extras.get("distance_threshold")
            == spilled.extras.get("distance_threshold"),
            "silhouette": dense.silhouette == spilled.silhouette,
            "memmapped": isinstance(spilled.similarity, np.memmap),
        }
    return {"n": n, "checks": checks, "identical": all(checks.values())}


def run_budgeted_build(n: int, *, budget_mb: int, in_flight_mb: int) -> dict:
    """Out-of-core offline build at ``n`` under a tracked-memory gate."""
    rng = np.random.default_rng(0)
    matrix = _random_matrix(rng, n)
    dense_matrix_mb = SimilarityConfig.dense_matrix_bytes(n) / 1e6
    with tempfile.TemporaryDirectory(prefix="bench-ooc-") as tmp:
        config = _spill_config(tmp, in_flight_mb)
        tracemalloc.start()
        started = time.perf_counter()
        clustering = ModelClusterer(ClusteringConfig(top_k=TOP_K)).cluster(
            matrix, cache=False, similarity_config=config
        )
        elapsed = time.perf_counter() - started
        _, peak_bytes = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        store_bytes = sum(
            path.stat().st_size for path in Path(tmp).glob("*.npy")
        )
        record = {
            "n": n,
            "d": NUM_DATASETS,
            "budget_mb": budget_mb,
            "max_bytes_in_flight_mb": in_flight_mb,
            "elapsed_seconds": elapsed,
            "peak_tracked_mb": peak_bytes / 1e6,
            "store_mb": store_bytes / 1e6,
            "num_clusters": int(clustering.assignment.num_clusters),
            "memmapped": isinstance(clustering.similarity, np.memmap),
            "dense_similarity_mb": dense_matrix_mb,
            # Dense would additionally hold the distance matrix, the
            # clustering working copy and the threshold buffer in RAM.
            "dense_estimate_mb": dense_matrix_mb * 3.5,
            "within_budget": peak_bytes / 1e6 <= budget_mb,
        }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes, equivalence + budget gate only (the CI tier)",
    )
    parser.add_argument("--n", type=int, default=5000, help="budgeted-build size")
    parser.add_argument(
        "--budget-mb",
        type=int,
        default=DEFAULT_BUDGET_MB,
        help=f"peak tracked matrix memory gate (default {DEFAULT_BUDGET_MB})",
    )
    parser.add_argument(
        "--in-flight-mb",
        type=int,
        default=DEFAULT_IN_FLIGHT_MB,
        help="SimilarityConfig.max_bytes_in_flight in MB "
        f"(default {DEFAULT_IN_FLIGHT_MB})",
    )
    parser.add_argument(
        "--json-out",
        default=str(Path(__file__).parent / "bench_ooc_scaling.json"),
        metavar="FILE",
        help="write the records as JSON (CI uploads these)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        equivalence_n, build_n, budget_mb = 96, 256, args.budget_mb
    else:
        equivalence_n, build_n, budget_mb = 400, args.n, args.budget_mb

    print(f"[1/2] equivalence: dense vs out-of-core build at n={equivalence_n} ...")
    equivalence = run_equivalence(equivalence_n)
    for name, passed in equivalence["checks"].items():
        print(f"      {name:<16} {'ok' if passed else 'MISMATCH'}")

    print(
        f"[2/2] budgeted out-of-core build at n={build_n} "
        f"(gate {budget_mb} MB tracked, {args.in_flight_mb} MB in flight) ..."
    )
    build = run_budgeted_build(
        build_n, budget_mb=budget_mb, in_flight_mb=args.in_flight_mb
    )
    print(
        f"      built {build['n']} models in {build['elapsed_seconds']:.1f}s: "
        f"{build['num_clusters']} clusters, "
        f"peak tracked {build['peak_tracked_mb']:.0f} MB "
        f"(gate {budget_mb} MB), store {build['store_mb']:.0f} MB on disk"
    )
    print(
        f"      dense path would hold >= {build['dense_similarity_mb']:.0f} MB "
        f"for the similarity matrix alone "
        f"(~{build['dense_estimate_mb']:.0f} MB with intermediates)"
    )

    payload = {"equivalence": equivalence, "budgeted_build": build}
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"      records written to {args.json_out}")

    failed = False
    if not equivalence["identical"]:
        print("FAIL: out-of-core build diverged from the dense oracle")
        failed = True
    if not build["within_budget"]:
        print(
            f"FAIL: peak tracked memory {build['peak_tracked_mb']:.0f} MB "
            f"exceeded the {budget_mb} MB budget"
        )
        failed = True
    if not build["memmapped"]:
        print("FAIL: budgeted build did not produce memory-mapped artifacts")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
