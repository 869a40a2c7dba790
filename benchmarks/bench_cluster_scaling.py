"""Benchmark: sub-quadratic offline clustering (nnchain).

Demonstrates that the nearest-neighbor-chain agglomeration engine
(``repro.cluster.nnchain``) produces labels identical to the
quadratic-scan oracle while cutting the ``n = 5000`` clustering step from
minutes to ~1 second.

Three tiers:

* full (default): the equivalence gate (scan vs nnchain, bitwise labels
  at ``n = 600``) and the timed ``n = 5000`` head-to-head with a hard
  ``>= 5x`` speedup gate.  Expect a couple of minutes — the quadratic
  scan *is* the cost being measured.
* ``--smoke``: the same gates at tiny sizes (equivalence at ``n = 200``,
  a relaxed ``>= 2x`` timing sanity check at ``n = 800``), seconds in
  total — this is what ``make bench-cluster-smoke`` runs in CI on every
  change.
* ``--xl``: additionally times an nnchain-only build at ``n = 20000``
  (the scan would take hours there; nnchain finishes in well under a
  minute).

Run with::

    PYTHONPATH=src python benchmarks/bench_cluster_scaling.py [--smoke|--xl]

Exits non-zero if nnchain labels diverge from the scan oracle or the
speedup gate fails.  Records are
written as JSON (``--json-out``, default
``benchmarks/bench_cluster_scaling.json``) for the CI artifact upload.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.cluster.distance import pairwise_distances
from repro.cluster.hierarchical import AgglomerativeClustering
from repro.cluster.nnchain import NNChainClustering

NUM_DATASETS = 40
NUM_CLUSTERS = 25
#: Full-tier speedup gate: nnchain must beat the scan by at least this
#: factor at ``n = 5000`` (measured ~60x in practice).
FULL_SPEEDUP_GATE = 5.0
#: Smoke-tier sanity gate at small n, where constant factors dominate.
SMOKE_SPEEDUP_GATE = 2.0


def _distances(rng: np.random.Generator, n: int) -> np.ndarray:
    """Continuous Gaussian model vectors — generically tie-free, so the
    chain never needs to delegate to the scan (the regime Eq. 1
    similarities live in)."""
    return pairwise_distances(rng.normal(size=(n, NUM_DATASETS)))


def run_equivalence(n: int) -> dict:
    """Scan vs nnchain at ``n`` — labels and merge slots must match."""
    distances = _distances(np.random.default_rng(7), n)
    checks = {}
    for num_clusters in (1, NUM_CLUSTERS, n // 3):
        scan = AgglomerativeClustering(num_clusters=num_clusters)
        chain = NNChainClustering(num_clusters=num_clusters)
        labels_equal = bool(
            np.array_equal(
                scan.fit_predict(distances), chain.fit_predict(distances)
            )
        )
        slots_equal = [m[:2] for m in scan.merge_history_] == [
            m[:2] for m in chain.merge_history_
        ]
        checks[f"k={num_clusters}"] = labels_equal and slots_equal
    return {"n": n, "checks": checks, "identical": all(checks.values())}


def run_speedup(n: int, *, gate: float) -> dict:
    """Timed head-to-head at ``n`` with a hard speedup gate."""
    distances = _distances(np.random.default_rng(0), n)
    started = time.perf_counter()
    scan_labels = AgglomerativeClustering(num_clusters=NUM_CLUSTERS).fit_predict(
        distances
    )
    scan_seconds = time.perf_counter() - started
    started = time.perf_counter()
    chain_labels = NNChainClustering(num_clusters=NUM_CLUSTERS).fit_predict(
        distances
    )
    chain_seconds = time.perf_counter() - started
    speedup = scan_seconds / chain_seconds if chain_seconds else float("inf")
    return {
        "n": n,
        "num_clusters": NUM_CLUSTERS,
        "scan_seconds": scan_seconds,
        "nnchain_seconds": chain_seconds,
        "speedup": speedup,
        "speedup_gate": gate,
        "labels_identical": bool(np.array_equal(scan_labels, chain_labels)),
        "gate_passed": speedup >= gate,
    }


def run_xl_build(n: int) -> dict:
    """nnchain-only timing at a size where the scan is impractical."""
    distances = _distances(np.random.default_rng(1), n)
    started = time.perf_counter()
    labels = NNChainClustering(num_clusters=NUM_CLUSTERS).fit_predict(distances)
    elapsed = time.perf_counter() - started
    return {
        "n": n,
        "nnchain_seconds": elapsed,
        "num_clusters": int(np.unique(labels).size),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes, equivalence + relaxed speedup gates (the CI tier)",
    )
    parser.add_argument(
        "--xl",
        action="store_true",
        help="additionally time an nnchain-only build at n=20000",
    )
    parser.add_argument("--n", type=int, default=5000, help="head-to-head size")
    parser.add_argument(
        "--xl-n", type=int, default=20000, help="nnchain-only build size"
    )
    parser.add_argument(
        "--json-out",
        default=str(Path(__file__).parent / "bench_cluster_scaling.json"),
        metavar="FILE",
        help="write the records as JSON (CI uploads these)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        equivalence_n, timed_n, gate = 200, 800, SMOKE_SPEEDUP_GATE
    else:
        equivalence_n, timed_n, gate = 600, args.n, FULL_SPEEDUP_GATE

    print(f"[1/2] equivalence: scan vs nnchain labels at n={equivalence_n} ...")
    equivalence = run_equivalence(equivalence_n)
    for name, passed in equivalence["checks"].items():
        print(f"      {name:<12} {'ok' if passed else 'MISMATCH'}")

    print(f"[2/2] timed head-to-head at n={timed_n} (gate >= {gate:.0f}x) ...")
    speedup = run_speedup(timed_n, gate=gate)
    print(
        f"      scan {speedup['scan_seconds']:.2f}s, "
        f"nnchain {speedup['nnchain_seconds']:.2f}s "
        f"-> {speedup['speedup']:.1f}x "
        f"(labels {'identical' if speedup['labels_identical'] else 'DIVERGED'})"
    )

    payload = {"equivalence": equivalence, "speedup": speedup}
    if args.xl:
        print(f"[xl ] nnchain-only build at n={args.xl_n} ...")
        xl = run_xl_build(args.xl_n)
        print(
            f"      {xl['n']} models clustered in {xl['nnchain_seconds']:.1f}s "
            f"({xl['num_clusters']} clusters)"
        )
        payload["xl"] = xl

    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"      records written to {args.json_out}")

    failed = False
    if not equivalence["identical"]:
        print("FAIL: nnchain labels diverged from the scan oracle")
        failed = True
    if not speedup["labels_identical"]:
        print("FAIL: timed head-to-head produced diverging labels")
        failed = True
    if not speedup["gate_passed"]:
        print(
            f"FAIL: speedup {speedup['speedup']:.1f}x below the "
            f"{gate:.0f}x gate"
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
