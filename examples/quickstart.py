"""Quickstart: select a pre-trained model for a new task with the two-phase pipeline.

Builds the simulated NLP model repository (40 checkpoints), runs the offline
phase (performance matrix + model clustering) and then answers a single
online query: "which checkpoint should I fine-tune for the MNLI-like target
task?".

Run with::

    python examples/quickstart.py [--small]
"""

from __future__ import annotations

import argparse
import time

from repro import SelectionService
from repro.core import PipelineConfig
from repro.data import DataScale, nlp_suite
from repro.zoo import ModelHub


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--small", action="store_true", help="use the small data scale (faster)"
    )
    parser.add_argument("--target", default="mnli", help="target dataset name")
    parser.add_argument("--top-k", type=int, default=10, help="models recalled in phase 1")
    args = parser.parse_args()

    scale = DataScale.small() if args.small else DataScale.default()
    suite = nlp_suite(seed=0, scale=scale)
    hub = ModelHub(suite, seed=0)
    print(f"Model repository: {len(hub)} NLP checkpoints")
    print(f"Benchmark datasets: {len(suite.benchmark_names)}, targets: {suite.target_names}")

    print("\n[offline] building performance matrix and model clusters ...")
    start = time.perf_counter()
    service = SelectionService.from_hub(
        hub, suite, config=PipelineConfig.for_modality("nlp")
    )
    print(f"[offline] done in {time.perf_counter() - start:.1f}s "
          f"({service.cluster_summary()})")

    print(f"\n[online] selecting a model for target {args.target!r} ...")
    start = time.perf_counter()
    result = service.select(args.target, top_k=args.top_k)
    elapsed = time.perf_counter() - start

    print(f"[online] done in {elapsed:.1f}s")
    print(f"  recalled models ({len(result.recall.recalled_models)}):")
    for rank, name in enumerate(result.recall.recalled_models, start=1):
        print(f"    {rank:2d}. {name} (recall score "
              f"{result.recall.recall_scores[name]:.3f})")
    print(f"  selected model : {result.selected_model}")
    print(f"  test accuracy  : {result.selected_accuracy:.3f}")
    print(f"  total cost     : {result.total_cost:.1f} epoch-equivalents "
          f"(vs {len(hub) * 5} epochs for brute force)")


if __name__ == "__main__":
    main()
