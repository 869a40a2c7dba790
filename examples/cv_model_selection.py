"""CV scenario: pick a vision backbone for a medical-imaging classification task.

The paper's CV evaluation selects among 30 vision checkpoints (ViT, DeiT,
BEiT, DINO, PoolFormer, DiNAT, VAN families) for out-of-domain targets such
as chest X-ray classification and MedMNIST.  This example runs the two-phase
pipeline for one of those targets and inspects *why* the recalled candidates
were chosen: their cluster, prior benchmark accuracy and proxy score.

Run with::

    python examples/cv_model_selection.py [--small] [--target chest_xray_classification]
"""

from __future__ import annotations

import argparse

from repro import SelectionService
from repro.core import PipelineConfig
from repro.data import DataScale, cv_suite
from repro.zoo import ModelHub


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--small", action="store_true", help="use the small data scale")
    parser.add_argument(
        "--target",
        default="chest_xray_classification",
        choices=["chest_xray_classification", "medmnist_v2", "oxford_flowers", "beans"],
    )
    args = parser.parse_args()

    scale = DataScale.small() if args.small else DataScale.default()
    suite = cv_suite(seed=0, scale=scale)
    hub = ModelHub(suite, seed=0)
    print(f"Repository: {len(hub)} CV checkpoints; target: {args.target}")

    service = SelectionService.from_hub(hub, suite, config=PipelineConfig.for_modality("cv"))
    clustering = service.artifacts.clustering
    matrix = service.artifacts.matrix

    print("\nOffline model clusters (non-singleton):")
    for cluster_id, members in sorted(
        clustering.non_singleton_clusters().items(), key=lambda item: -len(item[1])
    ):
        representative = clustering.representative_of(cluster_id)
        print(f"  cluster {cluster_id} ({len(members)} models, representative "
              f"{representative.split('/')[-1]}): "
              + ", ".join(sorted(name.split("/")[-1] for name in members)))

    result = service.select(args.target)
    print(f"\nRecalled candidates for {args.target} (top {len(result.recall.recalled_models)}):")
    print(f"{'model':55s} {'cluster':>7s} {'prior_acc':>9s} {'recall_score':>12s}")
    for name in result.recall.recalled_models:
        print(f"{name:55s} {clustering.cluster_of(name):7d} "
              f"{matrix.average_accuracy(name):9.3f} "
              f"{result.recall.recall_scores[name]:12.3f}")

    print(f"\nSelected checkpoint : {result.selected_model}")
    print(f"Test accuracy       : {result.selected_accuracy:.3f}")
    print(f"Total cost          : {result.total_cost:.1f} epoch-equivalents "
          f"(brute force would cost {len(hub) * 4} epochs)")
    print("\nStage-by-stage fine-selection log:")
    for stage in result.selection.stages:
        survivors = ", ".join(name.split("/")[-1] for name in stage.surviving_models)
        print(f"  stage {stage.stage}: kept {len(stage.surviving_models)} -> {survivors}")


if __name__ == "__main__":
    main()
