"""NLP scenario: compare brute force, successive halving and the two-phase pipeline.

This mirrors the paper's end-to-end NLP experiment (Table VI): the target is
an MNLI-like natural-language-inference task and the repository holds 40
checkpoints ranging from strong general-purpose encoders to narrowly
fine-tuned or out-of-domain ones.  The script reports, for each selection
method, the selected checkpoint, its test accuracy after full fine-tuning
and the cost in fine-tuning epochs.

Run with::

    python examples/nlp_model_selection.py [--small] [--target mnli]
"""

from __future__ import annotations

import argparse

from repro import SelectionService
from repro.core import (
    BruteForceSelection,
    PipelineConfig,
    SuccessiveHalving,
)
from repro.core.config import FineSelectionConfig
from repro.data import DataScale, nlp_suite
from repro.zoo import FineTuner, ModelHub


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--small", action="store_true", help="use the small data scale")
    parser.add_argument("--target", default="mnli", choices=["tweet_eval", "mnli", "multirc", "boolq"])
    args = parser.parse_args()

    scale = DataScale.small() if args.small else DataScale.default()
    suite = nlp_suite(seed=0, scale=scale)
    hub = ModelHub(suite, seed=0)
    tuner = FineTuner(seed=0)
    task = suite.task(args.target)
    config = PipelineConfig.for_modality("nlp")
    fs_config = FineSelectionConfig(total_epochs=5)

    print(f"Target task: {args.target} ({task.num_classes} classes, "
          f"{len(task.train)} train / {len(task.val)} val / {len(task.test)} test)")
    print(f"Repository : {len(hub)} checkpoints\n")

    print("[offline] building performance matrix + clustering (done once, reused for any target)")
    service = SelectionService.from_hub(hub, suite, config=config, fine_tuner=tuner)

    print("[1/3] brute force: fine-tune every checkpoint for 5 epochs")
    brute_force = BruteForceSelection(hub, tuner, config=fs_config).run(hub.model_names, task)

    print("[2/3] successive halving over the whole repository")
    halving = SuccessiveHalving(hub, tuner, config=fs_config).run(hub.model_names, task)

    print("[3/3] two-phase pipeline: coarse-recall (LEEP on cluster representatives) + fine-selection")
    two_phase = service.select(args.target)

    print("\nmethod               selected model                                  acc    cost(epochs)")
    print("-" * 100)
    rows = [
        ("brute force", brute_force.selected_model, brute_force.selected_accuracy, brute_force.total_cost),
        ("successive halving", halving.selected_model, halving.selected_accuracy, halving.total_cost),
        ("two-phase (CR+FS)", two_phase.selected_model, two_phase.selected_accuracy, two_phase.total_cost),
    ]
    for method, model, accuracy, cost in rows:
        print(f"{method:20s} {model:47s} {accuracy:.3f}  {cost:6.1f}")
    print("\nspeedup of the two-phase pipeline: "
          f"{brute_force.total_cost / two_phase.total_cost:.1f}x vs brute force, "
          f"{halving.total_cost / two_phase.total_cost:.1f}x vs successive halving")
    print("recalled candidates were: "
          + ", ".join(name.split("/")[-1] for name in two_phase.recall.recalled_models))


if __name__ == "__main__":
    main()
