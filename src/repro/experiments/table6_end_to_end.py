"""Table VI — end-to-end comparison: two-phase (CR+FS) vs BF vs SH.

The two-phase pipeline's cost includes the coarse-recall proxy inference
(charged at half an epoch per scored cluster, as in the paper) plus the
fine-selection epochs over the recalled models; BF and SH operate on the
whole repository.  Accuracy is the final test accuracy of each method's
selected checkpoint after full fine-tuning.  The three methods of a target
run as three requests on one scheduler and share its sessions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.config import FineSelectionConfig
from repro.core.selection import BruteForceSelection, SuccessiveHalving
from repro.experiments.context import ExperimentContext
from repro.experiments.tables import TextTable


def run(
    context: ExperimentContext,
    *,
    targets: Optional[Sequence[str]] = None,
    top_k: int = 10,
) -> List[Dict[str, object]]:
    """End-to-end runtime/accuracy comparison per target dataset."""
    config = FineSelectionConfig(total_epochs=context.offline_epochs)
    records: List[Dict[str, object]] = []
    target_names = list(targets) if targets else context.target_names
    all_models = context.hub.model_names
    for target in target_names:
        task = context.suite.task(target)
        scheduler = context.selector.inline_scheduler(3)
        requests = [scheduler.submit(task, top_k=top_k)] + [
            scheduler.submit(
                task,
                policy=method(context.hub, context.fine_tuner, config=config),
                candidates=all_models,
            )
            for method in (BruteForceSelection, SuccessiveHalving)
        ]
        scheduler.run_until_idle()
        two_phase, brute_force, halving = map(scheduler.result, requests)
        two_phase_cost = two_phase.total_cost
        records.append(
            {
                "modality": context.modality,
                "target": target,
                "runtime_2ph": two_phase_cost,
                "runtime_bf": brute_force.total_cost,
                "runtime_sh": halving.total_cost,
                "speedup_vs_bf": brute_force.total_cost / two_phase_cost,
                "speedup_vs_sh": halving.total_cost / two_phase_cost,
                "acc_bf": brute_force.selected_accuracy,
                "acc_sh": halving.selected_accuracy,
                "acc_2ph": two_phase.selected_accuracy,
                "model_2ph": two_phase.selected_model,
            }
        )
    return records


def render(records: List[Dict[str, object]]) -> str:
    """Render Table VI."""
    table = TextTable(
        [
            "modality",
            "target",
            "runtime_2ph",
            "speedup_vs_bf",
            "speedup_vs_sh",
            "acc_bf",
            "acc_sh",
            "acc_2ph",
        ],
        title=(
            "Table VI: end-to-end runtime (epoch-equivalents) and accuracy — "
            "two-phase (2PH) vs brute force (BF) vs successive halving (SH)"
        ),
    )
    for record in records:
        table.add_dict_row(record)
    return table.render()
