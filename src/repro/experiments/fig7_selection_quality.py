"""Fig. 7 — selected-model accuracy: successive halving vs fine-selection.

For every target dataset, the paper compares the final accuracy of the model
selected by successive halving (SH) against the proposed fine-selection (FS)
when starting from (a) the 10 coarse-recalled models and (b) the whole
repository, and also reports the best and worst ground-truth accuracy among
the top-10 recalled models as reference bounds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import FineSelectionConfig
from repro.core.selection import FineSelection, SuccessiveHalving
from repro.experiments.context import ExperimentContext
from repro.experiments.tables import TextTable


def run(
    context: ExperimentContext,
    *,
    targets: Optional[Sequence[str]] = None,
    top_k: int = 10,
    include_full_repository: bool = True,
) -> List[Dict[str, object]]:
    """SH vs FS selected accuracy per target, for top-K and full-repository pools."""
    truth = context.target_ground_truth()
    config = FineSelectionConfig(total_epochs=context.offline_epochs)
    methods = (
        SuccessiveHalving(context.hub, context.fine_tuner, config=config),
        FineSelection(context.hub, context.matrix, context.fine_tuner, config=config),
    )
    records: List[Dict[str, object]] = []
    target_names = list(targets) if targets else context.target_names
    for target in target_names:
        task = context.suite.task(target)
        accuracies = {name: curve.final_test for name, curve in truth[target].items()}
        recalled = context.selector.recall(target, top_k=top_k).recalled_models
        pools = {f"top{len(recalled)}": recalled}
        if include_full_repository:
            pools[f"all{len(context.hub)}"] = context.hub.model_names
        top_accs = [accuracies[name] for name in recalled]
        results = iter(
            context.run_policies(
                task,
                [(policy, pool) for pool in pools.values() for policy in methods],
            )
        )
        for pool_name, pool in pools.items():
            sh, fs = next(results), next(results)
            records.append(
                {
                    "modality": context.modality,
                    "target": target,
                    "pool": pool_name,
                    "num_models": len(pool),
                    "sh_accuracy": sh.selected_accuracy,
                    "fs_accuracy": fs.selected_accuracy,
                    "sh_model": sh.selected_model,
                    "fs_model": fs.selected_model,
                    "best_in_top10": float(np.max(top_accs)),
                    "worst_in_top10": float(np.min(top_accs)),
                }
            )
    return records


def render(records: List[Dict[str, object]]) -> str:
    """Render the Fig. 7 comparison."""
    table = TextTable(
        [
            "modality",
            "target",
            "pool",
            "num_models",
            "sh_accuracy",
            "fs_accuracy",
            "best_in_top10",
            "worst_in_top10",
        ],
        title="Fig. 7: selected-model accuracy, successive halving (SH) vs fine-selection (FS)",
    )
    for record in records:
        table.add_dict_row(record)
    return table.render()
