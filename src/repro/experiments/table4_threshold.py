"""Table IV — fine-selection filtering-threshold sweep.

The convergence-trend filter removes a model only when a better-validating
competitor's *predicted* final accuracy exceeds the model's own prediction by
more than a threshold.  The paper sweeps 0 / 1 / 5 / 10 % on two NLP targets
(MNLI, MultiRC) and two CV targets (Flowers, X-Ray): larger thresholds keep
borderline models alive longer (equal or better accuracy, more epochs).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.config import FineSelectionConfig
from repro.core.selection import FineSelection
from repro.experiments.context import ExperimentContext
from repro.experiments.tables import TextTable

DEFAULT_THRESHOLDS = (0.0, 0.01, 0.05, 0.10)
DEFAULT_TARGETS = {
    "nlp": ("mnli", "multirc"),
    "cv": ("oxford_flowers", "chest_xray_classification"),
}


def run(
    context: ExperimentContext,
    *,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    targets: Optional[Sequence[str]] = None,
    top_k: int = 10,
) -> List[Dict[str, object]]:
    """Accuracy and runtime of fine-selection under each threshold."""
    target_names = list(targets) if targets else list(DEFAULT_TARGETS[context.modality])
    records: List[Dict[str, object]] = []
    for target in target_names:
        task = context.suite.task(target)
        recalled = context.selector.recall(target, top_k=top_k).recalled_models
        for threshold in thresholds:
            config = FineSelectionConfig(
                total_epochs=context.offline_epochs, threshold=threshold
            )
            selector = FineSelection(
                context.hub, context.matrix, context.fine_tuner, config=config
            )
            result = selector.run(recalled, task)
            records.append(
                {
                    "modality": context.modality,
                    "target": target,
                    "threshold": f"{threshold:.0%}",
                    "accuracy": result.selected_accuracy,
                    "runtime_epochs": result.runtime_epochs,
                    "selected_model": result.selected_model,
                }
            )
    return records


def render(records: List[Dict[str, object]]) -> str:
    """Render Table IV."""
    table = TextTable(
        ["modality", "target", "threshold", "accuracy", "runtime_epochs", "selected_model"],
        title="Table IV: fine-selection accuracy/runtime under different filtering thresholds",
    )
    for record in records:
        table.add_dict_row(
            {**record, "selected_model": str(record["selected_model"]).split("/")[-1]}
        )
    return table.render()
