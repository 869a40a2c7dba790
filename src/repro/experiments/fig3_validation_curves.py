"""Fig. 3 / Fig. 8 — validation and test curves of the top-10 recalled models.

The paper plots, for the MNLI target, the per-epoch validation and test
accuracy of the ten models surviving the coarse-recall phase, under two
learning-rate settings (3e-5 in Fig. 3, 1e-5 in Fig. 8) to show that the
early-epoch ordering is predictive of the final ordering and robust to
hyper-parameters.  We reproduce the same series with our fine-tuning engine
and report, for each setting, the rank correlation between first-epoch
validation accuracy and final test accuracy.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.experiments.context import ExperimentContext
from repro.experiments.tables import TextTable
from repro.zoo.finetune import FineTuneConfig

#: Two hyper-parameter settings mirroring Fig. 3 (default) and Fig. 8 (low lr).
LEARNING_RATE_SETTINGS = {"default": 5e-2, "low": 1e-2}


def _spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation of two 1-d arrays."""
    ranks_a = np.argsort(np.argsort(a))
    ranks_b = np.argsort(np.argsort(b))
    if np.std(ranks_a) == 0 or np.std(ranks_b) == 0:
        return 0.0
    return float(np.corrcoef(ranks_a, ranks_b)[0, 1])


def run(
    context: ExperimentContext,
    *,
    target_name: str | None = None,
    top_k: int = 10,
) -> Dict[str, object]:
    """Fine-tune the top-K recalled models on the target under both settings."""
    target = target_name or ("mnli" if context.modality == "nlp" else "oxford_flowers")
    task = context.suite.task(target)
    recall = context.selector.recall(target, top_k=top_k)
    settings: Dict[str, Dict[str, object]] = {}
    for setting_name, learning_rate in LEARNING_RATE_SETTINGS.items():
        config = FineTuneConfig(
            epochs=context.offline_epochs, learning_rate=learning_rate
        )
        models = [context.hub.get(name) for name in recall.recalled_models]
        curves = dict(
            zip(
                recall.recalled_models,
                context.fine_tuner.fine_tune_many(models, task, config=config),
            )
        )
        first_val = np.array([curve.val_accuracy[0] for curve in curves.values()])
        final_test = np.array([curve.final_test for curve in curves.values()])
        settings[setting_name] = {
            "learning_rate": learning_rate,
            "curves": {
                name: {
                    "val_accuracy": list(curve.val_accuracy),
                    "test_accuracy": list(curve.test_accuracy),
                }
                for name, curve in curves.items()
            },
            "early_vs_final_spearman": _spearman(first_val, final_test),
        }
    return {
        "modality": context.modality,
        "target": target,
        "recalled_models": list(recall.recalled_models),
        "settings": settings,
    }


def render(result: Dict[str, object]) -> str:
    """Render the Fig. 3 / Fig. 8 curves as per-epoch tables."""
    lines: List[str] = []
    for setting_name, payload in result["settings"].items():  # type: ignore[union-attr]
        curves: Dict[str, Dict[str, List[float]]] = payload["curves"]
        num_epochs = max(len(c["val_accuracy"]) for c in curves.values())
        columns = ["model"] + [f"val@{e + 1}" for e in range(num_epochs)] + ["final_test"]
        table = TextTable(
            columns,
            title=(
                f"Fig. 3/8 ({result['modality'].upper()}, lr setting={setting_name}, "
                f"lr={payload['learning_rate']}): top-10 models on {result['target']} "
                f"(early-vs-final spearman={payload['early_vs_final_spearman']:.3f})"
            ),
        )
        for model, curve in curves.items():
            row: List[object] = [model.split("/")[-1]]
            row.extend(curve["val_accuracy"])
            row.extend(["-"] * (num_epochs - len(curve["val_accuracy"])))
            row.append(curve["test_accuracy"][-1])
            table.add_row(row)
        lines.append(table.render())
    return "\n\n".join(lines)
