"""Fig. 5 — coarse-recall vs random-recall quality.

For every target dataset the paper compares the *average ground-truth
fine-tuning accuracy* of the top-K models returned by coarse-recall against
K models drawn at random, for several values of K, and additionally reports
how many models must be recalled before the overall best model is included.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.recall import RandomRecall
from repro.experiments.context import ExperimentContext
from repro.experiments.tables import TextTable

DEFAULT_K_VALUES = (5, 10, 15, 20)


def run(
    context: ExperimentContext,
    *,
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    num_random_repeats: int = 5,
    targets: Optional[Sequence[str]] = None,
) -> List[Dict[str, object]]:
    """Average recalled-model accuracy per (target, K) for both recall methods."""
    truth = context.target_ground_truth()
    rng = np.random.default_rng(context.seed)
    records: List[Dict[str, object]] = []
    target_names = list(targets) if targets else context.target_names
    for target in target_names:
        task = context.suite.task(target)
        accuracies = {name: curve.final_test for name, curve in truth[target].items()}
        best_model = max(accuracies, key=accuracies.get)
        full_ranking = context.selector.recall(
            target, top_k=len(context.hub)
        ).recalled_models
        best_rank = full_ranking.index(best_model) + 1 if best_model in full_ranking else None
        for k in k_values:
            k = min(k, len(context.hub))
            coarse_top = full_ranking[:k]
            coarse_avg = float(np.mean([accuracies[name] for name in coarse_top]))
            random_avgs = []
            for _ in range(num_random_repeats):
                random_top = RandomRecall(context.hub, rng=rng).recall(task, top_k=k)
                random_avgs.append(
                    float(np.mean([accuracies[name] for name in random_top.recalled_models]))
                )
            records.append(
                {
                    "modality": context.modality,
                    "target": target,
                    "k": k,
                    "coarse_recall_avg_acc": coarse_avg,
                    "random_recall_avg_acc": float(np.mean(random_avgs)),
                    "best_model_recalled": best_model in coarse_top,
                    "best_model_rank": best_rank,
                }
            )
    return records


def render(records: List[Dict[str, object]]) -> str:
    """Render the Fig. 5 comparison."""
    table = TextTable(
        [
            "modality",
            "target",
            "k",
            "coarse_recall_avg_acc",
            "random_recall_avg_acc",
            "best_model_recalled",
            "best_model_rank",
        ],
        title="Fig. 5: average ground-truth accuracy of recalled models (coarse vs random)",
    )
    for record in records:
        table.add_dict_row(record)
    return table.render()
