"""Table V — runtime (fine-tuning epochs) of BF, SH and FS.

Runtime is counted in total fine-tuning epochs exactly as in the paper:
brute force costs ``|M| * epochs``; successive halving and fine-selection
cost whatever epochs they actually spend.  Speedups are reported relative to
brute force for both the 10 coarse-recalled models and the full repository.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

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
    """Runtime/speedup records per (target, pool, method)."""
    config = FineSelectionConfig(total_epochs=context.offline_epochs)
    methods = (
        SuccessiveHalving(context.hub, context.fine_tuner, config=config),
        FineSelection(context.hub, context.matrix, context.fine_tuner, config=config),
    )
    records: List[Dict[str, object]] = []
    target_names = list(targets) if targets else context.target_names
    for target in target_names:
        task = context.suite.task(target)
        recalled = context.selector.recall(target, top_k=top_k).recalled_models
        pools: Dict[str, List[str]] = {"recalled": list(recalled)}
        if include_full_repository:
            pools["all"] = list(context.hub.model_names)
        results = iter(
            context.run_policies(
                task,
                [(policy, pool) for pool in pools.values() for policy in methods],
            )
        )
        for pool_name, pool in pools.items():
            brute_force_epochs = len(pool) * config.total_epochs
            sh, fs = next(results), next(results)
            for method, runtime in (
                ("BF", float(brute_force_epochs)),
                ("SH", sh.runtime_epochs),
                ("FS", fs.runtime_epochs),
            ):
                records.append(
                    {
                        "modality": context.modality,
                        "target": target,
                        "pool": pool_name,
                        "num_models": len(pool),
                        "method": method,
                        "runtime_epochs": runtime,
                        "speedup_vs_bf": brute_force_epochs / runtime if runtime else float("inf"),
                    }
                )
    return records


def render(records: List[Dict[str, object]]) -> str:
    """Render Table V."""
    table = TextTable(
        [
            "modality",
            "target",
            "pool",
            "num_models",
            "method",
            "runtime_epochs",
            "speedup_vs_bf",
        ],
        title="Table V: model-selection runtime in fine-tuning epochs (speedup vs brute force)",
    )
    for record in records:
        table.add_dict_row(record)
    return table.render()
