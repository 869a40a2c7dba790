"""Run every experiment of the paper's evaluation section in one call.

``run_all`` executes all tables and figures for both modalities and returns
their rendered text blocks; the ``examples/reproduce_paper.py`` script and
the EXPERIMENTS.md document are produced from this output.
``run_batched_selection`` answers all of a modality's target tasks in one
batched pass over the shared offline artifacts (and, thanks to the artifact
cache, reuses similarity/distance matrices across figures and repeat runs).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.batch import BatchSelectionReport

from repro.experiments import (
    fig1_distribution,
    fig3_validation_curves,
    fig4_convergence_groups,
    fig5_recall_quality,
    fig6_trend_quality,
    fig7_selection_quality,
    table1_clustering_methods,
    table2_cluster_membership,
    table3_singleton_vs_non,
    table4_threshold,
    table5_runtime,
    table6_end_to_end,
    table7_case_study,
    tablex_topk_parameter,
)
from repro.experiments.context import ExperimentContext, get_context


def _per_modality(module) -> Callable[[Dict[str, ExperimentContext]], str]:
    """Wrap a per-modality experiment into an all-modalities renderer."""

    def runner(contexts: Dict[str, ExperimentContext]) -> str:
        blocks = []
        for context in contexts.values():
            blocks.append(module.render(module.run(context)))
        return "\n\n".join(blocks)

    return runner


#: Ordered experiment registry: experiment id -> callable(contexts) -> text.
EXPERIMENTS: Dict[str, Callable[[Dict[str, ExperimentContext]], str]] = {
    "fig1": _per_modality(fig1_distribution),
    "table1": lambda contexts: table1_clustering_methods.render(
        table1_clustering_methods.run(contexts)
    ),
    "table2": _per_modality(table2_cluster_membership),
    "table3": _per_modality(table3_singleton_vs_non),
    "fig3": _per_modality(fig3_validation_curves),
    "fig4": _per_modality(fig4_convergence_groups),
    "fig5": _per_modality(fig5_recall_quality),
    "fig6": _per_modality(fig6_trend_quality),
    "table4": _per_modality(table4_threshold),
    "fig7": _per_modality(fig7_selection_quality),
    "table5": _per_modality(table5_runtime),
    "table6": _per_modality(table6_end_to_end),
    "table7": _per_modality(table7_case_study),
    "tablex": _per_modality(tablex_topk_parameter),
}


def run_all(
    *,
    scale: Optional[str] = None,
    seed: int = 0,
    only: Optional[List[str]] = None,
    modalities: Tuple[str, ...] = ("nlp", "cv"),
) -> Dict[str, str]:
    """Run the selected experiments and return experiment-id -> rendered text."""
    contexts = {
        modality: get_context(modality, scale=scale, seed=seed)
        for modality in modalities
    }
    selected = only or list(EXPERIMENTS)
    outputs: Dict[str, str] = {}
    for experiment_id in selected:
        if experiment_id not in EXPERIMENTS:
            raise KeyError(
                f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
            )
        outputs[experiment_id] = EXPERIMENTS[experiment_id](contexts)
    return outputs


def run_batched_selection(
    modality: str = "nlp",
    *,
    targets: Optional[Sequence[str]] = None,
    top_k: Optional[int] = None,
    scale: Optional[str] = None,
    seed: int = 0,
) -> BatchSelectionReport:
    """Run the two-phase pipeline for a batch of targets of one modality.

    Uses the memoised :class:`~repro.experiments.context.ExperimentContext`
    selection service (and its offline artifacts), so the offline phase is
    shared with every other experiment of the same ``(modality, scale,
    seed)`` triple.  ``targets`` defaults to every target dataset of the modality's
    workload suite.
    """
    context = get_context(modality, scale=scale, seed=seed)
    resolved = context.target_names if targets is None else list(targets)
    return context.selector.select_many(resolved, top_k=top_k)


def render_report(outputs: Dict[str, str]) -> str:
    """Concatenate experiment outputs into one report string."""
    blocks = []
    for experiment_id, text in outputs.items():
        blocks.append(f"=== {experiment_id} ===\n{text}")
    return "\n\n".join(blocks)
