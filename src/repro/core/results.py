"""Result records returned by the recall and selection phases.

:class:`RecallResult` carries the Eq. 2–4 recall scores of the paper's
coarse-recall phase; :class:`SelectionResult` and :class:`TwoPhaseResult`
carry the epoch accounting of Algorithm 1 in the cost unit of the paper's
Tables V/VI (fine-tuning epochs, plus proxy inference charged at half an
epoch per scored representative in ``extra_epoch_cost``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional


@dataclass
class RecallResult:
    """Outcome of the coarse-recall phase for one target task.

    Attributes
    ----------
    target_name:
        Target dataset name.
    recalled_models:
        Top-K model names ordered by decreasing recall score.
    recall_scores:
        Eq. 2-4 recall score per model (all repository models).
    proxy_scores:
        Normalised proxy score per *representative* model actually scored.
    raw_proxy_scores:
        Unnormalised proxy scores per representative model.
    epoch_cost:
        Epoch-equivalent cost charged for the proxy computations.
    """

    target_name: str
    recalled_models: List[str]
    recall_scores: Dict[str, float]
    proxy_scores: Dict[str, float] = field(default_factory=dict)
    raw_proxy_scores: Dict[str, float] = field(default_factory=dict)
    epoch_cost: float = 0.0

    def rank_of(self, model_name: str) -> Optional[int]:
        """0-based rank of ``model_name`` among the recalled models (None if absent)."""
        try:
            return self.recalled_models.index(model_name)
        except ValueError:
            return None


@dataclass
class StageRecord:
    """One filtering stage of a selection run."""

    stage: int
    surviving_models: List[str]
    validation_accuracy: Dict[str, float]
    predicted_accuracy: Dict[str, float] = field(default_factory=dict)
    removed_by_trend: List[str] = field(default_factory=list)
    removed_by_halving: List[str] = field(default_factory=list)


@dataclass
class SelectionResult:
    """Outcome of one selection algorithm (BF / SH / FS) on one target task.

    ``runtime_epochs`` counts fine-tuning epochs exactly as the paper's
    Tables V/VI do; ``extra_epoch_cost`` carries non-training costs such as
    the proxy-score inference of the coarse-recall phase.  ``extras`` holds
    optional, JSON-friendly side records — today the speculative
    early-stopping layer's prune/regret accounting (see
    :mod:`repro.core.extrapolation`); it stays empty on the exact path, so
    exact-mode results are unchanged by its existence.
    """

    method: str
    target_name: str
    selected_model: str
    selected_accuracy: float
    selected_val_accuracy: float
    runtime_epochs: float
    num_candidates: int
    stages: List[StageRecord] = field(default_factory=list)
    final_accuracies: Dict[str, float] = field(default_factory=dict)
    extra_epoch_cost: float = 0.0
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def total_cost(self) -> float:
        """Fine-tuning epochs plus any extra epoch-equivalent cost."""
        return float(self.runtime_epochs) + float(self.extra_epoch_cost)


@dataclass
class TwoPhaseResult:
    """End-to-end outcome of the two-phase (coarse-recall + fine-selection) run."""

    target_name: str
    recall: RecallResult
    selection: SelectionResult

    @property
    def selected_model(self) -> str:
        """Final selected checkpoint."""
        return self.selection.selected_model

    @property
    def selected_accuracy(self) -> float:
        """Test accuracy of the selected checkpoint after full fine-tuning."""
        return self.selection.selected_accuracy

    @property
    def total_cost(self) -> float:
        """Total epoch-equivalent cost (proxy inference + fine-tuning)."""
        return self.selection.runtime_epochs + self.recall.epoch_cost


def aggregate_epoch_accounting(results: Iterable[SelectionResult]) -> Dict[str, float]:
    """Sum the epoch accounting of several :class:`SelectionResult` records.

    Returns the totals a batch run reports (the cost unit of the paper's
    Tables V/VI): fine-tuning epochs, extra epoch-equivalent costs (proxy
    inference), their sum, and the number of tasks aggregated.
    """
    totals = {
        "num_tasks": 0.0,
        "runtime_epochs": 0.0,
        "extra_epoch_cost": 0.0,
        "total_cost": 0.0,
    }
    for result in results:
        totals["num_tasks"] += 1.0
        totals["runtime_epochs"] += float(result.runtime_epochs)
        totals["extra_epoch_cost"] += float(result.extra_epoch_cost)
        totals["total_cost"] += result.total_cost
    return totals
