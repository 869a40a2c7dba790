"""Batched multi-task selection: one offline phase, many online queries.

The paper's offline artifacts (performance matrix + model clustering) are
independent of the target task, so a production deployment serving many
selection queries should build them once and amortise them.
:meth:`~repro.core.pipeline.TwoPhaseSelector.select_many` does exactly
that: it submits every target as one request to a per-call
:class:`~repro.sched.scheduler.EpochScheduler` sharing one clustering and
one pair of online engines, and aggregates the per-task
:class:`~repro.core.results.SelectionResult` records into one
:class:`BatchSelectionReport`.  This module holds the report type and the
helpers every online entry point shares: :func:`build_phase_engines`,
:func:`resolve_target_task` and :func:`resolve_target_batch`.

Typical use::

    from repro.core import TwoPhaseSelector
    from repro.data import nlp_suite
    from repro.zoo import ModelHub

    suite = nlp_suite(seed=0)
    hub = ModelHub(suite, seed=0)
    selector = TwoPhaseSelector.from_hub(hub, suite)
    report = selector.select_many(["mnli", "boolq"])
    report.selected_models()            # {'mnli': ..., 'boolq': ...}
    report.totals()["total_cost"]       # summed epoch-equivalent cost
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Union

from repro.core.recall import CoarseRecall
from repro.core.results import (
    SelectionResult,
    TwoPhaseResult,
    aggregate_epoch_accounting,
)
from repro.core.selection import FineSelection
from repro.data.tasks import ClassificationTask
from repro.utils.exceptions import SelectionError
from repro.zoo.finetune import FineTuner

TargetLike = Union[str, ClassificationTask]


def build_phase_engines(artifacts, fine_tuner: FineTuner, *, extrapolation=None):
    """Construct the online-phase engine pair for one set of offline artifacts.

    Shared by :class:`~repro.core.pipeline.TwoPhaseSelector`,
    :class:`~repro.service.SelectionService` and
    :meth:`~repro.sched.scheduler.EpochScheduler.for_artifacts` so the
    entry points can never drift in how they wire :class:`CoarseRecall`
    and :class:`FineSelection`.  ``extrapolation`` (an
    :class:`~repro.core.extrapolation.ExtrapolationConfig`) sets the fine
    selection's default speculative early-stopping mode; ``None`` is exact.
    """
    config = artifacts.config
    recall = CoarseRecall(
        artifacts.hub, artifacts.matrix, artifacts.clustering, config=config.recall
    )
    fine_selection = FineSelection(
        artifacts.hub,
        artifacts.matrix,
        fine_tuner,
        config=config.fine_selection,
        extrapolation=extrapolation,
    )
    return recall, fine_selection


def resolve_target_task(suite, target: TargetLike) -> ClassificationTask:
    """Resolve a target given by name or task object against ``suite``.

    Shared by :class:`~repro.core.pipeline.TwoPhaseSelector` and
    :class:`~repro.sched.scheduler.EpochScheduler`.
    """
    if isinstance(target, ClassificationTask):
        return target
    if target not in suite.dataset_names:
        raise SelectionError(
            f"unknown target dataset {target!r}; known: {suite.dataset_names}"
        )
    return suite.task(target)


def resolve_target_batch(
    suite, targets: Sequence[TargetLike]
) -> List[ClassificationTask]:
    """Resolve a ``select_many`` batch: at least one target, none twice."""
    tasks = [resolve_target_task(suite, target) for target in targets]
    if not tasks:
        raise SelectionError("target batch must not be empty")
    seen = set()
    for task in tasks:
        if task.name in seen:
            raise SelectionError(f"duplicate target {task.name!r} in batch")
        seen.add(task.name)
    return tasks


@dataclass
class BatchSelectionReport:
    """Outcome of one batched multi-task selection run.

    Attributes
    ----------
    results:
        Per-target :class:`TwoPhaseResult`, keyed by target name in the
        order the targets were submitted.
    """

    results: Dict[str, TwoPhaseResult] = field(default_factory=dict)

    @property
    def target_names(self) -> List[str]:
        """Targets in submission order."""
        return list(self.results)

    def result_for(self, target_name: str) -> TwoPhaseResult:
        """Full two-phase result of one target."""
        if target_name not in self.results:
            raise SelectionError(
                f"no batch result for target {target_name!r}; "
                f"known: {self.target_names}"
            )
        return self.results[target_name]

    def selected_models(self) -> Dict[str, str]:
        """Selected checkpoint per target."""
        return {name: result.selected_model for name, result in self.results.items()}

    def selection_results(self) -> List[SelectionResult]:
        """The per-task fine-selection records (carrying the epoch accounting)."""
        return [result.selection for result in self.results.values()]

    def totals(self) -> Dict[str, float]:
        """Aggregated epoch accounting across every task in the batch.

        The proxy-inference cost of each task's recall phase is folded into
        its ``SelectionResult.extra_epoch_cost`` before aggregation, so
        ``totals()["total_cost"]`` is the batch's full epoch-equivalent bill.
        """
        return aggregate_epoch_accounting(self.selection_results())

    def summary(self) -> Dict[str, float]:
        """Compact numeric summary (totals plus the mean selected accuracy)."""
        totals = self.totals()
        if self.results:
            totals["mean_selected_accuracy"] = sum(
                result.selected_accuracy for result in self.results.values()
            ) / len(self.results)
        return totals
