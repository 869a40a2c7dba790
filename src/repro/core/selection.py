"""Selection algorithms: brute force, successive halving, and fine-selection.

All three algorithms share the same contract: given a candidate model list
and a target task, fine-tune (subsets of) the candidates and return a
:class:`~repro.core.results.SelectionResult` whose ``runtime_epochs`` counts
every fine-tuning epoch spent — the cost unit of the paper's Tables V/VI.

* :class:`BruteForceSelection` fine-tunes every candidate for the full
  budget and keeps the best validation performer.
* :class:`SuccessiveHalving` trains every surviving candidate for one
  validation interval per stage and discards the worse half at each stage.
* :class:`FineSelection` (Algorithm 1) additionally predicts each survivor's
  final accuracy from its benchmark convergence trends and drops candidates
  whose predicted ceiling is below a better-validating competitor's by more
  than a threshold — allowing it to cut more than half per stage.

Each algorithm is a :class:`~repro.core.plan.StagePolicy` — the per-stage
filtering rule a :class:`~repro.core.plan.SelectionPlan` applies.  The
policies train nothing themselves: ``submit(task, policy=...,
candidates=...)`` makes one a request on an
:class:`~repro.sched.scheduler.EpochScheduler`, the engine of every
selection, whose result is the plan's :class:`SelectionResult`.
:meth:`_SelectionBase.run` is that request alone on a scheduler of its own.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import FineSelectionConfig
from repro.core.convergence import (
    ConvergenceTrendMiner,
    TrendTable,
    lookup_trend_set,
)
from repro.core.extrapolation import CurveExtrapolator, ExtrapolationConfig
from repro.core.performance import PerformanceMatrix
from repro.core.plan import SessionView, StagePolicy
from repro.core.results import SelectionResult, StageRecord
from repro.data.tasks import ClassificationTask
from repro.zoo.finetune import FineTuner
from repro.zoo.hub import ModelHub


class _SelectionBase(StagePolicy):
    """Shared plumbing: the hub, tuner and config, and ``run``."""

    method = "base"

    def __init__(
        self,
        hub: ModelHub,
        fine_tuner: Optional[FineTuner] = None,
        *,
        config: Optional[FineSelectionConfig] = None,
    ) -> None:
        self.hub = hub
        self.fine_tuner = fine_tuner or FineTuner(seed=0)
        self.config = config or FineSelectionConfig()

    # ------------------------------------------------------------------ #
    def run(self, candidates: Sequence[str], task: ClassificationTask) -> SelectionResult:
        """Select among ``candidates`` on ``task`` on a scheduler of its own."""
        from repro.sched.config import SchedulerConfig
        from repro.sched.scheduler import EpochScheduler, SchedulerContext

        context = SchedulerContext(
            artifacts=None,
            recall=None,
            fine_selection=self,
            version_key=self.hub.version.key,
            fine_tuner=self.fine_tuner,
        )
        scheduler = EpochScheduler(
            lambda: context,
            config=SchedulerConfig(max_concurrent=1, max_queue=1, epoch_budget=None),
        )
        request = scheduler.submit(task, candidates=candidates)
        scheduler.run_until_idle()
        return scheduler.result(request)


class BruteForceSelection(_SelectionBase):
    """Fine-tune every candidate for the full budget; keep the best validator."""

    method = "brute_force"

    def stage_schedule(self) -> List[int]:
        """A single stage spending the whole fine-tuning budget."""
        return [self.config.total_epochs]

    def filter_stage(
        self,
        stage_index: int,
        surviving: Sequence[str],
        validations: Dict[str, float],
        *,
        cohort_extra: int = 0,
    ) -> Tuple[List[str], StageRecord]:
        """Keep the best validator (earlier candidate wins ties)."""
        names = list(surviving)
        winner = max(names, key=lambda name: (validations[name], -names.index(name)))
        record = StageRecord(
            stage=stage_index,
            surviving_models=[winner],
            validation_accuracy=validations,
        )
        return [winner], record


class SuccessiveHalving(_SelectionBase):
    """Classic successive halving over fine-tuning epochs (the SH baseline)."""

    method = "successive_halving"

    def stage_schedule(self) -> List[int]:
        """One validation interval per stage across the full budget."""
        interval = self.config.validation_interval
        return [interval] * (self.config.total_epochs // interval)

    def filter_stage(
        self,
        stage_index: int,
        surviving: Sequence[str],
        validations: Dict[str, float],
        *,
        cohort_extra: int = 0,
    ) -> Tuple[List[str], StageRecord]:
        """Drop the worse half of the surviving candidates."""
        kept = list(surviving)
        removed: List[str] = []
        if len(kept) + cohort_extra > 1:
            keep = min(
                len(kept), max(1, (len(kept) + cohort_extra) // 2)
            )
            ordered = sorted(kept, key=lambda name: -validations[name])
            removed = ordered[keep:]
            kept = ordered[:keep]
        record = StageRecord(
            stage=stage_index,
            surviving_models=list(kept),
            validation_accuracy=validations,
            removed_by_halving=removed,
        )
        return kept, record


class FineSelection(_SelectionBase):
    """Algorithm 1: successive halving accelerated by convergence-trend prediction."""

    method = "fine_selection"

    def __init__(
        self,
        hub: ModelHub,
        matrix: PerformanceMatrix,
        fine_tuner: Optional[FineTuner] = None,
        *,
        config: Optional[FineSelectionConfig] = None,
        trend_miner: Optional[ConvergenceTrendMiner] = None,
        extrapolation: Optional[ExtrapolationConfig] = None,
    ) -> None:
        super().__init__(hub, fine_tuner, config=config)
        self.matrix = matrix
        self.trend_miner = trend_miner or ConvergenceTrendMiner(
            num_trends=self.config.num_trends
        )
        #: Speculative early-stopping config; ``None`` (or disabled) keeps
        #: the exact, paper-faithful path.  Mutable so the scheduler's
        #: per-request policy clone can override it without rebuilding the
        #: engine (mirrors the ``total_epochs`` budget override).
        self.extrapolation = extrapolation
        #: Eq. 5/6 trend sets of this engine's matrix, mined once per
        #: ``(model, stage, num_trends)`` and read by both the Algorithm 1
        #: filter and the extrapolation bound.  Created here so the
        #: scheduler's per-request ``copy.copy`` clones share it; a new
        #: matrix means a new engine and so a new table.
        self._trend_sets: TrendTable = {}
        self._extrapolator_cache: Optional[
            Tuple[ExtrapolationConfig, CurveExtrapolator]
        ] = None

    # ------------------------------------------------------------------ #
    def stage_schedule(self) -> List[int]:
        """One validation interval per stage across the full budget."""
        interval = self.config.validation_interval
        return [interval] * (self.config.total_epochs // interval)

    def filter_stage(
        self,
        stage_index: int,
        surviving: Sequence[str],
        validations: Dict[str, float],
        *,
        cohort_extra: int = 0,
    ) -> Tuple[List[str], StageRecord]:
        """Trend-filter then halve the stage's survivors (Algorithm 1)."""
        kept = list(surviving)
        predicted: Dict[str, float] = {}
        removed_by_trend: List[str] = []
        removed_by_halving: List[str] = []
        if len(kept) + cohort_extra > 1:
            stage_number = (stage_index + 1) * self.config.validation_interval
            if self.config.use_trend_filter:
                predicted = self._predict_final_accuracies(
                    kept, validations, stage_number
                )
                kept, removed_by_trend = self._trend_filter(
                    kept, validations, predicted
                )
            kept, removed_by_halving = self._halve(
                kept,
                validations,
                original_count=len(validations) + cohort_extra,
            )
        record = StageRecord(
            stage=stage_index,
            surviving_models=list(kept),
            validation_accuracy=validations,
            predicted_accuracy=predicted,
            removed_by_trend=removed_by_trend,
            removed_by_halving=removed_by_halving,
        )
        return kept, record

    # ------------------------------------------------------------------ #
    def prune_before_stage(
        self,
        stage_index: int,
        surviving: Sequence[str],
        views: Dict[str, SessionView],
        schedule: Sequence[int],
    ) -> Tuple[List[str], Dict[str, Dict[str, object]]]:
        """Retire arms whose extrapolated ceiling cannot beat the rung leader.

        Fires between stages, after the Algorithm 1 filter.  The current
        leader (best validator, earlier candidate breaking ties — the same
        rule every stage filter uses) is always kept; any other arm is
        pruned when its :class:`~repro.core.extrapolation.CurveBound` upper
        bound is *strictly below* the leader's trajectory — the max of its
        already-observed validation accuracy and its own Eq. 5/6 predicted
        final — i.e. even the optimistic reading of the arm's benchmark
        history cannot catch where the leader already is or is headed.
        Deterministic, so a journal replay re-derives the identical prune
        set.
        """
        config = self.extrapolation
        if config is None or not config.enabled or len(surviving) <= 1:
            return list(surviving), {}
        if stage_index < config.min_stages:
            return list(surviving), {}
        stage_epoch = sum(int(epochs) for epochs in schedule[:stage_index])
        if stage_epoch < 1:
            return list(surviving), {}
        budget = sum(int(epochs) for epochs in schedule)
        names = list(surviving)
        validations = {name: views[name].validation_accuracy() for name in names}
        leader = max(names, key=lambda name: (validations[name], -names.index(name)))
        extrapolator = self._extrapolator(config)
        leader_bound = extrapolator.bound(
            leader, validations[leader], stage_epoch=stage_epoch
        )
        bar = max(float(validations[leader]), leader_bound.predicted_final)
        kept: List[str] = []
        pruned: Dict[str, Dict[str, object]] = {}
        for name in names:
            if name == leader:
                kept.append(name)
                continue
            bound = extrapolator.bound(
                name, validations[name], stage_epoch=stage_epoch
            )
            if bound.upper_bound < bar:
                pruned[name] = {
                    "stage": int(stage_index),
                    "epoch": int(stage_epoch),
                    "observed_val": float(bound.observed_val),
                    "predicted_final": float(bound.predicted_final),
                    "upper_bound": float(bound.upper_bound),
                    "leader": leader,
                    "leader_val": float(validations[leader]),
                    "leader_predicted": float(bar),
                    "epochs_saved": int(budget - stage_epoch),
                }
            else:
                kept.append(name)
        return kept, pruned

    def _extrapolator(self, config: ExtrapolationConfig) -> CurveExtrapolator:
        """Per-config extrapolator, cached so shared plans rebuild nothing."""
        cached = self._extrapolator_cache
        if cached is None or cached[0] is not config:
            extrapolator = CurveExtrapolator(
                self.matrix,
                config=config,
                trend_miner=self.trend_miner,
                trend_sets=self._trend_sets,
            )
            cached = (config, extrapolator)
            self._extrapolator_cache = cached
        return cached[1]

    # ------------------------------------------------------------------ #
    def _predict_final_accuracies(
        self,
        surviving: Sequence[str],
        validations: Dict[str, float],
        stage_number: int,
    ) -> Dict[str, float]:
        """Eq. 5/6 prediction for every surviving candidate."""
        predictions: Dict[str, float] = {}
        for name in surviving:
            trend_set = lookup_trend_set(
                self._trend_sets,
                self.trend_miner,
                self.matrix,
                name,
                stage=stage_number,
            )
            if trend_set is None:
                # No offline convergence information (e.g. reduced matrix):
                # fall back to the current validation accuracy.
                predictions[name] = validations[name]
                continue
            predictions[name] = trend_set.predict(validations[name])
        return predictions

    def _trend_filter(
        self,
        surviving: Sequence[str],
        validations: Dict[str, float],
        predicted: Dict[str, float],
    ) -> tuple[List[str], List[str]]:
        """Remove candidates dominated in both validation and predicted accuracy.

        Starting from the worst validator, a candidate is removed when some
        remaining candidate has strictly better validation accuracy *and* a
        predicted final accuracy that is better by more than the configured
        relative threshold.
        """
        threshold = self.config.threshold
        kept = list(surviving)
        removed: List[str] = []
        for name in sorted(surviving, key=lambda n: validations[n]):
            if len(kept) <= 1:
                break
            others = [other for other in kept if other != name]
            dominated = any(
                validations[other] > validations[name]
                and (predicted[other] - predicted[name]) > threshold * max(predicted[name], 1e-12)
                for other in others
            )
            if dominated:
                kept.remove(name)
                removed.append(name)
        return kept, removed

    @staticmethod
    def _halve(
        surviving: Sequence[str],
        validations: Dict[str, float],
        *,
        original_count: int,
    ) -> tuple[List[str], List[str]]:
        """Guarantee at least half of the stage's starting pool is dropped."""
        keep_limit = max(1, original_count // 2)
        ordered = sorted(surviving, key=lambda name: -validations[name])
        kept = ordered[:keep_limit]
        removed = ordered[keep_limit:]
        return kept, removed
