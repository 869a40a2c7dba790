"""Resumable state machine for one online selection request.

The paper's online phase — coarse recall followed by Algorithm 1's staged
halving — is decomposed by :class:`SelectionPlan` into an explicit state
machine whose unit of work is a single :class:`TrainStep` — "advance model
*m* by one validation interval for this request".  A driver claims steps,
trains the corresponding sessions (in any order) and
reports completions; the plan advances a stage only once every step of that
stage has completed, applying the algorithm's filtering rule through its
:class:`StagePolicy`.

One driver exists: :class:`repro.sched.scheduler.EpochScheduler`
interleaves the steps of many plans over a shared epoch budget.  Every
entry point — a single :meth:`~repro.service.SelectionService.select`,
a batch, a Table VI row, and a selection policy's own ``run`` over
fixed candidates — submits to one.  A request's
:class:`~repro.core.results.SelectionResult` does not depend on the
scheduling because every stochastic quantity lives in the per-``(model,
task)`` named random streams of the fine-tuning sessions, and the plan
reads every validation/test accuracy from the session's recorded learning
curve at the *request's own* epoch position (:class:`SessionView`) —
never from the mutable head state, which a shared session may have
trained further.  ``tests/oracles.py`` keeps the blocking stage-by-stage
loop the scheduler is proven against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.results import RecallResult, SelectionResult, StageRecord, TwoPhaseResult
from repro.data.tasks import ClassificationTask
from repro.persist.hooks import fire_crash_point
from repro.utils.exceptions import SelectionError
from repro.zoo.finetune import FineTuneSession


class SessionView:
    """One request's view on a (possibly shared) fine-tuning session.

    ``position`` is the number of epochs *this request* has trained the
    session through; the underlying session may be further along when
    another request shares it.  All accuracy reads index the recorded
    learning curve at ``position``, so a view is unaffected by later
    training — the property that makes session sharing bitwise-safe.
    """

    def __init__(self, session: FineTuneSession) -> None:
        self.session = session
        self.position = 0

    @property
    def curve(self):
        """Learning curve of the underlying session."""
        return self.session.curve

    def adopt(self, session: FineTuneSession, *, advance: int) -> None:
        """Advance the view by ``advance`` epochs over ``session``.

        ``session`` is the trained session object, which must have
        recorded at least the view's new position.
        """
        self.session = session
        self.position += int(advance)
        if self.session.epochs_trained < self.position:
            raise SelectionError(
                f"session for {session.curve.model_name!r} trained to epoch "
                f"{session.epochs_trained}, view requires {self.position}"
            )

    def _at_position(self, series: List[float]) -> float:
        if self.position < 1:
            raise SelectionError("view has not trained any epochs yet")
        return series[self.position - 1]

    def validation_accuracy(self) -> float:
        """Validation accuracy at the view's epoch position."""
        return self._at_position(self.curve.val_accuracy)

    def test_accuracy(self) -> float:
        """Test accuracy at the view's epoch position."""
        return self._at_position(self.curve.test_accuracy)


@dataclass(frozen=True)
class TrainStep:
    """Unit of schedulable work: advance one model by ``epochs`` epochs.

    Steps are request-scoped — the same ``(model, stage)`` pair of two
    concurrent requests is two distinct steps, even when both resolve to
    one shared pooled session underneath.
    """

    model: str
    epochs: int
    stage: int


class StagePolicy:
    """Filtering rule a :class:`SelectionPlan` applies between stages.

    Implemented by the selection algorithms in
    :mod:`repro.core.selection`: brute force (single full-budget stage,
    winner by final validation), successive halving and Algorithm 1's
    trend-filtered halving.  Policies are stateless with respect to any
    single request, so one policy instance can serve many concurrent
    plans.
    """

    method = "base"

    def stage_schedule(self) -> List[int]:
        """Epochs trained per stage, e.g. ``[1, 1, 1, 1, 1]`` or ``[5]``."""
        raise NotImplementedError

    def filter_stage(
        self,
        stage_index: int,
        surviving: Sequence[str],
        validations: Dict[str, float],
        *,
        cohort_extra: int = 0,
    ) -> Tuple[List[str], StageRecord]:
        """Apply the algorithm's stage filter; return survivors + record.

        ``cohort_extra`` is the number of speculatively pruned arms that
        would still occupy (bottom-ranked) slots of this stage's cohort in
        an exact run.  Halving-style policies must fold it into their
        keep-limit arithmetic so pruning an arm can never change the fate
        of the arms that were *kept* — it is always 0 in exact mode, and
        the plan only passes it when nonzero.
        """
        raise NotImplementedError

    def prune_before_stage(
        self,
        stage_index: int,
        surviving: Sequence[str],
        views: Dict[str, "SessionView"],
        schedule: Sequence[int],
    ) -> Tuple[List[str], Dict[str, Dict[str, object]]]:
        """Speculative early stopping before ``stage_index`` opens.

        Returns the arms to keep plus a JSON-friendly prune record per
        retired arm.  The default is a no-op — only
        :class:`~repro.core.selection.FineSelection` with an enabled
        :class:`~repro.core.extrapolation.ExtrapolationConfig` overrides
        it, so every other policy (and exact mode) is untouched.
        """
        return list(surviving), {}


class SelectionPlan:
    """Explicit, resumable state machine of one selection request.

    States: one **train/filter** cycle per stage of the policy's schedule,
    then **done** (``result`` is set).  Between those transitions the plan
    is inert data — it never blocks, so a scheduler can hold hundreds of
    plans and advance whichever has runnable steps.

    Parameters
    ----------
    policy:
        The :class:`StagePolicy` applying the per-stage filtering rule.
    task:
        Target task of the request.
    view_factory:
        Maps a candidate model name to the :class:`SessionView` the plan
        trains and reads (pooled views under the scheduler).
    candidates:
        Candidate model names — the recalled models of a two-phase
        request, or a policy's fixed candidate list.
    recall_result:
        The coarse-recall outcome the candidates came from, if any; makes
        :meth:`two_phase_result` available and charges the recall's proxy
        cost to the result.
    """

    def __init__(
        self,
        *,
        policy: StagePolicy,
        task: ClassificationTask,
        view_factory: Callable[[str], SessionView],
        candidates: Sequence[str],
        recall_result: Optional[RecallResult] = None,
    ) -> None:
        self._policy = policy
        self.task = task
        self._stage_epochs = list(policy.stage_schedule())
        if not self._stage_epochs:
            raise SelectionError("stage schedule must not be empty")
        names = list(candidates)
        if not names:
            raise SelectionError("candidate list must not be empty")
        self.recall_result = recall_result
        self.stage_index = 0
        self.runtime_epochs = 0.0
        self.stages: List[StageRecord] = []
        #: Arms retired by the speculative pruning hook, in decision order
        #: (insertion-ordered): model name -> JSON-friendly prune record.
        #: Always empty in exact mode.
        self.pruned: Dict[str, Dict[str, object]] = {}
        self.result: Optional[SelectionResult] = None
        self.candidates: List[str] = names
        self.surviving: List[str] = list(names)
        # Candidate order fixes the iteration (and result-dict) order
        # everywhere downstream.
        self.views: Dict[str, SessionView] = {
            name: view_factory(name) for name in names
        }
        self._unclaimed: List[TrainStep] = []
        self._inflight: set = set()
        self._stage_open = False

    # ------------------------------------------------------------------ #
    # state inspection
    # ------------------------------------------------------------------ #
    @property
    def done(self) -> bool:
        """Whether the request has finished (``result`` is available)."""
        return self.result is not None

    @property
    def num_stages(self) -> int:
        """Total stages of the policy's schedule."""
        return len(self._stage_epochs)

    @property
    def stage_schedule(self) -> List[int]:
        """Epochs trained per stage (a copy of the policy's schedule).

        Journals record this with every request and result so a later
        budget raise — which reuses the same plan key — can tell which
        journaled steps belong to which schedule.
        """
        return list(self._stage_epochs)

    # ------------------------------------------------------------------ #
    # train/filter cycle
    # ------------------------------------------------------------------ #
    def _open_stage(self) -> None:
        if self._stage_open or self.done:
            return
        interval = self._stage_epochs[self.stage_index]
        self._unclaimed = [
            TrainStep(model=name, epochs=interval, stage=self.stage_index)
            for name in self.surviving
        ]
        self._inflight = set()
        self._stage_open = True

    def claim_next(self) -> Optional[TrainStep]:
        """Hand out one runnable step of the current stage (or ``None``)."""
        self._open_stage()
        if not self._unclaimed:
            return None
        step = self._unclaimed.pop(0)
        self._inflight.add(step)
        return step

    def claim_stage(self) -> List[TrainStep]:
        """Hand out every remaining step of the current stage at once."""
        self._open_stage()
        steps, self._unclaimed = self._unclaimed, []
        self._inflight.update(steps)
        return steps

    def claim_step(self, model: str) -> Optional[TrainStep]:
        """Claim the current stage's step for one specific model (or ``None``).

        The journal-replay path uses this to complete exactly the steps a
        previous process recorded, in journal order, regardless of where
        they sat in the unclaimed queue.
        """
        self._open_stage()
        for index, step in enumerate(self._unclaimed):
            if step.model == model:
                del self._unclaimed[index]
                self._inflight.add(step)
                return step
        return None

    def release(self, step: TrainStep) -> None:
        """Return a claimed-but-unexecuted step (e.g. on request failure)."""
        if step in self._inflight:
            self._inflight.discard(step)
            self._unclaimed.insert(0, step)

    def complete(self, step: TrainStep) -> None:
        """Record that ``step``'s training ran; advance when the stage is done."""
        if step not in self._inflight:
            raise SelectionError(f"completing a step that was never claimed: {step}")
        fire_crash_point("plan.step", model=step.model, stage=step.stage)
        self._inflight.discard(step)
        if not self._unclaimed and not self._inflight:
            self._advance_stage()

    def _advance_stage(self) -> None:
        interval = self._stage_epochs[self.stage_index]
        self.runtime_epochs += interval * len(self.surviving)
        validations = {
            name: self.views[name].validation_accuracy() for name in self.surviving
        }
        extra = self._cohort_extra(len(validations))
        if extra:
            self.surviving, record = self._policy.filter_stage(
                self.stage_index, self.surviving, validations,
                cohort_extra=extra,
            )
        else:
            self.surviving, record = self._policy.filter_stage(
                self.stage_index, self.surviving, validations
            )
        self.stages.append(record)
        self.stage_index += 1
        self._stage_open = False
        if self.stage_index >= len(self._stage_epochs):
            self._finalize()
            return
        self._prune_speculative()

    def _cohort_extra(self, live_count: int) -> int:
        """Bottom-ranked slots the pruned arms would still hold in exact mode.

        An exact halving run over ``N`` candidates enters stage ``s`` with
        at most ``max(1, N >> s)`` arms (iterated floor-halving), and every
        pruned arm ranks below the bar that retired it — so the exact
        cohort is bounded by ``min(N >> s, live + pruned)`` with the pruned
        arms filling the trailing slots.  Passing that surplus into
        :meth:`StagePolicy.filter_stage` keeps the keep-limit cadence of
        the exact run, so speculation can only ever retire the arms it
        explicitly pruned — never change which *kept* arms survive a
        filter.  Zero (exact behaviour) whenever nothing was pruned.
        """
        if not self.pruned:
            return 0
        ideal = max(1, len(self.candidates) >> self.stage_index)
        exact_cohort = min(ideal, live_count + len(self.pruned))
        return max(0, exact_cohort - live_count)

    def _prune_speculative(self) -> None:
        """Apply the policy's pre-stage pruning hook (no-op in exact mode).

        Runs after the stage filter, before the next stage opens, so a
        pruned arm never generates another :class:`TrainStep` — which is
        exactly why ``runtime_epochs`` (charged per stage for the arms
        that trained it) stays honest without any accounting change.
        The decision is a pure function of the recorded curves, so a
        crash/resume replay re-derives the identical prune set; the
        ``plan.prune`` crash point marks the decision boundary for the
        fault-injection harness.
        """
        if len(self.surviving) <= 1:
            return
        kept, pruned = self._policy.prune_before_stage(
            self.stage_index, self.surviving, self.views, self._stage_epochs
        )
        if not pruned:
            return
        fire_crash_point(
            "plan.prune", stage=self.stage_index, models=sorted(pruned)
        )
        self.surviving = kept
        self.pruned.update(pruned)

    def _finalize(self) -> None:
        winner = self.surviving[0]
        final_accuracies = {
            name: view.test_accuracy()
            for name, view in self.views.items()
            if view.position > 0
        }
        result = SelectionResult(
            method=self._policy.method,
            target_name=self.task.name,
            selected_model=winner,
            selected_accuracy=self.views[winner].test_accuracy(),
            selected_val_accuracy=self.views[winner].validation_accuracy(),
            runtime_epochs=float(self.runtime_epochs),
            num_candidates=len(self.candidates),
            stages=self.stages,
            final_accuracies=final_accuracies,
            extras=self._extrapolation_extras(winner),
        )
        if self.recall_result is not None:
            result.extra_epoch_cost = self.recall_result.epoch_cost
        self.result = result

    def _extrapolation_extras(self, winner: str) -> Dict[str, object]:
        """Budget-honesty report of the speculative prunes (``{}`` when exact).

        Per pruned arm: the observed/predicted accuracies behind the
        decision, plus — when the shared underlying session happens to
        have trained the arm to the full budget anyway (another request
        kept going) — the ``actual_final`` accuracy it would have reached
        and the realised ``actual_regret`` against the winner.  The
        request-level ``regret_bound`` is the guarantee the bounds gave at
        decision time: no pruned arm's ceiling exceeded the winner's final
        validation accuracy by more than this.  ``epochs_saved`` sums the
        full-budget epochs the pruned arms can no longer be charged — an
        upper bound on realised savings, since halving might have retired
        some of them earlier anyway.
        """
        if not self.pruned:
            return {}
        winner_val = self.views[winner].validation_accuracy()
        budget = sum(self._stage_epochs)
        pruned_payload: Dict[str, object] = {}
        regret_bound = 0.0
        for name, record in self.pruned.items():
            entry = dict(record)
            curve = self.views[name].curve
            if len(curve.val_accuracy) >= budget:
                actual = float(curve.val_accuracy[budget - 1])
                entry["actual_final"] = actual
                entry["actual_regret"] = max(0.0, actual - winner_val)
            regret_bound = max(
                regret_bound, float(record["upper_bound"]) - winner_val
            )
            pruned_payload[name] = entry
        return {
            "extrapolation": {
                "pruned": pruned_payload,
                "epochs_saved": float(
                    sum(float(r["epochs_saved"]) for r in self.pruned.values())
                ),
                "regret_bound": max(0.0, regret_bound),
            }
        }

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def two_phase_result(self) -> TwoPhaseResult:
        """Assemble the :class:`TwoPhaseResult` of a plan with a recall result."""
        if not self.done:
            raise SelectionError("plan has not finished yet")
        if self.recall_result is None:
            raise SelectionError("plan was built without a recall result; "
                                 "it has no recall phase to report")
        return TwoPhaseResult(
            target_name=self.task.name,
            recall=self.recall_result,
            selection=self.result,
        )

    def best_so_far(self) -> Dict[str, object]:
        """Anytime answer: the current best candidates, confidence-ordered.

        Usable in every state — before the first stage completes it
        reports no candidates; after completion it agrees with the final
        result.  Candidates are
        ranked survivors-first, then by epochs trained (deeper evidence
        first), then by validation accuracy at the request's own position,
        with the deterministic candidate order breaking exact ties — the
        same tie-breaking the stage filters use.  ``confidence`` is the
        fraction of the request's total epoch budget already spent on the
        leading candidate.
        """
        budget = sum(self._stage_epochs)
        ranked = []
        for order, name in enumerate(self.candidates):
            view = self.views[name]
            if view.position < 1:
                continue
            ranked.append(
                (
                    name not in self.surviving,  # survivors sort first
                    -view.position,
                    -view.validation_accuracy(),
                    order,
                    name,
                )
            )
        ranked.sort()
        candidates = [
            {
                "model": name,
                "surviving": not eliminated,
                "epochs_trained": -neg_position,
                "val_accuracy": -neg_val,
                "confidence": (-neg_position) / budget if budget else 0.0,
            }
            for eliminated, neg_position, neg_val, _order, name in ranked
        ]
        best = candidates[0] if candidates else None
        return {
            "phase": "done" if self.done else f"stage {self.stage_index}",
            "final": self.done,
            "best": best,
            "candidates": candidates,
        }

    def progress(self) -> Dict[str, object]:
        """JSON-friendly snapshot of the plan's state (for ``poll``)."""
        return {
            "phase": "done" if self.done else f"stage {self.stage_index}",
            "stage": self.stage_index,
            "num_stages": self.num_stages,
            "surviving": list(self.surviving),
            "pruned": list(self.pruned),
            "runtime_epochs": self.runtime_epochs,
            "stages_completed": [
                {
                    "stage": record.stage,
                    "surviving": list(record.surviving_models),
                    "removed_by_trend": list(record.removed_by_trend),
                    "removed_by_halving": list(record.removed_by_halving),
                }
                for record in self.stages
            ],
        }
