"""Speculative early stopping via learning-curve extrapolation.

The exact online phase spends ``total_epochs`` on every arm that survives
halving.  But the offline phase already recorded how each candidate's
validation curves *behave*: :mod:`repro.core.convergence` clusters them
into trends (Eq. 5/6) and predicts final accuracy from an early reading.
:class:`CurveExtrapolator` turns that machinery into a conservative
**upper bound** on where an arm's curve can still go, and the plan's
pre-stage pruning hook (:meth:`repro.core.plan.StagePolicy
.prune_before_stage`) retires arms whose bound cannot beat the current
rung leader — charging only the epochs actually trained.

The bound intersects two independent ceiling estimates.  For an arm
observed at validation accuracy ``v`` after ``t`` epochs it is::

    upper(v, t) = max(v, min(trend_predict(v),           # Eq. 5/6 ceiling
                             v + max_remaining_gain(t))) # benchmark gain cap
                  + slack

where ``max_remaining_gain(t)`` is the largest future improvement any of
the model's *benchmark* curves ever achieved after epoch ``t``.  The
``min`` keeps whichever estimator is tighter at this rung (the gain cap
shrinks as ``t`` grows, the trend ceiling as the rung leader pulls away);
the outer ``max`` floors the bound at the already-observed value so it is
monotone — speculation can never claim an arm will *lose* accuracy it has
already banked.  ``slack`` is the one-sided safety margin: an arm is only
retired when even its slack-padded ceiling falls strictly below the
leader's trajectory, and the realised regret of every such call is
recorded in ``SelectionResult.extras`` (the budget-honesty layer) rather
than assumed to be zero.  A model with no offline curves is never pruned
(its bound is infinite).

Everything here is deterministic: bounds are pure functions of the
recorded curves, so a crash/resume replay re-derives the identical prune
set (see ``tests/faultinject/test_crash_resume.py``).  Speculation is
**off by default**; the ``--exact`` mode is simply this config absent,
which keeps results bitwise-identical to the paper-faithful path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.core.convergence import (
    ConvergenceTrendMiner,
    TrendTable,
    lookup_trend_set,
)
from repro.utils.exceptions import ConfigurationError
from repro.zoo.finetune import LearningCurve


@dataclass(frozen=True)
class ExtrapolationConfig:
    """Knobs of the speculative early-stopping layer.

    Attributes
    ----------
    enabled:
        Master switch.  ``False`` (the default) is exact mode: no pruning
        hook fires and every result is bitwise-identical to the
        paper-faithful path.
    min_stages:
        Number of *completed* stages required before pruning may fire —
        at least one validation reading must exist.
    slack:
        Additive safety margin on the upper bound.  Larger values prune
        less and bound the achievable regret more tightly (an arm is only
        pruned when its slack-padded ceiling is strictly below the
        leader's trajectory — ``max(observed, predicted)`` accuracy).
    num_trends:
        Trend count for the Eq. 5/6 miner backing the bound.
    """

    enabled: bool = False
    min_stages: int = 1
    slack: float = 0.01
    num_trends: int = 4

    def __post_init__(self) -> None:
        if self.min_stages < 1:
            raise ConfigurationError("min_stages must be >= 1")
        if self.slack < 0:
            raise ConfigurationError("slack must be >= 0")
        if self.num_trends < 1:
            raise ConfigurationError("num_trends must be >= 1")

    def fingerprint(self) -> str:
        """Stable identity string (part of the plan key when enabled)."""
        return (
            f"extrap:v1:min={self.min_stages}:slack={self.slack!r}:"
            f"trends={self.num_trends}"
        )


@dataclass(frozen=True)
class CurveBound:
    """Conservative ceiling of one arm's curve at one decision point."""

    model: str
    stage_epoch: int
    observed_val: float
    predicted_final: float
    upper_bound: float


def max_remaining_gain(
    curves: Mapping[str, LearningCurve], stage_epoch: int
) -> float:
    """Largest validation gain any benchmark curve achieved after ``stage_epoch``.

    ``stage_epoch`` is 1-based (like :meth:`LearningCurve.val_at`); curves
    shorter than it contribute nothing — their future is already recorded
    as flat.  The result is clipped at zero so a universally declining
    model still gets a monotone (non-negative) remaining-gain bound.
    """
    gain = 0.0
    for curve in curves.values():
        values = curve.val_accuracy
        if not values:
            continue
        index = min(max(int(stage_epoch), 1), len(values)) - 1
        here = values[index]
        future = max(values[index:])
        gain = max(gain, future - here)
    return max(0.0, gain)


class CurveExtrapolator:
    """Upper-bounds an arm's final accuracy from its offline benchmark curves.

    Stateless with respect to any single request (bounds are pure
    functions of the performance matrix), so one extrapolator can serve
    many concurrent plans — mirroring :class:`~repro.core.plan.StagePolicy`.
    Trend sets are looked up in ``trend_sets`` (see
    :func:`~repro.core.convergence.lookup_trend_set`), mined with
    ``config.num_trends`` trends; :class:`~repro.core.selection
    .FineSelection` passes its own table so the Algorithm 1 filter and the
    bound mine each ``(model, stage)`` once between them.
    """

    def __init__(
        self,
        matrix,
        *,
        config: Optional[ExtrapolationConfig] = None,
        trend_miner: Optional[ConvergenceTrendMiner] = None,
        trend_sets: Optional[TrendTable] = None,
    ) -> None:
        self.matrix = matrix
        self.config = config or ExtrapolationConfig(enabled=True)
        self.trend_miner = trend_miner or ConvergenceTrendMiner(
            num_trends=self.config.num_trends
        )
        self.trend_sets: TrendTable = {} if trend_sets is None else trend_sets

    def bound(
        self, model: str, observed_val: float, *, stage_epoch: int
    ) -> CurveBound:
        """Conservative ceiling for ``model`` observed at ``observed_val``.

        ``stage_epoch`` is the 1-based number of epochs the requesting plan
        has trained the arm through.  Without offline curves the bound is
        infinite — no evidence, no speculation.
        """
        curves = self.matrix.curves_for_model(model)
        if not curves:
            return CurveBound(
                model=model,
                stage_epoch=int(stage_epoch),
                observed_val=float(observed_val),
                predicted_final=float(observed_val),
                upper_bound=float("inf"),
            )
        trend_set = lookup_trend_set(
            self.trend_sets,
            self.trend_miner,
            self.matrix,
            model,
            stage=stage_epoch,
            num_trends=self.config.num_trends,
        )
        predicted = float(trend_set.predict(observed_val))
        gain_cap = float(observed_val) + max_remaining_gain(curves, stage_epoch)
        ceiling = max(float(observed_val), min(predicted, gain_cap))
        return CurveBound(
            model=model,
            stage_epoch=int(stage_epoch),
            observed_val=float(observed_val),
            predicted_final=predicted,
            upper_bound=ceiling + self.config.slack,
        )


def resolve_extrapolation(value=None) -> Optional[ExtrapolationConfig]:
    """Normalise the per-request ``extrapolate`` argument.

    Accepts ``None`` (inherit the caller's default), booleans (``True`` →
    a default-knobs enabled config, ``False`` → exact mode) or an explicit
    :class:`ExtrapolationConfig`.
    """
    if value is None or isinstance(value, ExtrapolationConfig):
        return value
    if value is True:
        return ExtrapolationConfig(enabled=True)
    if value is False:
        return ExtrapolationConfig(enabled=False)
    raise ConfigurationError(
        f"extrapolate must be None, a bool or an ExtrapolationConfig, "
        f"got {value!r}"
    )


def prune_payload(records: Dict[str, Dict[str, object]]) -> Dict[str, object]:
    """Aggregate per-arm prune records into the ``extras`` payload shape."""
    return {
        "pruned": {name: dict(record) for name, record in records.items()},
        "epochs_saved": float(
            sum(float(record["epochs_saved"]) for record in records.values())
        ),
    }
