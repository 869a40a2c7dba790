"""Unit tests for the speculative early-stopping layer (curve bounds).

The integration-level guarantees (exact-mode bitwise identity, honest
accounting, crash/resume prune replay) live in ``tests/property/`` and
``tests/faultinject/``; this module pins the pure math down on synthetic
curves where every number is hand-checkable: the upper-bound intersection,
the monotone floor, the slack, the prune bar, and the cohort-extra cadence
that keeps pruning from changing the fate of kept arms.
"""

import pytest

from repro.core.config import FineSelectionConfig
from repro.core.extrapolation import (
    CurveExtrapolator,
    ExtrapolationConfig,
    max_remaining_gain,
    resolve_extrapolation,
)
from repro.core.plan import SelectionPlan
from repro.core.selection import FineSelection, SuccessiveHalving
from repro.utils.exceptions import ConfigurationError
from repro.zoo.finetune import LearningCurve

pytestmark = pytest.mark.extrapolation


def curve(name, vals, tests=None):
    return LearningCurve(
        "model", name, val_accuracy=list(vals),
        test_accuracy=list(tests if tests is not None else vals),
    )


class FakeMatrix:
    """curves_for_model stand-in: model name -> {dataset: LearningCurve}."""

    def __init__(self, curves_by_model):
        self._curves = curves_by_model

    def curves_for_model(self, model):
        return self._curves.get(model, {})


class FakeView:
    def __init__(self, val):
        self._val = val

    def validation_accuracy(self):
        return self._val


#: Offline histories with an obvious pecking order: ``leader`` converges
#: high, ``riser`` starts low but historically gains a lot, ``doomed``
#: plateaus low with nothing left to gain.
CURVES = {
    "leader": {
        "a": curve("a", [0.80, 0.86, 0.90]),
        "b": curve("b", [0.78, 0.85, 0.89]),
    },
    "riser": {
        "a": curve("a", [0.50, 0.80, 0.95]),
        "b": curve("b", [0.52, 0.82, 0.96]),
    },
    "doomed": {
        "a": curve("a", [0.30, 0.31, 0.32]),
        "b": curve("b", [0.29, 0.30, 0.31]),
    },
}


class TestConfig:
    def test_defaults_are_exact_mode(self):
        config = ExtrapolationConfig()
        assert config.enabled is False

    @pytest.mark.parametrize(
        "kwargs", [{"min_stages": 0}, {"slack": -0.1}, {"num_trends": 0}]
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ExtrapolationConfig(**kwargs)

    def test_fingerprint_is_stable_and_knob_sensitive(self):
        assert (
            ExtrapolationConfig().fingerprint()
            == ExtrapolationConfig().fingerprint()
        )
        assert (
            ExtrapolationConfig(slack=0.05).fingerprint()
            != ExtrapolationConfig().fingerprint()
        )

    def test_resolve_extrapolation(self):
        assert resolve_extrapolation(None) is None
        assert resolve_extrapolation(True).enabled is True
        assert resolve_extrapolation(False).enabled is False
        config = ExtrapolationConfig(enabled=True, slack=0.3)
        assert resolve_extrapolation(config) is config
        with pytest.raises(ConfigurationError):
            resolve_extrapolation("yes")


class TestMaxRemainingGain:
    def test_rising_curve_reports_future_gain(self):
        gain = max_remaining_gain({"a": curve("a", [0.5, 0.8, 0.95])}, 1)
        assert gain == pytest.approx(0.45)

    def test_gain_shrinks_as_the_stage_advances(self):
        curves = {"a": curve("a", [0.5, 0.8, 0.95])}
        gains = [max_remaining_gain(curves, stage) for stage in (1, 2, 3)]
        assert gains == sorted(gains, reverse=True)
        assert gains[-1] == 0.0

    def test_flat_and_declining_curves_clip_at_zero(self):
        assert max_remaining_gain({"a": curve("a", [0.6, 0.6, 0.6])}, 1) == 0.0
        assert max_remaining_gain({"a": curve("a", [0.9, 0.7, 0.5])}, 1) == 0.0

    def test_takes_the_max_over_curves(self):
        curves = {
            "flat": curve("flat", [0.6, 0.6]),
            "rising": curve("rising", [0.4, 0.7]),
        }
        assert max_remaining_gain(curves, 1) == pytest.approx(0.3)

    def test_stage_beyond_curve_length_contributes_nothing(self):
        assert max_remaining_gain({"a": curve("a", [0.5, 0.9])}, 10) == 0.0

    def test_empty_curves_ignored(self):
        assert max_remaining_gain({"a": curve("a", [])}, 1) == 0.0


class TestCurveBound:
    def make(self, slack=0.0):
        return CurveExtrapolator(
            FakeMatrix(CURVES),
            config=ExtrapolationConfig(enabled=True, slack=slack, num_trends=2),
        )

    def test_bound_is_intersection_plus_slack(self):
        # doomed at 0.30 after 1 epoch: the trend ceiling (~0.315, the mean
        # final test of its plateau trends) and the gain cap (0.30 + 0.02)
        # are both far below the leader; the bound takes the tighter one.
        bound = self.make(slack=0.01).bound("doomed", 0.30, stage_epoch=1)
        assert bound.model == "doomed"
        assert bound.upper_bound < 0.40
        assert bound.upper_bound >= 0.30 + 0.01

    def test_bound_floors_at_observed_value(self):
        # An arm observed far above anything its history predicts must not
        # be bounded below what it already banked (monotone bound).
        bound = self.make(slack=0.0).bound("doomed", 0.95, stage_epoch=1)
        assert bound.upper_bound >= 0.95

    def test_slack_is_additive(self):
        tight = self.make(slack=0.0).bound("doomed", 0.30, stage_epoch=1)
        padded = self.make(slack=0.05).bound("doomed", 0.30, stage_epoch=1)
        assert padded.upper_bound == pytest.approx(tight.upper_bound + 0.05)

    def test_gain_cap_limits_an_optimistic_trend(self):
        # riser's trends predict ~0.955 from a 0.5 reading, but at the last
        # recorded epoch the remaining gain is zero — the cap wins.
        bound = self.make(slack=0.0).bound("riser", 0.50, stage_epoch=3)
        assert bound.upper_bound <= 0.50 + 1e-9

    def test_no_curves_means_infinite_bound(self):
        bound = self.make().bound("unknown-model", 0.10, stage_epoch=1)
        assert bound.upper_bound == float("inf")
        assert bound.predicted_final == pytest.approx(0.10)

    def test_bound_is_deterministic(self):
        extrapolator = self.make(slack=0.01)
        first = extrapolator.bound("riser", 0.51, stage_epoch=1)
        second = extrapolator.bound("riser", 0.51, stage_epoch=1)
        assert first == second


def make_policy(extrapolation, **config_kwargs):
    """A FineSelection over the synthetic matrix (hub untouched by pruning)."""
    policy = FineSelection(
        hub=None,
        matrix=FakeMatrix(CURVES),
        config=FineSelectionConfig(
            total_epochs=3, validation_interval=1, num_trends=2, **config_kwargs
        ),
        extrapolation=extrapolation,
    )
    return policy


class TestPruneBeforeStage:
    VIEWS = {
        "leader": FakeView(0.86),
        "riser": FakeView(0.55),
        "doomed": FakeView(0.31),
    }
    SCHEDULE = [1, 1, 1]

    def prune(self, policy, surviving=("leader", "riser", "doomed"), stage=1):
        return policy.prune_before_stage(
            stage, list(surviving), self.VIEWS, self.SCHEDULE
        )

    def test_disabled_or_absent_config_never_prunes(self):
        for extrapolation in (None, ExtrapolationConfig(enabled=False)):
            kept, pruned = self.prune(make_policy(extrapolation))
            assert kept == ["leader", "riser", "doomed"]
            assert pruned == {}

    def test_prunes_the_dominated_arm_only(self):
        kept, pruned = self.prune(
            make_policy(ExtrapolationConfig(enabled=True, num_trends=2))
        )
        # doomed's ceiling (~0.33) is below the leader's trajectory; riser's
        # history promises ~0.95 and survives.
        assert kept == ["leader", "riser"]
        assert set(pruned) == {"doomed"}
        record = pruned["doomed"]
        assert record["leader"] == "leader"
        assert record["upper_bound"] < record["leader_predicted"]
        assert record["epochs_saved"] == 2  # budget 3, pruned after epoch 1

    def test_leader_is_always_kept(self):
        kept, _ = self.prune(
            make_policy(ExtrapolationConfig(enabled=True, num_trends=2)),
            surviving=["doomed", "leader"],
        )
        assert "leader" in kept

    def test_min_stages_defers_pruning(self):
        policy = make_policy(
            ExtrapolationConfig(enabled=True, min_stages=2, num_trends=2)
        )
        kept, pruned = self.prune(policy, stage=1)
        assert pruned == {}
        kept, pruned = self.prune(policy, stage=2)
        # By epoch 2 even riser's remaining-gain cap has fallen below the
        # leader's trajectory; both dominated arms go.
        assert "doomed" in pruned

    def test_single_survivor_is_untouched(self):
        policy = make_policy(ExtrapolationConfig(enabled=True, num_trends=2))
        kept, pruned = self.prune(policy, surviving=["doomed"])
        assert kept == ["doomed"] and pruned == {}

    def test_huge_slack_prunes_nothing(self):
        policy = make_policy(
            ExtrapolationConfig(enabled=True, slack=1.0, num_trends=2)
        )
        _, pruned = self.prune(policy)
        assert pruned == {}

    def test_arm_without_curves_survives(self):
        views = dict(self.VIEWS, mystery=FakeView(0.05))
        policy = make_policy(ExtrapolationConfig(enabled=True, num_trends=2))
        kept, pruned = policy.prune_before_stage(
            1, ["leader", "mystery"], views, self.SCHEDULE
        )
        assert kept == ["leader", "mystery"]
        assert pruned == {}

    def test_prune_set_is_deterministic(self):
        policy = make_policy(ExtrapolationConfig(enabled=True, num_trends=2))
        assert self.prune(policy) == self.prune(policy)


class TestCohortExtra:
    """Pruned arms keep holding their bottom-ranked halving slots."""

    def plan_stub(self, candidates=10, pruned=(), stage_index=1):
        class Stub:
            pass

        stub = Stub()
        stub.candidates = [f"m{i}" for i in range(candidates)]
        stub.pruned = {name: {} for name in pruned}
        stub.stage_index = stage_index
        return stub

    def test_zero_without_prunes(self):
        assert SelectionPlan._cohort_extra(self.plan_stub(), 5) == 0

    def test_refills_the_exact_cadence(self):
        # Exact halving over 10 candidates enters stage 1 with 5 arms; two
        # were pruned, three are live -> two phantom slots.
        stub = self.plan_stub(pruned=("x", "y"))
        assert SelectionPlan._cohort_extra(stub, 3) == 2

    def test_never_exceeds_the_exact_cohort(self):
        # Live arms already fill the exact cadence: nothing to add.
        stub = self.plan_stub(pruned=("x", "y"))
        assert SelectionPlan._cohort_extra(stub, 5) == 0

    def test_deep_stages_shrink_the_cohort(self):
        stub = self.plan_stub(pruned=("x",), stage_index=3)
        # Exact cohort at stage 3 is max(1, 10 >> 3) = 1; one live arm
        # already fills it.
        assert SelectionPlan._cohort_extra(stub, 1) == 0

    def test_halving_keep_limit_follows_the_exact_cadence(self):
        policy = SuccessiveHalving(hub=None)
        validations = {f"m{i}": 0.9 - 0.1 * i for i in range(4)}
        exact_kept, _ = policy.filter_stage(0, list(validations), validations)
        assert len(exact_kept) == 2
        # Two arms pruned speculatively: the two live survivors of the same
        # exact cohort must both be kept (keep-limit 8//2=4 > live 2), not
        # re-halved down to one.
        live = dict(list(validations.items())[:2])
        kept, record = policy.filter_stage(0, list(live), live, cohort_extra=6)
        assert kept == list(live)
        assert record.removed_by_halving == []
