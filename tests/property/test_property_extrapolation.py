"""Property suite: speculation is opt-in, honest, and never double-charges.

Contracts of the curve-extrapolation early-stopping layer, driven by
hypothesis over randomized request mixes and scheduling policies:

* **Exactness** — a request submitted with ``extrapolate=False`` (or not
  opted in at all) is bitwise-identical to the serial blocking path, even
  while speculative requests run concurrently in the same scheduler.
* **Determinism** — speculative *decisions* (winner, stage records, prune
  set, costs) are a pure function of the request regardless of
  interleaving or policy; that determinism is what makes the
  crash/resume prune replay possible.  The only context-dependent part of
  a speculative result is observability: the ``actual_final`` /
  ``actual_regret`` honesty fields appear exactly when some concurrent
  request trained the pruned arm to full budget anyway (shared sessions).
* **Honesty** — charged epochs equal pool work (``trained + reused``), a
  pruned arm is never trained (or charged) after its prune boundary, the
  winner changes only when the exact winner itself was pruned, and in
  that case the recorded realized regret covers the winner gap.

The module runs the successive-halving ablation (``use_trend_filter=False``
— with the paper's trend filter on, the cohort collapses to one arm after
the first rung and there is nothing to speculate about; see
``benchmarks/bench_extrapolation.py``).
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.pipeline import OfflineArtifacts, TwoPhaseSelector
from repro.sched import EpochScheduler, SchedulerConfig

pytestmark = pytest.mark.extrapolation

TARGETS = ["mnli", "boolq"]
TOP_KS = [5, 8]

#: Honesty fields recorded opportunistically (only when a shared session
#: happened to train the pruned arm to full budget) — deterministic given
#: the whole mix, but not given one request alone.
OBSERVABILITY_KEYS = ("actual_final", "actual_regret")


@pytest.fixture(scope="module")
def artifacts(nlp_hub_small, nlp_suite_small, test_pipeline_config, fine_tuner):
    built = OfflineArtifacts.build(
        nlp_hub_small,
        nlp_suite_small,
        config=test_pipeline_config,
        fine_tuner=fine_tuner,
    )
    config = built.config
    return dataclasses.replace(
        built,
        config=dataclasses.replace(
            config,
            fine_selection=dataclasses.replace(
                config.fine_selection, use_trend_filter=False
            ),
        ),
    )


@pytest.fixture(scope="module")
def exact_oracle(artifacts):
    """The serial blocking path — what every exact request must match."""
    selector = TwoPhaseSelector(artifacts)
    return {
        (target, top_k): selector.select(target, top_k=top_k)
        for target in TARGETS
        for top_k in TOP_KS
    }


@pytest.fixture(scope="module")
def speculative_oracle(artifacts):
    """One serial scheduled run per request shape, with speculation on."""
    oracle = {}
    for target in TARGETS:
        for top_k in TOP_KS:
            scheduler = EpochScheduler.for_artifacts(
                artifacts, config=SchedulerConfig(max_concurrent=1, max_queue=1)
            )
            handle = scheduler.submit(target, top_k=top_k, extrapolate=True)
            scheduler.run_until_idle()
            oracle[(target, top_k)] = scheduler.result(handle)
    return oracle


def decision_extras(result):
    """The extras payload with the opportunistic observability keys removed."""
    extras = dict(result.selection.extras)
    payload = extras.get("extrapolation")
    if payload:
        extras["extrapolation"] = {
            **payload,
            "pruned": {
                name: {
                    key: value
                    for key, value in record.items()
                    if key not in OBSERVABILITY_KEYS
                }
                for name, record in payload["pruned"].items()
            },
        }
    return extras


def assert_decisions_equal(result, oracle):
    """Bitwise equality of everything except the observability fields."""
    assert result.selected_model == oracle.selected_model
    assert result.selected_accuracy == oracle.selected_accuracy
    assert (
        result.selection.selected_val_accuracy
        == oracle.selection.selected_val_accuracy
    )
    assert result.selection.runtime_epochs == oracle.selection.runtime_epochs
    assert result.selection.stages == oracle.selection.stages
    assert result.selection.final_accuracies == oracle.selection.final_accuracies
    assert decision_extras(result) == decision_extras(oracle)
    assert result.recall.recalled_models == oracle.recall.recalled_models
    assert result.recall.recall_scores == oracle.recall.recall_scores
    assert result.total_cost == oracle.total_cost


def run_mix(artifacts, mix, *, policy="fair_share", epoch_budget=8):
    scheduler = EpochScheduler.for_artifacts(
        artifacts,
        config=SchedulerConfig(
            policy=policy,
            epoch_budget=epoch_budget,
            max_concurrent=len(mix),
            max_queue=len(mix),
        ),
    )
    handles = [
        scheduler.submit(target, top_k=top_k, extrapolate=speculative)
        for target, top_k, speculative in mix
    ]
    scheduler.run_until_idle()
    return scheduler, [scheduler.result(handle) for handle in handles]


mixed_requests = st.lists(
    st.tuples(
        st.sampled_from(TARGETS),
        st.sampled_from(TOP_KS),
        st.booleans(),
    ),
    min_size=1,
    max_size=5,
)

speculative_requests = st.lists(
    st.tuples(
        st.sampled_from(TARGETS),
        st.sampled_from(TOP_KS),
        st.just(True),
    ),
    min_size=1,
    max_size=5,
)


class TestExactnessIsolation:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        mix=mixed_requests,
        policy=st.sampled_from(["fair_share", "deadline"]),
    )
    def test_requests_match_their_oracle_in_any_mix(
        self, artifacts, exact_oracle, speculative_oracle, mix, policy
    ):
        _, results = run_mix(artifacts, mix, policy=policy)
        for (target, top_k, speculative), result in zip(mix, results):
            oracle = (speculative_oracle if speculative else exact_oracle)[
                (target, top_k)
            ]
            assert_decisions_equal(result, oracle)
            if not speculative:
                # Exact requests must be *fully* bitwise-identical — no
                # extrapolation payload may leak in from neighbors.
                assert result.selection.extras == oracle.selection.extras
                assert "extrapolation" not in result.selection.extras


class TestHonestAccounting:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(mix=speculative_requests, epoch_budget=st.integers(2, 12))
    def test_charged_epochs_equal_pool_work(
        self, artifacts, mix, epoch_budget
    ):
        scheduler, results = run_mix(artifacts, mix, epoch_budget=epoch_budget)
        pool = scheduler.stats()["session_pool"]
        charged = sum(r.selection.runtime_epochs for r in results)
        assert pool["epochs_trained"] + pool["epochs_reused"] == charged

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(mix=speculative_requests)
    def test_pruned_arms_are_never_charged_again(self, artifacts, mix):
        _, results = run_mix(artifacts, mix)
        for result in results:
            payload = result.selection.extras.get("extrapolation")
            if not payload:
                continue
            for model, record in payload["pruned"].items():
                # The prune record's stage is the first stage the arm does
                # not enter: it must be absent from every later stage's
                # validation set (validations only cover arms that trained
                # the stage, i.e. arms the stage charged).
                for stage_record in result.selection.stages:
                    if stage_record.stage >= record["stage"]:
                        assert model not in stage_record.validation_accuracy
                        assert model not in stage_record.surviving_models

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(mix=speculative_requests)
    def test_speculation_only_saves_epochs(self, artifacts, exact_oracle, mix):
        _, results = run_mix(artifacts, mix)
        for (target, top_k, _), result in zip(mix, results):
            exact = exact_oracle[(target, top_k)]
            assert result.selection.runtime_epochs <= exact.selection.runtime_epochs


class TestRegretAccounting:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(mix=speculative_requests)
    def test_winner_changes_only_when_the_exact_winner_was_pruned(
        self, artifacts, exact_oracle, mix
    ):
        """The cohort-extra contract: kept arms keep their exact fate.

        Pruning may only ever change the outcome by retiring the arm that
        would have won; it can never reshuffle survivors it kept.
        """
        _, results = run_mix(artifacts, mix)
        for (target, top_k, _), result in zip(mix, results):
            exact = exact_oracle[(target, top_k)]
            if result.selected_model == exact.selected_model:
                assert (
                    result.selection.selected_val_accuracy
                    == exact.selection.selected_val_accuracy
                )
                continue
            payload = result.selection.extras.get("extrapolation") or {}
            assert exact.selected_model in payload.get("pruned", {})

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(shape=st.tuples(st.sampled_from(TARGETS), st.sampled_from(TOP_KS)))
    def test_observed_realized_regret_covers_the_winner_gap(
        self, artifacts, exact_oracle, shape
    ):
        """Run the speculative and exact twins side by side: the shared
        sessions make every realized outcome observable, so the honesty
        report's ``actual_regret`` must account for the entire winner gap.
        """
        target, top_k = shape
        _, results = run_mix(
            artifacts,
            [(target, top_k, True), (target, top_k, False)],
        )
        speculative, exact = results
        assert_decisions_equal(exact, exact_oracle[(target, top_k)])
        gap = (
            exact.selection.selected_val_accuracy
            - speculative.selection.selected_val_accuracy
        )
        payload = speculative.selection.extras.get("extrapolation")
        if gap <= 0:
            return
        # The exact twin trained the true winner to full budget, so its
        # prune record must carry the realized fields, and the realized
        # regret is exactly the winner gap.
        record = payload["pruned"][exact.selected_model]
        assert "actual_final" in record
        assert payload is not None
        max_actual = max(
            float(r.get("actual_regret", 0.0)) for r in payload["pruned"].values()
        )
        assert gap <= max_actual + 1e-9

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(mix=speculative_requests)
    def test_regret_bound_matches_the_decision_records(self, artifacts, mix):
        """``regret_bound`` is the decision-time guarantee: the maximum by
        which any pruned arm's slack-padded ceiling exceeded the winner's
        final validation accuracy (clipped at zero)."""
        _, results = run_mix(artifacts, mix)
        for result in results:
            payload = result.selection.extras.get("extrapolation")
            if not payload:
                continue
            winner_val = result.selection.selected_val_accuracy
            expected = max(
                [
                    float(record["upper_bound"]) - winner_val
                    for record in payload["pruned"].values()
                ],
                default=0.0,
            )
            assert payload["regret_bound"] == pytest.approx(max(0.0, expected))
            for record in payload["pruned"].values():
                # Bounds are monotone: never below what the arm had banked.
                assert record["upper_bound"] >= record["observed_val"]
