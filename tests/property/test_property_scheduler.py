"""Property suite: scheduled == serial, whatever the scheduling.

The acceptance property of the epoch scheduler — a request's result is
bitwise-identical (winner, stage records, validation scores, costs) to the
pre-refactor serial path — must hold for *every* scheduling configuration:
any policy, any epoch budget, any concurrency, any interleaving with other
requests, any executor backend.  Hypothesis drives randomized mixes
through the scheduler and compares each request against the serial oracle
— coarse recall followed by ``oracles.serial_stage_loop``, the blocking
stage-by-stage loop over private sessions — computed once per session.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import serial_two_phase
from repro.core.batch import build_phase_engines
from repro.core.pipeline import OfflineArtifacts
from repro.sched import EpochScheduler, SchedulerConfig
from repro.zoo.finetune import FineTuner

TARGETS = ["mnli", "boolq"]


@pytest.fixture(scope="module")
def artifacts(nlp_hub_small, nlp_suite_small, test_pipeline_config, fine_tuner):
    return OfflineArtifacts.build(
        nlp_hub_small,
        nlp_suite_small,
        config=test_pipeline_config,
        fine_tuner=fine_tuner,
    )


@pytest.fixture(scope="module")
def serial_oracle(artifacts):
    """Recall + the blocking stage loop, once per (target, top_k)."""
    # The scheduler's default engines: a fresh FineTuner(seed=0).
    recall, policy = build_phase_engines(artifacts, FineTuner(seed=0))
    oracle = {}
    for target in TARGETS:
        task = artifacts.suite.task(target)
        for top_k in (None, 3, 5):
            oracle[(target, top_k)] = serial_two_phase(
                recall, policy, task, top_k=top_k
            )
    return oracle


def assert_bitwise_equal(result, serial):
    """Full structural equality of two TwoPhaseResult records."""
    assert result.selected_model == serial.selected_model
    assert result.selected_accuracy == serial.selected_accuracy
    assert result.selection.selected_val_accuracy == serial.selection.selected_val_accuracy
    assert result.selection.runtime_epochs == serial.selection.runtime_epochs
    assert result.selection.num_candidates == serial.selection.num_candidates
    # StageRecord is a dataclass: equality covers survivors, validation
    # scores, predictions and both removal lists, exactly.
    assert result.selection.stages == serial.selection.stages
    assert result.selection.final_accuracies == serial.selection.final_accuracies
    assert result.recall.recalled_models == serial.recall.recalled_models
    assert result.recall.recall_scores == serial.recall.recall_scores
    assert result.recall.epoch_cost == serial.recall.epoch_cost
    assert result.total_cost == serial.total_cost


requests_strategy = st.lists(
    st.tuples(
        st.sampled_from(TARGETS),
        st.sampled_from([None, 3, 5]),
    ),
    min_size=1,
    max_size=6,
)


class TestSchedulerEquivalence:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        mix=requests_strategy,
        policy=st.sampled_from(["fair_share", "deadline"]),
        epoch_budget=st.integers(min_value=1, max_value=16),
        max_concurrent=st.integers(min_value=1, max_value=6),
    )
    def test_concurrent_requests_equal_serial_runs(
        self, artifacts, serial_oracle, mix, policy, epoch_budget, max_concurrent
    ):
        scheduler = EpochScheduler.for_artifacts(
            artifacts,
            config=SchedulerConfig(
                policy=policy,
                epoch_budget=epoch_budget,
                max_concurrent=max_concurrent,
                max_queue=len(mix),
            ),
        )
        handles = [
            scheduler.submit(target, top_k=top_k) for target, top_k in mix
        ]
        scheduler.run_until_idle()
        for (target, top_k), handle in zip(mix, handles):
            assert_bitwise_equal(
                scheduler.result(handle), serial_oracle[(target, top_k)]
            )

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        mix=requests_strategy,
        backend=st.sampled_from(["serial", "thread:2", "thread:4"]),
    )
    def test_equivalence_across_executor_backends(
        self, artifacts, serial_oracle, mix, backend
    ):
        scheduler = EpochScheduler.for_artifacts(
            artifacts,
            config=SchedulerConfig(max_concurrent=4, epoch_budget=6,
                                   max_queue=len(mix)),
            parallel=backend,
        )
        handles = [
            scheduler.submit(target, top_k=top_k) for target, top_k in mix
        ]
        scheduler.run_until_idle()
        for (target, top_k), handle in zip(mix, handles):
            assert_bitwise_equal(
                scheduler.result(handle), serial_oracle[(target, top_k)]
            )

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(duplicates=st.integers(min_value=2, max_value=5))
    def test_session_reuse_never_changes_results(
        self, artifacts, serial_oracle, duplicates
    ):
        """N identical concurrent requests: full reuse, identical records."""
        scheduler = EpochScheduler.for_artifacts(
            artifacts,
            config=SchedulerConfig(max_concurrent=duplicates, epoch_budget=4,
                                   max_queue=duplicates),
        )
        handles = [scheduler.submit("mnli") for _ in range(duplicates)]
        scheduler.run_until_idle()
        for handle in handles:
            assert_bitwise_equal(
                scheduler.result(handle), serial_oracle[("mnli", None)]
            )
        stats = scheduler.pool.stats()
        # Duplicates beyond the first train nothing new: the pool trains
        # each unique (model, epoch) once and serves the other N-1 requests
        # from the recorded prefix.
        assert stats["epochs_reused"] == (duplicates - 1) * stats["epochs_trained"]
