"""Property suite: crash anywhere, resume exactly.

The crash-safety contract of :mod:`repro.persist` must hold for *every*
configuration, not just the ones the example-based fault tests pick: any
target, any ``top_k``, any scheduling policy, any epoch budget, a crash
at any step boundary.  Hypothesis drives
randomized (configuration, crash point) pairs through a kill/restart cycle
and holds the resumed result to the serial oracle — bitwise.

Two invariants per example:

* **Equivalence** — the resumed result equals the never-crashed serial
  path exactly (same winner, stage records, scores, costs).
* **No double charging** — every journaled epoch is charged by replay and
  served from a session snapshot, never trained a second time.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import serial_select

from repro.core.pipeline import OfflineArtifacts
from repro.persist import (
    PlanJournal,
    PlanStore,
    SimulatedCrash,
    install_hook,
    remove_hook,
)
from repro.sched import EpochScheduler, SchedulerConfig

TARGETS = ["mnli", "boolq"]

#: Unique per-example store directories under one tmp root (hypothesis
#: runs many examples inside a single function-scoped tmp_path).
_store_ids = itertools.count()


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
    return {
        (target, top_k): serial_select(artifacts, target, top_k=top_k)
        for target in TARGETS
        for top_k in (None, 3, 5)
    }


@pytest.fixture(scope="module")
def step_counts(artifacts, tmp_path_factory):
    """Step-boundary count per (target, top_k), measured on clean runs."""
    counts = {}
    root = tmp_path_factory.mktemp("count-store")
    for target in TARGETS:
        for top_k in (None, 3, 5):
            hits = {"n": 0}
            install_hook("plan.step", lambda s, i: hits.__setitem__("n", hits["n"] + 1))
            try:
                scheduler = EpochScheduler.for_artifacts(
                    artifacts, persist=PlanStore(root / f"{target}-{top_k}")
                )
                scheduler.submit(target, top_k=top_k)
                scheduler.run_until_idle()
            finally:
                remove_hook("plan.step")
            counts[(target, top_k)] = hits["n"]
    return counts


def assert_bitwise_equal(result, serial):
    """Full structural equality of two TwoPhaseResult records."""
    assert result.selected_model == serial.selected_model
    assert result.selected_accuracy == serial.selected_accuracy
    assert result.selection.selected_val_accuracy == serial.selection.selected_val_accuracy
    assert result.selection.runtime_epochs == serial.selection.runtime_epochs
    assert result.selection.num_candidates == serial.selection.num_candidates
    assert result.selection.stages == serial.selection.stages
    assert result.selection.final_accuracies == serial.selection.final_accuracies
    assert result.recall.recalled_models == serial.recall.recalled_models
    assert result.recall.recall_scores == serial.recall.recall_scores
    assert result.recall.epoch_cost == serial.recall.epoch_cost
    assert result.total_cost == serial.total_cost


def crash_then_resume(
    artifacts, root, target, top_k, ordinal, *, config=None
):
    """One kill/restart cycle; returns (result, scheduler2, replayable)."""
    scheduler1 = EpochScheduler.for_artifacts(
        artifacts, persist=PlanStore(root), config=config
    )
    hits = {"n": 0}

    def _crash(site, _info):
        hits["n"] += 1
        if hits["n"] == ordinal:
            raise SimulatedCrash(f"{site}#{ordinal}")

    install_hook("plan.step", _crash)
    try:
        scheduler1.submit(target, top_k=top_k)
        with pytest.raises(SimulatedCrash):
            scheduler1.run_until_idle()
    finally:
        remove_hook("plan.step")

    store = PlanStore(root)
    replayable = sum(
        record["payload"]["epochs"]
        for path in store.journal_paths()
        for record in PlanJournal(path).of_type("step")
    )
    scheduler2 = EpochScheduler.for_artifacts(
        artifacts, persist=store, config=config
    )
    recovered = scheduler2.recover()
    assert len(recovered) == 1
    scheduler2.run_until_idle()
    return scheduler2.result(recovered[0], timeout=10), scheduler2, replayable


def assert_no_double_charge(scheduler, result, replayable):
    stats = scheduler.stats()
    assert stats["persist"]["epochs_replayed"] == replayable
    pool = stats["session_pool"]
    assert pool["epochs_reused"] >= replayable
    assert pool["epochs_trained"] + pool["epochs_reused"] == result.selection.runtime_epochs


class TestResumeEquivalence:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        target=st.sampled_from(TARGETS),
        top_k=st.sampled_from([None, 3, 5]),
        policy=st.sampled_from(["fair_share", "deadline"]),
        epoch_budget=st.integers(min_value=1, max_value=8),
        crash_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_kill_anywhere_resume_bitwise_identical(
        self,
        artifacts,
        serial_oracle,
        step_counts,
        tmp_path,
        target,
        top_k,
        policy,
        epoch_budget,
        crash_fraction,
    ):
        steps = step_counts[(target, top_k)]
        ordinal = 1 + round(crash_fraction * (steps - 1))
        root = tmp_path / f"store-{next(_store_ids)}"
        config = SchedulerConfig(policy=policy, epoch_budget=epoch_budget)
        result, scheduler, replayable = crash_then_resume(
            artifacts, root, target, top_k, ordinal, config=config
        )
        assert_bitwise_equal(result, serial_oracle[(target, top_k)])
        assert_no_double_charge(scheduler, result, replayable)

    def test_mid_run_crash_resumes_bitwise_identical(
        self, artifacts, serial_oracle, step_counts, tmp_path
    ):
        target, top_k = "mnli", 5
        ordinal = max(2, step_counts[(target, top_k)] // 2)
        result, scheduler, replayable = crash_then_resume(
            artifacts, tmp_path / "store", target, top_k, ordinal
        )
        assert_bitwise_equal(result, serial_oracle[(target, top_k)])
        assert_no_double_charge(scheduler, result, replayable)


class TestBudgetRaiseProperty:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        target=st.sampled_from(TARGETS),
        top_k=st.sampled_from([3, 5]),
        raise_to=st.integers(min_value=4, max_value=9),
    )
    def test_raise_budget_charges_only_the_delta(
        self, artifacts, tmp_path, target, top_k, raise_to
    ):
        import dataclasses

        root = tmp_path / f"store-{next(_store_ids)}"
        s1 = EpochScheduler.for_artifacts(artifacts, persist=PlanStore(root))
        r1 = s1.submit(target, top_k=top_k)
        s1.run_until_idle()
        res1 = s1.result(r1, timeout=10)

        raised_artifacts = dataclasses.replace(
            artifacts,
            config=dataclasses.replace(
                artifacts.config,
                fine_selection=dataclasses.replace(
                    artifacts.config.fine_selection, total_epochs=raise_to
                ),
            ),
        )
        oracle = serial_select(raised_artifacts, target, top_k=top_k)

        s2 = EpochScheduler.for_artifacts(artifacts, persist=PlanStore(root))
        r2 = s2.submit(target, top_k=top_k, total_epochs=raise_to)
        s2.run_until_idle()
        res2 = s2.result(r2, timeout=10)
        assert_bitwise_equal(res2, oracle)

        stats = s2.stats()
        # The first run's rungs are replayed, not retrained: actual
        # training in the raised run is bounded by the budget delta.
        assert stats["persist"]["epochs_replayed"] == res1.selection.runtime_epochs
        pool = stats["session_pool"]
        delta = res2.selection.runtime_epochs - res1.selection.runtime_epochs
        assert pool["epochs_trained"] <= delta
