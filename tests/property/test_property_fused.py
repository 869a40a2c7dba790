"""Property suite: fused training is invisible except in speed.

The stacked-kernel engine of :mod:`repro.nn.batched` claims bitwise
equivalence with the per-session serial path.  Hypothesis drives that
claim across the surfaces where it could break:

* **Engine level** — random geometry mixes (optimizer, architecture,
  activation, group size, epoch splits) trained fused must reproduce the
  serial per-head trajectories exactly: curves, training histories,
  parameters, optimiser state.
* **Scheduler level** — random request mixes and epoch budgets with
  fusion on must answer bitwise-identically to recall plus the
  blocking stage loop of ``oracles.serial_stage_loop``, with charged-epoch accounting intact (charged = trained +
  reused in the pool report).
* **Crash/resume** — a scheduler killed mid-run and recovered with fusion
  on must replay its journal to the exact serial answer without double
  charging.
* **Speculation** — extrapolation prune decisions (which arms, at which
  epochs, at what predicted regret) must not move when rounds train
  fused.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import serial_two_phase
from repro.core.batch import build_phase_engines
from repro.core.pipeline import OfflineArtifacts
from repro.nn.batched import FusedSessionGroup
from repro.persist import (
    PlanJournal,
    PlanStore,
    SimulatedCrash,
    install_hook,
    remove_hook,
)
from repro.sched import EpochScheduler, SchedulerConfig
from repro.zoo.finetune import FineTuneConfig, FineTuner

TARGETS = ["mnli", "boolq"]

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
    recall, policy = build_phase_engines(artifacts, FineTuner(seed=0))
    return {
        (target, top_k): serial_two_phase(
            recall, policy, artifacts.suite.task(target), top_k=top_k
        )
        for target in TARGETS
        for top_k in (None, 3, 5)
    }


def assert_bitwise_equal(result, serial):
    """Full structural equality of two TwoPhaseResult records."""
    assert result.selected_model == serial.selected_model
    assert result.selected_accuracy == serial.selected_accuracy
    assert (
        result.selection.selected_val_accuracy
        == serial.selection.selected_val_accuracy
    )
    assert result.selection.runtime_epochs == serial.selection.runtime_epochs
    assert result.selection.num_candidates == serial.selection.num_candidates
    assert result.selection.stages == serial.selection.stages
    assert result.selection.final_accuracies == serial.selection.final_accuracies
    assert result.recall.recalled_models == serial.recall.recalled_models
    assert result.recall.recall_scores == serial.recall.recall_scores
    assert result.recall.epoch_cost == serial.recall.epoch_cost
    assert result.total_cost == serial.total_cost


# --------------------------------------------------------------------------- #
# engine level: random geometry mixes
# --------------------------------------------------------------------------- #

geometry = st.fixed_dictionaries(
    {
        "optimizer": st.sampled_from(["sgd", "momentum", "adam"]),
        "activation": st.sampled_from(["relu", "tanh"]),
        "hidden_dims": st.sampled_from([(), (8,), (12, 6)]),
        "learning_rate": st.sampled_from([5e-2, 1e-2]),
        "count": st.integers(min_value=2, max_value=4),
    }
)


class TestEngineGeometryMixes:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        geometries=st.lists(geometry, min_size=1, max_size=3),
        epoch_split=st.sampled_from([(3,), (1, 2), (2, 1), (1, 1, 1)]),
    )
    def test_fused_groups_match_serial_sessions(
        self, nlp_hub_small, nlp_suite_small, geometries, epoch_split
    ):
        """Every drawn geometry trains fused == serial, bitwise, even when
        the fused advance is split into several staged calls."""
        task = nlp_suite_small.task("sst2")
        names = nlp_hub_small.model_names

        for spec in geometries:
            config = FineTuneConfig(
                epochs=5,
                optimizer=spec["optimizer"],
                activation=spec["activation"],
                hidden_dims=spec["hidden_dims"],
                learning_rate=spec["learning_rate"],
            )
            chosen = names[: spec["count"]]
            serial = [
                FineTuner(config, seed=0).start_session(nlp_hub_small.get(n), task)
                for n in chosen
            ]
            fused = [
                FineTuner(config, seed=0).start_session(nlp_hub_small.get(n), task)
                for n in chosen
            ]
            for session in serial:
                session.train_epochs(sum(epoch_split))
            group = FusedSessionGroup(fused)
            for index, epochs in enumerate(epoch_split):
                group.advance(epochs, probe=(index == 0))
            for a, b in zip(serial, fused):
                assert a.curve.train_loss == b.curve.train_loss
                assert a.curve.val_accuracy == b.curve.val_accuracy
                assert a.curve.test_accuracy == b.curve.test_accuracy
                assert a.head.history.train_loss == b.head.history.train_loss
                assert (
                    a.head.history.train_accuracy == b.head.history.train_accuracy
                )
                for pa, pb in zip(a.head.net.params(), b.head.net.params()):
                    assert np.array_equal(pa, pb)


# --------------------------------------------------------------------------- #
# scheduler level: request mixes x epoch budgets
# --------------------------------------------------------------------------- #

requests_strategy = st.lists(
    st.tuples(st.sampled_from(TARGETS), st.sampled_from([None, 3, 5])),
    min_size=1,
    max_size=5,
)


class TestSchedulerEquivalence:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        mix=requests_strategy,
        epoch_budget=st.integers(min_value=2, max_value=12),
    )
    def test_fused_requests_equal_serial_runs(
        self, artifacts, serial_oracle, mix, epoch_budget
    ):
        scheduler = EpochScheduler.for_artifacts(
            artifacts,
            config=SchedulerConfig(
                max_concurrent=4,
                epoch_budget=epoch_budget,
                max_queue=len(mix),
                fused_training=True,
            ),
        )
        handles = [scheduler.submit(target, top_k=top_k) for target, top_k in mix]
        scheduler.run_until_idle()
        for (target, top_k), handle in zip(mix, handles):
            assert_bitwise_equal(
                scheduler.result(handle), serial_oracle[(target, top_k)]
            )
        # Charged-epoch accounting stays honest under fusion: every epoch
        # the pool trained this run is accounted to exactly one of the
        # fused or serial counters (probe_epochs tracks the *duplicated*
        # oracle compute separately — it never inflates the trained sum).
        stats = scheduler.stats()
        pool = stats["session_pool"]
        train = stats["train"]
        assert (
            train["fused_epochs"] + train["serial_epochs"]
            == pool["epochs_trained"]
        )


# --------------------------------------------------------------------------- #
# crash / resume with fusion on
# --------------------------------------------------------------------------- #


REPLAY_CONFIG = dict(
    max_concurrent=2, epoch_budget=4, max_queue=4, fused_training=True
)


@pytest.fixture(scope="module")
def step_counts(artifacts, tmp_path_factory):
    """Step-boundary count per (target, top_k), measured on clean fused runs."""
    counts = {}
    root = tmp_path_factory.mktemp("fused-count-store")
    for target in TARGETS:
        for top_k in (None, 3, 5):
            hits = {"n": 0}
            install_hook(
                "plan.step", lambda s, i: hits.__setitem__("n", hits["n"] + 1)
            )
            try:
                scheduler = EpochScheduler.for_artifacts(
                    artifacts,
                    persist=PlanStore(root / f"{target}-{top_k}"),
                    config=SchedulerConfig(**REPLAY_CONFIG),
                )
                scheduler.submit(target, top_k=top_k)
                scheduler.run_until_idle()
            finally:
                remove_hook("plan.step")
            counts[(target, top_k)] = hits["n"]
    return counts


class TestJournalReplay:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        target=st.sampled_from(TARGETS),
        top_k=st.sampled_from([None, 3, 5]),
        crash_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_crash_resume_with_fused_rounds(
        self, artifacts, serial_oracle, step_counts, tmp_path, target, top_k,
        crash_fraction,
    ):
        steps = step_counts[(target, top_k)]
        crash_ordinal = 1 + round(crash_fraction * (steps - 1))
        root = tmp_path / f"store-{next(_store_ids)}"
        config = SchedulerConfig(**REPLAY_CONFIG)
        scheduler1 = EpochScheduler.for_artifacts(
            artifacts, persist=PlanStore(root), config=config
        )
        hits = {"n": 0}

        def _crash(site, _info):
            hits["n"] += 1
            if hits["n"] == crash_ordinal:
                raise SimulatedCrash(f"{site}#{crash_ordinal}")

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
        result = scheduler2.result(recovered[0], timeout=10)
        assert_bitwise_equal(result, serial_oracle[(target, top_k)])
        # No double charging: replayed epochs come from snapshots, so the
        # resumed scheduler trains at most (total - replayed) new epochs.
        pool = scheduler2.stats()["session_pool"]
        assert pool["epochs_trained"] <= max(
            0, result.selection.runtime_epochs - replayable
        ) + pool["epochs_reused"]


# --------------------------------------------------------------------------- #
# speculation: prune decisions are fusion-invariant
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def speculative_artifacts(artifacts):
    """Successive-halving ablation (trend filter off) — see the
    extrapolation property suite for why speculation needs it."""
    config = artifacts.config
    return dataclasses.replace(
        artifacts,
        config=dataclasses.replace(
            config,
            fine_selection=dataclasses.replace(
                config.fine_selection, use_trend_filter=False
            ),
        ),
    )


class TestExtrapolationDecisions:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        target=st.sampled_from(TARGETS),
        top_k=st.sampled_from([5, 8]),
    )
    def test_prune_decisions_identical_with_and_without_fusion(
        self, speculative_artifacts, target, top_k
    ):
        def run(fused):
            scheduler = EpochScheduler.for_artifacts(
                speculative_artifacts,
                config=SchedulerConfig(
                    max_concurrent=1,
                    max_queue=1,
                    fused_training=fused,
                ),
            )
            handle = scheduler.submit(target, top_k=top_k, extrapolate=True)
            scheduler.run_until_idle()
            return scheduler.result(handle)

        fused_result = run(True)
        plain_result = run(False)
        assert fused_result.selected_model == plain_result.selected_model
        assert fused_result.selection.stages == plain_result.selection.stages
        assert (
            fused_result.selection.runtime_epochs
            == plain_result.selection.runtime_epochs
        )
        assert fused_result.selection.extras == plain_result.selection.extras
