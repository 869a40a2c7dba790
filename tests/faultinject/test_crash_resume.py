"""Kill-and-resume at every durability boundary: the acceptance suite.

The crash-safety contract (see ``docs/persistence.md``): a scheduler
killed at *any* persistence boundary restarts, recovers the in-flight
request from its journal, and finishes with a result bitwise-identical to
the never-crashed serial path — and the epochs already journaled are
charged to the request without being trained again (session snapshots make
the replay free).

This module enumerates the boundaries of a real run (rather than guessing
their count) and kills at each one in turn.
"""

import dataclasses
import shutil

import pytest

from harness import assert_bitwise_equal, counting, crash_at
from oracles import serial_select

from repro.persist import PlanJournal, PlanStore, SimulatedCrash
from repro.sched import EpochScheduler
from repro.zoo.finetune import FineTuner

TARGET, TOP_K = "mnli", 5
#: Request shape of the speculative (early-stopping) crash tests — the
#: successive-halving ablation over a widened pool fires multiple
#: ``plan.prune`` boundaries on the reduced hub.
SPEC_TARGET, SPEC_TOP_K = "boolq", 8


def make_scheduler(artifacts, store, fine_tuner):
    """Fresh scheduler simulating one process lifetime over ``store``.

    A new FineTuner with the fixture's configuration keeps the tuner
    fingerprint — part of the journal's plan key — stable across
    simulated restarts, exactly like a re-executed server command line.
    """
    tuner = FineTuner(fine_tuner.config, seed=0)
    return EpochScheduler.for_artifacts(artifacts, fine_tuner=tuner, persist=store)


def journaled_step_epochs(store_root) -> int:
    """Fine-tuning epochs durably recorded by the (single) journal."""
    paths = PlanStore(store_root).journal_paths()
    if not paths:
        return 0
    journal = PlanJournal(paths[0])
    return sum(r["payload"]["epochs"] for r in journal.of_type("step"))


def run_and_crash(artifacts, store_root, fine_tuner, site, ordinal):
    """Submit the canonical request and die at the armed crash point."""
    scheduler = make_scheduler(artifacts, PlanStore(store_root), fine_tuner)
    with crash_at(site, ordinal) as state:
        scheduler.submit(TARGET, top_k=TOP_K)
        with pytest.raises(SimulatedCrash):
            scheduler.run_until_idle()
    assert state.crashed


def resume_and_check(artifacts, store_root, fine_tuner, oracle):
    """Restart over the same store; the result must match the oracle."""
    replayable = journaled_step_epochs(store_root)
    scheduler = make_scheduler(artifacts, PlanStore(store_root), fine_tuner)
    recovered = scheduler.recover()
    if not recovered:
        # Crashed before the request record became durable: the request
        # was never accepted, so the client resubmits from scratch.
        recovered = [scheduler.submit(TARGET, top_k=TOP_K)]
    assert len(recovered) == 1
    scheduler.run_until_idle()
    result = scheduler.result(recovered[0], timeout=10)
    assert_bitwise_equal(result, oracle)

    stats = scheduler.stats()
    persist, pool = stats["persist"], stats["session_pool"]
    # Every journaled epoch is charged by replay, not trained again …
    assert persist["epochs_replayed"] == replayable
    # … because the published snapshots cover at least the journaled
    # prefix (snapshot-before-journal ordering), so the pool reuses them.
    assert pool["epochs_reused"] >= replayable
    charged = result.selection.runtime_epochs
    assert pool["epochs_trained"] + pool["epochs_reused"] == charged
    return stats


class TestKillAtEveryStepBoundary:
    def test_resume_is_bitwise_identical_at_every_boundary(
        self, artifacts, serial_oracle, fine_tuner, tmp_path
    ):
        oracle = serial_oracle[(TARGET, TOP_K)]
        # Enumerate the boundaries with a counting run first.
        scheduler = make_scheduler(
            artifacts, PlanStore(tmp_path / "enumerate"), fine_tuner
        )
        with counting("plan.step") as clean:
            scheduler.submit(TARGET, top_k=TOP_K)
            scheduler.run_until_idle()
        assert clean.hits >= 3, "selection must have multiple step boundaries"

        for boundary in range(1, clean.hits + 1):
            root = tmp_path / f"crash-{boundary}"
            run_and_crash(artifacts, root, fine_tuner, "plan.step", boundary)
            stats = resume_and_check(artifacts, root, fine_tuner, oracle)
            if boundary > 1:
                # Steps before the crash were journaled and must replay.
                assert stats["persist"]["epochs_replayed"] >= 1


class TestKillAtOtherDurabilityBoundaries:
    @pytest.mark.parametrize("site", ["journal.append", "journal.flush", "publish"])
    @pytest.mark.parametrize("ordinal", [1, 3])
    def test_resume_after_crash_at_site(
        self, artifacts, serial_oracle, fine_tuner, tmp_path, site, ordinal
    ):
        oracle = serial_oracle[(TARGET, TOP_K)]
        root = tmp_path / f"{site}-{ordinal}"
        run_and_crash(artifacts, root, fine_tuner, site, ordinal)
        resume_and_check(artifacts, root, fine_tuner, oracle)

    def test_double_crash_then_resume(
        self, artifacts, serial_oracle, fine_tuner, tmp_path
    ):
        """Crashing the *recovery* run leaves the store recoverable again."""
        oracle = serial_oracle[(TARGET, TOP_K)]
        root = tmp_path / "double"
        run_and_crash(artifacts, root, fine_tuner, "plan.step", 3)
        first_replayable = journaled_step_epochs(root)
        # Second lifetime crashes too — later than the first, so it must
        # have journaled additional steps beyond the replayed prefix.
        scheduler = make_scheduler(artifacts, PlanStore(root), fine_tuner)
        with crash_at("plan.step", first_replayable + 2) as state:
            recovered = scheduler.recover()
            assert len(recovered) == 1
            with pytest.raises(SimulatedCrash):
                scheduler.run_until_idle()
        assert state.crashed
        assert journaled_step_epochs(root) > first_replayable
        resume_and_check(artifacts, root, fine_tuner, oracle)


class TestReplayWithoutSnapshots:
    def test_retrained_replay_counts_in_the_train_counters(
        self, artifacts, serial_oracle, fine_tuner, tmp_path
    ):
        """Lost snapshots make replay retrain; the counters must see it.

        Deleting ``sessions/`` stands for any snapshot ``load_session``
        cannot use (unreadable, or written under another config): the
        resumed request retrains its journaled epochs while replaying, and
        ``fused_epochs + serial_epochs`` must still equal the pool's
        ``epochs_trained``.
        """
        root = tmp_path / "store"
        run_and_crash(artifacts, root, fine_tuner, "plan.step", 6)
        shutil.rmtree(root / "sessions")
        scheduler = make_scheduler(artifacts, PlanStore(root), fine_tuner)
        recovered = scheduler.recover()
        assert len(recovered) == 1
        scheduler.run_until_idle()
        result = scheduler.result(recovered[0], timeout=10)
        assert_bitwise_equal(result, serial_oracle[(TARGET, TOP_K)])

        stats = scheduler.stats()
        train, pool = stats["train"], stats["session_pool"]
        # Nothing was restorable, so every replayed epoch trained again.
        assert stats["persist"]["epochs_replayed"] > 0
        assert pool["epochs_reused"] == 0
        assert pool["epochs_trained"] == result.selection.runtime_epochs
        assert train["fused_epochs"] + train["serial_epochs"] == pool["epochs_trained"]


class TestBudgetRaise:
    def test_raise_budget_continues_from_old_rungs(
        self, artifacts, fine_tuner, tmp_path
    ):
        import dataclasses

        from repro.core.config import FineSelectionConfig

        root = tmp_path / "raise"
        # First lifetime: run the default budget to completion.
        s1 = make_scheduler(artifacts, PlanStore(root), fine_tuner)
        r1 = s1.submit(TARGET, top_k=TOP_K)
        s1.run_until_idle()
        res1 = s1.result(r1, timeout=10)

        raised = artifacts.config.fine_selection.total_epochs * 2
        # Serial oracle at the raised budget (same artifacts, same tuner).
        artifacts6 = dataclasses.replace(
            artifacts,
            config=dataclasses.replace(
                artifacts.config,
                fine_selection=dataclasses.replace(
                    artifacts.config.fine_selection, total_epochs=raised
                ),
            ),
        )
        oracle6 = serial_select(
            artifacts6, TARGET, top_k=TOP_K,
            fine_tuner=FineTuner(fine_tuner.config, seed=0),
        )

        # Second lifetime: same journal, raised budget.
        s2 = make_scheduler(artifacts, PlanStore(root), fine_tuner)
        r2 = s2.submit(TARGET, top_k=TOP_K, total_epochs=raised)
        s2.run_until_idle()
        res2 = s2.result(r2, timeout=10)
        assert_bitwise_equal(res2, oracle6)

        stats = s2.stats()
        replayed = stats["persist"]["epochs_replayed"]
        pool = stats["session_pool"]
        # The old rungs were replayed from the journal, and only the
        # *delta* beyond the snapshots was actually trained.
        assert replayed == res1.selection.runtime_epochs
        assert pool["epochs_reused"] >= replayed
        delta = res2.selection.runtime_epochs - res1.selection.runtime_epochs
        assert pool["epochs_trained"] <= delta

    def test_same_budget_resubmit_is_result_fast_path(
        self, artifacts, serial_oracle, fine_tuner, tmp_path
    ):
        oracle = serial_oracle[(TARGET, TOP_K)]
        root = tmp_path / "fastpath"
        s1 = make_scheduler(artifacts, PlanStore(root), fine_tuner)
        r1 = s1.submit(TARGET, top_k=TOP_K)
        s1.run_until_idle()
        s1.result(r1, timeout=10)

        s2 = make_scheduler(artifacts, PlanStore(root), fine_tuner)
        r2 = s2.submit(TARGET, top_k=TOP_K)
        s2.run_until_idle()
        res2 = s2.result(r2, timeout=10)
        assert_bitwise_equal(res2, oracle)
        stats = s2.stats()
        assert stats["persist"]["results_restored"] == 1
        assert stats["session_pool"]["epochs_trained"] == 0


@pytest.fixture(scope="module")
def spec_artifacts(artifacts):
    """The halving ablation: with the paper's trend filter the cohort
    collapses to one arm after the first rung, so speculative pruning (and
    its ``plan.prune`` crash site) would never fire."""
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


@pytest.fixture(scope="module")
def speculative_oracle(spec_artifacts, fine_tuner):
    """The never-crashed speculative run every resumed run must match."""
    scheduler = make_scheduler(spec_artifacts, None, fine_tuner)
    handle = scheduler.submit(SPEC_TARGET, top_k=SPEC_TOP_K, extrapolate=True)
    scheduler.run_until_idle()
    result = scheduler.result(handle, timeout=10)
    assert result.selection.extras.get("extrapolation"), (
        "the speculative crash tests need a request that actually prunes"
    )
    return result


@pytest.mark.extrapolation
class TestKillAtEveryPruneBoundary:
    """Crash-safety of speculative early stopping: the prune set replays.

    The prune decision is a pure function of the journaled curves, so a
    scheduler killed at *any* early-stop decision boundary must resume to
    a result bitwise-identical to the never-crashed speculative run — the
    identical prune set, the identical honesty extras — with every
    journaled epoch charged by replay rather than trained (and thus
    charged) a second time.
    """

    def run_and_crash_speculative(self, artifacts, store_root, fine_tuner, site, ordinal):
        scheduler = make_scheduler(artifacts, PlanStore(store_root), fine_tuner)
        with crash_at(site, ordinal) as state:
            scheduler.submit(SPEC_TARGET, top_k=SPEC_TOP_K, extrapolate=True)
            with pytest.raises(SimulatedCrash):
                scheduler.run_until_idle()
        assert state.crashed
        return state

    def resume_and_check_speculative(self, artifacts, store_root, fine_tuner, oracle):
        replayable = journaled_step_epochs(store_root)
        scheduler = make_scheduler(artifacts, PlanStore(store_root), fine_tuner)
        recovered = scheduler.recover()
        assert len(recovered) == 1, "the speculative request must recover"
        scheduler.run_until_idle()
        result = scheduler.result(recovered[0], timeout=10)

        assert_bitwise_equal(result, oracle)
        # The honesty layer replays bitwise too: identical prune set,
        # identical per-arm decision records, identical regret bound.
        assert result.selection.extras == oracle.selection.extras

        stats = scheduler.stats()
        persist, pool = stats["persist"], stats["session_pool"]
        # Zero double-charged epochs: everything journaled before the
        # crash is charged by replay (served from snapshots), and replay
        # plus fresh training adds up to exactly the charged total.
        assert persist["epochs_replayed"] == replayable
        assert pool["epochs_reused"] >= replayable
        charged = result.selection.runtime_epochs
        assert pool["epochs_trained"] + pool["epochs_reused"] == charged
        return stats

    def test_resume_replays_identical_prunes_at_every_boundary(
        self, spec_artifacts, speculative_oracle, fine_tuner, tmp_path
    ):
        # Enumerate the early-stop boundaries with a clean counting run.
        scheduler = make_scheduler(
            spec_artifacts, PlanStore(tmp_path / "enumerate"), fine_tuner
        )
        with counting("plan.prune") as clean:
            scheduler.submit(SPEC_TARGET, top_k=SPEC_TOP_K, extrapolate=True)
            scheduler.run_until_idle()
        assert clean.hits >= 1, "the ablation request must hit prune boundaries"
        oracle_prunes = set(
            speculative_oracle.selection.extras["extrapolation"]["pruned"]
        )
        # The crash hook sees each decision's prune set before it applies.
        announced = set().union(*(set(info["models"]) for info in clean.infos))
        assert announced == oracle_prunes

        for boundary in range(1, clean.hits + 1):
            root = tmp_path / f"prune-crash-{boundary}"
            self.run_and_crash_speculative(
                spec_artifacts, root, fine_tuner, "plan.prune", boundary
            )
            stats = self.resume_and_check_speculative(
                spec_artifacts, root, fine_tuner, speculative_oracle
            )
            if boundary > 1:
                # Stages feeding the earlier prune decisions were already
                # journaled, so the resume re-derives those prunes from
                # replayed (not retrained) epochs.
                assert stats["persist"]["prunes_replayed"] >= 1

    def test_crash_between_prune_and_next_stage(
        self, spec_artifacts, speculative_oracle, fine_tuner, tmp_path
    ):
        """Kill at the first step *after* a prune was applied and journaled:
        resume must not prune again (no double-retire, no drift)."""
        # A clean pass first to learn at which stage the first prune fires.
        scheduler = make_scheduler(
            spec_artifacts, PlanStore(tmp_path / "post-prune-clean"), fine_tuner
        )
        with counting("plan.prune") as clean:
            scheduler.submit(SPEC_TARGET, top_k=SPEC_TOP_K, extrapolate=True)
            scheduler.run_until_idle()
        first_prune_stage = clean.infos[0]["stage"]

        from repro.persist import clear_hooks, install_hook

        root = tmp_path / "post-prune-crash"
        scheduler = make_scheduler(spec_artifacts, PlanStore(root), fine_tuner)
        seen = {"past_prune": 0}

        def kill_after_prune(_site, info):
            if info["stage"] >= first_prune_stage:
                seen["past_prune"] += 1
                if seen["past_prune"] == 2:
                    raise SimulatedCrash("post-prune step")

        install_hook("plan.step", kill_after_prune)
        scheduler.submit(SPEC_TARGET, top_k=SPEC_TOP_K, extrapolate=True)
        with pytest.raises(SimulatedCrash):
            scheduler.run_until_idle()
        clear_hooks()
        self.resume_and_check_speculative(
            spec_artifacts, root, fine_tuner, speculative_oracle
        )


class TestAnytimeAnswers:
    def test_best_so_far_mid_run_and_after(self, artifacts, fine_tuner, tmp_path):
        scheduler = make_scheduler(
            artifacts, PlanStore(tmp_path / "anytime"), fine_tuner
        )
        request = scheduler.submit(TARGET, top_k=TOP_K)
        snapshots = []

        from repro.persist import install_hook

        def snapshot_hook(_site, _info):
            # poll() re-enters the scheduler lock from the same thread
            # (RLock), which is exactly how a client-facing thread reads
            # anytime state while training is in flight.
            snapshots.append(scheduler.poll(request, best=True)["anytime"])

        install_hook("plan.step", snapshot_hook)
        scheduler.run_until_idle()
        result = scheduler.result(request, timeout=10)

        assert snapshots, "plan.step must have fired"
        mid = snapshots[len(snapshots) // 2]
        assert mid["best"] is not None
        assert mid["best"]["model"] in result.recall.recalled_models
        assert 0.0 < mid["best"]["confidence"] <= 1.0
        ranks = [c["confidence"] for c in mid["candidates"]]
        assert all(
            ranks[i] >= ranks[i + 1]
            or mid["candidates"][i]["surviving"]
            >= mid["candidates"][i + 1]["surviving"]
            for i in range(len(ranks) - 1)
        )

        # After completion the snapshot collapses to the final winner.
        final = scheduler.poll(request, best=True)["anytime"]
        assert final["final"] is True
        assert final["best"]["model"] == result.selected_model
        assert final["best"]["confidence"] == 1.0
