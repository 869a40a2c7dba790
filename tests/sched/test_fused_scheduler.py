"""Scheduler-level tests for fused (stacked-kernel) round training.

The contract under test: whatever ``fused_training`` is set to, the
scheduler's answers — selected models, curves, epoch accounting — are
bitwise-identical to recall plus the blocking stage loop of
``oracles.serial_stage_loop``.  Fusion may only change *speed*, observable
through the ``stats()["train"]`` counters.
"""

import pytest

from oracles import serial_two_phase
from repro.core.batch import build_phase_engines
from repro.core.pipeline import OfflineArtifacts
from repro.sched import EpochScheduler, SchedulerConfig
from repro.sched import scheduler as scheduler_module
from repro.zoo.finetune import FineTuner

TARGETS = ("mnli", "boolq")


@pytest.fixture(scope="module")
def artifacts(nlp_hub_small, nlp_suite_small, test_pipeline_config, fine_tuner):
    return OfflineArtifacts.build(
        nlp_hub_small,
        nlp_suite_small,
        config=test_pipeline_config,
        fine_tuner=fine_tuner,
    )


@pytest.fixture(scope="module")
def serial_results(artifacts):
    return serial_answers(artifacts)


def serial_answers(artifacts):
    recall, policy = build_phase_engines(artifacts, FineTuner(seed=0))
    return {
        name: serial_two_phase(recall, policy, artifacts.suite.task(name))
        for name in TARGETS
    }


def run_scheduler(artifacts, *, fused):
    config = SchedulerConfig(
        max_concurrent=4,
        epoch_budget=4,
        max_queue=8,
        fused_training=fused,
    )
    scheduler = EpochScheduler.for_artifacts(artifacts, config=config)
    scheduler.start()
    try:
        requests = {name: scheduler.submit(name) for name in TARGETS}
        results = {}
        for name, request in requests.items():
            request.wait()
            if request.error is not None:
                raise request.error
            results[name] = request.result
    finally:
        scheduler.close()
    return results, scheduler.stats()


def assert_identical(result, oracle):
    assert result.selection.selected_model == oracle.selection.selected_model
    assert result.selection.selected_accuracy == oracle.selection.selected_accuracy
    assert result.selection.runtime_epochs == oracle.selection.runtime_epochs
    assert result.selection.final_accuracies == oracle.selection.final_accuracies
    assert result.recall.recalled_models == oracle.recall.recalled_models


class TestFusedConfig:
    def test_fused_training_defaults_on(self):
        config = SchedulerConfig()
        assert config.fused_training is True


class TestFusedRounds:
    def test_results_identical_to_serial_selector(self, artifacts, serial_results):
        fused_results, fused_stats = run_scheduler(artifacts, fused=True)
        for name in TARGETS:
            assert_identical(fused_results[name], serial_results[name])
        train = fused_stats["train"]
        assert train["fused_groups"] > 0
        assert train["fused_sessions"] >= 2 * train["fused_groups"]
        assert train["fused_epochs"] > 0
        assert train["delegated_groups"] == 0
        assert train["verified_geometries"] >= 1
        assert train["largest_group"] >= 2

    def test_disabled_fusion_identical_and_counts_nothing(
        self, artifacts, serial_results
    ):
        results, stats = run_scheduler(artifacts, fused=False)
        for name in TARGETS:
            assert_identical(results[name], serial_results[name])
        train = stats["train"]
        assert train["fused_training"] is False
        assert train["fused_groups"] == 0
        assert train["fused_epochs"] == 0
        assert train["serial_epochs"] > 0

    def test_fused_and_plain_schedulers_agree_exactly(self, artifacts):
        fused_results, _ = run_scheduler(artifacts, fused=True)
        plain_results, _ = run_scheduler(artifacts, fused=False)
        for name in TARGETS:
            fused_curves = fused_results[name].selection.stages
            plain_curves = plain_results[name].selection.stages
            assert len(fused_curves) == len(plain_curves)
            assert_identical(fused_results[name], plain_results[name])

    def test_probe_divergence_delegates_whole_round(self, artifacts, monkeypatch):
        """A poisoned kernel may cost speed, never correctness."""
        import repro.nn.batched as batched

        real = batched.fused_fit_epoch

        def lying_fit_epoch(stacked, x, y, perms, *, batch_size):
            losses, accuracies = real(stacked, x, y, perms, batch_size=batch_size)
            return [loss + 1e-9 for loss in losses], accuracies

        monkeypatch.setattr(batched, "fused_fit_epoch", lying_fit_epoch)
        oracle = serial_answers(artifacts)
        results, stats = run_scheduler(artifacts, fused=True)
        for name in TARGETS:
            assert_identical(results[name], oracle[name])
        train = stats["train"]
        assert train["delegated_groups"] > 0
        assert train["fused_epochs"] == 0
        assert train["verified_geometries"] == 0

    def test_min_group_above_round_size_stays_serial(
        self, artifacts, serial_results, monkeypatch
    ):
        monkeypatch.setattr(scheduler_module, "FUSED_MIN_GROUP", 64)
        results, stats = run_scheduler(artifacts, fused=True)
        for name in TARGETS:
            assert_identical(results[name], serial_results[name])
        assert stats["train"]["fused_groups"] == 0
