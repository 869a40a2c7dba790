"""Cross-backend equivalence: parallel selection must equal serial bitwise.

The parallel subsystem's core guarantee (docs/parallelism.md) is that the
serial, thread and process executors return identical results at every
granularity — proxy scoring and the scheduler's training rounds, single
and batched.  These tests pin that guarantee on the reduced session
fixtures, and pin each selection policy's ``run`` (a private scheduler
request) to the blocking stage loop of ``oracles.serial_stage_loop``.
"""

import pytest

from oracles import serial_stage_loop
from repro.core.batch import build_phase_engines
from repro.core.config import RecallConfig
from repro.core.pipeline import OfflineArtifacts, TwoPhaseSelector
from repro.core.recall import CoarseRecall
from repro.core.selection import FineSelection, SuccessiveHalving
from repro.parallel import get_executor

BACKENDS = ["serial", "thread:4", "process:4"]


@pytest.fixture(scope="module")
def nlp_artifacts(nlp_hub_small, nlp_suite_small, test_pipeline_config, fine_tuner):
    return OfflineArtifacts.build(
        nlp_hub_small,
        nlp_suite_small,
        config=test_pipeline_config,
        fine_tuner=fine_tuner,
    )


def _recall_result(nlp_hub_small, nlp_matrix_small, nlp_clustering_small, task, parallel):
    recall = CoarseRecall(
        nlp_hub_small,
        nlp_matrix_small,
        nlp_clustering_small,
        config=RecallConfig(top_k=5),
        executor=get_executor(parallel),
    )
    return recall.recall(task)


class TestRecallAcrossBackends:
    @pytest.mark.parametrize("parallel", BACKENDS[1:])
    def test_recall_identical_to_serial(
        self, nlp_hub_small, nlp_matrix_small, nlp_clustering_small, nlp_suite_small, parallel
    ):
        task = nlp_suite_small.task("mnli")
        reference = _recall_result(
            nlp_hub_small, nlp_matrix_small, nlp_clustering_small, task, None
        )
        result = _recall_result(
            nlp_hub_small, nlp_matrix_small, nlp_clustering_small, task, parallel
        )
        assert result.recalled_models == reference.recalled_models
        assert result.recall_scores == reference.recall_scores
        assert result.raw_proxy_scores == reference.raw_proxy_scores
        assert result.epoch_cost == reference.epoch_cost


class TestPolicyRun:
    def test_fine_selection_matches_oracle(
        self, nlp_hub_small, nlp_matrix_small, nlp_suite_small, fine_tuner
    ):
        task = nlp_suite_small.task("mnli")
        candidates = nlp_hub_small.model_names[:6]
        engine = FineSelection(nlp_hub_small, nlp_matrix_small, fine_tuner)
        reference = serial_stage_loop(engine, candidates, task)
        result = engine.run(candidates, task)
        assert result.selected_model == reference.selected_model
        assert result.selected_accuracy == reference.selected_accuracy
        assert result.runtime_epochs == reference.runtime_epochs
        assert result.final_accuracies == reference.final_accuracies
        assert result.stages == reference.stages

    def test_successive_halving_matches_oracle(
        self, nlp_hub_small, nlp_suite_small, fine_tuner
    ):
        task = nlp_suite_small.task("boolq")
        candidates = nlp_hub_small.model_names[:4]
        engine = SuccessiveHalving(nlp_hub_small, fine_tuner)
        reference = serial_stage_loop(engine, candidates, task)
        result = engine.run(candidates, task)
        assert result.selected_model == reference.selected_model
        assert result.final_accuracies == reference.final_accuracies
        assert result.stages == reference.stages


class TestBatchAcrossBackends:
    @pytest.fixture(scope="class")
    def serial_report(self, nlp_artifacts, nlp_suite_small):
        selector = TwoPhaseSelector(nlp_artifacts, parallel="serial")
        return selector.select_many(nlp_suite_small.target_names)

    @pytest.mark.parametrize("parallel", BACKENDS[1:])
    def test_batch_identical_to_serial(
        self, nlp_artifacts, nlp_suite_small, serial_report, parallel
    ):
        selector = TwoPhaseSelector(nlp_artifacts, parallel=parallel)
        report = selector.select_many(nlp_suite_small.target_names)
        assert report.target_names == serial_report.target_names
        for name in report.target_names:
            result = report.result_for(name)
            reference = serial_report.result_for(name)
            assert result.selected_model == reference.selected_model
            assert result.selected_accuracy == reference.selected_accuracy
            assert result.selection.runtime_epochs == reference.selection.runtime_epochs
            assert result.selection.final_accuracies == reference.selection.final_accuracies
            assert result.recall.recall_scores == reference.recall.recall_scores
            assert result.total_cost == reference.total_cost

    def test_selector_parallel_override(self, nlp_artifacts, nlp_suite_small):
        serial = TwoPhaseSelector(nlp_artifacts).select("mnli")
        parallel = TwoPhaseSelector(nlp_artifacts, parallel="thread:4").select("mnli")
        assert parallel.selected_model == serial.selected_model
        assert parallel.selection.final_accuracies == serial.selection.final_accuracies
        assert parallel.total_cost == serial.total_cost

    def test_engines_share_executor(self, nlp_artifacts, fine_tuner):
        executor = get_executor("thread:2")
        recall, fine_selection = build_phase_engines(
            nlp_artifacts, fine_tuner, parallel=executor
        )
        assert recall._executor is executor
        # Training fans out in the scheduler, never inside the policy.
        assert not hasattr(fine_selection, "_executor")
        selector = TwoPhaseSelector(nlp_artifacts, parallel=executor)
        assert selector._executor is executor
        assert selector._recall._executor is executor
