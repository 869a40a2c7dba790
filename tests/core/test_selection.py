"""Tests for the selection algorithms (BF, SH, FS / Algorithm 1)."""

import numpy as np
import pytest

from oracles import serial_stage_loop
from repro.core.config import FineSelectionConfig
from repro.core.selection import BruteForceSelection, FineSelection, SuccessiveHalving
from repro.utils.exceptions import SelectionError

CONFIG = FineSelectionConfig(total_epochs=3)


@pytest.fixture(scope="module")
def candidates(nlp_hub_small):
    return list(nlp_hub_small.model_names[:8])


@pytest.fixture(scope="module")
def mnli_task(nlp_suite_small):
    return nlp_suite_small.task("mnli")


class TestBruteForce:
    def test_runtime_is_models_times_epochs(self, nlp_hub_small, fine_tuner, candidates, mnli_task):
        result = BruteForceSelection(nlp_hub_small, fine_tuner, config=CONFIG).run(
            candidates, mnli_task
        )
        assert result.runtime_epochs == len(candidates) * CONFIG.total_epochs
        assert result.method == "brute_force"

    def test_selects_best_validation_model(self, nlp_hub_small, fine_tuner, candidates, mnli_task):
        result = BruteForceSelection(nlp_hub_small, fine_tuner, config=CONFIG).run(
            candidates, mnli_task
        )
        validations = result.stages[0].validation_accuracy
        assert validations[result.selected_model] == max(validations.values())

    def test_final_accuracies_cover_all_candidates(
        self, nlp_hub_small, fine_tuner, candidates, mnli_task
    ):
        result = BruteForceSelection(nlp_hub_small, fine_tuner, config=CONFIG).run(
            candidates, mnli_task
        )
        assert set(result.final_accuracies) == set(candidates)

    def test_empty_candidates_rejected(self, nlp_hub_small, fine_tuner, mnli_task):
        with pytest.raises(SelectionError):
            BruteForceSelection(nlp_hub_small, fine_tuner, config=CONFIG).run([], mnli_task)

    def test_unknown_candidate_rejected(self, nlp_hub_small, fine_tuner, mnli_task):
        with pytest.raises(SelectionError):
            BruteForceSelection(nlp_hub_small, fine_tuner, config=CONFIG).run(
                ["not-a-model"], mnli_task
            )


class TestSuccessiveHalving:
    def test_runtime_matches_halving_schedule(
        self, nlp_hub_small, fine_tuner, candidates, mnli_task
    ):
        result = SuccessiveHalving(nlp_hub_small, fine_tuner, config=CONFIG).run(
            candidates, mnli_task
        )
        # 8 models, 3 stages of 1 epoch: 8 + 4 + 2 = 14 epochs.
        assert result.runtime_epochs == 14
        assert result.method == "successive_halving"

    def test_paper_epoch_counts(self, nlp_hub_small, fine_tuner, nlp_suite_small):
        """With 10 models and 5 stages the SH schedule costs 19 epochs (Table V)."""
        config = FineSelectionConfig(total_epochs=5)
        candidates = nlp_hub_small.model_names[:10]
        result = SuccessiveHalving(nlp_hub_small, fine_tuner, config=config).run(
            candidates, nlp_suite_small.task("boolq")
        )
        assert result.runtime_epochs == 19

    def test_survivors_halve_each_stage(self, nlp_hub_small, fine_tuner, candidates, mnli_task):
        result = SuccessiveHalving(nlp_hub_small, fine_tuner, config=CONFIG).run(
            candidates, mnli_task
        )
        sizes = [len(stage.surviving_models) for stage in result.stages]
        assert sizes == [4, 2, 1]

    def test_single_candidate(self, nlp_hub_small, fine_tuner, mnli_task):
        result = SuccessiveHalving(nlp_hub_small, fine_tuner, config=CONFIG).run(
            ["bert-base-uncased"], mnli_task
        )
        assert result.selected_model == "bert-base-uncased"
        assert result.runtime_epochs == CONFIG.total_epochs

    def test_selected_model_cheaper_than_brute_force(
        self, nlp_hub_small, fine_tuner, candidates, mnli_task
    ):
        sh = SuccessiveHalving(nlp_hub_small, fine_tuner, config=CONFIG).run(
            candidates, mnli_task
        )
        bf = BruteForceSelection(nlp_hub_small, fine_tuner, config=CONFIG).run(
            candidates, mnli_task
        )
        assert sh.runtime_epochs < bf.runtime_epochs


class TestFineSelection:
    def test_never_slower_than_successive_halving(
        self, nlp_hub_small, nlp_matrix_small, fine_tuner, candidates, mnli_task
    ):
        fs = FineSelection(
            nlp_hub_small, nlp_matrix_small, fine_tuner, config=CONFIG
        ).run(candidates, mnli_task)
        sh = SuccessiveHalving(nlp_hub_small, fine_tuner, config=CONFIG).run(
            candidates, mnli_task
        )
        assert fs.runtime_epochs <= sh.runtime_epochs
        assert fs.method == "fine_selection"

    def test_winner_fully_trained(
        self, nlp_hub_small, nlp_matrix_small, fine_tuner, candidates, mnli_task
    ):
        fs = FineSelection(
            nlp_hub_small, nlp_matrix_small, fine_tuner, config=CONFIG
        ).run(candidates, mnli_task)
        # The selected model participates in every stage, so it trains for the
        # full epoch budget.
        assert all(
            fs.selected_model in stage.surviving_models for stage in fs.stages
        )

    def test_selected_accuracy_close_to_best_candidate(
        self, nlp_hub_small, nlp_matrix_small, fine_tuner, candidates, mnli_task
    ):
        fs = FineSelection(
            nlp_hub_small, nlp_matrix_small, fine_tuner, config=CONFIG
        ).run(candidates, mnli_task)
        bf = BruteForceSelection(nlp_hub_small, fine_tuner, config=CONFIG).run(
            candidates, mnli_task
        )
        best_accuracy = max(bf.final_accuracies.values())
        assert fs.selected_accuracy >= best_accuracy - 0.15

    def test_trend_filter_can_remove_more_than_half(
        self, nlp_hub_small, nlp_matrix_small, fine_tuner, candidates, mnli_task
    ):
        fs = FineSelection(
            nlp_hub_small, nlp_matrix_small, fine_tuner, config=CONFIG
        ).run(candidates, mnli_task)
        first_stage = fs.stages[0]
        removed = len(first_stage.removed_by_trend) + len(first_stage.removed_by_halving)
        assert removed >= len(candidates) // 2

    def test_threshold_monotone_runtime(
        self, nlp_hub_small, nlp_matrix_small, fine_tuner, candidates, mnli_task
    ):
        runtimes = []
        for threshold in (0.0, 0.5):
            config = FineSelectionConfig(total_epochs=3, threshold=threshold)
            fs = FineSelection(
                nlp_hub_small, nlp_matrix_small, fine_tuner, config=config
            ).run(candidates, mnli_task)
            runtimes.append(fs.runtime_epochs)
        assert runtimes[0] <= runtimes[1]

    def test_disabling_trend_filter_matches_successive_halving_runtime(
        self, nlp_hub_small, nlp_matrix_small, fine_tuner, candidates, mnli_task
    ):
        config = FineSelectionConfig(total_epochs=3, use_trend_filter=False)
        fs = FineSelection(
            nlp_hub_small, nlp_matrix_small, fine_tuner, config=config
        ).run(candidates, mnli_task)
        sh = SuccessiveHalving(nlp_hub_small, fine_tuner, config=CONFIG).run(
            candidates, mnli_task
        )
        assert fs.runtime_epochs == sh.runtime_epochs

    def test_predictions_recorded_per_stage(
        self, nlp_hub_small, nlp_matrix_small, fine_tuner, candidates, mnli_task
    ):
        fs = FineSelection(
            nlp_hub_small, nlp_matrix_small, fine_tuner, config=CONFIG
        ).run(candidates, mnli_task)
        first_stage = fs.stages[0]
        assert set(first_stage.predicted_accuracy) == set(candidates)
        assert all(0.0 <= v <= 1.0 for v in first_stage.predicted_accuracy.values())

    def test_single_candidate(self, nlp_hub_small, nlp_matrix_small, fine_tuner, mnli_task):
        fs = FineSelection(
            nlp_hub_small, nlp_matrix_small, fine_tuner, config=CONFIG
        ).run(["roberta-base"], mnli_task)
        assert fs.selected_model == "roberta-base"
        assert fs.runtime_epochs == CONFIG.total_epochs


class TestPolicyRun:
    """A policy's ``run`` (a one-request scheduler) equals the stage loop."""

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
