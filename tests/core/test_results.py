"""Tests for the result records."""

import pytest

from repro.core.results import RecallResult, SelectionResult, StageRecord, TwoPhaseResult


def make_selection(runtime=10.0, extra=0.0):
    return SelectionResult(
        method="fine_selection",
        target_name="mnli",
        selected_model="roberta-base",
        selected_accuracy=0.9,
        selected_val_accuracy=0.88,
        runtime_epochs=runtime,
        num_candidates=10,
        extra_epoch_cost=extra,
    )


class TestRecallResult:
    def test_top_model_and_rank(self):
        result = RecallResult(
            target_name="mnli",
            recalled_models=["a", "b", "c"],
            recall_scores={"a": 0.9, "b": 0.8, "c": 0.7},
        )
        assert result.rank_of("a") == 0
        assert result.rank_of("b") == 1
        assert result.rank_of("z") is None


class TestSelectionResult:
    def test_total_cost_includes_extra(self):
        result = make_selection(runtime=10.0, extra=2.5)
        assert result.total_cost == 12.5


class TestTwoPhaseResult:
    def test_properties_delegate(self):
        recall = RecallResult(
            target_name="mnli",
            recalled_models=["roberta-base"],
            recall_scores={"roberta-base": 1.0},
            epoch_cost=3.0,
        )
        selection = make_selection(runtime=14.0)
        result = TwoPhaseResult(target_name="mnli", recall=recall, selection=selection)
        assert result.selected_model == "roberta-base"
        assert result.selected_accuracy == 0.9
        assert result.total_cost == 17.0


class TestStageRecord:
    def test_defaults(self):
        stage = StageRecord(stage=0, surviving_models=["a"], validation_accuracy={"a": 0.5})
        assert stage.removed_by_trend == []
        assert stage.removed_by_halving == []
        assert stage.predicted_accuracy == {}
