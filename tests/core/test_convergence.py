"""Tests for convergence-trend mining (Eq. 5/6)."""

import numpy as np
import pytest

from repro.core.convergence import (
    ConvergenceTrend,
    ConvergenceTrendMiner,
    TrendSet,
    leave_one_out_prediction_error,
    random_trend_labels,
)
from repro.utils.exceptions import DataError, SelectionError
from repro.zoo.finetune import LearningCurve


def make_curves():
    """Synthetic benchmark curves with two obvious groups (high/low plateau)."""
    curves = {}
    for index in range(4):
        curves[f"easy{index}"] = LearningCurve(
            "model", f"easy{index}",
            val_accuracy=[0.7 + 0.01 * index, 0.85, 0.9],
            test_accuracy=[0.7, 0.85, 0.9 + 0.01 * index],
        )
    for index in range(4):
        curves[f"hard{index}"] = LearningCurve(
            "model", f"hard{index}",
            val_accuracy=[0.3 + 0.01 * index, 0.4, 0.45],
            test_accuracy=[0.3, 0.4, 0.45 + 0.01 * index],
        )
    return curves


class TestTrendMining:
    def test_two_groups_recovered(self):
        miner = ConvergenceTrendMiner(num_trends=2)
        trend_set = miner.mine("model", make_curves(), stage=1)
        assert len(trend_set.trends) == 2
        labels = trend_set.trend_labels()
        easy_labels = {labels[f"easy{i}"] for i in range(4)}
        hard_labels = {labels[f"hard{i}"] for i in range(4)}
        assert len(easy_labels) == 1 and len(hard_labels) == 1
        assert easy_labels != hard_labels

    def test_trends_sorted_by_validation(self):
        trend_set = ConvergenceTrendMiner(num_trends=2).mine("m", make_curves(), stage=1)
        vals = [trend.val_accuracy for trend in trend_set.trends]
        assert vals == sorted(vals)

    def test_num_trends_clamped_to_datasets(self):
        curves = {name: curve for name, curve in list(make_curves().items())[:3]}
        trend_set = ConvergenceTrendMiner(num_trends=10).mine("m", curves, stage=1)
        assert len(trend_set.trends) <= 3

    def test_identical_values_collapse_to_one_trend(self):
        curves = {
            f"d{i}": LearningCurve("m", f"d{i}", val_accuracy=[0.5], test_accuracy=[0.6])
            for i in range(5)
        }
        trend_set = ConvergenceTrendMiner(num_trends=3).mine("m", curves, stage=1)
        assert len(trend_set.trends) == 1

    def test_stage_beyond_curve_length_clamps(self):
        trend_set = ConvergenceTrendMiner(num_trends=2).mine("m", make_curves(), stage=99)
        assert len(trend_set.trends) == 2

    def test_empty_curves_rejected(self):
        with pytest.raises(SelectionError):
            ConvergenceTrendMiner().mine("m", {}, stage=1)

    def test_invalid_stage_rejected(self):
        with pytest.raises(SelectionError):
            ConvergenceTrendMiner().mine("m", make_curves(), stage=0)

    def test_invalid_num_trends(self):
        with pytest.raises(SelectionError):
            ConvergenceTrendMiner(num_trends=0)


class TestMatchingAndPrediction:
    def test_match_returns_closest_trend(self):
        trend_set = ConvergenceTrendMiner(num_trends=2).mine("m", make_curves(), stage=1)
        high = trend_set.match(0.72)
        low = trend_set.match(0.31)
        assert high.val_accuracy > low.val_accuracy

    def test_predict_uses_trend_mean_test(self):
        trend_set = ConvergenceTrendMiner(num_trends=2).mine("m", make_curves(), stage=1)
        assert trend_set.predict(0.72) > 0.8
        assert trend_set.predict(0.31) < 0.6

    def test_trend_set_requires_trends(self):
        with pytest.raises(DataError):
            TrendSet(model_name="m", stage=1, trends=[])

    def test_trend_size(self):
        trend = ConvergenceTrend(0, 0.5, 0.6, ("a", "b"))
        assert trend.size == 2


class TestRealCurves:
    def test_mining_on_matrix_curves(self, nlp_matrix_small):
        """Trend mining on real offline curves produces usable predictions."""
        model = "bert-base-uncased"
        curves = nlp_matrix_small.curves_for_model(model)
        miner = ConvergenceTrendMiner(num_trends=3)
        trend_set = miner.mine(model, curves, stage=1)
        prediction = trend_set.predict(0.8)
        assert 0.0 <= prediction <= 1.0

    def test_leave_one_out_beats_global_mean_on_synthetic_groups(self):
        errors = leave_one_out_prediction_error(
            make_curves(), ConvergenceTrendMiner(num_trends=2), "m", stage=1
        )
        assert errors["trend_prediction_error"] < errors["global_mean_error"]

    def test_leave_one_out_requires_enough_datasets(self):
        curves = dict(list(make_curves().items())[:2])
        with pytest.raises(SelectionError):
            leave_one_out_prediction_error(curves, ConvergenceTrendMiner(), "m")


class TestRandomTrendLabels:
    def test_labels_within_range(self):
        labels = random_trend_labels(["a", "b", "c"], 2, np.random.default_rng(0))
        assert set(labels) == {"a", "b", "c"}
        assert all(0 <= value < 2 for value in labels.values())

    def test_invalid_num_trends(self):
        with pytest.raises(SelectionError):
            random_trend_labels(["a"], 0, np.random.default_rng(0))
