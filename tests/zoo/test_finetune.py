"""Tests for repro.zoo.finetune."""

import numpy as np
import pytest

from repro.utils.exceptions import ConfigurationError, DataError
from repro.zoo.finetune import FineTuneConfig, FineTuner, LearningCurve


class TestFineTuneConfig:
    def test_defaults_valid(self):
        config = FineTuneConfig()
        assert config.epochs == 5

    @pytest.mark.parametrize("kwargs", [
        {"epochs": 0},
        {"learning_rate": 0.0},
        {"batch_size": 0},
    ])
    def test_invalid_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            FineTuneConfig(**kwargs)


class TestLearningCurve:
    def test_final_properties(self):
        curve = LearningCurve("m", "d", val_accuracy=[0.5, 0.7], test_accuracy=[0.4, 0.6])
        assert curve.epochs == 2
        assert curve.final_test == 0.6

    def test_val_at_clamps(self):
        curve = LearningCurve("m", "d", val_accuracy=[0.5, 0.7], test_accuracy=[0.4, 0.6])
        assert curve.val_at(1) == 0.5
        assert curve.val_at(2) == 0.7
        assert curve.val_at(10) == 0.7

    def test_empty_curve_raises(self):
        curve = LearningCurve("m", "d")
        with pytest.raises(DataError):
            _ = curve.final_test
        with pytest.raises(DataError):
            curve.val_at(1)

    def test_truncated(self):
        curve = LearningCurve(
            "m", "d", val_accuracy=[0.1, 0.2, 0.3], test_accuracy=[0.1, 0.2, 0.3],
            train_loss=[3.0, 2.0, 1.0],
        )
        shorter = curve.truncated(2)
        assert shorter.epochs == 2
        assert shorter.final_test == 0.2


class TestFineTuneSession:
    def test_incremental_training_accumulates_epochs(
        self, nlp_hub_small, nlp_suite_small, fine_tuner
    ):
        model = nlp_hub_small.get("bert-base-uncased")
        session = fine_tuner.start_session(model, nlp_suite_small.task("sst2"))
        assert session.epochs_trained == 0
        session.train_epochs(1)
        assert session.epochs_trained == 1
        session.train_epochs(2)
        assert session.epochs_trained == 3
        assert len(session.curve.val_accuracy) == 3
        assert len(session.curve.test_accuracy) == 3

    def test_single_pass_evaluate_matches_two_pass(
        self, nlp_hub_small, nlp_suite_small, fine_tuner
    ):
        """The concatenated [val; test] forward equals two separate scores."""
        session = fine_tuner.start_session(
            nlp_hub_small.get("roberta-base"), nlp_suite_small.task("cola")
        )
        session.train_epochs(2)
        val_accuracy, test_accuracy = session.evaluate()
        assert val_accuracy == session.validation_accuracy()
        assert test_accuracy == session.test_accuracy()

    def test_split_features_are_views_of_one_eval_slab(
        self, nlp_hub_small, nlp_suite_small, fine_tuner
    ):
        session = fine_tuner.start_session(
            nlp_hub_small.get("roberta-base"), nlp_suite_small.task("cola")
        )
        slab = session.eval_features()
        assert np.shares_memory(session._val_features, slab)
        assert np.shares_memory(session._test_features, slab)
        assert session._val_features.shape[0] == session.eval_split
        assert slab.shape[0] == (
            session._val_features.shape[0] + session._test_features.shape[0]
        )

    def test_train_epochs_rejects_non_positive(
        self, nlp_hub_small, nlp_suite_small, fine_tuner
    ):
        session = fine_tuner.start_session(
            nlp_hub_small.get("bert-base-uncased"), nlp_suite_small.task("sst2")
        )
        with pytest.raises(ConfigurationError):
            session.train_epochs(0)

    def test_accuracy_improves_with_training(
        self, nlp_hub_small, nlp_suite_small, fine_tuner
    ):
        model = nlp_hub_small.get("roberta-base")
        task = nlp_suite_small.task("sst2")
        curve = fine_tuner.fine_tune(model, task, epochs=4)
        assert curve.val_accuracy[-1] >= curve.val_accuracy[0] - 0.1
        assert curve.final_test > 1.0 / task.num_classes + 0.05


class TestFineTuner:
    def test_reproducible_runs(self, nlp_hub_small, nlp_suite_small):
        model = nlp_hub_small.get("bert-base-uncased")
        task = nlp_suite_small.task("sst2")
        a = FineTuner(seed=0).fine_tune(model, task, epochs=2)
        b = FineTuner(seed=0).fine_tune(model, task, epochs=2)
        assert a.val_accuracy == b.val_accuracy
        assert a.test_accuracy == b.test_accuracy

    def test_different_learning_rates_give_different_runs(
        self, nlp_hub_small, nlp_suite_small
    ):
        model = nlp_hub_small.get("bert-base-uncased")
        task = nlp_suite_small.task("sst2")
        tuner = FineTuner(seed=0)
        fast = tuner.fine_tune(model, task, epochs=2, config=FineTuneConfig(learning_rate=5e-2, epochs=2))
        slow = tuner.fine_tune(model, task, epochs=2, config=FineTuneConfig(learning_rate=1e-3, epochs=2))
        assert fast.val_accuracy != slow.val_accuracy
