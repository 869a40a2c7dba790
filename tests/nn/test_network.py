"""Tests for repro.nn.network.MLPClassifier."""

import numpy as np
import pytest

from repro.nn.network import MLPClassifier
from repro.utils.exceptions import ConfigurationError, DataError


def make_blobs(rng, n_per_class=60, num_classes=3, dim=6, separation=4.0):
    """Simple well-separated Gaussian blobs."""
    centers = rng.normal(scale=separation, size=(num_classes, dim))
    features, labels = [], []
    for cls in range(num_classes):
        features.append(centers[cls] + rng.normal(size=(n_per_class, dim)))
        labels.append(np.full(n_per_class, cls))
    return np.vstack(features), np.concatenate(labels)


class TestConstruction:
    def test_rejects_single_class(self):
        with pytest.raises(ConfigurationError):
            MLPClassifier(4, 1)

    def test_rejects_wrong_feature_dim_at_predict(self):
        model = MLPClassifier(4, 2, rng=0)
        with pytest.raises(DataError):
            model.predict(np.ones((3, 5)))


class TestTraining:
    def test_learns_separable_blobs(self):
        rng = np.random.default_rng(0)
        x, y = make_blobs(rng)
        model = MLPClassifier(x.shape[1], 3, learning_rate=5e-2, rng=0)
        model.fit(x, y, epochs=15)
        assert model.score(x, y) > 0.9

    def test_history_tracks_epochs(self):
        rng = np.random.default_rng(2)
        x, y = make_blobs(rng, n_per_class=30)
        model = MLPClassifier(x.shape[1], 3, rng=0)
        history = model.fit(x, y, epochs=4)
        assert history.epochs == 4
        assert len(history.train_loss) == 4
        assert len(history.train_accuracy) == 4

    def test_loss_decreases(self):
        rng = np.random.default_rng(3)
        x, y = make_blobs(rng)
        model = MLPClassifier(x.shape[1], 3, rng=0)
        history = model.fit(x, y, epochs=10)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        x, y = make_blobs(rng, n_per_class=20)
        preds = []
        for _ in range(2):
            model = MLPClassifier(x.shape[1], 3, rng=7)
            model.fit(x, y, epochs=3)
            preds.append(model.predict(x))
        assert np.array_equal(preds[0], preds[1])

    def test_invalid_epochs(self):
        model = MLPClassifier(4, 2, rng=0)
        with pytest.raises(ConfigurationError):
            model.fit(np.ones((4, 4)), np.array([0, 1, 0, 1]), epochs=0)

    def test_misaligned_labels(self):
        model = MLPClassifier(4, 2, rng=0)
        with pytest.raises(DataError):
            model.fit_epoch(np.ones((4, 4)), np.array([0, 1]))


class TestInference:
    def test_predict_proba_rows_sum_to_one(self):
        model = MLPClassifier(4, 3, rng=0)
        probs = model.predict_proba(np.random.default_rng(0).normal(size=(6, 4)))
        assert probs.shape == (6, 3)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_predict_returns_valid_labels(self):
        model = MLPClassifier(4, 3, rng=0)
        preds = model.predict(np.random.default_rng(0).normal(size=(6, 4)))
        assert preds.shape == (6,)
        assert set(preds.tolist()) <= {0, 1, 2}
