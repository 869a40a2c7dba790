"""Tests for repro.nn.losses."""

import numpy as np
import pytest

from repro.nn.losses import log_softmax, softmax, softmax_cross_entropy
from repro.utils.exceptions import DataError


class TestSoftmax:
    def test_rows_sum_to_one(self):
        probs = softmax(np.random.default_rng(0).normal(size=(5, 4)))
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_shift_invariance(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(softmax(logits), softmax(logits + 100.0))

    def test_numerical_stability_with_large_values(self):
        probs = softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(probs).all()
        assert probs[0, 0] > 0.99

    def test_log_softmax_consistent(self):
        logits = np.random.default_rng(1).normal(size=(3, 4))
        assert np.allclose(np.exp(log_softmax(logits)), softmax(logits))


class TestSoftmaxCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        loss, _ = softmax_cross_entropy(logits, np.array([0, 1]))
        assert loss < 1e-4

    def test_uniform_prediction_loss_is_log_classes(self):
        logits = np.zeros((4, 3))
        loss, _ = softmax_cross_entropy(logits, np.array([0, 1, 2, 0]))
        assert np.isclose(loss, np.log(3))

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(3, 4))
        labels = np.array([1, 3, 0])
        _, grad = softmax_cross_entropy(logits, labels)
        numeric = np.zeros_like(logits)
        epsilon = 1e-6
        for i in range(logits.shape[0]):
            for j in range(logits.shape[1]):
                plus = logits.copy()
                plus[i, j] += epsilon
                minus = logits.copy()
                minus[i, j] -= epsilon
                numeric[i, j] = (
                    softmax_cross_entropy(plus, labels)[0]
                    - softmax_cross_entropy(minus, labels)[0]
                ) / (2 * epsilon)
        assert np.allclose(grad, numeric, atol=1e-5)

    def test_rejects_empty_batch(self):
        with pytest.raises(DataError):
            softmax_cross_entropy(np.zeros((0, 3)), np.array([], dtype=int))

    def test_rejects_misaligned_labels(self):
        with pytest.raises(DataError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0]))

    def test_rejects_1d_logits(self):
        with pytest.raises(DataError):
            softmax_cross_entropy(np.zeros(3), np.array([0]))
