"""Tests for repro.nn.metrics."""

import numpy as np
import pytest

from repro.nn.metrics import accuracy, confusion_matrix, macro_f1
from repro.utils.exceptions import DataError


class TestAccuracy:
    def test_perfect(self):
        assert accuracy(np.array([0, 1, 2]), np.array([0, 1, 2])) == 1.0

    def test_half(self):
        assert accuracy(np.array([0, 1]), np.array([0, 0])) == 0.5

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            accuracy(np.array([]), np.array([]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DataError):
            accuracy(np.array([0, 1]), np.array([0]))


class TestConfusionMatrix:
    def test_counts(self):
        matrix = confusion_matrix(np.array([0, 0, 1, 1]), np.array([0, 1, 1, 1]), 2)
        assert matrix.tolist() == [[1, 1], [0, 2]]

    def test_total_equals_samples(self):
        y_true = np.array([0, 1, 2, 1, 0])
        y_pred = np.array([0, 2, 2, 1, 1])
        assert confusion_matrix(y_true, y_pred, 3).sum() == 5


class TestMacroF1:
    def test_perfect_prediction(self):
        y = np.array([0, 1, 2, 0, 1, 2])
        assert macro_f1(y, y, 3) == 1.0

    def test_absent_class_skipped(self):
        y_true = np.array([0, 0, 1, 1])
        y_pred = np.array([0, 0, 1, 1])
        assert macro_f1(y_true, y_pred, 3) == 1.0

    def test_all_wrong_is_zero(self):
        assert macro_f1(np.array([0, 1]), np.array([1, 0]), 2) == 0.0
