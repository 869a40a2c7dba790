"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.exceptions import ConfigurationError, DataError
from repro.utils.validation import check_labels, check_positive, check_probability_matrix


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 1.5) == 1.5

    def test_rejects_zero_when_strict(self):
        with pytest.raises(ConfigurationError, match="x"):
            check_positive("x", 0)

    def test_accepts_zero_when_not_strict(self):
        assert check_positive("x", 0, strict=False) == 0

    def test_rejects_negative_even_when_not_strict(self):
        with pytest.raises(ConfigurationError):
            check_positive("x", -1, strict=False)


class TestCheckProbabilityMatrix:
    def test_accepts_valid_rows(self):
        matrix = np.array([[0.2, 0.8], [0.5, 0.5]])
        out = check_probability_matrix("p", matrix)
        assert out.shape == (2, 2)

    def test_rejects_negative(self):
        with pytest.raises(DataError, match="negative"):
            check_probability_matrix("p", np.array([[1.2, -0.2]]))

    def test_rejects_rows_not_summing_to_one(self):
        with pytest.raises(DataError, match="sum to 1"):
            check_probability_matrix("p", np.array([[0.4, 0.4]]))

    def test_rejects_wrong_dimensions(self):
        with pytest.raises(DataError):
            check_probability_matrix("p", np.array([0.5, 0.5]))


class TestCheckLabels:
    def test_accepts_valid(self):
        labels = check_labels("y", np.array([0, 1, 2]), 3)
        assert labels.dtype.kind == "i"

    def test_rejects_out_of_range(self):
        with pytest.raises(DataError):
            check_labels("y", np.array([0, 3]), 3)

    def test_rejects_wrong_shape(self):
        with pytest.raises(DataError):
            check_labels("y", np.array([[0, 1]]), 2)
