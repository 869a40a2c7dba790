"""Tests for repro.data.splits.DataSplit."""

import numpy as np
import pytest

from repro.data.splits import DataSplit
from repro.utils.exceptions import DataError


class TestValidation:
    def test_valid_split(self):
        split = DataSplit(np.ones((4, 3)), np.array([0, 1, 0, 1]))
        assert len(split) == 4

    def test_rejects_misaligned(self):
        with pytest.raises(DataError):
            DataSplit(np.ones((4, 3)), np.array([0, 1]))

    def test_rejects_1d_features(self):
        with pytest.raises(DataError):
            DataSplit(np.ones(4), np.array([0, 1, 0, 1]))

    def test_rejects_2d_labels(self):
        with pytest.raises(DataError):
            DataSplit(np.ones((2, 3)), np.array([[0], [1]]))

