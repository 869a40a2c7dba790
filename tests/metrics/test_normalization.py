"""Tests for score normalisation helpers."""

import numpy as np
import pytest

from repro.metrics.normalization import min_max_normalize
from repro.utils.exceptions import DataError


class TestMinMaxNormalize:
    def test_maps_to_unit_interval(self):
        out = min_max_normalize([-3.0, 0.0, 7.0])
        assert out.min() == 0.0
        assert out.max() == 1.0

    def test_preserves_ordering(self):
        values = [0.3, -1.2, 5.0, 2.0]
        out = min_max_normalize(values)
        assert np.array_equal(np.argsort(values), np.argsort(out))

    def test_constant_maps_to_ones(self):
        assert np.array_equal(min_max_normalize([2.0, 2.0, 2.0]), np.ones(3))

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            min_max_normalize([])

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            min_max_normalize([1.0, np.inf])
