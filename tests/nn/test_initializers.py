"""Tests for repro.nn.initializers."""

import numpy as np

from repro.nn.initializers import glorot_uniform, zeros


def test_glorot_uniform_within_limit():
    rng = np.random.default_rng(0)
    weight = glorot_uniform(rng, 100, 50)
    limit = np.sqrt(6.0 / 150)
    assert weight.shape == (100, 50)
    assert np.all(np.abs(weight) <= limit)


def test_zeros_bias():
    assert np.array_equal(zeros(4), np.zeros(4))
