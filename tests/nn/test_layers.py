"""Tests for repro.nn.layers."""

import numpy as np
import pytest

from repro.nn.layers import Linear
from repro.utils.exceptions import ConfigurationError


def numerical_gradient(function, x, epsilon=1e-6):
    """Central-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        index = it.multi_index
        original = x[index]
        x[index] = original + epsilon
        plus = function(x)
        x[index] = original - epsilon
        minus = function(x)
        x[index] = original
        grad[index] = (plus - minus) / (2 * epsilon)
        it.iternext()
    return grad


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(4, 3, rng=0)
        out = layer.forward(np.ones((5, 4)))
        assert out.shape == (5, 3)

    def test_rejects_invalid_dimensions(self):
        with pytest.raises(ConfigurationError):
            Linear(0, 3)

    def test_backward_requires_training_forward(self):
        layer = Linear(4, 3, rng=0)
        layer.forward(np.ones((2, 4)), training=False)
        with pytest.raises(ConfigurationError):
            layer.backward(np.ones((2, 3)))

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(0)
        layer = Linear(3, 2, rng=rng)
        x = rng.normal(size=(4, 3))
        grad_out = rng.normal(size=(4, 2))

        def loss_of_weight(weight):
            saved = layer.weight.copy()
            layer.weight = weight
            value = float(np.sum(layer.forward(x, training=True) * grad_out))
            layer.weight = saved
            return value

        layer.forward(x, training=True)
        layer.backward(grad_out)
        numeric = numerical_gradient(loss_of_weight, layer.weight.copy())
        assert np.allclose(layer.grad_weight, numeric, atol=1e-4)

    def test_input_gradient_matches_numerical(self):
        rng = np.random.default_rng(1)
        layer = Linear(3, 2, rng=rng)
        x = rng.normal(size=(4, 3))
        grad_out = rng.normal(size=(4, 2))
        layer.forward(x, training=True)
        grad_in = layer.backward(grad_out)

        def loss_of_input(inputs):
            return float(np.sum(layer.forward(inputs, training=True) * grad_out))

        numeric = numerical_gradient(loss_of_input, x.copy())
        assert np.allclose(grad_in, numeric, atol=1e-4)

    def test_l2_adds_weight_to_gradient(self):
        rng = np.random.default_rng(2)
        plain = Linear(3, 2, rng=np.random.default_rng(2))
        regularised = Linear(3, 2, rng=np.random.default_rng(2), l2=0.5)
        regularised.weight = plain.weight.copy()
        x = rng.normal(size=(4, 3))
        grad_out = np.ones((4, 2))
        plain.forward(x, training=True)
        plain.backward(grad_out)
        regularised.forward(x, training=True)
        regularised.backward(grad_out)
        assert np.allclose(
            regularised.grad_weight, plain.grad_weight + 0.5 * plain.weight
        )

    def test_params_and_grads_aligned(self):
        layer = Linear(3, 2, rng=0)
        layer.forward(np.ones((1, 3)), training=True)
        layer.backward(np.ones((1, 2)))
        params, grads = layer.params(), layer.grads()
        assert len(params) == len(grads) == 2
        for param, grad in zip(params, grads):
            assert param.shape == grad.shape
