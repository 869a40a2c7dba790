"""Tests for repro.nn.optim."""

import numpy as np
import pytest

from repro.nn.optim import Adam
from repro.utils.exceptions import ConfigurationError


def quadratic_descent(optimizer, steps=200):
    """Minimise f(x) = ||x||^2 / 2 and return the final parameter."""
    x = np.array([5.0, -3.0])
    params = [x]
    for _ in range(steps):
        grads = [x.copy()]
        optimizer.step(params, grads)
    return params[0]


class TestAdam:
    def test_converges_on_quadratic(self):
        assert np.linalg.norm(quadratic_descent(Adam(0.3), steps=400)) < 1e-2

    def test_invalid_betas(self):
        with pytest.raises(ConfigurationError):
            Adam(0.1, beta1=1.0)
        with pytest.raises(ConfigurationError):
            Adam(0.1, beta2=-0.1)

    def test_state_shapes_follow_params(self):
        optimizer = Adam(0.01)
        params = [np.zeros((3, 2)), np.zeros(5)]
        grads = [np.ones((3, 2)), np.ones(5)]
        optimizer.step(params, grads)
        assert optimizer._m[0].shape == (3, 2)
        assert optimizer._v[1].shape == (5,)

    def test_two_steps_match_closed_form_oracle(self):
        """Kingma & Ba update, hand-unrolled for t = 1, 2 from zero state."""
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        rng = np.random.default_rng(11)
        optimizer = Adam(lr, beta1=b1, beta2=b2, epsilon=eps)
        param = rng.normal(size=(2, 3))
        g1 = rng.normal(size=(2, 3))
        g2 = rng.normal(size=(2, 3))

        expected = param.copy()
        m = np.zeros_like(param)
        v = np.zeros_like(param)
        for t, g in ((1, g1), (2, g2)):
            m = m * b1 + (1.0 - b1) * g
            v = v * b2 + (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1**t)
            v_hat = v / (1.0 - b2**t)
            expected = expected - lr * m_hat / (np.sqrt(v_hat) + eps)

        optimizer.step([param], [g1.copy()])
        optimizer.step([param], [g2.copy()])
        assert optimizer._t == 2
        assert np.array_equal(param, expected)
        assert np.array_equal(optimizer._m[0], m)
        assert np.array_equal(optimizer._v[0], v)

    def test_bias_correction_first_step_recovers_gradient_direction(self):
        # With m_hat = g and v_hat = g*g at t=1, the first update is
        # -lr * g / (|g| + eps): unit-magnitude steps along -sign(g).
        optimizer = Adam(0.5)
        param = np.zeros(3)
        grad = np.array([4.0, -0.25, 1e6])
        optimizer.step([param], [grad.copy()])
        assert np.allclose(param, [-0.5, 0.5, -0.5], atol=1e-6)

    def test_rejects_misaligned_lists(self):
        with pytest.raises(ConfigurationError):
            Adam(0.1).step([], [np.zeros(2)])

    def test_rejects_non_positive_lr(self):
        with pytest.raises(ConfigurationError):
            Adam(0.0)
