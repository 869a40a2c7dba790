"""The Adam optimiser, operating on lists of parameter arrays in place."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.utils.exceptions import ConfigurationError
from repro.utils.validation import check_positive


class Adam:
    """Adam optimiser (Kingma & Ba, 2015)."""

    def __init__(
        self,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        check_positive("learning_rate", learning_rate)
        for name, value in (("beta1", beta1), ("beta2", beta2)):
            if not 0.0 <= value < 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1), got {value}")
        check_positive("epsilon", epsilon)
        self.learning_rate = float(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self._m: Optional[List[np.ndarray]] = None
        self._v: Optional[List[np.ndarray]] = None
        self._t = 0

    def step(self, params: List[np.ndarray], grads: List[np.ndarray]) -> None:
        """Update ``params`` in place from ``grads`` (aligned lists)."""
        if len(params) != len(grads):
            raise ConfigurationError(
                f"params and grads must align ({len(params)} != {len(grads)})"
            )
        if self._m is None or self._v is None:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for param, grad, m, v in zip(params, grads, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
