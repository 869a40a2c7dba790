"""The dense layer of the classifier head, with explicit forward/backward.

* ``forward(x, training)`` returns the layer output and caches what the
  backward pass needs;
* ``backward(grad_output)`` returns the gradient w.r.t. the layer input and
  stores parameter gradients on the layer;
* ``params()`` / ``grads()`` expose parameter and gradient arrays in the
  same order, so the optimiser can update them generically.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.nn.initializers import glorot_uniform, zeros
from repro.utils.exceptions import ConfigurationError
from repro.utils.rng import as_generator


class Linear:
    """Affine transform ``y = x @ W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        rng=None,
        l2: float = 0.0,
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ConfigurationError("Linear layer dimensions must be positive")
        generator = as_generator(rng)
        self.weight = glorot_uniform(generator, in_features, out_features)
        self.bias = zeros(out_features)
        self.l2 = float(l2)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._input: Optional[np.ndarray] = None

    @property
    def in_features(self) -> int:
        return self.weight.shape[0]

    @property
    def out_features(self) -> int:
        return self.weight.shape[1]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._input = x if training else None
        return x @ self.weight + self.bias

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise ConfigurationError("backward called before a training forward pass")
        self.grad_weight = self._input.T @ grad_output
        if self.l2:
            self.grad_weight += self.l2 * self.weight
        self.grad_bias = grad_output.sum(axis=0)
        return grad_output @ self.weight.T

    def params(self) -> List[np.ndarray]:
        return [self.weight, self.bias]

    def grads(self) -> List[np.ndarray]:
        return [self.grad_weight, self.grad_bias]
