"""Weight initialisation for the numpy NN substrate."""

from __future__ import annotations

import numpy as np


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform initialisation for a ``(fan_in, fan_out)`` matrix."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def zeros(fan_out: int) -> np.ndarray:
    """Zero bias vector."""
    return np.zeros(fan_out)
