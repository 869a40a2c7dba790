"""Small argument-validation helpers used across the library.

Each helper raises :class:`repro.utils.exceptions.DataError` or
:class:`repro.utils.exceptions.ConfigurationError` with a message naming
the offending argument, so call sites stay one-liners.
"""

from __future__ import annotations

import numpy as np

from repro.utils.exceptions import ConfigurationError, DataError


def check_positive(name: str, value: float, *, strict: bool = True) -> float:
    """Ensure ``value`` is positive (strictly by default)."""
    if strict and value <= 0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    if not strict and value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    return value


def check_probability_matrix(name: str, matrix: np.ndarray, *, atol: float = 1e-5) -> np.ndarray:
    """Ensure ``matrix`` rows are valid probability distributions."""
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2:
        raise DataError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if np.any(arr < -atol):
        raise DataError(f"{name} contains negative probabilities")
    row_sums = arr.sum(axis=1)
    if not np.allclose(row_sums, 1.0, atol=atol):
        raise DataError(f"{name} rows must sum to 1 (max deviation {np.abs(row_sums - 1).max():.3g})")
    return arr


def check_labels(name: str, labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Ensure ``labels`` is a 1-D integer array in ``[0, num_classes)``."""
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise DataError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= num_classes):
        raise DataError(
            f"{name} must contain labels in [0, {num_classes}), "
            f"got range [{arr.min()}, {arr.max()}]"
        )
    return arr.astype(int)
