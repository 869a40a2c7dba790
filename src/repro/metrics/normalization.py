"""Score normalisation helpers.

Eq. 2 of the paper multiplies the (normalised) proxy score with the model's
prior average accuracy, so raw proxy scores — which live on different scales
for LEEP (negative log-likelihood), LogME (evidence) and kNN (accuracy) —
must first be mapped into ``[0, 1]`` across the candidate pool.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils.exceptions import DataError


def min_max_normalize(scores: Sequence[float]) -> np.ndarray:
    """Map ``scores`` linearly into ``[0, 1]``.

    A constant score vector maps to all ones (every candidate is equally
    matched, so the prior-accuracy term decides alone).
    """
    arr = np.asarray(list(scores), dtype=float)
    if arr.size == 0:
        raise DataError("cannot normalise an empty score list")
    if np.any(~np.isfinite(arr)):
        raise DataError("scores must be finite")
    low, high = float(arr.min()), float(arr.max())
    if high - low < 1e-12:
        return np.ones_like(arr)
    return (arr - low) / (high - low)
