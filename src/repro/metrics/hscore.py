"""H-score transferability estimate (Bao et al., ICIP 2019).

One of the proxy-score choices for the paper's coarse-recall phase
(Eq. 2/3); the LEEP default can be swapped for it via
``RecallConfig(proxy_score="hscore")`` (exercised by the proxy-score
ablation experiment).

The H-score measures how much of the representation's variance is explained
by the class-conditional means:

``H(f) = tr( cov(f)^-1 * cov_between(f) )``

where ``cov`` is the (regularised) feature covariance and ``cov_between`` the
covariance of the per-class mean features.  Higher is better: features whose
class means are well separated relative to their overall spread transfer
better to the target task.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.base import ProxyScorer
from repro.utils.exceptions import DataError


#: Ridge added to the feature covariance's diagonal so it stays invertible.
_RIDGE = 1e-3


def h_score(features: np.ndarray, labels: np.ndarray) -> float:
    """H-score of ``features`` w.r.t. ``labels``."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if features.ndim != 2:
        raise DataError(f"features must be 2-d, got shape {features.shape}")
    if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
        raise DataError("labels must be 1-d and aligned with features")
    if features.shape[0] < 2:
        raise DataError("H-score requires at least two samples")
    classes = np.unique(labels)
    if classes.size < 2:
        raise DataError("H-score requires at least two classes present")

    centred = features - features.mean(axis=0, keepdims=True)
    cov = (centred.T @ centred) / features.shape[0]
    cov += _RIDGE * np.eye(cov.shape[0])

    class_mean_features = np.zeros_like(features)
    for cls in classes:
        mask = labels == cls
        class_mean_features[mask] = centred[mask].mean(axis=0)
    cov_between = (class_mean_features.T @ class_mean_features) / features.shape[0]

    return float(np.trace(np.linalg.solve(cov, cov_between)))


class HScoreScorer(ProxyScorer):
    """Proxy scorer wrapping :func:`h_score`."""

    name = "hscore"
    uses_source_posterior = False

    def score_arrays(
        self, inputs: np.ndarray, labels: np.ndarray, *, num_classes: int
    ) -> float:
        return h_score(inputs, labels)
