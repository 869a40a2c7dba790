"""K-means clustering (Lloyd's algorithm with k-means++ initialisation).

Two roles in the reproduction: the k-means alternative to hierarchical
model clustering in the paper's Table I comparison, and the grouping of
benchmark validation accuracies into convergence trends for the Eq. 5/6
prediction (:mod:`repro.core.convergence`, Fig. 4).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.exceptions import ConfigurationError, DataError
from repro.utils.rng import as_generator


class KMeans:
    """Plain k-means on row vectors.

    Parameters
    ----------
    num_clusters:
        Number of clusters ``k``.
    max_iter:
        Maximum Lloyd iterations.
    num_init:
        Number of k-means++ restarts; the run with the lowest inertia wins.
    rng:
        Seed or generator for initialisation.
    """

    def __init__(
        self,
        num_clusters: int,
        *,
        max_iter: int = 100,
        num_init: int = 4,
        tol: float = 1e-6,
        rng=None,
    ) -> None:
        if num_clusters < 1:
            raise ConfigurationError("num_clusters must be >= 1")
        if max_iter < 1 or num_init < 1:
            raise ConfigurationError("max_iter and num_init must be >= 1")
        self.num_clusters = int(num_clusters)
        self.max_iter = int(max_iter)
        self.num_init = int(num_init)
        self.tol = float(tol)
        self._rng = as_generator(rng)
        self.centers_: Optional[np.ndarray] = None
        self.inertia_: Optional[float] = None

    # ------------------------------------------------------------------ #
    def fit_predict(self, points: np.ndarray) -> np.ndarray:
        """Cluster ``points`` and return per-row labels."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise DataError(f"points must be 2-d, got shape {points.shape}")
        if points.shape[0] < self.num_clusters:
            raise DataError(
                f"cannot form {self.num_clusters} clusters from {points.shape[0]} points"
            )
        best_labels, best_inertia, best_centers = None, np.inf, None
        for _ in range(self.num_init):
            labels, inertia, centers = self._single_run(points)
            if inertia < best_inertia:
                best_labels, best_inertia, best_centers = labels, inertia, centers
        self.centers_ = best_centers
        self.inertia_ = float(best_inertia)
        return best_labels

    def _single_run(self, points: np.ndarray):
        centers = self._init_centers(points)
        labels = np.zeros(points.shape[0], dtype=int)
        previous_inertia = np.inf
        for _ in range(self.max_iter):
            distances = self._distances_to_centers(points, centers)
            labels = np.argmin(distances, axis=1)
            inertia = float(np.sum(distances[np.arange(points.shape[0]), labels]))
            new_centers = centers.copy()
            for cluster in range(self.num_clusters):
                mask = labels == cluster
                if np.any(mask):
                    new_centers[cluster] = points[mask].mean(axis=0)
                else:
                    # Re-seed an empty cluster at the point farthest from its center.
                    farthest = int(np.argmax(distances.min(axis=1)))
                    new_centers[cluster] = points[farthest]
            centers = new_centers
            if abs(previous_inertia - inertia) < self.tol:
                break
            previous_inertia = inertia
        distances = self._distances_to_centers(points, centers)
        labels = np.argmin(distances, axis=1)
        inertia = float(np.sum(distances[np.arange(points.shape[0]), labels]))
        return labels, inertia, centers

    def _init_centers(self, points: np.ndarray) -> np.ndarray:
        """k-means++ seeding."""
        n = points.shape[0]
        centers = np.empty((self.num_clusters, points.shape[1]))
        first = int(self._rng.integers(0, n))
        centers[0] = points[first]
        closest = np.sum((points - centers[0]) ** 2, axis=1)
        for index in range(1, self.num_clusters):
            total = closest.sum()
            if total <= 0:
                choice = int(self._rng.integers(0, n))
            else:
                probabilities = closest / total
                choice = int(self._rng.choice(n, p=probabilities))
            centers[index] = points[choice]
            distances = np.sum((points - centers[index]) ** 2, axis=1)
            closest = np.minimum(closest, distances)
        return centers

    @staticmethod
    def _distances_to_centers(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
        return (
            np.sum(points**2, axis=1)[:, None]
            + np.sum(centers**2, axis=1)[None, :]
            - 2.0 * points @ centers.T
        ).clip(min=0.0)
