"""Silhouette coefficient (Rousseeuw, 1987) on a precomputed distance matrix.

Used by the paper to compare clustering configurations (Table I, Table X) and
to validate convergence-trend clustering (Fig. 6).

:func:`silhouette_samples` streams the distance matrix one row block at a
time (:func:`repro.store.iter_row_blocks` — a memory-mapped matrix is no
longer densified one row per Python iteration), hoists the per-cluster
membership masks out of the row loop into integer gather indexes computed
once, and vectorizes all post-processing (means, nearest-other-cluster
min, the silhouette formula) across the block.  The per-cluster *sum
reduction itself* deliberately stays a per-row 1-D ``.sum()`` over the
gathered members: numpy reduces a 2-D array along an axis in sequential
order (vectorizing across the other axis) while a 1-D sum uses pairwise
summation, so a fully 2-D reduction would change the low-order bits — and
silhouette values feed the golden experiment snapshots.  The result is
bitwise-identical to the original per-row loop, which the test suite keeps
as its oracle (``tests/oracles.py``), while dropping the
``O(n · clusters)`` mask rebuilds the loop performed for every row.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.distance import STREAM_BLOCK_ROWS, check_distance_matrix
from repro.store import iter_row_blocks
from repro.utils.exceptions import DataError


def _check_inputs(distance_matrix: np.ndarray, labels: np.ndarray):
    distances = check_distance_matrix(distance_matrix)
    labels = np.asarray(labels, dtype=int)
    n = distances.shape[0]
    if labels.shape != (n,):
        raise DataError("labels must align with the distance matrix")
    unique = np.unique(labels)
    if unique.size < 2:
        raise DataError("silhouette requires at least two clusters")
    return distances, labels, unique


def silhouette_samples(distance_matrix: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample silhouette values ``(b - a) / max(a, b)``.

    Samples in singleton clusters get a silhouette of 0, following the
    scikit-learn convention.
    """
    distances, labels, unique = _check_inputs(distance_matrix, labels)
    n = distances.shape[0]
    members = [np.flatnonzero(labels == cluster) for cluster in unique]
    counts = np.array([index.size for index in members], dtype=float)
    # Column of each sample's own cluster in the per-cluster sum table.
    own_column = np.searchsorted(unique, labels)
    own_counts = counts[own_column]

    values = np.zeros(n)
    for start, stop in iter_row_blocks(n, STREAM_BLOCK_ROWS):
        block = np.asarray(distances[start:stop])
        rows = stop - start
        sums = np.empty((rows, unique.size))
        for local in range(rows):
            row = block[local]
            for column, index in enumerate(members):
                # Integer gather of the precomputed members yields the same
                # ascending-index array as the loop's boolean ``row[mask]``,
                # and the 1-D pairwise ``.sum()`` the same bits.
                sums[local, column] = row[index].sum()
        block_own = own_column[start:stop]
        block_own_counts = own_counts[start:stop]
        non_singleton = block_own_counts > 1
        intra = np.zeros(rows)
        intra[non_singleton] = (
            sums[non_singleton, block_own[non_singleton]]
            / (block_own_counts[non_singleton] - 1)
        )
        means = sums / counts
        means[np.arange(rows), block_own] = np.inf
        inter = means.min(axis=1)
        denominator = np.maximum(intra, inter)
        computable = non_singleton & (denominator != 0)
        values[start:stop][computable] = (
            inter[computable] - intra[computable]
        ) / denominator[computable]
    return values


def silhouette_score(distance_matrix: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette value over all samples."""
    return float(np.mean(silhouette_samples(distance_matrix, labels)))
