"""Silhouette coefficient (Rousseeuw, 1987) on a precomputed distance matrix.

Used by the paper to compare clustering configurations (Table I, Table X) and
to validate convergence-trend clustering (Fig. 6).

:func:`silhouette_samples` streams the distance matrix one row block at a
time (:func:`repro.store.iter_row_blocks` — a memory-mapped matrix is never
densified whole), turns the per-cluster membership masks into integer
gather indexes computed once, and vectorizes everything across the block:
the per-cluster sums, the means, the nearest-other-cluster min and the
silhouette formula.

The per-cluster sums are where bitwise equality with the original per-row
loop (kept as the test oracle in ``tests/oracles.py``) is decided.  That
loop sums each row's members with a 1-D ``.sum()``, which numpy computes
by *pairwise* summation (``DOUBLE_pairwise_sum``: eight interleaved
accumulators up to 128 items, recursive halving above), while a 2-D
``sum(axis=1)`` adds sequentially and so changes the low-order bits — and
silhouette values feed the golden experiment snapshots.
:func:`_pairwise_column_sums` therefore does not swap in an axis
reduction: it replays the 1-D sum's exact order over the columns of one
gathered ``(rows, members)`` block, so every row's additions happen in
the same order on the same operands, one vector op per eight columns
instead of one Python call per (row, cluster).  Checked against numpy
2.4.6; ``tests/cluster/test_silhouette.py`` fails loudly if a numpy
release changes its summation order.
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


#: numpy's ``PW_BLOCKSIZE``: the largest run summed with eight accumulators.
_PAIRWISE_BLOCK = 128


def _pairwise_sums(block: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """``DOUBLE_pairwise_sum`` of ``block[r, lo:hi]`` for every row ``r`` at once."""
    count = hi - lo
    if count < 8:
        sums = np.full(block.shape[0], -0.0)
        for column in range(lo, hi):
            sums += block[:, column]
        return sums
    if count <= _PAIRWISE_BLOCK:
        lanes = block[:, lo:lo + 8].copy()
        stop = hi - count % 8
        for start in range(lo + 8, stop, 8):
            lanes += block[:, start:start + 8]
        sums = ((lanes[:, 0] + lanes[:, 1]) + (lanes[:, 2] + lanes[:, 3])) + (
            (lanes[:, 4] + lanes[:, 5]) + (lanes[:, 6] + lanes[:, 7])
        )
        for column in range(stop, hi):
            sums += block[:, column]
        return sums
    half = count // 2
    half -= half % 8
    return _pairwise_sums(block, lo, lo + half) + _pairwise_sums(block, lo + half, hi)


def _pairwise_column_sums(block: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Row sums of ``block[:, lo:hi]``, bitwise equal to each row's 1-D ``.sum()``.

    ``np.add.reduce`` starts its output at the identity ``0.0`` and adds
    the whole pairwise sum to it, so an all ``-0.0`` row sums to ``0.0``.
    """
    return 0.0 + _pairwise_sums(block, lo, hi)


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
        for column, index in enumerate(members):
            sums[:, column] = _pairwise_column_sums(block[:, index], 0, index.size)
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
