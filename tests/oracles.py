"""Reference loop implementations the vectorised library code must match.

These are the original per-pair and per-row loops.  The library no longer
ships them; the unit and property suites compare the vectorised paths
against them bitwise.  Import with ``from oracles import ...`` (the
``tests`` directory is on ``sys.path`` under pytest's default import mode).
"""

import numpy as np

from repro.cluster.distance import check_distance_matrix
from repro.core.performance import PerformanceMatrix
from repro.core.similarity import performance_similarity
from repro.utils.exceptions import DataError


def _performance_similarity_matrix_loop(
    matrix: PerformanceMatrix, *, top_k: int = 5
) -> np.ndarray:
    """Reference O(n^2) pairwise Eq. 1 loop (pre-vectorization implementation)."""
    vectors = [matrix.model_vector(name) for name in matrix.model_names]
    n = len(vectors)
    similarity = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            similarity[i, j] = similarity[j, i] = performance_similarity(
                vectors[i], vectors[j], top_k=top_k
            )
    return similarity


def _silhouette_samples_loop(
    distance_matrix: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Reference per-row silhouette loop; the oracle the streaming path must match."""
    distances = check_distance_matrix(distance_matrix)
    labels = np.asarray(labels, dtype=int)
    n = distances.shape[0]
    if labels.shape != (n,):
        raise DataError("labels must align with the distance matrix")
    unique = np.unique(labels)
    if unique.size < 2:
        raise DataError("silhouette requires at least two clusters")
    values = np.zeros(n)
    for i in range(n):
        own = labels[i]
        own_mask = labels == own
        own_size = int(own_mask.sum())
        if own_size <= 1:
            values[i] = 0.0
            continue
        intra = distances[i, own_mask].sum() / (own_size - 1)
        inter = np.inf
        for other in unique:
            if other == own:
                continue
            other_mask = labels == other
            inter = min(inter, float(distances[i, other_mask].mean()))
        denominator = max(intra, inter)
        values[i] = 0.0 if denominator == 0 else (inter - intra) / denominator
    return values
