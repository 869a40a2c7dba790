"""Agglomerative hierarchical clustering on a precomputed distance matrix.

The paper clusters models hierarchically, with the performance-based
similarity of Eq. 1.  This implementation supports
average, single and complete linkage and two stopping rules: a fixed number
of clusters or a distance threshold (merging stops once the closest pair of
clusters is farther apart than the threshold) — the latter is what produces
the paper's mix of non-singleton and singleton clusters.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.cluster.assignments import ClusterAssignment
from repro.cluster.distance import STREAM_BLOCK_ROWS, check_distance_matrix
from repro.store import StoreLike, iter_row_blocks, resolve_store
from repro.utils.exceptions import ConfigurationError, DataError


class AgglomerativeClustering:
    """Bottom-up clustering over a precomputed distance matrix.

    Parameters
    ----------
    num_clusters:
        Stop when this many clusters remain (mutually exclusive with
        ``distance_threshold`` being the active stopping rule; if both are
        given, merging stops when either rule triggers).
    distance_threshold:
        Stop merging once the closest pair of clusters exceeds this linkage
        distance.
    linkage:
        ``"average"`` (paper default), ``"single"`` or ``"complete"``.
    """

    def __init__(
        self,
        *,
        num_clusters: Optional[int] = None,
        distance_threshold: Optional[float] = None,
        linkage: str = "average",
    ) -> None:
        if num_clusters is None and distance_threshold is None:
            raise ConfigurationError(
                "one of num_clusters or distance_threshold must be given"
            )
        if num_clusters is not None and num_clusters < 1:
            raise ConfigurationError("num_clusters must be >= 1")
        if distance_threshold is not None and distance_threshold < 0:
            raise ConfigurationError("distance_threshold must be >= 0")
        if linkage not in ("average", "single", "complete"):
            raise ConfigurationError(f"unknown linkage {linkage!r}")
        self.num_clusters = num_clusters
        self.distance_threshold = distance_threshold
        self.linkage = linkage
        self.merge_history_: List[tuple] = []

    # ------------------------------------------------------------------ #
    def fit_predict(
        self, distance_matrix: np.ndarray, *, work_store: StoreLike = None
    ) -> np.ndarray:
        """Cluster items given their pairwise distances; returns labels.

        Memory-mapped distance matrices are clustered **without
        densifying**: the mutable linkage working matrix is spilled to a
        scratch memmap in the matrix store (``work_store`` or the process
        default), original distances are read as on-demand blocks, and the
        closest pair is found by an allocation-free scan over the working
        matrix.  The merge sequence — and therefore the labels — is
        identical to the in-RAM path: inactive rows/columns hold ``inf``,
        so the row-major argmin visits the active pairs in exactly the
        order the former active-submatrix scan did.

        Transient memory is ``O(|merged cluster| x n)`` per merge (the
        merged cluster's raw rows are fetched in one block so linkage
        means stay bit-exact); with threshold-stopped runs clusters stay
        small, but near-``num_clusters=1`` configurations approach a full
        row set — see the memory model in ``docs/scaling.md``.
        """
        distances = check_distance_matrix(distance_matrix)
        n = distances.shape[0]
        if n == 0:
            raise DataError("cannot cluster zero items")
        target_clusters = self.num_clusters if self.num_clusters is not None else 1
        clusters: List[List[int]] = [[i] for i in range(n)]
        # Working linkage-distance matrix between current clusters.  For a
        # memmapped input it is a scratch memmap too (deleted afterwards);
        # in-RAM inputs keep the plain-copy behaviour.
        scratch = None
        if isinstance(distances, np.memmap):
            scratch = resolve_store(work_store).scratch((n, n), prefix="linkage")
            linkage_distances = scratch.array
            for start, stop in iter_row_blocks(n, STREAM_BLOCK_ROWS):
                linkage_distances[start:stop] = distances[start:stop]
        else:
            linkage_distances = distances.astype(float)
        np.fill_diagonal(linkage_distances, np.inf)
        active = list(range(n))
        self.merge_history_ = []

        # Per-row nearest cache: row_min[i] / row_arg[i] hold the minimum of
        # working row i and the *first* column attaining it.  The closest
        # pair is then (argmin(row_min), row_arg[...]) — exactly the pair a
        # row-major scan of the full working matrix would find, ties
        # included (argmin breaks ties towards the lowest index, and the
        # cache maintenance below preserves first-occurrence semantics), so
        # the merge sequence is identical to an exhaustive scan while each
        # iteration touches O(active) entries instead of O(n^2).
        row_min = np.empty(n)
        row_arg = np.empty(n, dtype=int)
        for start, stop in iter_row_blocks(n, STREAM_BLOCK_ROWS):
            block = np.asarray(linkage_distances[start:stop])
            row_arg[start:stop] = np.argmin(block, axis=1)
            row_min[start:stop] = block[np.arange(stop - start), row_arg[start:stop]]

        def rescan(row: int) -> None:
            values = linkage_distances[row]
            index = int(np.argmin(values))
            row_arg[row] = index
            row_min[row] = values[index]

        try:
            while len(active) > max(target_clusters, 1):
                first = int(np.argmin(row_min))
                second = int(row_arg[first])
                best_distance = float(row_min[first])
                if first == second or not np.isfinite(best_distance):
                    break  # every remaining pair is inactive (inf)
                if self.distance_threshold is not None and best_distance > self.distance_threshold:
                    break
                self.merge_history_.append((first, second, best_distance))
                merged_members = clusters[first] + clusters[second]
                clusters[first] = merged_members
                clusters[second] = []
                # Retire the absorbed cluster *before* updating the others:
                # cache rescans below must never see a stale finite entry in
                # its column.
                linkage_distances[second, :] = np.inf
                linkage_distances[:, second] = np.inf
                row_min[second] = np.inf
                active.remove(second)
                # Update linkage distances of the merged cluster to all
                # others.  The merged cluster's raw-distance rows are
                # fetched once — for a memmapped input this is the only
                # bulk read of the iteration — and every linkage value is
                # computed from the same contiguous blocks the naive
                # ``distances[np.ix_(a, b)]`` lookups produced, so the
                # floating-point results are unchanged.
                merged_rows = np.asarray(distances[merged_members])
                for other in active:
                    if other == first:
                        continue
                    # take() yields a C-contiguous block — the same layout
                    # (hence the same pairwise-summation order in mean())
                    # as the historical distances[np.ix_(a, b)] lookup.
                    value = self._linkage_block(
                        np.take(merged_rows, clusters[other], axis=1)
                    )
                    linkage_distances[first, other] = linkage_distances[other, first] = value
                    arg = int(row_arg[other])
                    if arg == first or arg == second:
                        # The cached minimum's own column changed; rescan.
                        rescan(other)
                    elif value < row_min[other] or (
                        value == row_min[other] and first < arg
                    ):
                        row_min[other] = value
                        row_arg[other] = first
                rescan(first)
        finally:
            if scratch is not None:
                scratch.close()

        labels = np.empty(n, dtype=int)
        for new_id, cluster_index in enumerate(sorted(active)):
            for member in clusters[cluster_index]:
                labels[member] = new_id
        return labels

    def _linkage_block(self, block: np.ndarray) -> float:
        """Linkage distance of one ``(|a|, |b|)`` raw-distance block."""
        if self.linkage == "average":
            return float(block.mean())
        if self.linkage == "single":
            return float(block.min())
        return float(block.max())


def hierarchical_cluster(
    item_names: Sequence[str],
    distance_matrix: np.ndarray,
    *,
    num_clusters: Optional[int] = None,
    distance_threshold: Optional[float] = None,
    linkage: str = "average",
    work_store: StoreLike = None,
) -> ClusterAssignment:
    """Convenience wrapper returning a :class:`ClusterAssignment`.

    ``work_store`` names the matrix store that receives the scratch
    working matrix of a memory-mapped input (default: the process-default
    store), exactly as in :meth:`AgglomerativeClustering.fit_predict`.
    """
    algorithm = AgglomerativeClustering(
        num_clusters=num_clusters,
        distance_threshold=distance_threshold,
        linkage=linkage,
    )
    labels = algorithm.fit_predict(distance_matrix, work_store=work_store)
    return ClusterAssignment.from_labels(item_names, labels)
