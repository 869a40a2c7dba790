"""Nearest-neighbor-chain agglomerative clustering (sub-quadratic merge loop).

The classical nearest-neighbor-chain algorithm (Benzecri 1982, Murtagh 1983)
computes the full agglomerative dendrogram for any *reducible* linkage —
average (the paper's choice), single and complete all are — in ``O(n^2)``
time with ``O(n)`` extra state, by repeatedly following nearest-neighbor
pointers until a reciprocal pair is found and merging it.  The working-
matrix scan in :mod:`repro.cluster.hierarchical` instead re-derives linkage
values from raw distance blocks on every merge, which makes each merge cost
``O(active)`` small numpy calls — the ~750 s clustering tail of the n=5000
out-of-core build (``docs/benchmarks.md``).

Equivalence contract (enforced by ``tests/cluster/test_nnchain.py`` and the
property suite):

* On **tie-free** inputs the applied merge sequence — pair slots, heights
  and final labels — is identical to
  :meth:`repro.cluster.hierarchical.AgglomerativeClustering.fit_predict`:
  reducible linkages have monotone dendrograms, so the chain's merges,
  stable-sorted by height, replay in exactly the order the greedy
  closest-pair scan discovers them.  Heights agree bitwise for single and
  complete linkage (min/max are exact); for average linkage the
  Lance-Williams recurrence is mathematically identical to the scan's raw
  block means but rounds differently, so heights agree to ~1 ulp per merge
  depth.
* On tied inputs NN-chain tie-breaking is **not** order-equivalent to the
  scan's row-major first-occurrence rule (different reciprocal pairs can
  legally merge first, and for average/complete linkage that changes the
  dendrogram).  The chain therefore checks every nearest-neighbor decision
  for an exact duplicate of the row minimum and, on the first tie it
  encounters, raises :class:`TiedDistancesError`;
  :class:`NNChainClustering` catches it and delegates the whole input to
  the scan oracle, so ``fit_predict`` reproduces the scan's tie behavior
  — including the row-min cache tie branch — on every input the chain
  cannot decide unambiguously.  The tie fuzz in
  ``tests/property/test_property_cluster.py`` hammers this with
  adversarial tied/duplicate-distance matrices.

Memory-mapped distance matrices are handled exactly like the scan path: the
mutable linkage working matrix spills to a scratch memmap in the matrix
store (``work_store``), the input is only read in row blocks
(:func:`repro.store.iter_row_blocks`), and — unlike the scan — no
``O(|merged cluster| x n)`` raw-row refetch happens per merge: the
Lance-Williams update needs only the two working rows being merged.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.cluster.assignments import ClusterAssignment
from repro.cluster.distance import STREAM_BLOCK_ROWS, check_distance_matrix
from repro.cluster.hierarchical import AgglomerativeClustering
from repro.store import StoreLike, iter_row_blocks, resolve_store
from repro.utils.exceptions import ConfigurationError, DataError

__all__ = [
    "NNChainClustering",
    "TiedDistancesError",
    "nn_chain_dendrogram",
    "nnchain_cluster",
]


class TiedDistancesError(DataError):
    """The chain met an exactly tied nearest-neighbor decision.

    Raised by :func:`nn_chain_dendrogram` so callers can fall back to the
    scan algorithm, whose global row-major first-occurrence tie-breaking is
    the repository's reference behavior on tied inputs.
    """


def _lance_williams(
    linkage: str, row_a: np.ndarray, row_b: np.ndarray, size_a: float, size_b: float
) -> np.ndarray:
    """Linkage row of ``a u b`` to every slot, from the rows of ``a`` and ``b``.

    Exact (bitwise) for single/complete linkage; for average linkage the
    weighted mean is mathematically the raw block mean with different
    floating-point rounding.
    """
    if linkage == "average":
        return (size_a * row_a + size_b * row_b) / (size_a + size_b)
    if linkage == "single":
        return np.minimum(row_a, row_b)
    return np.maximum(row_a, row_b)


def nn_chain_dendrogram(
    distance_matrix: np.ndarray,
    *,
    linkage: str = "average",
    work_store: StoreLike = None,
) -> List[Tuple[int, int, float]]:
    """Full dendrogram of ``distance_matrix`` as ``(a, b, height)`` merges.

    Each merge joins the clusters currently living in slots ``a < b``; the
    merged cluster keeps slot ``a`` and slot ``b`` retires (the same
    merge-into-the-lower-slot convention as the scan algorithm, so the two
    merge histories are directly comparable).  Merges are returned in
    **chain discovery order**, which is not sorted by height; see
    :class:`NNChainClustering` for the stopping-rule replay.

    Memory-mapped inputs get a scratch working memmap in ``work_store``
    (or the process-default matrix store); in-RAM inputs use a plain copy.
    Both paths perform identical float operations, so their dendrograms are
    bitwise-identical.

    Raises :class:`TiedDistancesError` the moment a visited working row
    attains its minimum in more than one column — the chain's local
    tie-breaking cannot be proven order-equivalent to the scan's global
    rule, so ambiguous inputs are refused rather than silently re-broken.
    """
    if linkage not in ("average", "single", "complete"):
        raise ConfigurationError(f"unknown linkage {linkage!r}")
    distances = check_distance_matrix(distance_matrix)
    n = distances.shape[0]
    if n == 0:
        raise DataError("cannot cluster zero items")

    scratch = None
    if isinstance(distances, np.memmap):
        scratch = resolve_store(work_store).scratch((n, n), prefix="nnchain")
        # A plain ndarray view of the same pages: memmap indexing pays for
        # __getitem__/__array_finalize__ on every row read and write.
        working = scratch.array.view(np.ndarray)
        for start, stop in iter_row_blocks(n, STREAM_BLOCK_ROWS):
            working[start:stop] = distances[start:stop]
    else:
        working = distances.astype(float)
    np.fill_diagonal(working, np.inf)

    size = np.ones(n)
    merges: List[Tuple[int, int, float]] = []
    # The chain and its stack of step distances.  chain_distance[i] is the
    # linkage distance between chain[i] and chain[i - 1]; the sentinel inf
    # for the chain head keeps the reciprocal test below uniform.
    chain: List[int] = []
    chain_distance: List[float] = []
    try:
        while len(merges) < n - 1:
            if not chain:
                # Slot 0 is never retired (merges keep the lower slot), so
                # the deterministic restart point is always slot 0.
                chain = [0]
                chain_distance = [np.inf]
            current = chain[-1]
            row = working[current]
            # argmin breaks remaining ties towards the lowest index,
            # matching the scan's row-major first-occurrence rule.
            nearest = int(np.argmin(row))
            minimum = float(row[nearest])
            if np.count_nonzero(row == minimum) > 1:
                raise TiedDistancesError(
                    "tied nearest-neighbor distances; fall back to the scan "
                    "algorithm for first-occurrence tie-breaking"
                )
            if minimum >= chain_distance[-1]:
                # No strictly closer neighbor than the predecessor: the
                # last two chain clusters are reciprocal nearest neighbors
                # (ties prefer the predecessor, which guarantees
                # termination).  Merge them.
                other = chain[-2]
                height = chain_distance[-1]
                chain.pop()
                chain.pop()
                chain_distance.pop()
                chain_distance.pop()
                keep, retire = min(current, other), max(current, other)
                merged_row = _lance_williams(
                    linkage,
                    working[keep],
                    working[retire],
                    float(size[keep]),
                    float(size[retire]),
                )
                merged_row[keep] = np.inf
                merged_row[retire] = np.inf
                working[keep, :] = merged_row
                working[:, keep] = merged_row
                working[retire, :] = np.inf
                working[:, retire] = np.inf
                size[keep] += size[retire]
                size[retire] = 0
                merges.append((keep, retire, height))
            else:
                # Extend the chain towards the strictly nearest neighbor.
                chain.append(nearest)
                chain_distance.append(minimum)
    finally:
        if scratch is not None:
            scratch.close()
    return merges


class NNChainClustering:
    """Drop-in agglomerative clusterer built on the nearest-neighbor chain.

    Mirrors :class:`repro.cluster.hierarchical.AgglomerativeClustering`'s
    constructor and :meth:`fit_predict` contract (stopping rules,
    ``merge_history_``, label numbering) while replacing the
    ``O(active)``-numpy-calls-per-merge working-matrix scan with the
    ``O(n^2)``-total chain algorithm.

    The chain discovers merges out of height order, so :meth:`fit_predict`
    computes the full dendrogram once, stable-sorts it by height (for a
    reducible linkage the dendrogram is monotone: every child merge is no
    higher than its parent, and the stable sort keeps chain order — which
    respects dependencies — among equal heights), and then applies the
    stopping rules to the sorted sequence exactly as the greedy scan does:
    stop below ``num_clusters`` remaining, stop above
    ``distance_threshold``, stop at a non-finite height.
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

        ``merge_history_`` records the applied merges as
        ``(first, second, height)`` with ``first < second`` — on tie-free
        inputs entry-for-entry the scan algorithm's history.

        Inputs where the chain encounters an exactly tied nearest-neighbor
        decision are delegated wholesale to the scan algorithm, whose
        first-occurrence tie-breaking is the reference behavior — so the
        result matches the scan on those inputs too, at the scan's cost.
        """
        if hasattr(distance_matrix, "shape"):
            n = distance_matrix.shape[0]
        else:
            n = np.asarray(distance_matrix).shape[0]
        try:
            merges = nn_chain_dendrogram(
                distance_matrix, linkage=self.linkage, work_store=work_store
            )
        except TiedDistancesError:
            oracle = AgglomerativeClustering(
                num_clusters=self.num_clusters,
                distance_threshold=self.distance_threshold,
                linkage=self.linkage,
            )
            labels = oracle.fit_predict(distance_matrix, work_store=work_store)
            self.merge_history_ = list(oracle.merge_history_)
            return labels
        order = np.argsort([height for _, _, height in merges], kind="stable")
        target_clusters = self.num_clusters if self.num_clusters is not None else 1

        clusters: List[List[int]] = [[i] for i in range(n)]
        # Lineage roots: replay references chain-time slots; floating-point
        # height inversions (possible at ~1 ulp for average linkage) could
        # order a parent merge before one of its children, so each slot is
        # resolved to its current root instead of being trusted verbatim.
        root = list(range(n))

        def find(slot: int) -> int:
            while root[slot] != slot:
                root[slot] = root[root[slot]]
                slot = root[slot]
            return slot

        self.merge_history_ = []
        remaining = n
        for index in order:
            if remaining <= max(target_clusters, 1):
                break
            a, b, height = merges[index]
            if not np.isfinite(height):
                break
            if self.distance_threshold is not None and height > self.distance_threshold:
                break
            first, second = find(a), find(b)
            if first == second:  # pragma: no cover - inversion double-merge guard
                continue
            if first > second:
                first, second = second, first
            self.merge_history_.append((first, second, float(height)))
            clusters[first] = clusters[first] + clusters[second]
            clusters[second] = []
            root[second] = first
            remaining -= 1

        labels = np.empty(n, dtype=int)
        active = [slot for slot in range(n) if clusters[slot]]
        for new_id, slot in enumerate(active):
            for member in clusters[slot]:
                labels[member] = new_id
        return labels


def nnchain_cluster(
    item_names,
    distance_matrix: np.ndarray,
    *,
    num_clusters: Optional[int] = None,
    distance_threshold: Optional[float] = None,
    linkage: str = "average",
    work_store: StoreLike = None,
) -> ClusterAssignment:
    """Convenience wrapper returning a :class:`ClusterAssignment`."""
    algorithm = NNChainClustering(
        num_clusters=num_clusters,
        distance_threshold=distance_threshold,
        linkage=linkage,
    )
    labels = algorithm.fit_predict(distance_matrix, work_store=work_store)
    return ClusterAssignment.from_labels(item_names, labels)
