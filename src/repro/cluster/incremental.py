"""Incremental cluster maintenance for a mutable model repository.

A full re-cluster after every zoo change would throw away the warm offline
artifacts the paper's online phases depend on.  :func:`update_clustering`
instead *patches* an existing :class:`~repro.core.model_clustering.ModelClustering`:

* **removals** drop members from their clusters (empty clusters disappear,
  representatives are re-elected only in the touched clusters);
* **additions** are placed into the nearest existing cluster by average
  linkage distance — the exact join criterion the offline hierarchical run
  used — or become new singleton clusters when no cluster is within the
  recorded merge threshold.

A refresh computes only what it reads.  It takes the similarity alone:
placement converts and checks just the added models' similarity rows as
distances (:func:`~repro.cluster.distance.distance_rows`, byte-equal to
the same rows of the full conversion).  The whole distance is derived,
through :func:`~repro.cluster.distance.offline_matrices` and so
out-of-core for a spilled similarity, only by a full re-cluster and to
re-estimate a merge threshold that was never recorded.  No silhouette is
computed: the clustering scores itself on first read of
:attr:`~repro.core.model_clustering.ModelClustering.silhouette`.

The incremental guarantees — enforced by the property suite
(``tests/property/test_property_incremental.py``) — are *structural*,
stated relative to the previous epoch:

* pairwise co-membership of surviving models is preserved **exactly** (an
  added model can join an existing cluster but can never cause two old
  clusters to merge or one to split);
* additions are judged against the merge threshold *recorded at the last
  full clustering* — the join criterion stays frozen between full runs;
* ``extras["stale_models"]`` counts every incrementally placed or removed
  model since that last full run.

A from-scratch re-cluster of the updated repository is **not** bounded by
the stale count: when the threshold is quantile-derived, a fresh run
re-estimates it on the new distance distribution and may regroup survivors
wholesale.  That temporal drift is exactly what the staleness budget
bounds: once the stale fraction exceeds
``ClusteringConfig.staleness_threshold`` the update falls back to a full
re-cluster (identical to a cold offline run on the same similarity),
resetting both the counter and the recorded threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.assignments import ClusterAssignment
from repro.cluster.distance import (
    check_distance_matrix,
    check_distance_rows,
    distance_rows,
    offline_matrices,
    upper_triangle_values,
)
from repro.core.config import ClusteringConfig
from repro.core.model_clustering import ModelClusterer, ModelClustering
from repro.core.performance import PerformanceMatrix
from repro.utils.exceptions import DataError


@dataclass
class ClusteringUpdate:
    """Result of one incremental clustering update.

    Attributes
    ----------
    clustering:
        The updated (or fully rebuilt) model clustering.
    reclustered:
        ``True`` when the staleness threshold forced a full re-cluster.
    added / removed:
        Model names that entered / left the repository in this update.
    touched_clusters:
        Cluster ids (of the *new* clustering) whose membership changed;
        empty after a full re-cluster.
    staleness:
        Fraction of models placed incrementally since the last full
        clustering (0.0 right after a re-cluster).
    """

    clustering: ModelClustering
    reclustered: bool
    added: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)
    touched_clusters: List[int] = field(default_factory=list)
    staleness: float = 0.0


def _average_linkage_to_clusters(
    distance_row: np.ndarray, labels: np.ndarray
) -> Dict[int, float]:
    """Mean distance from one model to every current cluster's members."""
    out: Dict[int, float] = {}
    for cluster_id in np.unique(labels):
        members = np.flatnonzero(labels == cluster_id)
        out[int(cluster_id)] = float(distance_row[members].mean())
    return out


def update_clustering(
    old: ModelClustering,
    new_matrix: PerformanceMatrix,
    new_similarity: np.ndarray,
    *,
    config: Optional[ClusteringConfig] = None,
    similarity_config=None,
) -> ClusteringUpdate:
    """Patch ``old`` to cover the models of ``new_matrix``.

    ``new_similarity`` must be the Eq. 1 (or baseline) similarity matrix of
    ``new_matrix`` — typically the output of
    :func:`repro.core.similarity.update_similarity_matrix`.  Models present
    in both repositories keep their cluster; removed models are dropped;
    added models join their nearest cluster (average linkage within the
    merge threshold recorded by the last full clustering) or start a new
    singleton.  See the module docstring for the precise equivalence
    guarantees (they are relative to the previous epoch, not to a
    from-scratch run, whose quantile threshold would be re-estimated).

    Placement reads only the added models' distance rows, converted from
    ``new_similarity`` (:func:`~repro.cluster.distance.distance_rows`) and
    checked as :func:`~repro.cluster.distance.check_distance_matrix` would
    check them: a NaN similarity raises :class:`DataError`.  The whole
    distance is derived only where it is read, by
    :func:`~repro.cluster.distance.offline_matrices`: by a full re-cluster,
    and, when no merge threshold was recorded (k-means, count-capped
    hierarchies), to re-estimate the threshold quantile after
    ``check_distance_matrix``.  ``similarity_config`` carries the
    out-of-core memory policy to both: a canonical spilled similarity gets
    an out-of-core distance in the configured store, and a re-cluster's
    scratch working matrix spills there rather than into the process
    default.

    When the accumulated stale fraction — incrementally placed or removed
    models since the last full run — would exceed
    ``config.staleness_threshold``, the whole repository is re-clustered
    from scratch with :class:`~repro.core.model_clustering.ModelClusterer`
    (on the supplied similarity, so the result is identical to a cold
    offline run) and the staleness counter resets.
    """
    config = config or old.config
    new_names = new_matrix.model_names
    if not (isinstance(new_similarity, np.ndarray) and new_similarity.dtype == np.float64):
        # Rewrap only when needed: np.asarray would demote an out-of-core
        # np.memmap to a plain-ndarray view and hide its disk backing from
        # downstream reporting.
        new_similarity = np.asarray(new_similarity, dtype=float)
    if new_similarity.shape != (len(new_names), len(new_names)):
        raise DataError(
            f"similarity shape {new_similarity.shape} does not match the "
            f"{len(new_names)} models of new_matrix"
        )
    old_names = old.model_names
    old_set, new_set = set(old_names), set(new_names)
    added_index = [index for index, name in enumerate(new_names) if name not in old_set]
    added = [new_names[index] for index in added_index]
    removed = [name for name in old_names if name not in new_set]

    stale_before = float(old.extras.get("stale_models", 0.0))
    stale_after = stale_before + len(added) + len(removed)
    staleness = stale_after / max(1, len(new_names))

    if len(new_names) < 2:
        raise DataError(
            "incremental clustering requires at least two surviving models; "
            "the repository shrank below the clusterable minimum"
        )
    if staleness > config.staleness_threshold:
        clustering = ModelClusterer(config).cluster(
            new_matrix, similarity=new_similarity, similarity_config=similarity_config
        )
        return ClusteringUpdate(
            clustering=clustering,
            reclustered=True,
            added=added,
            removed=removed,
            staleness=0.0,
        )
    if not added and not removed:
        return ClusteringUpdate(
            clustering=old,
            reclustered=False,
            staleness=stale_before / max(1, len(new_names)),
        )

    # The join criterion of the last full run; additions fall back to a
    # fresh quantile estimate when it was never recorded (e.g. a clustering
    # built with an explicit cluster count, or k-means).
    threshold = old.extras.get("distance_threshold")
    if threshold is None:
        _, distance, _ = offline_matrices(
            new_matrix, top_k=config.top_k, config=similarity_config, similarity=new_similarity
        )
        off_diagonal = upper_triangle_values(check_distance_matrix(distance))
        threshold = float(np.quantile(off_diagonal, config.threshold_quantile))
    # Placement reads only the added rows: convert just those and check
    # what is read.
    added_rows = check_distance_rows(distance_rows(new_similarity, added_index))

    # Surviving models keep their old cluster label (re-indexed later).
    old_label_of = dict(zip(old_names, old.assignment.labels.tolist()))
    labels = np.empty(len(new_names), dtype=int)
    touched: set = set()
    next_label = int(old.assignment.labels.max()) + 1 if len(old_names) else 0
    for index, name in enumerate(new_names):
        if name in old_label_of:
            labels[index] = old_label_of[name]
        else:
            labels[index] = -1  # placed below, after all survivors are known
    for cluster_id in {old_label_of[name] for name in removed}:
        touched.add(int(cluster_id))

    # Place additions sequentially so siblings added together can share a
    # new cluster instead of each starting its own singleton.
    for index, row in zip(added_index, added_rows):
        placed = np.flatnonzero(labels != -1)
        if placed.size:
            linkage = _average_linkage_to_clusters(row[placed], labels[placed])
            best = min(linkage, key=lambda cid: (linkage[cid], cid))
            if linkage[best] <= threshold:
                labels[index] = best
                touched.add(int(best))
                continue
        labels[index] = next_label
        touched.add(int(next_label))
        next_label += 1

    assignment = ClusterAssignment.from_labels(new_names, labels)
    # Map the raw labels used above onto the re-indexed contiguous ids.
    raw_to_final = {
        int(raw): int(final)
        for raw, final in zip(labels.tolist(), assignment.labels.tolist())
    }
    touched_final = sorted(
        raw_to_final[cid] for cid in touched if cid in raw_to_final
    )

    # Representatives: keep old winners for untouched clusters, re-elect in
    # touched ones (membership changed there).
    accuracies = new_matrix.average_accuracies()
    representatives: Dict[int, str] = {}
    for cluster_id, members in assignment.non_singleton_clusters().items():
        if cluster_id not in touched_final:
            survivor_rep = old.representatives.get(old_label_of[members[0]])
            if survivor_rep is not None:
                representatives[cluster_id] = survivor_rep
                continue
        representatives[cluster_id] = max(members, key=accuracies.__getitem__)

    extras = dict(old.extras)
    extras["stale_models"] = stale_after
    extras["distance_threshold"] = float(threshold)
    clustering = ModelClustering(
        assignment=assignment,
        similarity=new_similarity,
        representatives=representatives,
        config=config,
        extras=extras,
    )
    return ClusteringUpdate(
        clustering=clustering,
        reclustered=False,
        added=added,
        removed=removed,
        touched_clusters=touched_final,
        staleness=staleness,
    )
