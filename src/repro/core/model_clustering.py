"""Model clustering and representative selection (coarse-recall, offline part).

Checkpoints are clustered on their performance-matrix row vectors using the
Eq. 1 similarity (or the text baseline) with either hierarchical clustering
(paper default) or k-means.  Each non-singleton cluster elects the member
with the highest average benchmark accuracy as its *representative model*;
the coarse-recall phase computes proxy scores only for these representatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.cache import CacheLike
from repro.cluster.assignments import ClusterAssignment
from repro.cluster.distance import offline_matrices, upper_triangle_values
from repro.cluster.kmeans import KMeans
from repro.cluster.nnchain import NNChainClustering
from repro.cluster.silhouette import silhouette_score
from repro.core.config import ClusteringConfig, SimilarityConfig
from repro.core.performance import PerformanceMatrix
from repro.utils.exceptions import DataError, SelectionError

#: Silhouette diagnostics are skipped past this repository size: the score
#: is an ``O(n^2 x clusters)`` reporting extra, not an input of selection,
#: and at out-of-core scale it would dominate the offline phase.  The cap
#: applies identically to the in-RAM and out-of-core paths so their
#: clusterings stay comparable field-for-field.
SILHOUETTE_MAX_MODELS = 2048


@dataclass
class ModelClustering:
    """Result of clustering a model repository.

    Attributes
    ----------
    assignment:
        Cluster membership of every model.
    similarity:
        The model-similarity matrix the clustering was computed from
        (aligned with ``assignment.item_names``).
    representatives:
        Representative model per non-singleton cluster id.
    config:
        The clustering configuration used.
    """

    assignment: ClusterAssignment
    similarity: np.ndarray
    representatives: Dict[int, str]
    config: ClusteringConfig
    silhouette: Optional[float] = None
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def model_names(self) -> List[str]:
        """Clustered model names."""
        return list(self.assignment.item_names)

    def cluster_of(self, model_name: str) -> int:
        """Cluster id of ``model_name``."""
        return self.assignment.cluster_of(model_name)

    def cluster_members(self, cluster_id: int) -> List[str]:
        """Members of ``cluster_id``."""
        return self.assignment.members(cluster_id)

    def non_singleton_clusters(self) -> Dict[int, List[str]]:
        """Clusters with more than one member."""
        return self.assignment.non_singleton_clusters()

    def singleton_models(self) -> List[str]:
        """Models alone in their cluster."""
        return self.assignment.singleton_items()

    def representative_of(self, cluster_id: int) -> str:
        """Representative model of a non-singleton cluster."""
        if cluster_id not in self.representatives:
            raise SelectionError(
                f"cluster {cluster_id} has no representative (singleton cluster?)"
            )
        return self.representatives[cluster_id]

    def is_singleton(self, model_name: str) -> bool:
        """Whether ``model_name`` sits in a singleton cluster."""
        cluster_id = self.cluster_of(model_name)
        return len(self.cluster_members(cluster_id)) == 1

    def similarity_between(self, model_a: str, model_b: str) -> float:
        """Similarity of two models as used by the clustering."""
        names = self.model_names
        try:
            index_a, index_b = names.index(model_a), names.index(model_b)
        except ValueError as error:
            raise DataError(f"unknown model: {error}") from None
        return float(self.similarity[index_a, index_b])

    def summary(self) -> Dict[str, float]:
        """Small numeric summary used by experiments and logging."""
        non_singleton = self.non_singleton_clusters()
        return {
            "num_models": float(len(self.model_names)),
            "num_clusters": float(self.assignment.num_clusters),
            "num_non_singleton_clusters": float(len(non_singleton)),
            "num_models_in_non_singleton": float(
                sum(len(members) for members in non_singleton.values())
            ),
            "silhouette": float(self.silhouette) if self.silhouette is not None else float("nan"),
        }


class ModelClusterer:
    """Clusters a model repository from its performance matrix."""

    def __init__(self, config: Optional[ClusteringConfig] = None, *, seed: int = 0) -> None:
        self.config = config or ClusteringConfig()
        self._seed = int(seed)

    def cluster(
        self,
        matrix: PerformanceMatrix,
        *,
        model_cards: Optional[Dict[str, str]] = None,
        similarity: Optional[np.ndarray] = None,
        distance: Optional[np.ndarray] = None,
        cache: CacheLike = None,
        similarity_config: Optional[SimilarityConfig] = None,
    ) -> ModelClustering:
        """Cluster the models of ``matrix`` according to the configuration.

        Both the similarity matrix and its distance conversion are served
        from the artifact cache when available (``cache=False`` opts out).
        A precomputed ``similarity`` (aligned with ``matrix.model_names``,
        e.g. from an incremental update) skips the similarity computation
        and the cache entirely; ``distance`` optionally supplies its
        (possibly memmapped) conversion so no caller-side work is repeated.

        When ``similarity_config`` is given and the repository crosses its
        spill threshold, the similarity and distance matrices are computed
        **out-of-core**: streamed tile-by-tile into memory-mapped files in
        the matrix store and clustered without ever densifying — the
        resulting clustering is bitwise-identical to the in-RAM path (see
        ``docs/scaling.md``), and ``extras["ooc"]`` records the spill.

        The returned clustering records the effective hierarchical merge
        threshold and a zeroed incremental-staleness counter in ``extras``;
        :func:`repro.cluster.incremental.update_clustering` consumes both.
        """
        if len(matrix.model_names) < 2:
            raise SelectionError("model clustering requires at least two models")
        similarity, distance, work_store = offline_matrices(
            matrix,
            method=self.config.similarity,
            top_k=self.config.top_k,
            model_cards=model_cards,
            cache=cache,
            config=similarity_config,
            similarity=similarity,
            distance=distance,
        )
        labels, threshold = self._run_algorithm(distance, work_store=work_store)
        assignment = ClusterAssignment.from_labels(matrix.model_names, labels)
        representatives = self._elect_representatives(assignment, matrix)
        extras: Dict[str, float] = {"stale_models": 0.0}
        score = self._safe_silhouette(distance, assignment.labels, extras=extras)
        if threshold is not None:
            extras["distance_threshold"] = float(threshold)
        if isinstance(similarity, np.memmap):
            extras["ooc"] = 1.0
        return ModelClustering(
            assignment=assignment,
            similarity=similarity,
            representatives=representatives,
            config=self.config,
            silhouette=score,
            extras=extras,
        )

    # ------------------------------------------------------------------ #
    def _run_algorithm(self, distance: np.ndarray, *, work_store=None):
        """Run the configured method; returns ``(labels, merge_threshold)``.

        The effective merge threshold (explicit or quantile-derived) is
        surfaced so incremental updates can reuse the exact same join
        criterion; it is ``None`` for k-means and count-capped hierarchies.
        """
        if self.config.method == "hierarchical":
            threshold = self.config.distance_threshold
            if threshold is None and self.config.num_clusters is None:
                # Data-driven default: merge pairs closer than the configured
                # quantile of all pairwise distances.  This yields the
                # paper-like mix of non-singleton and singleton clusters on
                # both the NLP and CV repositories without hand tuning.
                # (upper_triangle_values streams memmapped matrices and is
                # value- and order-identical to the triu indexing it
                # replaced, so the quantile is bitwise-stable.)
                off_diagonal = upper_triangle_values(distance)
                threshold = float(np.quantile(off_diagonal, self.config.threshold_quantile))
            engine = NNChainClustering(
                num_clusters=self.config.num_clusters,
                distance_threshold=threshold,
                linkage=self.config.linkage,
            )
            return engine.fit_predict(distance, work_store=work_store), threshold
        # k-means operates on vector embeddings; use the rows of the distance
        # matrix as embedding coordinates (classical MDS-free shortcut that
        # preserves the neighbourhood structure well enough for Table I).
        num_clusters = self.config.num_clusters or max(2, distance.shape[0] // 4)
        kmeans = KMeans(num_clusters, rng=np.random.default_rng(self._seed))
        return kmeans.fit_predict(distance), None

    @staticmethod
    def _elect_representatives(
        assignment: ClusterAssignment, matrix: PerformanceMatrix
    ) -> Dict[int, str]:
        """Pick the member with the highest average benchmark accuracy."""
        representatives: Dict[int, str] = {}
        for cluster_id, members in assignment.non_singleton_clusters().items():
            best = max(members, key=matrix.average_accuracy)
            representatives[cluster_id] = best
        return representatives

    @staticmethod
    def _safe_silhouette(
        distance: np.ndarray,
        labels: np.ndarray,
        *,
        extras: Optional[Dict[str, float]] = None,
    ) -> Optional[float]:
        """Silhouette score, or ``None`` when it cannot / should not run.

        Past :data:`SILHOUETTE_MAX_MODELS` the skip is recorded as
        ``extras["silhouette_skipped"] = 1.0`` (when a dict is supplied)
        so an out-of-core clustering reports *why* its silhouette is
        missing instead of silently dropping the diagnostic; degenerate
        label sets (fewer than two clusters, or all singletons) stay a
        plain ``None`` — there the score is undefined, not skipped.
        """
        if distance.shape[0] > SILHOUETTE_MAX_MODELS:
            if extras is not None:
                extras["silhouette_skipped"] = 1.0
            return None
        if extras is not None:
            extras.pop("silhouette_skipped", None)
        unique = set(labels.tolist())
        if len(unique) < 2 or len(unique) >= distance.shape[0]:
            return None
        return silhouette_score(distance, labels)
