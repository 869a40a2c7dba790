"""Model clustering and representative selection (coarse-recall, offline part).

Checkpoints are clustered on their performance-matrix row vectors using the
Eq. 1 similarity (or the text baseline) with either hierarchical clustering
(paper default) or k-means.  Each non-singleton cluster elects the member
with the highest average benchmark accuracy as its *representative model*;
the coarse-recall phase computes proxy scores only for these representatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cache import CacheLike
from repro.cluster.assignments import ClusterAssignment
from repro.cluster.distance import (
    distance_rows,
    offline_matrices,
    similarity_to_distance,
    upper_triangle_values,
)
from repro.cluster.kmeans import KMeans
from repro.cluster.nnchain import NNChainClustering
from repro.cluster.silhouette import silhouette_score
from repro.core.config import ClusteringConfig, SimilarityConfig
from repro.core.performance import PerformanceMatrix
from repro.store import iter_row_blocks, resolve_store
from repro.utils.exceptions import DataError, SelectionError

#: Silhouette diagnostics are skipped past this repository size: the score
#: is an ``O(n^2 x clusters)`` reporting extra, not an input of selection,
#: and at out-of-core scale it would dominate the offline phase.  The cap
#: applies identically to the in-RAM and out-of-core paths so their
#: clusterings stay comparable field-for-field.
SILHOUETTE_MAX_MODELS = 2048

#: Rows of an out-of-core silhouette's scratch distance converted per step:
#: under :data:`SILHOUETTE_MAX_MODELS` each step gathers at most 1 MiB of
#: similarity columns.
_SILHOUETTE_FILL_ROWS = 64


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
    extras:
        Bookkeeping for incremental updates (``stale_models``,
        ``distance_threshold``), ``ooc`` for a spilled build, and
        ``silhouette_skipped`` when the repository is past
        :data:`SILHOUETTE_MAX_MODELS` (recorded at construction).

    The :attr:`silhouette` quality score is computed on first read, not at
    construction: selection never reads it, so builds and refreshes do not
    pay for it.
    """

    assignment: ClusterAssignment
    similarity: np.ndarray
    representatives: Dict[int, str]
    config: ClusteringConfig
    extras: Dict[str, float] = field(default_factory=dict)
    #: ``(score,)`` once :attr:`silhouette` has been read.
    _silhouette: Optional[Tuple[Optional[float]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.assignment.labels) > SILHOUETTE_MAX_MODELS:
            self.extras["silhouette_skipped"] = 1.0
        else:
            self.extras.pop("silhouette_skipped", None)

    @property
    def silhouette(self) -> Optional[float]:
        """Silhouette score of the labels on ``d = 1 - similarity``.

        Computed on the first read, from the similarity this clustering
        holds, and kept; the distance it is computed on is dropped (a
        memmapped similarity is converted block by block into a scratch
        file beside it, never densified).  Two threads that both read
        first compute the same value.  ``None`` past
        :data:`SILHOUETTE_MAX_MODELS` models or for degenerate labels.
        """
        cached = self._silhouette
        if cached is None:
            cached = (
                ModelClusterer._safe_silhouette(self.similarity, self.assignment.labels),
            )
            self._silhouette = cached
        return cached[0]

    @property
    def model_names(self) -> List[str]:
        """Clustered model names."""
        return list(self.assignment.item_names)

    def cluster_of(self, model_name: str) -> int:
        """Cluster id of ``model_name``."""
        return self.assignment.cluster_of(model_name)

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

    def __init__(self, config: Optional[ClusteringConfig] = None) -> None:
        self.config = config or ClusteringConfig()

    def cluster(
        self,
        matrix: PerformanceMatrix,
        *,
        model_cards: Optional[Dict[str, str]] = None,
        similarity: Optional[np.ndarray] = None,
        cache: CacheLike = None,
        similarity_config: Optional[SimilarityConfig] = None,
    ) -> ModelClustering:
        """Cluster the models of ``matrix`` according to the configuration.

        Both the similarity matrix and its distance conversion are served
        from the artifact cache when available (``cache=False`` opts out).
        A precomputed ``similarity`` (aligned with ``matrix.model_names``,
        e.g. from an incremental update) skips the similarity computation
        and the cache entirely; its distance is derived by
        :func:`~repro.cluster.distance.offline_matrices`, out-of-core when
        it is the store's canonical spilled entry.

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
        )
        labels, threshold = self._run_algorithm(distance, work_store=work_store)
        assignment = ClusterAssignment.from_labels(matrix.model_names, labels)
        representatives = self._elect_representatives(assignment, matrix)
        extras: Dict[str, float] = {"stale_models": 0.0}
        if threshold is not None:
            extras["distance_threshold"] = float(threshold)
        if isinstance(similarity, np.memmap):
            extras["ooc"] = 1.0
        return ModelClustering(
            assignment=assignment,
            similarity=similarity,
            representatives=representatives,
            config=self.config,
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
        kmeans = KMeans(num_clusters, rng=np.random.default_rng(0))
        return kmeans.fit_predict(distance), None

    @staticmethod
    def _elect_representatives(
        assignment: ClusterAssignment, matrix: PerformanceMatrix
    ) -> Dict[int, str]:
        """Pick the member with the highest average benchmark accuracy."""
        accuracies = matrix.average_accuracies()
        return {
            cluster_id: max(members, key=accuracies.__getitem__)
            for cluster_id, members in assignment.non_singleton_clusters().items()
        }

    @staticmethod
    def _safe_silhouette(similarity: np.ndarray, labels: np.ndarray) -> Optional[float]:
        """Silhouette score on ``d = 1 - similarity``, or ``None`` when it cannot / should not run.

        The one silhouette path of :class:`ModelClustering`.  The distance
        is :func:`~repro.cluster.distance.similarity_to_distance` of the
        similarity, so the score is byte-equal to one computed on the
        distance the clustering engines ran on.  A memmapped similarity is
        converted with :func:`~repro.cluster.distance.distance_rows` into a
        matrix-store scratch file beside it, which the silhouette streams.

        ``None`` past :data:`SILHOUETTE_MAX_MODELS` models (the skip
        :class:`ModelClustering` records in ``extras`` at construction) and
        for degenerate label sets (fewer than two clusters, or all
        singletons), where the score is undefined.
        """
        n = similarity.shape[0]
        if n > SILHOUETTE_MAX_MODELS:
            return None
        unique = set(labels.tolist())
        if len(unique) < 2 or len(unique) >= n:
            return None
        if not isinstance(similarity, np.memmap):
            return silhouette_score(similarity_to_distance(similarity), labels)
        filename = getattr(similarity, "filename", None)
        store = resolve_store(Path(filename).parent if filename else None)
        with store.scratch((n, n), prefix="silhouette") as distance:
            for start, stop in iter_row_blocks(n, _SILHOUETTE_FILL_ROWS):
                distance[start:stop] = distance_rows(similarity, np.arange(start, stop))
            return silhouette_score(distance, labels)
