"""Configuration objects of the two-phase selection framework.

Defaults follow the paper's experimental setup (Section V): hierarchical
clustering on the Eq. 1 performance similarity with top-k = 5 (Appendix D),
LEEP as the coarse-recall proxy with K = 10 recalled models and a 0.5
epoch-equivalent charge per proxy inference (Table VI), and a fine-tuning
budget of 5 epochs for NLP / 4 for CV with the Table IV trend-filter
threshold.  :class:`SimilarityConfig` additionally sets the offline
memory policy (spill-to-disk threshold and in-flight budget), which is
not part of the paper; see ``docs/scaling.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.utils.exceptions import ConfigurationError


@dataclass(frozen=True)
class SimilarityConfig:
    """Memory policy of the offline similarity/distance computation.

    The Eq. 1 similarity of an ``n``-model repository is a dense ``(n, n)``
    float64 matrix (``8 n^2`` bytes).  For the paper's repositories
    (``n <= 40``) that is trivially small, but a checkpoint-hub-scale zoo
    (thousands of models) cannot hold the matrix — let alone its distance
    conversion and the clustering working copy — in RAM.  This config
    decides *where* those matrices live and how much memory the
    computation may hold in flight at once; the numbers are documented in
    ``docs/scaling.md``.

    Attributes
    ----------
    max_bytes_in_flight:
        Bound on the broadcast difference slabs (at most ``(rows, n, d)``
        each) of all tile threads together while streaming Eq. 1 row
        tiles.  The writer never uses more than 16 MiB of it
        (``DEFAULT_CHUNK_BUDGET_BYTES``), so slabs stay cache-sized; a
        smaller value lowers peak memory at the cost of more Python-loop
        iterations.  Results are bitwise-identical for any value.
    spill_threshold_bytes:
        Once the dense similarity matrix alone (``8 n^2`` bytes) would
        reach this size, the offline phase spills it (and the derived
        distance matrix) to memory-mapped files in the matrix store instead
        of RAM.  ``0`` forces out-of-core operation for any size (used by
        the equivalence tests); very large values effectively disable
        spilling.
    store_dir:
        Directory of the memory-mapped matrix store.  ``None`` uses the
        process default (``REPRO_STORE_DIR`` or a per-process temporary
        directory; see :func:`repro.store.get_store`).
    """

    max_bytes_in_flight: int = 64 * 1024 * 1024
    spill_threshold_bytes: int = 128 * 1024 * 1024
    store_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_bytes_in_flight < 4096:
            raise ConfigurationError("max_bytes_in_flight must be >= 4096 bytes")
        if self.spill_threshold_bytes < 0:
            raise ConfigurationError("spill_threshold_bytes must be >= 0")

    @staticmethod
    def dense_matrix_bytes(num_models: int) -> int:
        """Bytes of one dense float64 ``(n, n)`` matrix."""
        return 8 * num_models * num_models

    def should_spill(self, num_models: int) -> bool:
        """Whether an ``(n, n)`` similarity matrix goes out-of-core."""
        return self.dense_matrix_bytes(num_models) >= self.spill_threshold_bytes


@dataclass(frozen=True)
class ClusteringConfig:
    """Model-clustering settings (offline phase).

    Attributes
    ----------
    method:
        ``"hierarchical"`` (paper default, merged by the
        nearest-neighbor-chain engine of :mod:`repro.cluster.nnchain`) or
        ``"kmeans"``.
    similarity:
        ``"performance"`` (Eq. 1) or ``"text"`` (model-card baseline).
    top_k:
        Number of largest per-dataset accuracy differences averaged by the
        Eq. 1 similarity (the paper's Appendix D parameter, k = 5).
    distance_threshold:
        Hierarchical clustering stops merging above this linkage distance;
        this is what yields a mix of non-singleton and singleton clusters.
        When left ``None`` the threshold is derived from the distance
        distribution via ``threshold_quantile``.
    threshold_quantile:
        Quantile of the off-diagonal pairwise distances used as the merge
        threshold when ``distance_threshold`` is not given explicitly.
    num_clusters:
        Alternative stopping rule (required for k-means).
    staleness_threshold:
        Incremental-update budget: the maximum fraction of models that may
        have been placed incrementally (added to the nearest cluster, or
        removed) since the last full clustering before
        :func:`repro.cluster.incremental.update_clustering` triggers a full
        re-cluster.  ``0.0`` re-clusters on every zoo change; ``1.0``
        effectively never does.  See ``docs/zoo-updates.md``.
    """

    method: str = "hierarchical"
    similarity: str = "performance"
    top_k: int = 5
    distance_threshold: Optional[float] = None
    threshold_quantile: float = 0.2
    num_clusters: Optional[int] = None
    linkage: str = "average"
    staleness_threshold: float = 0.25

    def __post_init__(self) -> None:
        if self.method not in ("hierarchical", "kmeans"):
            raise ConfigurationError(f"unknown clustering method {self.method!r}")
        if self.similarity not in ("performance", "text"):
            raise ConfigurationError(f"unknown similarity {self.similarity!r}")
        if self.top_k < 1:
            raise ConfigurationError("top_k must be >= 1")
        if self.method == "kmeans" and self.num_clusters is None:
            raise ConfigurationError("kmeans clustering requires num_clusters")
        if not 0.0 < self.threshold_quantile < 1.0:
            raise ConfigurationError("threshold_quantile must be in (0, 1)")
        if not 0.0 <= self.staleness_threshold <= 1.0:
            raise ConfigurationError("staleness_threshold must be in [0, 1]")


@dataclass(frozen=True)
class RecallConfig:
    """Coarse-recall settings (first online phase).

    Attributes
    ----------
    proxy_score:
        Registered proxy-scorer name (``"leep"`` in the paper).
    top_k:
        Number of models returned to the fine-selection phase (10 in the
        paper's end-to-end experiments).
    max_proxy_samples:
        Cap on target samples used when computing the proxy score.
    proxy_epoch_cost:
        Epoch-equivalent cost charged per proxy-score computation
        (0.5 in the paper: inference without back-propagation).
    """

    proxy_score: str = "leep"
    top_k: int = 10
    max_proxy_samples: Optional[int] = 256
    proxy_epoch_cost: float = 0.5

    def __post_init__(self) -> None:
        if self.top_k < 1:
            raise ConfigurationError("top_k must be >= 1")
        if self.max_proxy_samples is not None and self.max_proxy_samples < 1:
            raise ConfigurationError("max_proxy_samples must be >= 1 when given")
        if self.proxy_epoch_cost < 0:
            raise ConfigurationError("proxy_epoch_cost must be >= 0")


@dataclass(frozen=True)
class FineSelectionConfig:
    """Fine-selection settings (second online phase, Algorithm 1).

    Attributes
    ----------
    total_epochs:
        Full fine-tuning budget per model (5 for NLP, 4 for CV in the
        paper).
    validation_interval:
        Epochs trained between successive filtering stages (``s``).
    threshold:
        Minimum predicted-performance margin before a model with worse
        validation accuracy is filtered by the convergence-trend rule
        (Table IV sweeps 0 / 1 / 5 / 10 %).
    num_trends:
        Number of convergence-trend clusters mined per model.
    use_trend_filter:
        Disabling this turns Algorithm 1 back into plain successive halving
        (used by ablation benches).
    """

    total_epochs: int = 5
    validation_interval: int = 1
    threshold: float = 0.0
    num_trends: int = 4
    use_trend_filter: bool = True

    def __post_init__(self) -> None:
        if self.total_epochs < 1:
            raise ConfigurationError("total_epochs must be >= 1")
        if self.validation_interval < 1:
            raise ConfigurationError("validation_interval must be >= 1")
        if self.validation_interval > self.total_epochs:
            raise ConfigurationError(
                "validation_interval cannot exceed total_epochs"
            )
        if self.threshold < 0:
            raise ConfigurationError("threshold must be >= 0")
        if self.num_trends < 1:
            raise ConfigurationError("num_trends must be >= 1")


@dataclass(frozen=True)
class PipelineConfig:
    """End-to-end two-phase pipeline configuration.

    ``similarity`` sets the offline memory policy: once the dense Eq. 1
    matrix would cross :attr:`SimilarityConfig.spill_threshold_bytes`, the
    offline build/refresh runs out-of-core against the memory-mapped
    matrix store — bitwise-equal to the in-RAM path, with peak memory
    bounded by :attr:`SimilarityConfig.max_bytes_in_flight`.  See
    ``docs/scaling.md``.
    """

    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    recall: RecallConfig = field(default_factory=RecallConfig)
    fine_selection: FineSelectionConfig = field(default_factory=FineSelectionConfig)
    offline_epochs: Optional[int] = None
    similarity: SimilarityConfig = field(default_factory=SimilarityConfig)

    def __post_init__(self) -> None:
        if self.offline_epochs is not None and self.offline_epochs < 1:
            raise ConfigurationError("offline_epochs must be >= 1 when given")

    @classmethod
    def for_modality(cls, modality: str, **overrides) -> "PipelineConfig":
        """Paper defaults: 5 offline/online epochs for NLP, 4 for CV."""
        epochs = 5 if modality == "nlp" else 4
        fine_selection = overrides.pop(
            "fine_selection", FineSelectionConfig(total_epochs=epochs)
        )
        return cls(fine_selection=fine_selection, offline_epochs=epochs, **overrides)
