"""Core two-phase recall-and-select framework (the paper's contribution).

The public API follows the paper's structure:

* **Offline** — :func:`~repro.core.performance.build_performance_matrix`
  fine-tunes every hub checkpoint on the benchmark datasets and records the
  :class:`~repro.core.performance.PerformanceMatrix` (final accuracies plus
  full convergence processes);
  :class:`~repro.core.model_clustering.ModelClusterer` groups checkpoints by
  the Eq. 1 performance similarity.
* **Coarse-recall** — :class:`~repro.core.recall.CoarseRecall` computes the
  per-cluster proxy score on the target dataset and the Eq. 2–4 recall
  scores, returning the top-K candidate checkpoints.
* **Fine-selection** — :class:`~repro.core.selection.FineSelection`
  (Algorithm 1) fine-tunes the recalled checkpoints with successive halving
  accelerated by convergence-trend prediction
  (:mod:`repro.core.convergence`); plain
  :class:`~repro.core.selection.SuccessiveHalving` and
  :class:`~repro.core.selection.BruteForceSelection` are the baselines.
* **End-to-end** — :class:`~repro.core.pipeline.OfflineArtifacts` holds the
  offline phase's products; :class:`~repro.service.SelectionService` wires
  both online phases behind one ``select(target)`` call, and ``select_many``
  answers a whole batch of target tasks off one shared clustering with
  aggregated epoch accounting (a
  :class:`~repro.core.batch.BatchSelectionReport`).  Both run on
  :class:`~repro.sched.scheduler.EpochScheduler`, the one online engine.
"""

from repro.core.batch import BatchSelectionReport
from repro.core.config import (
    ClusteringConfig,
    FineSelectionConfig,
    PipelineConfig,
    RecallConfig,
    SimilarityConfig,
)
from repro.core.convergence import (
    ConvergenceTrend,
    ConvergenceTrendMiner,
    TrendSet,
)
from repro.core.extrapolation import (
    CurveBound,
    CurveExtrapolator,
    ExtrapolationConfig,
    resolve_extrapolation,
)
from repro.core.model_clustering import ModelClusterer, ModelClustering
from repro.core.performance import (
    PerformanceMatrix,
    build_performance_matrix,
    update_performance_matrix,
)
from repro.core.pipeline import OfflineArtifacts, RefreshResult
from repro.core.plan import SelectionPlan, SessionView, StagePolicy, TrainStep
from repro.core.recall import CoarseRecall, RandomRecall
from repro.core.results import (
    RecallResult,
    SelectionResult,
    TwoPhaseResult,
    aggregate_epoch_accounting,
)
from repro.core.selection import (
    BruteForceSelection,
    FineSelection,
    SuccessiveHalving,
)
from repro.core.similarity import (
    performance_similarity,
    performance_similarity_matrix,
    performance_similarity_matrix_ooc,
    text_similarity_matrix,
    update_similarity_matrix,
    update_similarity_matrix_ooc,
)

__all__ = [
    "BatchSelectionReport",
    "aggregate_epoch_accounting",
    "ClusteringConfig",
    "FineSelectionConfig",
    "PipelineConfig",
    "RecallConfig",
    "SimilarityConfig",
    "ConvergenceTrend",
    "ConvergenceTrendMiner",
    "TrendSet",
    "CurveBound",
    "CurveExtrapolator",
    "ExtrapolationConfig",
    "resolve_extrapolation",
    "ModelClusterer",
    "ModelClustering",
    "PerformanceMatrix",
    "build_performance_matrix",
    "update_performance_matrix",
    "OfflineArtifacts",
    "RefreshResult",
    "SelectionPlan",
    "SessionView",
    "StagePolicy",
    "TrainStep",
    "CoarseRecall",
    "RandomRecall",
    "RecallResult",
    "SelectionResult",
    "TwoPhaseResult",
    "BruteForceSelection",
    "FineSelection",
    "SuccessiveHalving",
    "performance_similarity",
    "performance_similarity_matrix",
    "performance_similarity_matrix_ooc",
    "text_similarity_matrix",
    "update_similarity_matrix",
    "update_similarity_matrix_ooc",
]
