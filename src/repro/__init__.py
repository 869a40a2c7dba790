"""repro — reproduction of the two-phase recall-and-select model-selection framework.

The package reproduces *"A Two-Phase Recall-and-Select Framework for Fast
Model Selection"* (ICDE 2024) end to end on a simulated, laptop-scale model
zoo:

* :mod:`repro.data` — synthetic benchmark/target task suites,
* :mod:`repro.zoo` — the simulated pre-trained checkpoint hub and the
  fine-tuning engine,
* :mod:`repro.metrics` — LEEP and other transferability proxy scores,
* :mod:`repro.cluster` / :mod:`repro.text` — clustering and text-embedding
  substrates,
* :mod:`repro.core` — the two-phase framework itself (performance matrix,
  model clustering, coarse-recall, convergence-trend mining, fine-selection,
  baselines, end-to-end pipeline),
* :mod:`repro.experiments` — harnesses regenerating every table and figure
  of the paper's evaluation section,
* :mod:`repro.sched` — the epoch-granular scheduler multiplexing concurrent
  selection requests over a shared training budget with pooled
  fine-tuning sessions (see ``docs/serving.md``),
* :mod:`repro.store` — memory-mapped matrix store backing the out-of-core
  offline phase once zoos outgrow RAM (see ``docs/scaling.md``),
* :mod:`repro.service` — the long-lived :class:`~repro.service.SelectionService`
  answering many requests off one warm offline phase (the CLI front-end is
  ``python -m repro``, see ``docs/cli.md``).

Quickstart::

    from repro.data import nlp_suite
    from repro.zoo import ModelHub
    from repro.core import TwoPhaseSelector

    suite = nlp_suite(seed=0)
    hub = ModelHub(suite, seed=0)
    selector = TwoPhaseSelector.from_hub(hub, suite)
    result = selector.select("mnli")
    print(result.selected_model, result.selected_accuracy, result.total_cost)
"""

from repro.core import (
    BatchSelectionReport,
    BruteForceSelection,
    CoarseRecall,
    FineSelection,
    OfflineArtifacts,
    PerformanceMatrix,
    PipelineConfig,
    SimilarityConfig,
    SuccessiveHalving,
    TwoPhaseResult,
    TwoPhaseSelector,
    build_performance_matrix,
)
from repro.data import DataScale, WorkloadSuite, cv_suite, nlp_suite
from repro.sched import EpochScheduler, SchedulerConfig, SessionPool
from repro.service import SelectionService
from repro.store import MatrixStore
from repro.zoo import FineTuner, ModelHub

__version__ = "1.2.0"

__all__ = [
    "BatchSelectionReport",
    "BruteForceSelection",
    "CoarseRecall",
    "FineSelection",
    "OfflineArtifacts",
    "PerformanceMatrix",
    "PipelineConfig",
    "SimilarityConfig",
    "SuccessiveHalving",
    "TwoPhaseResult",
    "TwoPhaseSelector",
    "build_performance_matrix",
    "DataScale",
    "WorkloadSuite",
    "cv_suite",
    "nlp_suite",
    "FineTuner",
    "MatrixStore",
    "ModelHub",
    "SelectionService",
    "__version__",
]
