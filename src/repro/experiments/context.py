"""Shared experiment context: cached offline artifacts per modality.

Every table/figure of the paper's evaluation needs the same expensive
ingredients — the model hub, the benchmark performance matrix, the model
clustering, and the *ground-truth* fine-tuning accuracy of every checkpoint
on every target dataset (what the paper obtains by brute-force fine-tuning
in order to evaluate recall quality).  :class:`ExperimentContext` builds all
of them lazily and :func:`get_context` memoises contexts per
``(modality, scale, seed)`` so the whole benchmark suite pays the offline
cost once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import PipelineConfig
from repro.core.model_clustering import ModelClusterer, ModelClustering
from repro.core.performance import PerformanceMatrix, build_performance_matrix
from repro.core.pipeline import OfflineArtifacts
from repro.core.results import SelectionResult
from repro.data.tasks import ClassificationTask
from repro.data.workloads import DataScale, WorkloadSuite, suite_for_modality
from repro.service import SelectionService
from repro.utils.exceptions import ConfigurationError
from repro.zoo.finetune import FineTuner, LearningCurve
from repro.zoo.hub import ModelHub


@dataclass
class ExperimentContext:
    """Cached artifacts for one modality (NLP or CV).

    Parameters
    ----------
    modality:
        ``"nlp"`` or ``"cv"``.
    seed:
        Root seed shared by data generation, hub construction and
        fine-tuning.
    scale:
        Dataset split sizes; ``"full"`` uses the default experiment scale,
        ``"small"`` keeps CI/unit-test runs fast.
    num_models:
        Optional cap on the repository size (takes the first ``n``
        catalogue entries); ``None`` uses the full 40/30-model repository.
    """

    modality: str
    seed: int = 0
    scale: str = "full"
    num_models: Optional[int] = None
    _suite: Optional[WorkloadSuite] = field(default=None, repr=False)
    _hub: Optional[ModelHub] = field(default=None, repr=False)
    _matrix: Optional[PerformanceMatrix] = field(default=None, repr=False)
    _clustering: Optional[ModelClustering] = field(default=None, repr=False)
    _selector: Optional[SelectionService] = field(default=None, repr=False)
    _target_truth: Optional[Dict[str, Dict[str, LearningCurve]]] = field(
        default=None, repr=False
    )

    def __post_init__(self) -> None:
        if self.modality not in ("nlp", "cv"):
            raise ConfigurationError("modality must be 'nlp' or 'cv'")
        if self.scale not in ("full", "small"):
            raise ConfigurationError("scale must be 'full' or 'small'")

    # ------------------------------------------------------------------ #
    # paper defaults
    # ------------------------------------------------------------------ #
    @property
    def offline_epochs(self) -> int:
        """Offline/online fine-tuning budget (5 for NLP, 4 for CV)."""
        return 5 if self.modality == "nlp" else 4

    @property
    def config(self) -> PipelineConfig:
        """Pipeline configuration with the paper's per-modality defaults."""
        return PipelineConfig.for_modality(self.modality)

    # ------------------------------------------------------------------ #
    # lazily built artifacts
    # ------------------------------------------------------------------ #
    @property
    def suite(self) -> WorkloadSuite:
        """Benchmark + target workload suite."""
        if self._suite is None:
            data_scale = DataScale.default() if self.scale == "full" else DataScale.small()
            self._suite = suite_for_modality(self.modality, seed=self.seed, scale=data_scale)
        return self._suite

    @property
    def hub(self) -> ModelHub:
        """Simulated checkpoint repository."""
        if self._hub is None:
            hub = ModelHub(self.suite, seed=self.seed)
            if self.num_models is not None:
                hub = hub.subset(hub.model_names[: self.num_models])
            self._hub = hub
        return self._hub

    @property
    def fine_tuner(self) -> FineTuner:
        """Fine-tuning engine with the context seed."""
        return FineTuner(seed=self.seed)

    @property
    def matrix(self) -> PerformanceMatrix:
        """Benchmark performance matrix (the offline phase)."""
        if self._matrix is None:
            self._matrix = build_performance_matrix(
                self.hub,
                self.suite,
                fine_tuner=self.fine_tuner,
                epochs=self.offline_epochs,
            )
        return self._matrix

    @property
    def clustering(self) -> ModelClustering:
        """Hierarchical performance-based model clustering (paper default)."""
        if self._clustering is None:
            clusterer = ModelClusterer(self.config.clustering)
            self._clustering = clusterer.cluster(
                self.matrix, model_cards=self.hub.model_cards()
            )
        return self._clustering

    @property
    def selector(self) -> SelectionService:
        """Selection service over the cached artifacts (both engines built)."""
        if self._selector is None:
            artifacts = OfflineArtifacts(
                hub=self.hub,
                suite=self.suite,
                matrix=self.matrix,
                clustering=self.clustering,
                config=self.config,
            )
            self._selector = SelectionService(artifacts, fine_tuner=self.fine_tuner)
        return self._selector

    def run_policies(
        self, task: ClassificationTask, runs: Sequence[Tuple[object, Sequence[str]]]
    ) -> List[SelectionResult]:
        """``policy.run(candidates, task)`` per pair, on one shared scheduler."""
        scheduler = self.selector.inline_scheduler(len(runs))
        requests = [
            scheduler.submit(task, policy=policy, candidates=candidates)
            for policy, candidates in runs
        ]
        scheduler.run_until_idle()
        return [scheduler.result(request) for request in requests]

    # ------------------------------------------------------------------ #
    # ground truth on target datasets
    # ------------------------------------------------------------------ #
    def target_ground_truth(self) -> Dict[str, Dict[str, LearningCurve]]:
        """Full fine-tuning curves of every model on every target dataset.

        This is the paper's evaluation reference ("we fine-tune all the
        models on corresponding target datasets to get the actual training
        performance"), reused by Fig. 1, Fig. 5, Fig. 7 and Table VII.
        """
        if self._target_truth is None:
            models = self.hub.models()
            truth: Dict[str, Dict[str, LearningCurve]] = {}
            for target_name in self.suite.target_names:
                curves = self.fine_tuner.fine_tune_many(
                    models, self.suite.task(target_name), epochs=self.offline_epochs
                )
                truth[target_name] = {
                    model.name: curve for model, curve in zip(models, curves)
                }
            self._target_truth = truth
        return self._target_truth

    @property
    def target_names(self) -> List[str]:
        """Target dataset names of this modality."""
        return list(self.suite.target_names)

    @property
    def benchmark_names(self) -> List[str]:
        """Benchmark dataset names of this modality."""
        return list(self.suite.benchmark_names)


# --------------------------------------------------------------------------- #
# Context memoisation
# --------------------------------------------------------------------------- #
_CONTEXT_CACHE: Dict[Tuple[str, str, int, Optional[int]], ExperimentContext] = {}


def default_scale() -> str:
    """Experiment scale from the ``REPRO_EXPERIMENT_SCALE`` environment variable."""
    scale = os.environ.get("REPRO_EXPERIMENT_SCALE", "full").lower()
    return scale if scale in ("full", "small") else "full"


def get_context(
    modality: str,
    *,
    scale: Optional[str] = None,
    seed: int = 0,
    num_models: Optional[int] = None,
) -> ExperimentContext:
    """Return the memoised :class:`ExperimentContext` for ``modality``."""
    resolved_scale = scale or default_scale()
    key = (modality, resolved_scale, seed, num_models)
    if key not in _CONTEXT_CACHE:
        _CONTEXT_CACHE[key] = ExperimentContext(
            modality=modality, seed=seed, scale=resolved_scale, num_models=num_models
        )
    return _CONTEXT_CACHE[key]


def clear_context_cache() -> None:
    """Drop all memoised contexts (mainly for tests), stopping their services."""
    for context in _CONTEXT_CACHE.values():
        if context._selector is not None:
            context._selector.close()
    _CONTEXT_CACHE.clear()
