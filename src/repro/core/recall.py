"""Coarse-recall phase (Section III of the paper).

Given the offline model clustering and performance matrix, the coarse-recall
phase scores the *representative model* of every non-singleton cluster on the
target dataset with a lightweight proxy score (LEEP by default) and combines
it with each model's prior average benchmark accuracy:

* Eq. 2/3 — models in non-singleton clusters inherit their cluster
  representative's proxy score:
  ``recall(T|m_j) = acc(m_j) * proxy(T|m(c(m_j)))``
* Eq. 4 — models in singleton clusters receive a propagated score, averaging
  the representatives' proxy scores weighted by the Eq. 1 similarity between
  the singleton model and each representative.

The top-K models by recall score move on to the fine-selection phase.

A proxy score is a pure function of (representative, target): subsampling
is seeded from the score's content key, never from a shared stream (see
:class:`repro.metrics.registry.KeySeededScorer`).  So :class:`CoarseRecall`
keeps a table of raw scores keyed by ``(representative, train-split task
fingerprint, max_proxy_samples)`` and computes each at most once per
engine; a later recall of the same target reads the table back, bitwise
equal to re-scoring.  The charge does not change: every recall still costs
``proxy_epoch_cost`` per representative, the paper's unit.  Concurrent
fills of one key write equal values, so the plain dict needs no lock.  A
zoo refresh builds new engines and so starts a new, empty table.

Scoring the missing representatives is embarrassingly parallel, so
:class:`CoarseRecall` accepts an :class:`~repro.parallel.executor.Executor`
and fans them out over it; the serial, thread and process backends return
identical :class:`RecallResult` records.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.cache import fingerprint_task
from repro.core.config import RecallConfig
from repro.core.model_clustering import ModelClustering
from repro.core.performance import PerformanceMatrix
from repro.core.results import RecallResult
from repro.data.tasks import ClassificationTask
from repro.metrics.normalization import min_max_normalize
from repro.metrics.registry import get_scorer
from repro.parallel.executor import Executor, get_executor
from repro.utils.exceptions import SelectionError
from repro.utils.rng import as_generator
from repro.zoo.hub import ModelHub

#: Raw proxy scores keyed by ``(representative, train-split task
#: fingerprint, max_proxy_samples)``.
ProxyTable = Dict[Tuple[str, str, Optional[int]], float]


class CoarseRecall:
    """Recall a small set of promising checkpoints for a target task."""

    def __init__(
        self,
        hub: ModelHub,
        matrix: PerformanceMatrix,
        clustering: ModelClustering,
        *,
        config: Optional[RecallConfig] = None,
        executor: Optional[Executor] = None,
    ) -> None:
        missing = [name for name in hub.model_names if name not in matrix.model_names]
        if missing:
            raise SelectionError(
                f"performance matrix does not cover hub models: {missing[:3]}..."
            )
        self.hub = hub
        self.matrix = matrix
        self.clustering = clustering
        self.config = config or RecallConfig()
        # ``deterministic=True`` seeds any proxy subsampling from the score's
        # content key, so a score is a pure function of (model, task): the
        # executor backends agree and the table below can hold it.
        self._scorer = get_scorer(self.config.proxy_score, deterministic=True)
        self._proxy_scores: ProxyTable = {}
        self._executor = get_executor(executor)

    # ------------------------------------------------------------------ #
    def recall(self, task: ClassificationTask, *, top_k: Optional[int] = None) -> RecallResult:
        """Run the coarse-recall phase on ``task`` and return the top-K models."""
        k = top_k if top_k is not None else self.config.top_k
        if k < 1:
            raise SelectionError("top_k must be >= 1")
        representatives = self._representatives()
        raw_scores = self._score_representatives(representatives, task)
        normalised = self._normalise(raw_scores)
        recall_scores = self._combine_scores(normalised)
        ordered = sorted(recall_scores, key=recall_scores.get, reverse=True)
        recalled = ordered[: min(k, len(ordered))]
        epoch_cost = self.config.proxy_epoch_cost * len(raw_scores)
        return RecallResult(
            target_name=task.name,
            recalled_models=recalled,
            recall_scores=recall_scores,
            proxy_scores=normalised,
            raw_proxy_scores=raw_scores,
            epoch_cost=epoch_cost,
        )

    # ------------------------------------------------------------------ #
    def _representatives(self) -> Dict[int, str]:
        """Representative model per non-singleton cluster.

        When the clustering produced only singleton clusters (possible for
        tiny repositories), every model becomes its own representative so the
        recall phase degrades gracefully to per-model proxy scoring.
        """
        representatives = dict(self.clustering.representatives)
        if not representatives:
            return {
                cluster_id: members[0]
                for cluster_id, members in self.clustering.assignment.as_dict().items()
            }
        return representatives

    def _score_representatives(
        self, representatives: Dict[int, str], task: ClassificationTask
    ) -> Dict[str, float]:
        """Raw proxy score per representative, each computed once per engine.

        Only the representatives missing from the table are scored; the
        table is filled after the whole fan-out returns, so a raising scorer
        stores nothing.  The result is a fresh dict in name order.
        """
        names = sorted(set(representatives.values()))
        fingerprint = fingerprint_task(task)
        max_samples = self.config.max_proxy_samples
        keys = {name: (name, fingerprint, max_samples) for name in names}
        table = self._proxy_scores
        missing = [name for name in names if keys[name] not in table]
        # Materialise the checkpoints up front (hub construction is lazy),
        # so workers only run scorer inference.
        models = [self.hub.get(name) for name in missing]

        def score_one(model) -> float:
            return self._scorer.score(model, task, max_samples=max_samples)

        values = self._executor.map(score_one, models)
        table.update(zip((keys[name] for name in missing), values))
        return {name: table[keys[name]] for name in names}

    @staticmethod
    def _normalise(raw_scores: Dict[str, float]) -> Dict[str, float]:
        if not raw_scores:
            raise SelectionError("no representative models were scored")
        names = list(raw_scores.keys())
        normalised = min_max_normalize([raw_scores[name] for name in names])
        return {name: float(value) for name, value in zip(names, normalised)}

    def _combine_scores(self, proxy_by_representative: Dict[str, float]) -> Dict[str, float]:
        """Eq. 2-4: combine prior accuracy with (propagated) proxy scores."""
        averages = self.matrix.average_accuracies()
        non_singleton = self.clustering.non_singleton_clusters()
        representative_items = sorted(proxy_by_representative.items())
        recall_scores: Dict[str, float] = {}
        for model_name in self.hub.model_names:
            prior = averages[model_name]
            cluster_id = self.clustering.cluster_of(model_name)
            if cluster_id in non_singleton or not non_singleton:
                representative = self.clustering.representatives.get(cluster_id, model_name)
                proxy = proxy_by_representative.get(representative)
                if proxy is None:
                    proxy = self._propagated_score(model_name, representative_items)
                recall_scores[model_name] = prior * proxy
            else:
                recall_scores[model_name] = prior * self._propagated_score(
                    model_name, representative_items
                )
        return recall_scores

    def _propagated_score(self, model_name: str, representative_items) -> float:
        """Eq. 4: similarity-decayed average of the representatives' proxy scores."""
        if not representative_items:
            return 0.0
        total = 0.0
        for representative, proxy in representative_items:
            similarity = self.clustering.similarity_between(model_name, representative)
            total += similarity * proxy
        return total / len(representative_items)


class RandomRecall:
    """Random-recall baseline used by the paper's Fig. 5 comparison."""

    def __init__(self, hub: ModelHub, *, rng=None) -> None:
        self.hub = hub
        self._rng = as_generator(rng)

    def recall(self, task: ClassificationTask, *, top_k: int = 10) -> RecallResult:
        """Return ``top_k`` models drawn uniformly at random (without replacement)."""
        if top_k < 1:
            raise SelectionError("top_k must be >= 1")
        names = list(self.hub.model_names)
        k = min(top_k, len(names))
        chosen_idx = self._rng.choice(len(names), size=k, replace=False)
        chosen = [names[int(i)] for i in chosen_idx]
        scores = {name: (1.0 if name in chosen else 0.0) for name in names}
        return RecallResult(
            target_name=task.name,
            recalled_models=chosen,
            recall_scores=scores,
            epoch_cost=0.0,
        )
