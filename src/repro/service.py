"""Long-lived selection service: one offline phase, many online answers.

The paper splits the framework into an *offline* phase (performance matrix +
model clustering, once per repository version) and cheap *online* phases
(coarse recall + fine selection, once per query).  :class:`SelectionService` is the
deployment shape of that split: it builds — or receives — warm
:class:`~repro.core.pipeline.OfflineArtifacts` once, then answers any number
of ``select`` / ``select_many`` / ``recall`` requests against them, keeping
running totals (requests, epoch-equivalents spent) for observability.

Every selection is a request on the service's one long-lived
:class:`~repro.sched.scheduler.EpochScheduler`: :meth:`SelectionService.submit`
returns a handle at once, :meth:`poll` streams per-stage progress,
:meth:`result` blocks for the outcome, and :meth:`select` is
``result(submit(...))``.  Concurrent requests interleave at epoch
granularity and reuse each other's partially-trained sessions through the
:class:`~repro.sched.pool.SessionPool`; results are bitwise-identical to the
blocking stage-by-stage loop of ``tests/oracles.py`` (see ``docs/serving.md``).
:meth:`SelectionService.inline_scheduler` is the one other scheduler: a
store-less one for a single call, whose session pool dies with it.

The service is thread-safe: the engines it shares across requests hold no
per-request mutable state, lazy checkpoint construction is lock-guarded in
the hub, and the artifact cache is thread-safe — so a server can call one
service instance from many request threads.  The ``python -m repro`` CLI is
a thin front-end over this class (``python -m repro serve`` exposes
``submit``/``poll`` as a long-lived JSON front-end).

The model zoo underneath a running service is *mutable*:
:meth:`SelectionService.refresh` applies checkpoint additions/removals by
deriving the next artifact version incrementally
(:meth:`~repro.core.pipeline.OfflineArtifacts.refresh`) and swapping it in
atomically — in-flight requests finish against the old epoch, later
requests see the new one.  See ``docs/zoo-updates.md``.

Typical use::

    from repro.service import SelectionService

    service = SelectionService.from_modality("nlp", seed=0)
    result = service.select("mnli")
    handle = service.submit("boolq")          # non-blocking
    service.poll(handle)["state"]
    service.result(handle).selected_model
    service.stats()["total_epoch_cost"]
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Union

from repro.cache import cache_stats
from repro.core.batch import (
    BatchSelectionReport,
    build_phase_engines,
    resolve_target_batch,
    resolve_target_task,
)
from repro.core.config import PipelineConfig
from repro.core.extrapolation import ExtrapolationConfig
from repro.core.pipeline import OfflineArtifacts
from repro.core.results import RecallResult, TwoPhaseResult
from repro.data.tasks import ClassificationTask
from repro.data.workloads import DataScale, suite_for_modality
from repro.persist.store import PlanStore
from repro.sched.config import SchedulerConfig
from repro.sched.scheduler import EpochScheduler, SchedulerContext, SelectionRequest
from repro.utils.exceptions import ConfigurationError
from repro.zoo.finetune import FineTuner
from repro.zoo.hub import ModelHub

TargetLike = Union[str, ClassificationTask]


def modality_hub(
    modality: str,
    *,
    scale: str = "full",
    seed: int = 0,
    num_models: Optional[int] = None,
):
    """Workload suite and model hub of ``modality``, as ``(suite, hub)``.

    ``scale`` is ``"full"`` (paper-sized datasets) or ``"small"`` (fast
    smoke runs); ``num_models`` keeps the first models of the catalogue.
    """
    if scale not in ("full", "small"):
        raise ConfigurationError("scale must be 'full' or 'small'")
    data_scale = DataScale.default() if scale == "full" else DataScale.small()
    suite = suite_for_modality(modality, seed=seed, scale=data_scale)
    hub = ModelHub(suite, seed=seed)
    if num_models is not None:
        hub = hub.subset(hub.model_names[:num_models])
    return suite, hub


class SelectionService:
    """Answer many selection requests off one warm set of offline artifacts.

    Parameters
    ----------
    artifacts:
        Prebuilt offline artifacts; build them once with
        :meth:`OfflineArtifacts.build` or let :meth:`from_modality` /
        :meth:`from_hub` do it.
    fine_tuner:
        Fine-tuning engine shared by every request (a fresh seeded one is
        created otherwise).
    scheduler:
        :class:`~repro.sched.config.SchedulerConfig` of the epoch
        scheduler answering every selection; it starts on the first one.
    seed:
        Seed for the default fine-tuner.
    store_dir:
        Optional directory for the durable plan store.  When set, every
        selection request is journaled and its sessions snapshotted
        (:class:`~repro.persist.store.PlanStore`), making the service
        crash-safe: :meth:`recover` resubmits whatever was in flight when
        a previous process died, finished requests answer straight from
        disk, and a later :meth:`submit` with a raised ``total_epochs``
        continues from the journaled rungs.
    extrapolation:
        Optional :class:`~repro.core.extrapolation.ExtrapolationConfig`
        making curve-extrapolation early stopping the *default* for every
        selection request (each :meth:`submit` can still override with
        ``extrapolate=``).  ``None`` — the default — is exact mode.  See
        ``docs/extrapolation.md``.
    """

    def __init__(
        self,
        artifacts: OfflineArtifacts,
        *,
        fine_tuner: Optional[FineTuner] = None,
        scheduler: Optional[SchedulerConfig] = None,
        seed: int = 0,
        store_dir: Optional[str] = None,
        extrapolation: Optional[ExtrapolationConfig] = None,
    ) -> None:
        self.artifacts = artifacts
        self._fine_tuner = fine_tuner or FineTuner(seed=seed)
        self._extrapolation = extrapolation
        self._recall, self._fine_selection = self._build_engines(artifacts)
        # Reentrant: _ensure_scheduler builds the scheduler under it, which
        # reads its first context through _scheduler_context.
        self._lock = threading.RLock()
        self._refresh_lock = threading.Lock()
        self._started_at = time.monotonic()
        self._requests = 0
        self._targets_served = 0
        self._epoch_cost = 0.0
        self._refreshes = 0
        self._scheduler_config = scheduler or SchedulerConfig()
        self._scheduler: Optional[EpochScheduler] = None
        self._persist = PlanStore(store_dir) if store_dir is not None else None

    def _build_engines(self, artifacts: OfflineArtifacts):
        return build_phase_engines(
            artifacts, self._fine_tuner, extrapolation=self._extrapolation
        )

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_hub(
        cls,
        hub: ModelHub,
        suite=None,
        *,
        config: Optional[PipelineConfig] = None,
        fine_tuner: Optional[FineTuner] = None,
        scheduler: Optional[SchedulerConfig] = None,
        seed: int = 0,
        store_dir: Optional[str] = None,
        extrapolation: Optional[ExtrapolationConfig] = None,
    ) -> "SelectionService":
        """Run the offline phase for ``hub`` and wrap it in a service."""
        artifacts = OfflineArtifacts.build(
            hub, suite, config=config, fine_tuner=fine_tuner
        )
        return cls(
            artifacts,
            fine_tuner=fine_tuner,
            scheduler=scheduler,
            seed=seed,
            store_dir=store_dir,
            extrapolation=extrapolation,
        )

    @classmethod
    def from_modality(
        cls,
        modality: str,
        *,
        scale: str = "full",
        seed: int = 0,
        num_models: Optional[int] = None,
        config: Optional[PipelineConfig] = None,
        scheduler: Optional[SchedulerConfig] = None,
        store_dir: Optional[str] = None,
        extrapolation: Optional[ExtrapolationConfig] = None,
    ) -> "SelectionService":
        """Build the simulated repository for ``modality`` and serve it
        (``scale`` and ``num_models`` as in :func:`modality_hub`)."""
        suite, hub = modality_hub(
            modality, scale=scale, seed=seed, num_models=num_models
        )
        config = config or PipelineConfig.for_modality(modality)
        return cls.from_hub(
            hub, suite, config=config, scheduler=scheduler, seed=seed,
            store_dir=store_dir, extrapolation=extrapolation,
        )

    # ------------------------------------------------------------------ #
    # request API
    # ------------------------------------------------------------------ #
    @property
    def target_names(self) -> List[str]:
        """Dedicated target datasets of the served suite."""
        return list(self.artifacts.suite.target_names)

    def select(self, target: TargetLike, *, top_k: Optional[int] = None) -> TwoPhaseResult:
        """Answer one selection request (coarse recall + fine selection)."""
        return self.result(self.submit(target, top_k=top_k))

    def select_many(
        self, targets: Sequence[TargetLike], *, top_k: Optional[int] = None
    ) -> BatchSelectionReport:
        """Answer a batch of targets: submit them all, then collect."""
        tasks = resolve_target_batch(self.artifacts.suite, targets)
        requests = [self.submit(task, top_k=top_k) for task in tasks]
        return BatchSelectionReport(
            {task.name: self.result(request) for task, request in zip(tasks, requests)}
        )

    def recall(self, target: TargetLike, *, top_k: Optional[int] = None) -> RecallResult:
        """Run only the coarse-recall phase for ``target``."""
        task = resolve_target_task(self.artifacts.suite, target)
        result = self._recall.recall(task, top_k=top_k)
        self._account(cost=result.epoch_cost)
        return result

    # ------------------------------------------------------------------ #
    # the scheduler: submit / poll / result
    # ------------------------------------------------------------------ #
    def _scheduler_context(self) -> SchedulerContext:
        """Bind a new request to the currently served artifact epoch."""
        with self._lock:
            artifacts = self.artifacts
            recall, fine_selection = self._recall, self._fine_selection
        return SchedulerContext(
            artifacts=artifacts,
            recall=recall,
            fine_selection=fine_selection,
            version_key=artifacts.version.key,
            fine_tuner=self._fine_tuner,
        )

    def inline_scheduler(self, requests: int) -> EpochScheduler:
        """A store-less scheduler over the served engines, for one call.

        The caller drives it with ``run_until_idle``, and its session pool
        lives for the call.  Every one of the ``requests`` is admitted at
        once and the unbounded epoch budget makes each round one full stage
        wave.  ``submit(task, policy=, candidates=)`` runs a baseline
        beside the two-phase requests on shared sessions.
        """
        return EpochScheduler(
            self._scheduler_context,
            config=SchedulerConfig(
                max_concurrent=requests, max_queue=requests, epoch_budget=None
            ),
        )

    def _on_request_complete(self, request: SelectionRequest) -> None:
        if request.result is not None:
            self._account(cost=request.result.total_cost)
        else:
            with self._lock:
                self._requests += 1

    def _ensure_scheduler(self) -> EpochScheduler:
        with self._lock:
            if self._scheduler is None:
                self._scheduler = EpochScheduler(
                    self._scheduler_context,
                    config=self._scheduler_config,
                    on_complete=self._on_request_complete,
                    persist=self._persist,
                )
                self._scheduler.start()
            return self._scheduler

    def submit(
        self,
        target: TargetLike,
        *,
        top_k: Optional[int] = None,
        timeout: Optional[float] = None,
        epoch_quota: Optional[int] = None,
        total_epochs: Optional[int] = None,
        extrapolate: Union[None, bool, ExtrapolationConfig] = None,
    ) -> SelectionRequest:
        """Enqueue a request with the epoch scheduler; return its handle.

        The request trains cooperatively with every other in-flight
        request (fair-share or deadline order, shared epoch budget and
        session pool) and its result is bitwise-identical to the same
        request run alone.
        ``total_epochs`` overrides this request's fine
        selection budget (the raise-budget verb — with a plan store, a
        finished request resubmitted under a larger budget continues from
        its journaled rungs).  ``extrapolate`` overrides the service's
        speculative early-stopping default for this request: ``True`` (or
        an :class:`~repro.core.extrapolation.ExtrapolationConfig`) prunes
        arms whose extrapolated ceiling cannot win, ``False`` forces exact
        mode (see ``docs/extrapolation.md``).  Raises
        :class:`~repro.utils.exceptions.QueueFullError` when the bounded
        admission queue rejects the request (backpressure); ``timeout``
        and ``epoch_quota`` bound the request's wall time and charged
        epochs (:class:`~repro.utils.exceptions.RequestTimeoutError` /
        :class:`~repro.utils.exceptions.BudgetExhaustedError`).
        """
        return self._ensure_scheduler().submit(
            target,
            top_k=top_k,
            timeout=timeout,
            epoch_quota=epoch_quota,
            total_epochs=total_epochs,
            extrapolate=extrapolate,
        )

    def poll(self, request: SelectionRequest, *, best: bool = False) -> Dict[str, object]:
        """Progress snapshot of a submitted request (per-stage detail).

        ``best=True`` adds the anytime answer: the confidence-ordered
        current-best candidates of the still-running plan.
        """
        return self._ensure_scheduler().poll(request, best=best)

    def recover(self) -> List[SelectionRequest]:
        """Resubmit journaled requests a previous process left unfinished.

        Requires the service to have a plan store (``store_dir``); returns
        the new handles (empty without a store, or when nothing was in
        flight).  Resumed requests replay their journals — recall skipped,
        recorded steps completed from session snapshots without
        retraining — and then train only what was never journaled.
        """
        return self._ensure_scheduler().recover()

    def result(
        self, request: SelectionRequest, timeout: Optional[float] = None
    ) -> TwoPhaseResult:
        """Block until a submitted request finishes; return its result.

        Re-raises the request's failure (timeout, budget exhaustion) if it
        did not complete.
        """
        return self._ensure_scheduler().result(request, timeout=timeout)

    def load(self) -> Dict[str, int]:
        """Cheap load probe: active and queued request counts.

        Unlike :meth:`stats` this never builds the scheduler, reads no
        artifacts and allocates nothing of note — it is the payload of the
        serve protocol's ``ping`` heartbeat, which must stay O(1) while
        the service is saturated.
        """
        with self._lock:
            scheduler = self._scheduler
        if scheduler is None:
            return {"active": 0, "queued": 0}
        return scheduler.load()

    def close(self) -> None:
        """Drain and stop the scheduler (if one was started)."""
        with self._lock:
            scheduler, self._scheduler = self._scheduler, None
        if scheduler is not None:
            scheduler.close(drain=True)

    # ------------------------------------------------------------------ #
    # zoo updates
    # ------------------------------------------------------------------ #
    def refresh(self, *, added: Sequence = (), removed: Sequence[str] = ()):
        """Apply a zoo update and swap in the refreshed offline artifacts.

        Delegates to :meth:`~repro.core.pipeline.OfflineArtifacts.refresh`
        (incremental: only new checkpoints are fine-tuned, only changed
        similarity rows recomputed, clustering patched within its staleness
        budget) and atomically replaces the served artifacts and online
        engines.  Requests already running keep the old epoch (their
        context was bound at admission); the swap
        is serialised so concurrent refreshes apply one at a time, and
        cache entries of the superseded version are evicted only *after*
        the swap so old-epoch requests still in flight cannot repopulate
        them.  Idle pooled sessions of the superseded version are evicted
        the same way (their keys embed the zoo version, so they could
        never be hit again anyway).  Returns the
        :class:`~repro.core.pipeline.RefreshResult`.

        The offline fine-tuner is deliberately **not** the service's:
        added models must train under the same (artifact-recorded) tuner the
        original offline matrix used, or the incremental == from-scratch
        guarantee breaks.
        """
        from repro.core.pipeline import purge_superseded_artifacts

        with self._refresh_lock:
            old = self.artifacts
            result = old.refresh(added=added, removed=removed)
            engines = self._build_engines(result.artifacts)
            with self._lock:
                self.artifacts = result.artifacts
                self._recall, self._fine_selection = engines
                self._refreshes += 1
                scheduler = self._scheduler
            result.evicted_entries = purge_superseded_artifacts(
                old.matrix, old.config.similarity
            )
            if scheduler is not None:
                scheduler.pool.evict_version(old.version.key)
            if self._persist is not None:
                # Journals and snapshots of the superseded version could
                # never be resumed (recovery checks the version key), so
                # reclaim their disk space as part of the same sweep.
                result.evicted_entries += self._persist.evict_version(
                    old.version.key
                )
        return result

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def _account(self, *, cost: float) -> None:
        with self._lock:
            self._requests += 1
            self._targets_served += 1
            self._epoch_cost += float(cost)

    def cluster_summary(self) -> Dict[str, float]:
        """Summary statistics of the warm model clustering."""
        return self.artifacts.clustering.summary()

    def stats(self) -> Dict[str, object]:
        """Service counters plus artifact-cache statistics.

        Keys: ``requests``, ``targets_served``, ``total_epoch_cost``,
        ``uptime_seconds``, ``num_models``, ``zoo_version``, ``refreshes``,
        ``similarity_backing`` (``"memmap"`` when the served
        similarity matrix is an out-of-core spill the service reads row
        tiles from on demand, ``"memory"`` otherwise), ``scheduler`` (the
        epoch scheduler's queue/completion counters and the session pool's
        hit/reuse report — ``None`` until the first selection) and
        ``cache`` (the per-tier hit/miss report of the process cache).

        Everything version-coupled — the request/epoch counters, the
        served artifacts and the scheduler snapshot — is read in **one**
        critical section of the same lock :meth:`refresh` swaps under, so
        a ``stats()`` racing a refresh can never pair the new
        ``zoo_version`` with the old counters (or vice versa).
        """
        import numpy as np

        with self._lock:
            snapshot: Dict[str, object] = {
                "requests": self._requests,
                "targets_served": self._targets_served,
                "total_epoch_cost": self._epoch_cost,
                "refreshes": self._refreshes,
            }
            artifacts = self.artifacts
            scheduler = self._scheduler
            snapshot["scheduler"] = scheduler.stats() if scheduler is not None else None
        snapshot["uptime_seconds"] = time.monotonic() - self._started_at
        snapshot["num_models"] = len(artifacts.hub)
        snapshot["zoo_version"] = artifacts.version.key
        snapshot["similarity_backing"] = (
            "memmap"
            if isinstance(artifacts.clustering.similarity, np.memmap)
            else "memory"
        )
        snapshot["cache"] = cache_stats()
        return snapshot
