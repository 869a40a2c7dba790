"""Epoch-granular cooperative scheduler for concurrent selection requests.

The online phase of one request is a :class:`~repro.core.plan.SelectionPlan`
— recall, then staged halving whose unit of work is a single
``(request, model, epoch-interval)`` training step.  :class:`EpochScheduler`
multiplexes many such plans over one shared training budget: each
*scheduling round* it picks up to ``epoch_budget`` epochs worth of runnable
steps across the active requests (fair-share or deadline order), deduplicates
steps that resolve to the same pooled session, trains the round, and
advances every plan whose stage completed.  Admission control (bounded
queue, ``max_concurrent``), per-request epoch quotas and deadlines bound the
work any request can consume.

Correctness does not depend on scheduling: every training step draws from
the per-``(model, task)`` named random stream of its session and every read
indexes the request's own epoch position, so a request's
:class:`~repro.core.results.TwoPhaseResult` is bitwise-identical whether it
ran alone, batched, or interleaved with arbitrary concurrent traffic — and
equal to the blocking stage-by-stage loop of ``tests/oracles.py`` (enforced
by the property suite in ``tests/property/test_property_scheduler.py``).
What scheduling *does* change is cost: overlapping requests share
partially-trained checkpoints through the
:class:`~repro.sched.pool.SessionPool`, so the aggregate epochs actually
trained can be far below the epochs charged.

This is the only engine that trains a plan; every selection call is a set
of requests on one scheduler.  A policy's ``run`` or one Table VI row
drives a store-less scheduler of its own with :meth:`run_until_idle`
(:meth:`~repro.service.SelectionService.inline_scheduler`); the service
answers ``select``/``select_many`` on one long-lived scheduler driven by its
background thread (:meth:`start`).
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import logging
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.cache import fingerprint_task, fingerprint_tuner
from repro.cache import plan_key as make_plan_key
from repro.core.extrapolation import ExtrapolationConfig, resolve_extrapolation
from repro.core.plan import SelectionPlan, TrainStep
from repro.core.results import RecallResult, SelectionResult, TwoPhaseResult
from repro.data.tasks import ClassificationTask
from repro.nn.batched import FUSED_MIN_GROUP, FusedSessionGroup
from repro.persist.codec import (
    decode_recall,
    decode_result,
    encode_recall,
    encode_result,
    encode_stage,
)
from repro.persist.recovery import pending_requests
from repro.persist.store import PlanStore
from repro.sched.config import SchedulerConfig
from repro.sched.pool import PooledSessionView, SessionPool
from repro.utils.exceptions import (
    BudgetExhaustedError,
    ConfigurationError,
    InternalError,
    QueueFullError,
    RequestTimeoutError,
    SchedulerError,
    SelectionError,
)

logger = logging.getLogger(__name__)

#: Request lifecycle states (``SelectionRequest.state``).
QUEUED = "queued"
RECALL = "recall"
TRAINING = "training"
DONE = "done"
FAILED = "failed"


@dataclass
class SchedulerContext:
    """Artifact epoch a request is bound to at admission time.

    In-flight requests keep the context they were admitted under; a zoo
    refresh only changes what *later* requests see — mirroring the
    service's atomic artifact swap.
    """

    artifacts: object
    recall: object
    fine_selection: object
    version_key: str
    fine_tuner: object


class SelectionRequest:
    """Handle of one submitted request: state, progress and (later) result.

    Returned by :meth:`EpochScheduler.submit`; consumers poll it through
    :meth:`EpochScheduler.poll` or block on :meth:`EpochScheduler.result`.
    """

    def __init__(
        self,
        request_id: int,
        task: ClassificationTask,
        *,
        top_k: Optional[int],
        context: SchedulerContext,
        deadline: Optional[float],
        epoch_quota: Optional[int],
    ) -> None:
        self.id = request_id
        self.task = task
        self.top_k = top_k
        self.context = context
        self.deadline = deadline
        self.epoch_quota = epoch_quota
        #: Fixed candidates (``submit(candidates=)``): the request skips
        #: recall and its result is the plan's :class:`SelectionResult`.
        #: ``None`` for a two-phase request.
        self.candidates: Optional[List[str]] = None
        self.state = QUEUED
        self.plan: Optional[SelectionPlan] = None
        self.result: Optional[Union[TwoPhaseResult, SelectionResult]] = None
        self.error: Optional[Exception] = None
        self.epochs_charged = 0
        #: Epochs satisfied from the plan journal on a resumed request —
        #: charged to the request but (snapshots permitting) never retrained.
        self.epochs_replayed = 0
        #: Journal identity and handle when the scheduler persists plans.
        self.plan_key: Optional[str] = None
        self.journal = None
        self.submitted_at = time.monotonic()
        self.finished_at: Optional[float] = None
        self._views: List[PooledSessionView] = []
        self._event = threading.Event()
        #: Set (under the scheduler lock) by the first finish/fail; later
        #: attempts — e.g. a cancelling close() racing the serving thread —
        #: are no-ops, so completion callbacks never fire twice.
        self._terminal = False
        #: Stage/terminal listeners (see :meth:`add_listener`).  The lock
        #: orders registration against the terminal notification, which
        #: empties the list after ``_event`` is set: every listener sees
        #: exactly one terminal call.
        self._listeners: List[Callable[["SelectionRequest"], None]] = []
        self._listener_lock = threading.Lock()
        #: Called when a listener raises (the scheduler counts it as an
        #: internal error).
        self._on_listener_error: Optional[Callable[[], None]] = None

    @property
    def target_name(self) -> str:
        """Name of the request's target task."""
        return self.task.name

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the request finishes (or ``timeout`` elapses)."""
        return self._event.wait(timeout)

    def latency_seconds(self) -> Optional[float]:
        """Submit-to-finish wall time (``None`` while still in flight)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def add_listener(self, listener: Callable[["SelectionRequest"], None]) -> None:
        """Call ``listener(self)`` after every stage transition and at the end.

        The final call comes once the request is terminal (``wait``
        returns); a listener added after that is called at once, so each
        listener sees exactly one terminal call.  Listeners run on the
        scheduler's thread and must not block; one that raises is logged
        and counted in the scheduler's ``internal_errors``, and the round
        goes on.
        """
        with self._listener_lock:
            if not self._event.is_set():
                self._listeners.append(listener)
                return
        self._call_listener(listener)

    def _notify(self, *, terminal: bool = False) -> None:
        """Call every listener; a terminal notification empties the list."""
        with self._listener_lock:
            listeners = list(self._listeners)
            if terminal:
                self._listeners = []
        for listener in listeners:
            self._call_listener(listener)

    def _call_listener(self, listener: Callable[["SelectionRequest"], None]) -> None:
        try:
            listener(self)
        except Exception:  # noqa: BLE001 — a listener must not kill the round
            logger.exception("listener of request %s raised", self.id)
            if self._on_listener_error is not None:
                self._on_listener_error()


def _resolve_task(context: SchedulerContext, target) -> ClassificationTask:
    from repro.core.batch import resolve_target_task

    if isinstance(target, ClassificationTask):
        return target  # a policy's context may carry no artifacts
    return resolve_target_task(context.artifacts.suite, target)


class EpochScheduler:
    """Interleave the epoch steps of many concurrent selection requests.

    Parameters
    ----------
    context_provider:
        Zero-argument callable returning the :class:`SchedulerContext` new
        requests bind to.  A static lambda for one-shot batch use; the
        service passes a closure over its current artifacts so requests
        admitted after a zoo refresh see the new epoch.
    config:
        :class:`~repro.sched.config.SchedulerConfig` (policy, budgets,
        queue bound).
    on_complete:
        Callback ``(request)`` fired when a request finishes or fails —
        the service uses it for accounting.
    persist:
        Optional :class:`~repro.persist.store.PlanStore`.  When given,
        every request is written through an append-only plan journal
        (admission, recall, each charged step, stage transitions, result)
        and every advanced session is snapshotted — which is what makes a
        killed scheduler resumable via :meth:`recover` without re-paying
        journaled epochs, and finished requests answerable from disk.
    """

    def __init__(
        self,
        context_provider: Callable[[], SchedulerContext],
        *,
        config: Optional[SchedulerConfig] = None,
        on_complete: Optional[Callable[[SelectionRequest], None]] = None,
        persist: Optional[PlanStore] = None,
    ) -> None:
        self._context_provider = context_provider
        self.config = config or SchedulerConfig()
        self._persist = persist
        self._pool = SessionPool(context_provider().fine_tuner)
        self._on_complete = on_complete
        self._lock = threading.RLock()
        self._wake = threading.Condition(self._lock)
        self._queue: List[SelectionRequest] = []
        self._active: List[SelectionRequest] = []
        self._ids = itertools.count()
        self._rr_offset = 0  # fair-share rotation cursor
        self._closed = False
        self._cancelled = False
        self._thread: Optional[threading.Thread] = None
        self._completed = 0
        self._failed = 0
        self._internal_errors = 0
        self._rounds = 0
        self._epochs_replayed = 0
        self._results_restored = 0
        self._recalls_restored = 0
        self._journal_errors = 0
        self._recover_skipped = 0
        self._arms_pruned = 0
        self._prunes_replayed = 0
        # Fused-training bookkeeping: per-geometry probe verdicts (True =
        # stacked kernels proven bitwise-equal to the serial oracle, False
        # = divergence observed, group delegated) plus round counters.
        self._fused_verdicts: Dict[Tuple, bool] = {}
        self._fused_groups = 0
        self._fused_sessions = 0
        self._fused_epochs = 0
        self._serial_epochs = 0
        self._probe_epochs = 0
        self._delegated_groups = 0
        self._fused_largest_group = 0

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def for_artifacts(
        cls,
        artifacts,
        *,
        fine_tuner=None,
        config: Optional[SchedulerConfig] = None,
        on_complete: Optional[Callable[[SelectionRequest], None]] = None,
        persist: Optional[PlanStore] = None,
    ) -> "EpochScheduler":
        """Scheduler over one fixed set of offline artifacts.

        Its engines are a fresh pair built exactly as
        :class:`~repro.service.SelectionService` builds them
        (``build_phase_engines``), so the two cannot drift.
        """
        from repro.core.batch import build_phase_engines
        from repro.zoo.finetune import FineTuner

        tuner = fine_tuner or FineTuner(seed=0)
        recall, fine_selection = build_phase_engines(artifacts, tuner)
        context = SchedulerContext(
            artifacts=artifacts,
            recall=recall,
            fine_selection=fine_selection,
            version_key=artifacts.version.key,
            fine_tuner=tuner,
        )
        return cls(
            lambda: context, config=config, on_complete=on_complete, persist=persist
        )

    @property
    def pool(self) -> SessionPool:
        """The scheduler's session pool."""
        return self._pool

    # ------------------------------------------------------------------ #
    # submission API
    # ------------------------------------------------------------------ #
    def submit(
        self,
        target: Union[str, ClassificationTask],
        *,
        top_k: Optional[int] = None,
        timeout: Optional[float] = None,
        epoch_quota: Optional[int] = None,
        total_epochs: Optional[int] = None,
        extrapolate: Union[None, bool, ExtrapolationConfig] = None,
        policy=None,
        candidates: Optional[Sequence[str]] = None,
    ) -> SelectionRequest:
        """Enqueue one selection request; returns its handle immediately.

        ``policy`` replaces the context's fine-selection engine for this
        request; its fine-tuner must fingerprint like the session pool's
        (pooled sessions are keyed without it), else ``SchedulerError``.
        ``candidates`` (non-empty, all in the policy's hub, else
        ``SelectionError``) skip the recall; the result is then the plan's
        :class:`SelectionResult` and the request never journals.

        ``total_epochs`` overrides the fine-selection policy's epoch budget
        for this request only (the *raise-budget* verb): with a persisted
        plan store the request reopens the same journal its smaller-budget
        run wrote — journals are keyed without the schedule — so the longer
        run replays the old rungs and charges only the delta epochs.

        ``extrapolate`` overrides the policy's speculative early-stopping
        mode for this request only: ``True`` (or an
        :class:`~repro.core.extrapolation.ExtrapolationConfig`) enables
        curve-extrapolation pruning, ``False`` forces exact mode, ``None``
        inherits the policy's default.  An enabled config becomes part of
        the request's plan key, so speculative and exact runs of the same
        target never share a journal.

        Raises :class:`~repro.utils.exceptions.QueueFullError` when the
        bounded admission queue is full (backpressure) and
        :class:`~repro.utils.exceptions.SchedulerError` after
        :meth:`close`.
        """
        context = self._context_provider()
        if policy is not None:
            tuner = getattr(policy, "fine_tuner", None)
            if tuner is not None and (
                fingerprint_tuner(tuner) != self._pool.tuner_fingerprint
            ):
                raise SchedulerError(
                    f"policy {policy.method!r} fine-tunes with another tuner "
                    "than this scheduler's session pool"
                )
            context = dataclasses.replace(context, fine_selection=policy)
        extrapolation = resolve_extrapolation(extrapolate)
        if total_epochs is not None or extrapolation is not None:
            # Per-request policy clone: shared engines, private budget/mode.
            policy = copy.copy(context.fine_selection)
            if total_epochs is not None:
                policy.config = dataclasses.replace(
                    policy.config, total_epochs=int(total_epochs)
                )
            if extrapolation is not None:
                if not hasattr(policy, "extrapolation"):
                    if extrapolation.enabled:
                        raise SchedulerError(
                            f"policy {policy.method!r} does not support "
                            "curve-extrapolation early stopping"
                        )
                else:
                    policy.extrapolation = extrapolation
            context = dataclasses.replace(context, fine_selection=policy)
        task = _resolve_task(context, target)
        if candidates is not None:
            candidates = list(candidates)
            unknown = [n for n in candidates if n not in context.fine_selection.hub]
            if not candidates or unknown:
                raise SelectionError(
                    f"unknown candidate model(s): {unknown[:3]}"
                    if unknown
                    else "candidate list must not be empty"
                )
        if timeout is None:
            timeout = self.config.timeout_seconds
        if epoch_quota is None:
            epoch_quota = self.config.max_epochs_per_request
        with self._lock:
            if self._closed:
                raise SchedulerError("scheduler is closed")
            if len(self._queue) >= self.config.max_queue:
                raise QueueFullError(
                    f"admission queue is full ({self.config.max_queue} waiting); "
                    "retry later or raise max_queue"
                )
            request = SelectionRequest(
                next(self._ids),
                task,
                top_k=top_k,
                context=context,
                deadline=(
                    time.monotonic() + timeout if timeout is not None else None
                ),
                epoch_quota=epoch_quota,
            )
            request.candidates = candidates
            request._on_listener_error = self._count_internal_error
            if self._persist is not None and candidates is None:
                request.plan_key = self._plan_key(context, task, top_k)
            self._queue.append(request)
            self._wake.notify_all()
        return request

    @staticmethod
    def _active_extrapolation(
        context: SchedulerContext,
    ) -> Optional[ExtrapolationConfig]:
        """The context's extrapolation config, if present *and* enabled."""
        config = getattr(context.fine_selection, "extrapolation", None)
        if config is not None and config.enabled:
            return config
        return None

    def _plan_key(self, context: SchedulerContext, task, top_k) -> str:
        """Journal identity of one request (schedule deliberately excluded).

        The task enters with all three splits: a re-split task scores its
        arms against other labels, so it must not reopen this journal.  An
        *enabled* extrapolation config is folded into the method
        component: speculative runs prune arms the exact path would train,
        so their journals must never be shared — while exact-mode keys
        carry no extrapolation component at all.
        """
        method = context.fine_selection.method
        extrapolation = self._active_extrapolation(context)
        if extrapolation is not None:
            method = f"{method}+{extrapolation.fingerprint()}"
        return make_plan_key(
            context.version_key,
            fingerprint_task(task, split="all"),
            method=method,
            tuner_fingerprint=fingerprint_tuner(context.fine_tuner),
            top_k=top_k,
        )

    def poll(self, request: SelectionRequest, *, best: bool = False) -> Dict[str, object]:
        """Progress snapshot of one request (streaming per-stage detail).

        With ``best=True`` the snapshot additionally carries ``anytime`` —
        the plan's confidence-ordered current-best answer (see
        :meth:`repro.core.plan.SelectionPlan.best_so_far`), usable while
        the request is still training.
        """
        with self._lock:
            snapshot: Dict[str, object] = {
                "id": request.id,
                "target": request.target_name,
                "state": request.state,
                "epochs_charged": request.epochs_charged,
            }
            if request.epochs_replayed:
                snapshot["epochs_replayed"] = request.epochs_replayed
            if request.plan is not None:
                snapshot["progress"] = request.plan.progress()
                if best:
                    snapshot["anytime"] = request.plan.best_so_far()
            elif best and request.result is not None:
                # Result restored straight from the journal: no plan exists,
                # but the final answer is the best answer.
                selection = request.result.selection
                snapshot["anytime"] = {
                    "phase": "done",
                    "final": True,
                    "best": {
                        "model": selection.selected_model,
                        "surviving": True,
                        "epochs_trained": None,
                        "val_accuracy": selection.selected_val_accuracy,
                        "confidence": 1.0,
                    },
                    "candidates": [],
                }
            if request.error is not None:
                snapshot["error"] = {
                    "type": type(request.error).__name__,
                    "message": str(request.error),
                }
            latency = request.latency_seconds()
            if latency is not None:
                snapshot["latency_seconds"] = latency
        return snapshot

    def result(
        self, request: SelectionRequest, timeout: Optional[float] = None
    ) -> Union[TwoPhaseResult, SelectionResult]:
        """Block until ``request`` finishes; return (or re-raise) its outcome.

        The outcome is a :class:`TwoPhaseResult`, or the plan's
        :class:`SelectionResult` for a fixed-candidates request.
        """
        if not request.wait(timeout):
            raise RequestTimeoutError(
                f"request {request.id} ({request.target_name!r}) still running "
                f"after {timeout:.1f}s"
            )
        if request.error is not None:
            raise request.error
        return request.result

    # ------------------------------------------------------------------ #
    # driving
    # ------------------------------------------------------------------ #
    def run_until_idle(self) -> None:
        """Drive rounds in the calling thread until no request remains."""
        while True:
            with self._lock:
                if not self._queue and not self._active:
                    return
            self._guarded_round()

    def start(self) -> None:
        """Run the scheduling loop on a daemon background thread."""
        with self._lock:
            if self._closed:
                raise SchedulerError("scheduler is closed")
            if self._thread is not None:
                return
            self._thread = threading.Thread(
                target=self._serve_forever, name="repro-epoch-scheduler", daemon=True
            )
            self._thread.start()

    def close(self, *, drain: bool = True) -> None:
        """Stop accepting requests; drain or cancel the in-flight ones.

        ``drain=True`` finishes everything already submitted;
        ``drain=False`` cancels instead — the serving thread stops at the
        next round boundary and every unfinished request fails with
        :class:`~repro.utils.exceptions.SchedulerError`.  Requests the
        thread finishes concurrently with the cancellation keep their real
        outcome: finishing is atomic per request, whoever gets there
        first.
        """
        with self._lock:
            self._closed = True
            if not drain:
                self._cancelled = True
            thread = self._thread
            self._wake.notify_all()
        if drain and thread is None:
            self.run_until_idle()
        if thread is not None:
            thread.join(timeout=60.0)
        if not drain:
            with self._lock:
                doomed = self._queue + self._active
                self._queue, self._active = [], []
            for request in doomed:
                self._fail(request, SchedulerError("scheduler closed"))

    def _serve_forever(self) -> None:
        while True:
            with self._lock:
                while (
                    not self._queue and not self._active
                    and not self._closed and not self._cancelled
                ):
                    self._wake.wait(timeout=0.5)
                if self._cancelled:
                    return
                if self._closed and not self._queue and not self._active:
                    return
            self._guarded_round()

    def _guarded_round(self) -> None:
        """Run one round; a raised exception fails every pending request.

        Nothing tells which requests a failed round left half-advanced, so
        the loop cannot trust any of them to progress: each queued and
        active request fails with :class:`~repro.utils.exceptions
        .InternalError` (a ``SchedulerError``), the exception is logged and
        counted as ``internal_errors``, and the loop goes on serving new
        submissions.
        """
        try:
            self._round()
        except Exception as error:  # noqa: BLE001 — the loop must not die
            logger.exception("scheduling round failed")
            with self._lock:
                self._internal_errors += 1
                doomed = self._queue + self._active
                self._queue, self._active = [], []
            for request in doomed:
                self._fail(request, InternalError(f"internal: {error!r}"))

    # ------------------------------------------------------------------ #
    # one scheduling round
    # ------------------------------------------------------------------ #
    def _round(self) -> None:
        self._admit()
        self._expire()
        batch = self._select_steps()
        if batch:
            self._execute(batch)
        with self._lock:
            self._rounds += 1
            finished = [
                request for request in self._active if request.plan and request.plan.done
            ]
        for request in finished:
            # Stays active until finished, so a raising _finish leaves it
            # (and every later one) for the round guard to fail.
            self._finish(request)
            with self._lock:
                if request in self._active:
                    self._active.remove(request)

    def _admit(self) -> None:
        """Move queued requests into the active set and run their recalls.

        Every live recall of the admission wave runs before any of them is
        journaled or starts training.  A recall failure (e.g. an unknown
        target) fails only its own request.
        """
        admitted: List[SelectionRequest] = []
        with self._lock:
            while self._queue and (
                len(self._active) + len(admitted) < self.config.max_concurrent
            ):
                request = self._queue.pop(0)
                request.state = RECALL
                admitted.append(request)
            self._active.extend(admitted)
        if not admitted:
            return
        # Journal-backed admission: a request whose journal already proves
        # a result (under this schedule) finishes without training; one
        # with a journaled recall skips the live recall, and so does one
        # with fixed candidates.  Only the rest pay for a live recall.
        live: List[SelectionRequest] = []
        for request in admitted:
            if request.candidates is not None:
                action, restored_recall = "recall", None
            else:
                action, restored_recall = self._admit_from_journal(request)
            if action == "result":
                continue
            if action == "recall":
                self._begin_training(request, restored_recall)
            else:
                live.append(request)

        def recall_one(request: SelectionRequest):
            try:
                return True, request.context.recall.recall(
                    request.task, top_k=request.top_k
                )
            except Exception as error:  # noqa: BLE001 — reported per request
                return False, error

        outcomes = [recall_one(request) for request in live]
        for request, (ok, outcome) in zip(live, outcomes):
            if not ok:
                with self._lock:
                    self._active.remove(request)
                self._fail(request, outcome)
                continue
            self._journal_append(request, "recall", encode_recall(outcome))
            self._begin_training(request, outcome)

    def _begin_training(
        self, request: SelectionRequest, recall_result: Optional[RecallResult]
    ) -> None:
        try:
            self._start_plan(request, recall_result)
            request.state = TRAINING
        except Exception as error:  # noqa: BLE001 — failures land on the handle
            with self._lock:
                if request in self._active:
                    self._active.remove(request)
            self._fail(request, error)

    def _admit_from_journal(
        self, request: SelectionRequest
    ) -> Tuple[str, Optional[RecallResult]]:
        """Open the request's journal and restore whatever it already proves.

        Returns ``("result", None)`` when the request finished straight
        from a journaled result, ``("recall", result)`` when only the
        recall phase could be reused, and ``("live", None)`` otherwise.
        Appends a fresh ``request`` record whenever this submission's
        schedule differs from the journal's latest one (first submission,
        or a raised budget).
        """
        if self._persist is None or request.plan_key is None:
            return "live", None
        journal = self._persist.journal(request.plan_key)
        request.journal = journal
        schedule = [
            int(epochs)
            for epochs in request.context.fine_selection.stage_schedule()
        ]
        latest = journal.last_of_type("request")
        if latest is None or list(latest["payload"].get("schedule", [])) != schedule:
            payload: Dict[str, object] = {
                "plan_key": request.plan_key,
                "target": request.target_name,
                "version_key": request.context.version_key,
                "method": request.context.fine_selection.method,
                "top_k": request.top_k,
                "schedule": schedule,
            }
            extrapolation = self._active_extrapolation(request.context)
            if extrapolation is not None:
                # Recorded so startup recovery resubmits the request under
                # the same speculative mode (and hence the same plan key).
                payload["extrapolation"] = {
                    "enabled": True,
                    "min_stages": extrapolation.min_stages,
                    "slack": extrapolation.slack,
                    "num_trends": extrapolation.num_trends,
                }
            self._journal_append(request, "request", payload)
        try:
            for record in journal.of_type("result"):
                if list(record["payload"].get("schedule", [])) == schedule:
                    result = decode_result(record["payload"])
                    with self._lock:
                        if request in self._active:
                            self._active.remove(request)
                        self._results_restored += 1
                    self._finish_with(request, result)
                    return "result", None
            recall_record = journal.last_of_type("recall")
            if recall_record is not None:
                restored = decode_recall(recall_record["payload"])
                with self._lock:
                    self._recalls_restored += 1
                return "recall", restored
        except (KeyError, TypeError, ValueError):
            # Malformed payload: fall back to a live run, but say so.
            with self._lock:
                self._journal_errors += 1
            logger.exception(
                "journal %s holds a malformed payload; running live",
                request.plan_key,
            )
        return "live", None

    def _start_plan(
        self, request: SelectionRequest, recall_result: Optional[RecallResult]
    ) -> None:
        context = request.context
        loader = self._persist.load_session if self._persist is not None else None
        # The hub the policy checks its candidates against.
        hub = context.fine_selection.hub

        def view_factory(name: str) -> PooledSessionView:
            view = self._pool.acquire(
                hub.get(name),
                request.task,
                version_key=context.version_key,
                loader=loader,
            )
            request._views.append(view)
            return view

        plan = SelectionPlan(
            policy=context.fine_selection,
            task=request.task,
            view_factory=view_factory,
            candidates=(
                request.candidates
                if recall_result is None
                else recall_result.recalled_models
            ),
            recall_result=recall_result,
        )
        request.plan = plan
        self._replay(request)

    def _replay(self, request: SelectionRequest) -> None:
        """Complete a resumed plan's journaled steps without recharging them.

        Walks the journal's ``step`` records in append order, claiming each
        one from the freshly built plan (:meth:`SelectionPlan.claim_step`)
        and completing it against the pooled session — which, having been
        restored from its snapshot, already holds the trained epochs, so
        ``ensure_epochs`` is a no-op and nothing retrains.  Steps whose
        ``(stage, epochs)`` don't match the current schedule position are
        skipped: they belong to an earlier submission under a different
        (since-raised) budget, and their training still flows in for free
        through the session snapshots.
        """
        if request.journal is None:
            return
        plan = request.plan
        schedule = plan.stage_schedule
        charged = 0
        trained = 0
        for record in request.journal.of_type("step"):
            if plan.done:
                break
            payload = record["payload"]
            stage = payload.get("stage")
            epochs = payload.get("epochs")
            if stage != plan.stage_index or epochs != schedule[plan.stage_index]:
                continue
            step = plan.claim_step(str(payload.get("model")))
            if step is None:
                continue  # filtered out / not recalled under this schedule
            view = plan.views[step.model]
            trained += view.entry.ensure_epochs(view.position + step.epochs)
            view.adopt(view.entry.session, advance=step.epochs)
            plan.complete(step)
            charged += step.epochs
        if charged:
            request.epochs_charged += charged
            request.epochs_replayed = charged
            self._pool.record_round(charged=charged, trained=trained)
            with self._lock:
                self._epochs_replayed += charged
        if plan.pruned:
            # Prunes re-derived while replaying journaled steps — the
            # resumed process reaches the same decisions the crashed one
            # journaled, without retraining (or recharging) stopped arms.
            with self._lock:
                self._prunes_replayed += len(plan.pruned)

    def _journal_append(
        self, request: SelectionRequest, record_type: str, payload: Dict[str, object]
    ) -> None:
        """Append one record to the request's journal (no-op without one).

        A failing disk degrades persistence, not the request: the write
        error is counted and the in-memory run continues.  Simulated
        crashes (:class:`~repro.persist.hooks.SimulatedCrash`) are
        :class:`BaseException` and still propagate.
        """
        if request.journal is None:
            return
        try:
            request.journal.append(record_type, payload)
        except OSError:
            with self._lock:
                self._journal_errors += 1

    def _expire(self) -> None:
        """Fail requests past their deadline (checked at round boundaries)."""
        now = time.monotonic()
        with self._lock:
            expired = [
                request
                for request in self._queue + self._active
                if request.deadline is not None and now > request.deadline
            ]
            for request in expired:
                if request in self._queue:
                    self._queue.remove(request)
                if request in self._active:
                    self._active.remove(request)
        for request in expired:
            self._fail(
                request,
                RequestTimeoutError(
                    f"request {request.id} ({request.target_name!r}) missed its "
                    "deadline"
                ),
            )

    def _order_active(self) -> List[SelectionRequest]:
        """Active requests in policy order for this round."""
        with self._lock:
            active = list(self._active)
            if self.config.policy == "deadline":
                # Earliest deadline first; requests without one run last,
                # in arrival order.
                active.sort(
                    key=lambda request: (
                        request.deadline if request.deadline is not None else float("inf"),
                        request.id,
                    )
                )
            else:  # fair_share
                if active:
                    offset = self._rr_offset % len(active)
                    active = active[offset:] + active[:offset]
                    self._rr_offset += 1
        return active

    def _select_steps(self) -> List[Tuple[SelectionRequest, TrainStep]]:
        """Claim up to ``epoch_budget`` epochs of runnable steps.

        Fair-share interleaves one step per request per pass; deadline
        drains the most urgent request's stage first.  A request whose
        next step would break its epoch quota fails here — before any
        budget is wasted on it.  An unbounded budget (``None``) drains
        every runnable step of the round in one wave.
        """
        budget = (
            self.config.epoch_budget
            if self.config.epoch_budget is not None
            else float("inf")
        )
        chosen: List[Tuple[SelectionRequest, TrainStep]] = []
        active = self._order_active()
        exhausted: List[SelectionRequest] = []
        # fair_share hands out one step per request per pass; deadline
        # keeps claiming from the most urgent request until its stage (or
        # the budget) is exhausted before moving to the next.
        drain_request = self.config.policy == "deadline"
        progress = True
        while budget > 0 and progress:
            progress = False
            for request in active:
                if budget <= 0:
                    break
                while budget > 0:
                    if (
                        request in exhausted
                        or request.plan is None
                        or request.plan.done
                    ):
                        break
                    step = request.plan.claim_next()
                    if step is None:
                        break
                    if step.epochs > budget and chosen:
                        # Out of round budget; put it back for next round.
                        request.plan.release(step)
                        break
                    quota = request.epoch_quota
                    if (
                        quota is not None
                        and request.epochs_charged + step.epochs > quota
                    ):
                        request.plan.release(step)
                        # Refund the doomed request's steps already chosen
                        # this round: nothing of a failed request should
                        # train, and the freed budget goes to live
                        # requests instead.
                        refunded = [s for r, s in chosen if r is request]
                        if refunded:
                            chosen = [
                                (r, s) for r, s in chosen if r is not request
                            ]
                            for earlier in refunded:
                                request.plan.release(earlier)
                            freed = sum(s.epochs for s in refunded)
                            request.epochs_charged -= freed
                            budget += freed
                        exhausted.append(request)
                        break
                    chosen.append((request, step))
                    request.epochs_charged += step.epochs
                    budget -= step.epochs
                    progress = True
                    if not drain_request:
                        break
        for request in exhausted:
            with self._lock:
                if request in self._active:
                    self._active.remove(request)
            self._fail(
                request,
                BudgetExhaustedError(
                    f"request {request.id} ({request.target_name!r}) exceeded its "
                    f"epoch quota of {request.epoch_quota}"
                ),
            )
        return chosen

    def _execute(self, batch: Sequence[Tuple[SelectionRequest, TrainStep]]) -> None:
        """Run one round's training ops, deduplicated by pooled session.

        Steps of different requests can resolve to the same shared session;
        each underlying session is trained **once per round**, to the
        furthest epoch any step needs, and every step then completes
        against the recorded curve.  Ops with the same geometry (fusion
        signature, epoch position, round target) train as one
        stacked-kernel group when ``fused_training`` is on (see
        :mod:`repro.nn.batched`); the rest train one session at a time.
        """
        # Group steps by session entry: one training op per shared session.
        ops: Dict[int, Tuple[PooledSessionView, int]] = {}
        for request, step in batch:
            view = request.plan.views[step.model]
            entry_id = id(view.entry)
            target = view.position + step.epochs
            current = ops.get(entry_id)
            if current is None or target > current[1]:
                ops[entry_id] = (view, target)

        op_list = list(ops.values())
        trained_total = 0
        serial_singles = 0
        for kind, indices in self._partition_ops(op_list):
            if kind == "fused":
                trained_total += self._train_fused([op_list[i] for i in indices])
                continue
            view, target = op_list[indices[0]]
            trained = view.entry.ensure_epochs(target)
            trained_total += trained
            serial_singles += trained
        if serial_singles:
            with self._lock:
                self._serial_epochs += serial_singles

        charged_total = 0
        for request, step in batch:
            view = request.plan.views[step.model]
            view.adopt(view.entry.session, advance=step.epochs)
            charged_total += step.epochs
            if request.journal is not None:
                # Durability ordering: publish the session snapshot BEFORE
                # journaling the step, so every journaled step's training is
                # restorable.  A crash between the two leaves a snapshot
                # ahead of the journal — harmless, since views only read
                # the curve prefix at their own position.
                try:
                    self._persist.save_session(
                        view.entry.key,
                        self._pool.tuner_fingerprint,
                        view.entry.session,
                    )
                except OSError:
                    with self._lock:
                        self._journal_errors += 1
            stages_before = len(request.plan.stages)
            prunes_before = len(request.plan.pruned)
            request.plan.complete(step)
            self._journal_append(
                request,
                "step",
                {"model": step.model, "stage": step.stage, "epochs": step.epochs},
            )
            for stage_record in request.plan.stages[stages_before:]:
                self._journal_append(request, "stage", encode_stage(stage_record))
            if len(request.plan.stages) > stages_before:
                request._notify()
            # Early-stop decisions are journaled like stage transitions: a
            # resumed run re-derives them deterministically from the
            # replayed curves, and the records make the prune set auditable
            # without replaying.
            new_prunes = list(request.plan.pruned.items())[prunes_before:]
            if new_prunes:
                with self._lock:
                    self._arms_pruned += len(new_prunes)
                for model, prune_record in new_prunes:
                    self._journal_append(
                        request, "prune", {"model": model, **prune_record}
                    )
        # Dedup makes reuse explicit: epochs charged to requests minus
        # epochs actually trained this round is the pool's saving.
        self._pool.record_round(charged=charged_total, trained=trained_total)

    # ------------------------------------------------------------------ #
    # fused training
    # ------------------------------------------------------------------ #
    def _partition_ops(
        self, op_list: Sequence[Tuple[PooledSessionView, int]]
    ) -> List[Tuple[str, List[int]]]:
        """Split a round's deduplicated ops into fused stacks and singles.

        Ops whose sessions share a fusion signature, current epoch and
        round target form one ``("fused", indices)`` unit (stacked-kernel
        training); everything else — singletons, groups below
        :data:`~repro.nn.batched.FUSED_MIN_GROUP`, geometries a probe has condemned, sessions
        without a fusion surface — stays on the per-session path as
        ``("single", [index])`` units.
        """
        if not self.config.fused_training:
            return [("single", [index]) for index in range(len(op_list))]
        groups: Dict[Tuple, List[int]] = {}
        singles: List[int] = []
        for index, (view, target) in enumerate(op_list):
            session = view.entry.session
            signature = getattr(session, "fusion_signature", None)
            if signature is None or target <= session.epochs_trained:
                singles.append(index)
                continue
            key = (signature(), session.epochs_trained, target)
            groups.setdefault(key, []).append(index)
        with self._lock:
            verdicts = dict(self._fused_verdicts)
        units: List[Tuple[str, List[int]]] = []
        for key, indices in groups.items():
            if len(indices) >= FUSED_MIN_GROUP and verdicts.get(key[0], True):
                units.append(("fused", indices))
            else:
                units.extend(("single", [index]) for index in indices)
        units.extend(("single", [index]) for index in singles)
        return units

    def _train_fused(self, items: Sequence[Tuple[PooledSessionView, int]]) -> int:
        """Train one same-geometry unit with the stacked kernels.

        Takes ``(view, target)`` items and holds every member's entry lock
        (sorted by pool key, so concurrent fused units cannot deadlock)
        while the stacked engine advances the sessions.  Returns the epochs
        trained and updates the fused-training counters under
        ``self._lock``.

        Members that no longer align under the locks (another thread
        advanced their session since partitioning) fall back to
        ``ensure_epochs`` after the locks are released.
        """
        items = sorted(items, key=lambda item: item[0].entry.key)
        target = items[0][1]
        entries = [view.entry for view, _ in items]
        fallback = list(items)
        fused_items: List[Tuple[PooledSessionView, int]] = []
        advance = None
        for entry in entries:
            entry.lock.acquire()
        try:
            positions = [entry.session.epochs_trained for entry in entries]
            start = min(positions)
            fused_items = [
                item
                for item, position in zip(items, positions)
                if position == start and start < target
            ]
            if len(fused_items) >= FUSED_MIN_GROUP:
                sessions = [view.entry.session for view, _ in fused_items]
                try:
                    group = FusedSessionGroup(sessions)
                    probe = group.signature not in self._fused_verdicts
                    advance = group.advance(target - start, probe=probe)
                except ConfigurationError:
                    # Geometry looked fusable by signature but the stacked
                    # engine refused it (defensive) — per-session path.
                    advance = None
                else:
                    fallback = [item for item in items if item not in fused_items]
        finally:
            for entry in reversed(entries):
                entry.lock.release()
        serial = sum(view.entry.ensure_epochs(goal) for view, goal in fallback)
        with self._lock:
            self._serial_epochs += serial
            if advance is None:
                return serial
            if probe:
                self._fused_verdicts[group.signature] = not advance.delegated
            self._fused_groups += 1
            self._fused_sessions += len(fused_items)
            self._fused_epochs += advance.fused_epochs
            self._serial_epochs += advance.serial_epochs
            self._probe_epochs += advance.probe_epochs
            self._delegated_groups += int(advance.delegated)
            self._fused_largest_group = max(self._fused_largest_group, len(fused_items))
        return serial + (target - start) * len(fused_items)

    # ------------------------------------------------------------------ #
    # completion
    # ------------------------------------------------------------------ #
    def _make_terminal(self, request: SelectionRequest) -> bool:
        """Atomically claim the right to finish/fail ``request`` (once)."""
        with self._lock:
            if request._terminal:
                return False
            request._terminal = True
            return True

    def _finish(self, request: SelectionRequest) -> None:
        plan = request.plan
        if request.candidates is not None:
            result = plan.result
        else:
            result = plan.two_phase_result()
        if not self._make_terminal(request):
            return
        request.result = result
        if request.journal is not None:  # fixed-candidates runs never journal
            self._journal_append(
                request, "result", encode_result(result, schedule=plan.stage_schedule)
            )
        request.state = DONE
        request.finished_at = time.monotonic()
        self._release_views(request)
        with self._lock:
            self._completed += 1
        self._complete(request)

    def _finish_with(self, request: SelectionRequest, result: TwoPhaseResult) -> None:
        """Finish a request from a journaled result (no plan, no training)."""
        if not self._make_terminal(request):
            return
        request.result = result
        request.state = DONE
        request.finished_at = time.monotonic()
        self._release_views(request)
        with self._lock:
            self._completed += 1
        self._complete(request)

    def _fail(self, request: SelectionRequest, error: Exception) -> None:
        if not self._make_terminal(request):
            return
        request.error = error
        request.state = FAILED
        request.finished_at = time.monotonic()
        self._release_views(request)
        with self._lock:
            self._failed += 1
        self._complete(request)

    def _complete(self, request: SelectionRequest) -> None:
        """Run ``on_complete``, wake waiters, then call the listeners last.

        Accounting comes first, so neither a ``wait``/``result`` caller nor
        a stream's terminal event can overtake the service's counters.
        """
        try:
            if self._on_complete is not None:
                self._on_complete(request)
        finally:
            request._event.set()
            request._notify(terminal=True)

    def _count_internal_error(self) -> None:
        with self._lock:
            self._internal_errors += 1

    def _release_views(self, request: SelectionRequest) -> None:
        for view in request._views:
            self._pool.release(view)
        request._views = []

    # ------------------------------------------------------------------ #
    # recovery
    # ------------------------------------------------------------------ #
    def recover(self) -> List[SelectionRequest]:
        """Resubmit every journaled request still awaiting its result.

        Called once at startup (after a crash or orderly shutdown with
        work in flight).  Each pending journal of the current zoo version
        becomes a fresh submission under its journaled budget; admission
        then replays the journal, so the resumed run charges only what was
        never recorded.  Journals of other versions, other policies, or
        targets the current suite no longer knows are skipped — recovery
        must never be the thing that crashes a restart.  Returns the new
        handles in deterministic (journal path) order.
        """
        if self._persist is None:
            return []
        context = self._context_provider()
        current_schedule = [
            int(epochs) for epochs in context.fine_selection.stage_schedule()
        ]
        with self._lock:
            # A journal whose request is already live (e.g. recover() called
            # twice, or a client resubmitted the target) must not be
            # resubmitted — it is being driven to its result right now.
            live_keys = {
                request.plan_key
                for request in self._queue + self._active
                if request.plan_key is not None
            }
        recovered: List[SelectionRequest] = []
        for entry in pending_requests(self._persist, version_key=context.version_key):
            if entry.method != context.fine_selection.method or not entry.target:
                continue
            if entry.plan_key in live_keys:
                continue
            raise_to = (
                sum(entry.schedule)
                if entry.schedule and entry.schedule != current_schedule
                else None
            )
            # A journal without an extrapolation record ran exact — force
            # exact on resubmit (``False``, not ``None``) so a scheduler
            # whose *default* policy speculates still reopens the exact
            # journal under its original plan key, and vice versa.
            extrapolate: Union[bool, ExtrapolationConfig] = False
            if entry.extrapolation is not None:
                try:
                    extrapolate = ExtrapolationConfig(
                        enabled=True,
                        min_stages=int(entry.extrapolation["min_stages"]),
                        slack=float(entry.extrapolation["slack"]),
                        num_trends=int(entry.extrapolation["num_trends"]),
                    )
                except (KeyError, TypeError, ValueError):
                    # Unreadable mode record: leave the journal pending.
                    with self._lock:
                        self._recover_skipped += 1
                    logger.exception("recover skipped journal %s", entry.plan_key)
                    continue
            try:
                request = self.submit(
                    entry.target,
                    top_k=entry.top_k,
                    total_epochs=raise_to,
                    extrapolate=extrapolate,
                )
            except (SchedulerError, QueueFullError):
                break  # closed or saturated: remaining journals stay pending
            except Exception:  # noqa: BLE001 — e.g. target gone from the suite
                with self._lock:
                    self._recover_skipped += 1
                logger.exception("recover skipped journal %s", entry.plan_key)
                continue
            recovered.append(request)
        return recovered

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def load(self) -> Dict[str, int]:
        """Current queue depth and active-request count (heartbeat payload)."""
        with self._lock:
            return {"active": len(self._active), "queued": len(self._queue)}

    def stats(self) -> Dict[str, object]:
        """Scheduler counters plus the session pool's hit/reuse report."""
        with self._lock:
            report: Dict[str, object] = {
                "policy": self.config.policy,
                "max_concurrent": self.config.max_concurrent,
                "epoch_budget": self.config.epoch_budget,
                "queued": len(self._queue),
                "active": len(self._active),
                "completed": self._completed,
                "failed": self._failed,
                "internal_errors": self._internal_errors,
                "rounds": self._rounds,
                "arms_pruned": self._arms_pruned,
                "session_pool": self._pool.stats(),
                "train": {
                    "fused_training": self.config.fused_training,
                    "fused_groups": self._fused_groups,
                    "fused_sessions": self._fused_sessions,
                    "fused_epochs": self._fused_epochs,
                    "serial_epochs": self._serial_epochs,
                    "probe_epochs": self._probe_epochs,
                    "delegated_groups": self._delegated_groups,
                    "largest_group": self._fused_largest_group,
                    "verified_geometries": sum(
                        1 for verdict in self._fused_verdicts.values() if verdict
                    ),
                },
            }
            if self._persist is not None:
                report["persist"] = {
                    **self._persist.stats(),
                    "epochs_replayed": self._epochs_replayed,
                    "results_restored": self._results_restored,
                    "recalls_restored": self._recalls_restored,
                    "prunes_replayed": self._prunes_replayed,
                    "journal_errors": self._journal_errors,
                    "recover_skipped": self._recover_skipped,
                }
        return report

