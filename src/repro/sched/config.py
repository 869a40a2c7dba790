"""Configuration of the epoch-granular online scheduler.

None of these knobs exist in the paper — they are deployment policy for
serving Algorithm 1 under concurrent traffic, and none of them can change
*what* a request answers (results are bitwise-identical for every setting;
only latency, throughput and admission behaviour move).  See
``docs/serving.md`` for tuning guidance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.utils.exceptions import ConfigurationError

#: Scheduling policies accepted by :class:`SchedulerConfig`.
POLICIES = ("fair_share", "deadline")


@dataclass(frozen=True)
class SchedulerConfig:
    """Settings of one :class:`~repro.sched.scheduler.EpochScheduler`.

    Attributes
    ----------
    policy:
        ``"fair_share"`` (default) round-robins one epoch step per active
        request, so every request makes steady progress; ``"deadline"``
        drains the request with the earliest deadline first (requests
        without a deadline queue behind those with one, in arrival order).
    max_concurrent:
        Admitted requests training at once.  Admission control: requests
        beyond this wait in the queue; raising it increases session-reuse
        opportunities (more overlapping requests in flight) at the cost of
        per-request latency under contention.
    epoch_budget:
        Global bound on fine-tuning epochs dispatched per scheduling round
        (the ``epochs_in_flight`` budget).  This is the knob that shares
        the training capacity between requests: one round never trains
        more than this many epoch-steps, whatever the number of active
        requests.  ``None`` removes the bound — every round drains one
        full stage wave across the active requests, which is what a bulk
        batch (all requests submitted together, fairness irrelevant)
        wants: the fewest, fattest rounds.
    max_queue:
        Bound of the admission queue (waiting requests, excluding active
        ones).  ``submit`` raises
        :class:`~repro.utils.exceptions.QueueFullError` beyond it — the
        scheduler's backpressure signal.
    max_epochs_per_request:
        Per-request quota of *charged* fine-tuning epochs.  A request that
        would exceed it fails with
        :class:`~repro.utils.exceptions.BudgetExhaustedError` instead of
        training on.  ``None`` disables the quota.
    timeout_seconds:
        Default per-request deadline; a request still unfinished past it
        fails with :class:`~repro.utils.exceptions.RequestTimeoutError`
        at the next round boundary.  ``None`` disables timeouts (a
        ``submit``-time deadline still applies when given).
    fused_training:
        Train same-geometry sessions of one round as a single
        stacked-kernel group (:mod:`repro.nn.batched`) instead of one
        ``fit_epoch`` loop per session.  Like every knob here it cannot
        change results — the first fused epoch of each new geometry is
        verified bitwise against the serial oracle, and any divergence
        delegates the group back to the per-session path.
    fused_min_group:
        Smallest round group worth stacking; rounds with fewer
        same-geometry sessions than this run the plain per-session path
        (stacking a singleton only adds copying overhead).
    """

    policy: str = "fair_share"
    max_concurrent: int = 4
    epoch_budget: Optional[int] = 8
    max_queue: int = 64
    max_epochs_per_request: Optional[int] = None
    timeout_seconds: Optional[float] = None
    fused_training: bool = True
    fused_min_group: int = 2

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ConfigurationError(
                f"unknown scheduling policy {self.policy!r}; "
                f"expected one of {'/'.join(POLICIES)}"
            )
        if self.max_concurrent < 1:
            raise ConfigurationError("max_concurrent must be >= 1")
        if self.epoch_budget is not None and self.epoch_budget < 1:
            raise ConfigurationError("epoch_budget must be >= 1 when given")
        if self.max_queue < 1:
            raise ConfigurationError("max_queue must be >= 1")
        if self.max_epochs_per_request is not None and self.max_epochs_per_request < 1:
            raise ConfigurationError(
                "max_epochs_per_request must be >= 1 when given"
            )
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ConfigurationError("timeout_seconds must be positive when given")
        if self.fused_min_group < 2:
            raise ConfigurationError("fused_min_group must be >= 2")
