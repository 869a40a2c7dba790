"""Epoch-granular scheduling of concurrent online selection requests.

The subsystem behind a production deployment of the paper's online phase:
many in-flight selection requests share fine-tuning epochs and
partially-trained sessions instead of each serially re-training the same
``(model, task)`` stages.

* :class:`~repro.sched.scheduler.EpochScheduler` — multiplexes the
  :class:`~repro.core.plan.SelectionPlan` state machines of many requests
  over a shared per-round epoch budget, with fair-share or deadline
  ordering, admission control and per-request quotas/deadlines.
* :class:`~repro.sched.pool.SessionPool` — memoises fine-tuning sessions
  by ``(zoo_version, model, task)`` (:func:`repro.cache.session_key`), so
  concurrent and repeated requests reuse each other's partially-trained
  checkpoints.
* :class:`~repro.sched.config.SchedulerConfig` — the deployment knobs.

The scheduler is the only engine that trains a selection plan: single,
batched and served selections, and the baseline policies' own ``run``, all
go through it.  Scheduling never changes results — a request's outcome is
bitwise-identical to the blocking stage-by-stage loop — only cost and
latency.  See ``docs/serving.md``.
"""

from repro.sched.config import POLICIES, SchedulerConfig
from repro.sched.pool import PoolEntry, PooledSessionView, SessionPool
from repro.sched.scheduler import (
    EpochScheduler,
    SchedulerContext,
    SelectionRequest,
)

__all__ = [
    "POLICIES",
    "SchedulerConfig",
    "PoolEntry",
    "PooledSessionView",
    "SessionPool",
    "EpochScheduler",
    "SchedulerContext",
    "SelectionRequest",
]
