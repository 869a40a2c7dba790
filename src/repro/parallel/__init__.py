"""Parallel execution subsystem: one config, three interchangeable backends.

The online phases of the two-phase pipeline are embarrassingly parallel at
two granularities — per-representative proxy scoring in coarse recall, and
the per-session training ops of each
:class:`~repro.sched.scheduler.EpochScheduler` round (which spans every
request in flight, so batched selection fans out there too).  This package
supplies the executor abstraction those hot paths share:

* :class:`~repro.parallel.config.ParallelConfig` — backend + worker count,
  parsed from ``"backend[:workers]"`` specs (CLI ``--parallel``,
  ``REPRO_PARALLEL`` environment variable).
* :class:`~repro.parallel.executor.SerialExecutor`,
  :class:`~repro.parallel.executor.ThreadExecutor`,
  :class:`~repro.parallel.executor.ProcessExecutor` — all exposing an
  order-preserving :meth:`~repro.parallel.executor.Executor.map`, so the
  parallel and serial paths return **identical** results.
* :func:`~repro.parallel.executor.get_executor` — the resolver used by
  :func:`repro.core.batch.build_phase_engines` and friends.

See ``docs/parallelism.md`` for backend guidance and tuning.
"""

from repro.parallel.config import BACKENDS, PARALLEL_ENV_VAR, ParallelConfig
from repro.parallel.executor import (
    Executor,
    ExecutorLike,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    get_executor,
)

__all__ = [
    "BACKENDS",
    "PARALLEL_ENV_VAR",
    "ParallelConfig",
    "Executor",
    "ExecutorLike",
    "ProcessExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "get_executor",
]
