"""Parallel-execution configuration.

:class:`ParallelConfig` is the single knob every parallel hot path reads:
the coarse-recall proxy loop and the training rounds of the
:class:`~repro.sched.scheduler.EpochScheduler` (which run every
selection: single, batched and served).  It names a backend
(``serial``, ``thread`` or ``process``) and a worker count, and parses the
compact ``"backend[:workers]"`` spec used by the CLI and the
``REPRO_PARALLEL`` environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.utils.exceptions import ConfigurationError

#: Backends understood by :func:`repro.parallel.executor.get_executor`.
BACKENDS = ("serial", "thread", "process")

#: Environment variable providing the process-wide default spec.
PARALLEL_ENV_VAR = "REPRO_PARALLEL"


@dataclass(frozen=True)
class ParallelConfig:
    """How the online phases spread work over workers.

    Attributes
    ----------
    backend:
        ``"serial"`` (default — no concurrency), ``"thread"`` (a thread
        pool; NumPy releases the GIL in its C kernels) or ``"process"``
        (fork-based worker processes; the strongest isolation and speedup).
    max_workers:
        Worker count; ``None`` resolves to ``os.cpu_count()`` capped at
        :attr:`DEFAULT_WORKER_CAP` workers.  Ignored by the serial backend.

    >>> ParallelConfig.from_spec("process:4")
    ParallelConfig(backend='process', max_workers=4)
    >>> ParallelConfig().is_parallel
    False
    """

    backend: str = "serial"
    max_workers: Optional[int] = None

    #: Upper bound applied when ``max_workers`` is left unset.
    DEFAULT_WORKER_CAP = 8

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown parallel backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ConfigurationError("max_workers must be >= 1 when given")

    # ------------------------------------------------------------------ #
    @property
    def is_parallel(self) -> bool:
        """Whether this configuration uses more than one worker."""
        return self.backend != "serial" and self.resolved_workers() > 1

    def resolved_workers(self) -> int:
        """Concrete worker count (1 for the serial backend)."""
        if self.backend == "serial":
            return 1
        if self.max_workers is not None:
            return int(self.max_workers)
        return max(1, min(os.cpu_count() or 1, self.DEFAULT_WORKER_CAP))

    # ------------------------------------------------------------------ #
    @classmethod
    def from_spec(cls, spec: Optional[str]) -> "ParallelConfig":
        """Parse a ``"backend[:workers]"`` spec (e.g. ``"thread:4"``).

        ``None`` and ``""`` mean serial execution; worker counts are
        optional (``"process"`` alone uses the resolved CPU default).
        """
        if spec is None or spec == "":
            return cls()
        text = spec.strip().lower()
        backend, separator, workers = text.partition(":")
        if backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown parallel backend {backend!r} in spec {spec!r}; "
                f"expected one of {BACKENDS}"
            )
        if not separator:
            return cls(backend=backend)
        if not workers.isdigit():
            raise ConfigurationError(
                f"invalid worker count {workers!r} in spec {spec!r}"
            )
        try:
            count = int(workers)
        except ValueError:
            raise ConfigurationError(
                f"invalid worker count {workers!r} in spec {spec!r}"
            ) from None
        return cls(backend=backend, max_workers=count)

    @classmethod
    def from_env(cls, default: Optional[str] = None) -> "ParallelConfig":
        """Build the config from ``REPRO_PARALLEL`` (or ``default`` if unset)."""
        return cls.from_spec(os.environ.get(PARALLEL_ENV_VAR, default))

    def spec(self) -> str:
        """Compact ``backend[:workers]`` representation (inverse of ``from_spec``)."""
        if self.backend == "serial":
            return "serial"
        if self.max_workers is None:
            return self.backend
        return f"{self.backend}:{self.max_workers}"
