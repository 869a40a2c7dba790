"""Exception hierarchy for the ``repro`` package.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class at an application boundary.
"""


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """Raised when a configuration object or parameter is invalid."""


class DataError(ReproError):
    """Raised when a dataset, matrix or array has an invalid shape/content."""


class SelectionError(ReproError):
    """Raised when a model-selection run cannot proceed.

    Typical causes: an empty candidate pool, a performance matrix that does
    not cover the requested models, or inconsistent convergence records.
    """


class HubError(ReproError):
    """Raised when a model hub lookup fails (unknown model or dataset)."""


class SchedulerError(ReproError):
    """Base class for epoch-scheduler failures (see :mod:`repro.sched`)."""


class QueueFullError(SchedulerError):
    """Raised when the scheduler's bounded admission queue rejects a request.

    This is the scheduler's backpressure signal: callers should retry
    later, shed load, or raise ``max_queue``.
    """


class BudgetExhaustedError(SchedulerError):
    """Raised when a request exceeds its per-request epoch quota."""


class RequestTimeoutError(SchedulerError):
    """Raised when a request misses its deadline before completing."""


class RateLimitError(SchedulerError):
    """Raised when a tenant exceeds its admission rate limit.

    The router's multi-tenant admission controller emits this as the
    structured ``rate_limited`` error; like :class:`QueueFullError` it is
    a fail-fast backpressure signal, not a fatal condition.
    """


class InternalError(SchedulerError):
    """Raised on a request when a bug, not the request, stopped it.

    The scheduler's round guard and the router's relay fail the requests
    an unexpected exception touched with this error (structured code
    ``internal``) instead of leaving them to wait forever; the original
    exception is logged where it was caught.
    """


class WorkerLostError(SchedulerError):
    """Raised when a routed request's worker died and could not be replaced.

    Requests normally survive worker death transparently (the supervisor
    restarts the worker and the router resubmits against the replayed
    journal); this error is the terminal fallback when the replacement
    itself cannot be reached.
    """
