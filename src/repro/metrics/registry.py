"""Registry resolving proxy scorers by name.

The coarse-recall configuration refers to its proxy score by a string
(``"leep"`` in the paper); the registry turns that string into a scorer
instance and lets downstream users plug in custom scorers without touching
the core pipeline.

:class:`KeySeededScorer` wraps any scorer so its subsampling is seeded from
the score's content key, making every score a pure function of (scorer,
model, target data); coarse recall relies on that to keep one table of
scores per engine (see :mod:`repro.core.recall`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.cache import fingerprint_model, fingerprint_task, proxy_score_key
from repro.metrics.base import ProxyScorer
from repro.metrics.hscore import HScoreScorer
from repro.metrics.knn import KnnScorer
from repro.metrics.leep import LeepScorer
from repro.metrics.logme import LogMeScorer
from repro.metrics.nce import NceScorer
from repro.utils.exceptions import ConfigurationError
from repro.utils.rng import stable_hash

_FACTORIES: Dict[str, Callable[[], ProxyScorer]] = {
    "leep": LeepScorer,
    "nce": NceScorer,
    "logme": LogMeScorer,
    "hscore": HScoreScorer,
    "knn": KnnScorer,
}


def register_scorer(name: str, factory: Callable[[], ProxyScorer], *, overwrite: bool = False) -> None:
    """Register a custom proxy-scorer factory under ``name``."""
    if name in _FACTORIES and not overwrite:
        raise ConfigurationError(f"scorer {name!r} is already registered")
    _FACTORIES[name] = factory


def available_scorers() -> List[str]:
    """Names of every registered scorer."""
    return sorted(_FACTORIES)


class KeySeededScorer(ProxyScorer):
    """Wrapper seeding another scorer's subsampling from the score's content key.

    The seed is derived from :func:`~repro.cache.proxy_score_key` — scorer
    name, model *weight* fingerprint, target-task data fingerprint, split
    and sample cap — so a score is a pure function of (model, task) and
    independent of evaluation order.  The ``rng`` argument passed by callers
    is ignored and the caller's random stream is never consumed.  That
    purity is what lets coarse recall fan scoring out over any executor
    backend and keep each score in its per-engine table.

    >>> scorer = KeySeededScorer(LeepScorer())
    >>> scorer.name
    'leep'
    """

    def __init__(self, inner: ProxyScorer) -> None:
        self.inner = inner
        self.name = inner.name
        self.uses_source_posterior = inner.uses_source_posterior

    def score(
        self,
        model,
        task,
        *,
        split: str = "train",
        max_samples: Optional[int] = None,
        rng=None,
    ) -> float:
        """Proxy score of ``model`` on ``task``, subsampled under a key-derived seed."""
        key = proxy_score_key(
            self.inner.name,
            fingerprint_model(model),
            fingerprint_task(task, split=split),
            split=split,
            max_samples=max_samples,
        )
        return float(
            self.inner.score(
                model,
                task,
                split=split,
                max_samples=max_samples,
                rng=np.random.default_rng(stable_hash(key)),
            )
        )

    def score_arrays(self, inputs, labels, *, num_classes: int) -> float:
        """Delegate raw-array scoring to the wrapped scorer."""
        return self.inner.score_arrays(inputs, labels, num_classes=num_classes)


def get_scorer(name: str, *, deterministic: bool = False) -> ProxyScorer:
    """Instantiate the scorer registered under ``name``.

    With ``deterministic=True`` the scorer is wrapped in
    :class:`KeySeededScorer`, which derives any subsampling seed from the
    content key instead of the caller's RNG — making scores independent of
    evaluation *order*, which is what lets the coarse-recall phase fan
    proxy scoring out over threads or processes and stay bitwise identical
    to the serial path.
    """
    if name not in _FACTORIES:
        raise ConfigurationError(
            f"unknown proxy scorer {name!r}; available: {available_scorers()}"
        )
    scorer = _FACTORIES[name]()
    return KeySeededScorer(scorer) if deterministic else scorer
