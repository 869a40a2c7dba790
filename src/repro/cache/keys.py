"""Content-hash fingerprints and cache-key construction.

Every cached artifact is keyed by a *content fingerprint* of its inputs,
never by object identity: two :class:`~repro.core.performance.PerformanceMatrix`
instances with identical names and values map to the same key, and any
change to the underlying data (a new checkpoint, a re-run offline phase)
automatically produces a fresh key.  Invalidation is therefore implicit —
stale entries are simply never looked up again and age out of the LRU tier.

Keys are short printable strings of the form ``"<kind>:<param>=...:<hash>"``
so they can double as on-disk file names (see
:class:`~repro.store.MatrixStore`).
"""

from __future__ import annotations

import hashlib
import weakref
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.utils.exceptions import DataError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.performance import PerformanceMatrix
    from repro.data.tasks import ClassificationTask
    from repro.zoo.models import PretrainedModel

#: Number of hex digits kept from the SHA-256 digest.  64 bits of digest
#: make accidental collisions vanishingly unlikely at any realistic cache
#: size while keeping keys short enough for file names and log lines.
_DIGEST_CHARS = 16

#: Field separator inside hashed payloads — a control character that cannot
#: appear in model/dataset names, so ``["ab", "c"]`` and ``["a", "bc"]``
#: hash differently.
_SEP = "\x1f"


def fingerprint_bytes(payload: bytes) -> str:
    """Short SHA-256 hex digest of ``payload``.

    >>> fingerprint_bytes(b"hello")
    '2cf24dba5fb0a30e'
    """
    return hashlib.sha256(payload).hexdigest()[:_DIGEST_CHARS]


def fingerprint_text(*parts: str) -> str:
    """Fingerprint of a sequence of strings (order-sensitive)."""
    joined = _SEP.join(parts)
    return fingerprint_bytes(joined.encode("utf-8"))


def fingerprint_array(array: np.ndarray) -> str:
    """Fingerprint of a numpy array's dtype, shape and contents.

    >>> import numpy as np
    >>> a = np.arange(6.0).reshape(2, 3)
    >>> fingerprint_array(a) == fingerprint_array(a.copy())
    True
    >>> fingerprint_array(a) == fingerprint_array(a.T)
    False
    """
    arr = np.ascontiguousarray(array)
    header = f"{arr.dtype.str}{_SEP}{arr.shape}{_SEP}".encode("utf-8")
    return fingerprint_bytes(header + arr.tobytes())


def fingerprint_matrix(matrix: "PerformanceMatrix") -> str:
    """Content fingerprint of a :class:`PerformanceMatrix`.

    Covers the dataset names, model names and the accuracy values — the
    exact inputs of the Eq. 1 similarity.  Learning curves are deliberately
    excluded: they do not influence similarity/distance matrices, so two
    matrices differing only in curves share cached artifacts.
    """
    names = fingerprint_text(*matrix.dataset_names, _SEP, *matrix.model_names)
    return fingerprint_text(names, fingerprint_array(matrix.values))


#: Per-task fingerprint memo (task object -> split -> fingerprint).  Scoring
#: one task against many models re-fingerprints the same split repeatedly;
#: task data is immutable once built, so hashing it once per object is safe.
_TASK_FINGERPRINTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def fingerprint_task(task: "ClassificationTask", *, split: str = "train") -> str:
    """Content fingerprint of a classification task's identity and data.

    Hashes the task name, modality, class count and the features/labels of
    ``split`` — everything a proxy scorer consumes.  The split must match
    the one the consumer reads (proxy scores default to ``"train"``) so a
    re-split task with identical training data but different validation
    data fingerprints differently for ``split="val"``.  ``split="all"``
    hashes all three splits: the identity of anything that trains on the
    task *and* scores it, such as a fine-tuning session or a plan journal.
    Fingerprints are memoised per task object (tasks are immutable once
    built), so scoring one task against a whole repository hashes its data
    only once.
    """
    memo: Dict[str, str] = _TASK_FINGERPRINTS.setdefault(task, {})
    if split in memo:
        return memo[split]
    spec = task.spec
    splits = {"train": task.train, "val": task.val, "test": task.test}
    if split == "all":
        chosen = list(splits.values())
    elif split in splits:
        chosen = [splits[split]]
    else:
        raise DataError(f"unknown split {split!r}; expected train/val/test/all")
    parts = [spec.name, spec.modality, str(spec.num_classes), split]
    for data in chosen:
        parts += [fingerprint_array(data.features), fingerprint_array(data.labels)]
    fingerprint = fingerprint_text(*parts)
    memo[split] = fingerprint
    return fingerprint


def fingerprint_model(model: "PretrainedModel") -> str:
    """Content fingerprint of a simulated checkpoint's behaviour.

    Covers the name plus everything that determines the encoder's output —
    the concept gains, the projection weights and the per-input noise key —
    so two hubs built with different seeds never share a proxy-score key
    even though their checkpoints carry the same names.
    """
    return fingerprint_text(
        model.name,
        model.modality,
        str(model._noise_key),
        fingerprint_array(model.concept_gains),
        fingerprint_array(model.projection),
    )


# --------------------------------------------------------------------------- #
# Key constructors — one per cached artifact kind.
# --------------------------------------------------------------------------- #
def similarity_key(
    matrix: "PerformanceMatrix", *, method: str = "performance", top_k: int = 5
) -> str:
    """Cache key of a model-similarity matrix."""
    return f"sim:{method}:k={top_k}:{fingerprint_matrix(matrix)}"


def text_similarity_key(model_cards: dict) -> str:
    """Cache key of a text-baseline similarity matrix (model-card content)."""
    parts = [part for name in model_cards for part in (name, model_cards[name])]
    return f"sim:text-cards:{fingerprint_text(*parts)}"


def distance_key(similarity_cache_key: str) -> str:
    """Cache key of the distance matrix derived from a cached similarity."""
    return f"dist:{similarity_cache_key}"


def session_key(
    zoo_version: str,
    model_fingerprint: str,
    task_fingerprint: str,
    *,
    epochs: Optional[int] = None,
) -> str:
    """Key of one fine-tuning session lineage (or checkpoint) in a pool.

    :class:`repro.sched.pool.SessionPool` memoises partially-trained
    fine-tuning sessions under the epoch-free form of this key — a session
    advances in place, so the entry always holds the *latest* checkpoint
    of the ``(zoo_version, model, task)`` lineage.  With ``epochs`` the key
    names one specific checkpoint (``zoo_version, model, task-fingerprint,
    epochs_trained``), which is how pool entries are reported in stats and
    logs.  ``zoo_version`` is part of the identity so a zoo refresh
    implicitly invalidates every session of the superseded version.
    """
    base = f"session:zoo={zoo_version}:{model_fingerprint}:{task_fingerprint}"
    if epochs is None:
        return base
    return f"{base}:e={epochs}"


def plan_key(
    zoo_version: str,
    task_fingerprint: str,
    *,
    method: str,
    tuner_fingerprint: str,
    top_k: Optional[int] = None,
) -> str:
    """Key of one selection request's persisted plan journal.

    Identifies the request by everything that determines its answer: the
    zoo version (candidate set and offline artifacts), the target task's
    data fingerprint, the selection method and the ``top_k`` recall width,
    plus a fingerprint of the fine-tuner configuration (two deployments
    with different learning rates must never share journals).  The stage
    *schedule* is deliberately excluded: raising a finished request's
    epoch budget must reopen the same journal so the longer run continues
    from the journaled rungs instead of restarting.
    """
    return (
        f"plan:zoo={zoo_version}:{method}:k={top_k}:"
        f"{tuner_fingerprint}:{task_fingerprint}"
    )


def proxy_score_key(
    scorer_name: str,
    model_fingerprint: str,
    task_fingerprint: str,
    *,
    split: str = "train",
    max_samples: Optional[int] = None,
) -> str:
    """Content key of one proxy (transferability) score.

    :class:`~repro.metrics.registry.KeySeededScorer` seeds the score's
    subsampling from it.  ``model_fingerprint`` should come from
    :func:`fingerprint_model` so the key tracks the checkpoint's weights,
    not just its name.
    """
    return (
        f"proxy:{scorer_name}:{split}:n={max_samples}:"
        f"{model_fingerprint}:{task_fingerprint}"
    )
