"""Artifact cache: content-hash-keyed memoisation of expensive matrices.

The offline phase of the paper (Eq. 1 similarity → distance conversion →
clustering) is a pure function of its inputs, so the library memoises its
matrices behind one process-wide :class:`~repro.cache.store.ArtifactCache`:

* similarity matrices — keyed by the performance matrix's content
  fingerprint plus the similarity method and ``top_k``;
* distance matrices — keyed by the similarity key they derive from.

Coarse-recall proxy scores are not cached here: each
:class:`~repro.core.recall.CoarseRecall` engine keeps its own table of
them.  :func:`proxy_score_key` (scorer name, model *weight* fingerprint,
target-task data fingerprint) still seeds each score's subsampling.

Because keys are content hashes, invalidation is automatic: change any
input and the old entry is simply never hit again.  See ``docs/caching.md``
for the full key catalogue and configuration story.

Environment variables
---------------------
``REPRO_CACHE``
    ``"off"``/``"0"``/``"false"`` disables the default cache entirely.
``REPRO_CACHE_DIR``
    Enables the persistent on-disk tier under the given directory: a
    :class:`~repro.store.MatrixStore`, so only arrays persist.
``REPRO_CACHE_MAX_ENTRIES``
    Bound of the in-memory LRU tier (default 64 artifacts).

Typical use::

    from repro import cache

    cache.configure(max_entries=128)          # resize the default cache
    stats = cache.cache_stats()["memory"]     # {'hits': ..., 'misses': ...}
    cache.clear_cache()                       # drop all cached artifacts
"""

from __future__ import annotations

import os
import threading
from typing import Optional, Union

from repro.cache.keys import (
    distance_key,
    fingerprint_array,
    fingerprint_bytes,
    fingerprint_matrix,
    fingerprint_model,
    fingerprint_task,
    fingerprint_text,
    plan_key,
    proxy_score_key,
    session_key,
    similarity_key,
    text_similarity_key,
)
from repro.cache.store import ArtifactCache, CacheStats, LRUCache

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "LRUCache",
    "cache_stats",
    "clear_cache",
    "configure",
    "distance_key",
    "fingerprint_array",
    "fingerprint_bytes",
    "fingerprint_matrix",
    "fingerprint_model",
    "fingerprint_task",
    "fingerprint_text",
    "get_cache",
    "plan_key",
    "proxy_score_key",
    "resolve_cache",
    "session_key",
    "similarity_key",
    "text_similarity_key",
]

#: Truthy spellings of "disable the cache" accepted by ``REPRO_CACHE``.
_OFF_VALUES = ("off", "0", "false", "no", "disabled")

_default_cache: Optional[ArtifactCache] = None
_default_lock = threading.Lock()


def _cache_from_env() -> ArtifactCache:
    enabled = os.environ.get("REPRO_CACHE", "on").lower() not in _OFF_VALUES
    disk_dir = os.environ.get("REPRO_CACHE_DIR") or None
    try:
        # Clamp to >= 1: LRUCache rejects smaller bounds, and failing lazily
        # deep inside the first cached computation would hide the bad env
        # var (REPRO_CACHE=off is the switch for "no caching").
        max_entries = max(1, int(os.environ.get("REPRO_CACHE_MAX_ENTRIES", "64")))
    except ValueError:
        max_entries = 64
    return ArtifactCache(max_entries=max_entries, disk_dir=disk_dir, enabled=enabled)


def get_cache() -> ArtifactCache:
    """Return the process-wide default :class:`ArtifactCache` (lazily built)."""
    global _default_cache
    with _default_lock:
        if _default_cache is None:
            _default_cache = _cache_from_env()
        return _default_cache


def configure(
    *,
    enabled: Optional[bool] = None,
    max_entries: Optional[int] = None,
    disk_dir: Optional[str] = None,
) -> ArtifactCache:
    """Replace the default cache with one built from the given settings.

    Unspecified settings fall back to the current defaults (environment
    variables included); existing cached entries are dropped.
    """
    global _default_cache
    with _default_lock:
        base = _default_cache if _default_cache is not None else _cache_from_env()
        new_enabled = base.enabled if enabled is None else bool(enabled)
        new_max = base.memory.max_entries if max_entries is None else int(max_entries)
        new_disk = (
            (str(base.disk.root) if base.disk is not None else None)
            if disk_dir is None
            else disk_dir
        )
        _default_cache = ArtifactCache(
            max_entries=new_max, disk_dir=new_disk, enabled=new_enabled
        )
        return _default_cache


def clear_cache() -> None:
    """Drop every entry of the default cache (no-op if never built)."""
    with _default_lock:
        if _default_cache is not None:
            _default_cache.clear()


def cache_stats() -> dict:
    """Per-tier statistics of the default cache."""
    return get_cache().stats_report()


CacheLike = Union[ArtifactCache, bool, None]


def resolve_cache(cache: CacheLike = None) -> Optional[ArtifactCache]:
    """Normalise a user-facing ``cache`` argument into a usable cache.

    ``None`` or ``True`` select the process default, ``False`` opts out of
    caching for this call, and an :class:`ArtifactCache` instance is used
    as-is.  A resolved-but-disabled cache behaves exactly like ``False``.
    """
    if cache is False:
        return None
    if cache is None or cache is True:
        resolved = get_cache()
    elif isinstance(cache, ArtifactCache):
        resolved = cache
    else:
        raise TypeError(f"cache must be an ArtifactCache, bool or None, got {cache!r}")
    return resolved if resolved.enabled else None
