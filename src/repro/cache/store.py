"""Cache stores: in-memory LRU, optional on-disk tier, and the facade.

Two layers, composed by :class:`ArtifactCache`:

* :class:`LRUCache` — thread-safe, bounded, in-memory; the hot tier every
  lookup hits first.  It holds any value.
* an optional :class:`~repro.store.MatrixStore` — the persistent tier,
  storing numpy arrays as ``.npy`` files; it survives process restarts so
  repeated experiment runs reuse the offline work.

:class:`ArtifactCache` is the facade the library talks to; it promotes disk
hits into memory and tracks :class:`~repro.store.matrix.CacheStats`.

Stored arrays are defensively copied and frozen (``writeable=False``) on
``put`` and copied again on ``get``, so no caller can corrupt a cached
artifact for later consumers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

import numpy as np

from repro.store.matrix import CacheStats, MatrixStore
from repro.utils.exceptions import ConfigurationError


def _freeze(value: Any) -> Any:
    """Copy-and-freeze arrays so cached payloads are immutable."""
    if isinstance(value, np.ndarray):
        frozen = value.copy()
        frozen.setflags(write=False)
        return frozen
    return value


def _thaw(value: Any) -> Any:
    """Return a caller-owned (writable) view of a cached payload."""
    if isinstance(value, np.ndarray):
        return value.copy()
    return value


class LRUCache:
    """Bounded, thread-safe, least-recently-used in-memory cache.

    Parameters
    ----------
    max_entries:
        Maximum number of artifacts kept; the least recently *used* entry
        is evicted first once the bound is reached.

    >>> cache = LRUCache(max_entries=2)
    >>> cache.put("a", 1.0); cache.put("b", 2.0)
    >>> cache.get("a")
    1.0
    >>> cache.put("c", 3.0)   # evicts "b", the least recently used
    >>> cache.get("b") is None
    True
    >>> sorted(cache.keys())
    ['a', 'c']
    """

    def __init__(self, max_entries: int = 64) -> None:
        if max_entries < 1:
            raise ConfigurationError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def get(self, key: str) -> Optional[Any]:
        """Return the cached value for ``key`` (or ``None``) and mark it hot."""
        with self._lock:
            if key not in self._entries:
                self.stats.record_miss()
                return None
            self._entries.move_to_end(key)
            self.stats.record_hit()
            return _thaw(self._entries[key])

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key``, evicting the coldest entry if full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = _freeze(value)
            self.stats.record_put()
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.record_eviction()

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self):
        """Snapshot of the cached keys (coldest first)."""
        with self._lock:
            return list(self._entries)

    def evict(self, key: str) -> bool:
        """Drop ``key`` if present; returns whether an entry was removed."""
        with self._lock:
            if key not in self._entries:
                return False
            del self._entries[key]
            self.stats.record_eviction()
            return True

    def evict_matching(self, fragment: str) -> int:
        """Drop every entry whose key contains ``fragment``; returns the count.

        Used by the zoo-refresh path to purge artifacts of a superseded
        repository version by their content-fingerprint component.
        """
        with self._lock:
            stale = [key for key in self._entries if fragment in key]
            for key in stale:
                del self._entries[key]
            self.stats.record_eviction(len(stale))
            return len(stale)

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        with self._lock:
            self._entries.clear()


class ArtifactCache:
    """Two-tier artifact cache used throughout the library.

    Parameters
    ----------
    max_entries:
        Bound of the in-memory LRU tier.
    disk_dir:
        Optional directory enabling the persistent tier, a
        :class:`~repro.store.MatrixStore` that holds arrays only.
    enabled:
        A disabled cache turns every ``get`` into a miss and every ``put``
        into a no-op, letting callers keep one unconditional code path.

    >>> cache = ArtifactCache(max_entries=8)
    >>> cache.get_or_compute("answer", lambda: 42.0)
    42.0
    >>> cache.get_or_compute("answer", lambda: 0.0)   # served from cache
    42.0
    >>> (cache.stats.hits, cache.stats.misses)
    (1, 1)
    """

    def __init__(
        self,
        *,
        max_entries: int = 64,
        disk_dir: Optional[Union[str, Path]] = None,
        enabled: bool = True,
    ) -> None:
        self.memory = LRUCache(max_entries=max_entries)
        self.disk = MatrixStore(disk_dir) if disk_dir is not None else None
        self.enabled = bool(enabled)

    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> CacheStats:
        """Statistics of the in-memory tier (the tier every lookup hits)."""
        return self.memory.stats

    def get(self, key: str) -> Optional[Any]:
        """Lookup ``key`` in memory, then on disk (promoting disk hits)."""
        if not self.enabled:
            return None
        value = self.memory.get(key)
        if value is not None:
            return value
        hit = self.disk.get(key) if self.disk is not None else None
        if hit is None:
            return None
        # Read the memmap into a plain array: a promoted np.memmap (its
        # copies are memmaps too) would look spilled on every later hit.
        value = np.array(hit)
        self.memory.put(key, value)
        return value

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` in every enabled tier.

        With a disk tier, ``value`` must be a numpy array
        (:class:`TypeError` otherwise, and no tier is written).
        """
        if not self.enabled:
            return
        if self.disk is not None:
            self.disk.put(key, value)
        self.memory.put(key, value)

    def get_or_compute(self, key: str, compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing and storing on miss."""
        value = self.get(key)
        if value is not None:
            return value
        value = compute()
        self.put(key, value)
        return value

    def evict(self, key: str) -> bool:
        """Drop ``key`` from every tier; returns whether any tier held it."""
        removed = self.memory.evict(key)
        if self.disk is not None:
            removed = self.disk.evict(key) or removed
        return removed

    def evict_matching(self, fragment: str) -> int:
        """Drop every entry (all tiers) whose key contains ``fragment``.

        This is the explicit-invalidation path of the incremental zoo
        refresh: artifacts of a superseded repository version are purged by
        their content-fingerprint component instead of lingering until LRU
        pressure ages them out.  Returns the number of memory-tier entries
        removed.
        """
        count = self.memory.evict_matching(fragment)
        if self.disk is not None:
            self.disk.evict_matching(fragment)
        return count

    def clear(self) -> None:
        """Drop every entry from every tier (statistics are kept)."""
        self.memory.clear()
        if self.disk is not None:
            self.disk.clear()

    def stats_report(self) -> Dict[str, Dict[str, float]]:
        """Per-tier statistics snapshot."""
        report = {"memory": self.memory.stats.as_dict()}
        if self.disk is not None:
            report["disk"] = self.disk.stats.as_dict()
        return report
