"""Destinations of the offline phase's ``(n, n)`` matrices.

The Eq. 1 similarity writer (:mod:`repro.core.similarity`) and the
``d = 1 - s`` conversion (:mod:`repro.cluster.distance`) each compute one
content-keyed matrix; a *sink* decides where it lives.  An
:class:`ArraySink` returns a dense array, read from and memoised in an
artifact cache; a :class:`StoreSink` publishes a read-only memmap in a
:class:`~repro.store.MatrixStore`.  Both carry the in-flight byte budget
and the executor the writer streams its tiles with, so the computation is
written once and the sink alone fixes the memory policy.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.parallel.executor import Executor, SerialExecutor
from repro.store.matrix import MatrixStore


class ArraySink:
    """Dense in-RAM destination, memoised in ``cache`` when one is given.

    Tiles run serially: a forked worker's writes into a private array
    would never reach the parent.
    """

    def __init__(self, cache=None, *, budget_bytes: int) -> None:
        self.cache = cache
        self.budget_bytes = budget_bytes
        self.executor: Executor = SerialExecutor()
        self.tile_rows: Optional[int] = None

    @property
    def keyed(self) -> bool:
        """Whether lookups and commits need the content key."""
        return self.cache is not None

    def lookup(self, key: Optional[str], n: int) -> Optional[np.ndarray]:
        """The memoised matrix under ``key``, or ``None``."""
        return self.cache.get(key) if self.cache is not None else None

    def write(self, key: Optional[str], n: int, fill: Callable[[np.ndarray], None]) -> np.ndarray:
        """Fill a fresh ``(n, n)`` array and memoise it under ``key``."""
        out = np.empty((n, n))
        fill(out)
        if self.cache is not None:
            self.cache.put(key, out)
        return out


class StoreSink:
    """Memory-mapped destination published atomically in a matrix store.

    A stored matrix of the right shape is returned as is.  On a store miss,
    a dense entry of ``memory`` under the same key is written through to
    the store, so the result is memmapped whichever path computed it.  The
    written matrix is never copied into ``memory``.
    """

    def __init__(
        self,
        store: MatrixStore,
        *,
        budget_bytes: int,
        memory=None,
        executor: Optional[Executor] = None,
        tile_rows: Optional[int] = None,
    ) -> None:
        self.store = store
        self.budget_bytes = budget_bytes
        self.memory = memory
        self.executor: Executor = executor or SerialExecutor()
        self.tile_rows = tile_rows

    keyed = True

    def lookup(self, key: str, n: int) -> Optional[np.ndarray]:
        """The stored (or written-through) matrix under ``key``, or ``None``."""
        existing = self.store.open(key)
        if existing is not None and existing.shape == (n, n):
            return existing
        cached = self.memory.get(key) if self.memory is not None else None
        if cached is None:
            return None

        def copy(out: np.ndarray) -> None:
            out[:] = cached

        return self.write(key, n, copy)

    def write(self, key: str, n: int, fill: Callable[[np.ndarray], None]) -> np.ndarray:
        """Fill a writable ``(n, n)`` memmap and publish it; abort on failure."""
        writer = self.store.create(key, (n, n))
        try:
            fill(writer.array)
            return writer.commit()
        except BaseException:
            writer.abort()
            raise
