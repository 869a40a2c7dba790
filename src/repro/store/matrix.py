"""Content-addressed matrix store: the library's one on-disk ``.npy`` tier.

A :class:`MatrixStore` is a directory of ``.npy`` files, one per matrix,
addressed by the **same content-hash cache keys** the in-memory
:mod:`repro.cache` uses (``sim:performance:k=5:<fingerprint>`` and friends).
It serves two callers: the out-of-core offline phase spills its ``(n, n)``
matrices here, and :class:`~repro.cache.store.ArtifactCache` uses a store
as its persistent disk tier.  Because keys are content fingerprints, the
store inherits the cache's invalidation story: a changed input produces a
fresh key, and stale files are purged explicitly by fingerprint fragment
(:meth:`MatrixStore.evict_matching`, the same hook the zoo-refresh path
calls on the in-memory tier).

Matrices are written through a :class:`MatrixWriter` — a writable
:class:`numpy.memmap` over a writer-unique temporary file, published with an
atomic :func:`os.replace` on :meth:`~MatrixWriter.commit` — and read back as
read-only memmaps (:meth:`MatrixStore.get`).  Row *tiles* of an open matrix
are served on demand (:func:`iter_row_blocks`): a slice of a memmap touches
only the pages it covers, so a reader holding an ``(n, n)`` similarity
matrix open costs RAM proportional to the rows it actually visits, not to
``n^2``.

Concurrent tile writers are safe by construction: every tile thread writes
disjoint entries of one shared memmap object, which the writer flushes on
commit.

Every in-progress file — a writer's, or a :class:`ScratchMatrix` — carries
the writer-unique ``.tmp-<pid>-<thread>`` suffix, so a process killed
mid-write leaves only files that :func:`sweep_stale_temp_files` reclaims
when the directory is next opened.
"""

from __future__ import annotations

import os
import re
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

import numpy as np

from repro.utils.exceptions import ConfigurationError, DataError

#: Default rows per on-demand tile when iterating a stored matrix.
DEFAULT_TILE_ROWS = 256

#: Characters allowed in on-disk file names derived from cache keys.
_UNSAFE_FILENAME = re.compile(r"[^A-Za-z0-9_.=-]")

#: Writer-unique temp suffix appended before an atomic publish:
#: ``<name>.tmp-<pid>-<thread>``.
_TMP_PATTERN = re.compile(r"\.tmp-(\d+)-\d+$")


def _writer_suffix() -> str:
    """The ``.tmp-<pid>-<thread>`` suffix of this writer's temp files."""
    return f".tmp-{os.getpid()}-{threading.get_ident()}"


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (conservatively true on EPERM)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def sweep_stale_temp_files(directory: Union[str, Path]) -> int:
    """Remove orphaned ``*.tmp-<pid>-<tid>`` files of dead writers.

    A writer killed between creating its temp file and the atomic
    :func:`os.replace` publish leaves the temp file behind forever; this
    sweep reclaims them.  Temp files of still-running processes are left
    alone — a concurrent writer sharing the directory may be mid-publish,
    and its eventual replace is atomic.  Returns the number removed.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return 0
    removed = 0
    for path in directory.iterdir():
        match = _TMP_PATTERN.search(path.name)
        if match is None:
            continue
        if _pid_alive(int(match.group(1))):
            continue
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass  # racing sweeper/writer; the file is gone or owned
    return removed


@dataclass
class CacheStats:
    """Hit/miss/put/eviction counters of one cache tier or store.

    >>> stats = CacheStats()
    >>> stats.hits, stats.misses
    (0, 0)
    >>> stats.record_miss(); stats.record_hit()
    >>> stats.hit_rate
    0.5
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0

    def record_hit(self) -> None:
        """Count one successful lookup."""
        self.hits += 1

    def record_miss(self) -> None:
        """Count one failed lookup."""
        self.misses += 1

    def record_put(self) -> None:
        """Count one store."""
        self.puts += 1

    def record_eviction(self, count: int = 1) -> None:
        """Count ``count`` evictions."""
        self.evictions += count

    @property
    def lookups(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never queried)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict snapshot for logging/reporting."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


def iter_row_blocks(
    num_rows: int, block_rows: int
) -> Iterator[Tuple[int, int]]:
    """Yield ``(start, stop)`` row ranges covering ``num_rows``.

    >>> list(iter_row_blocks(5, 2))
    [(0, 2), (2, 4), (4, 5)]
    """
    if block_rows < 1:
        raise ConfigurationError("block_rows must be >= 1")
    for start in range(0, num_rows, block_rows):
        yield start, min(start + block_rows, num_rows)


class MatrixWriter:
    """One in-progress matrix: a writable memmap published atomically.

    Obtained from :meth:`MatrixStore.create`.  ``array`` is the writable
    ``(rows, cols)`` memmap; fill it (concurrently, in disjoint row ranges)
    and call :meth:`commit` to flush and atomically publish the file under
    its final name, or :meth:`abort` to discard it.
    """

    def __init__(self, tmp_path: Path, final_path: Path, shape, dtype) -> None:
        self.tmp_path = tmp_path
        self.final_path = final_path
        self.array = np.lib.format.open_memmap(
            tmp_path, mode="w+", dtype=np.dtype(dtype), shape=tuple(shape)
        )

    def commit(self) -> np.ndarray:
        """Flush, publish under the final name and return a read-only map."""
        self.array.flush()
        # Drop the writable mapping before the rename so no stale handle
        # keeps writing into the published file.
        del self.array
        os.replace(self.tmp_path, self.final_path)
        return np.load(self.final_path, mmap_mode="r")

    def abort(self) -> None:
        """Discard the in-progress file."""
        if hasattr(self, "array"):
            del self.array
        self.tmp_path.unlink(missing_ok=True)


class MatrixStore:
    """Directory of memory-mapped matrices keyed by cache keys.

    Parameters
    ----------
    root:
        Directory holding the ``.npy`` files (created on demand; a leading
        ``~`` is expanded to the user's home directory).

    >>> import numpy as np, tempfile
    >>> store = MatrixStore(tempfile.mkdtemp())
    >>> writer = store.create("sim:performance:k=5:demo", (2, 2))
    >>> writer.array[:] = np.eye(2)
    >>> published = writer.commit()
    >>> bool(np.array_equal(store.get("sim:performance:k=5:demo"), np.eye(2)))
    True
    >>> store.stats.hits, store.stats.misses
    (1, 0)
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        #: Lookup, eviction and :meth:`put` counters.
        self.stats = CacheStats()
        #: Temp files of writers killed mid-publish, reclaimed at startup.
        self.swept_temp_files = sweep_stale_temp_files(self.root)

    # ------------------------------------------------------------------ #
    def path_for(self, key: str) -> Path:
        """On-disk path of ``key``: the sanitised key plus ``.npy``."""
        return self.root / (_UNSAFE_FILENAME.sub("_", key) + ".npy")

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def get(self, key: str) -> Optional[np.ndarray]:
        """Read-only memmap of the matrix stored under ``key`` (or ``None``).

        Pages load on demand.  A corrupt or half-written file behaves like
        a miss: the entry is recomputed and overwritten on the next
        :meth:`put` or :meth:`create` + commit.
        """
        try:
            value = np.load(self.path_for(key), mmap_mode="r", allow_pickle=False)
        except (OSError, ValueError):
            self.stats.record_miss()
            return None
        self.stats.record_hit()
        return value

    def create(self, key: str, shape, dtype=float) -> MatrixWriter:
        """Start writing a matrix under ``key``; commit publishes atomically."""
        final = self.path_for(key)
        tmp = final.with_name(final.name + _writer_suffix())
        return MatrixWriter(tmp, final, shape, dtype)

    def put(self, key: str, array: np.ndarray) -> None:
        """Publish a copy of ``array`` under ``key`` (``create`` + fill + commit).

        Concurrent writers — threads within one process as well as
        separate processes sharing the directory — each write their own
        temp file, and the atomic publish means a reader never loads a
        half-written entry.  Only arrays are stored: anything else raises
        :class:`TypeError`.
        """
        if not isinstance(array, np.ndarray):
            raise TypeError(f"MatrixStore stores numpy arrays, got {type(array).__name__}")
        writer = self.create(key, array.shape, array.dtype)
        try:
            writer.array[...] = array
            writer.commit()
        except BaseException:
            writer.abort()
            raise
        self.stats.record_put()

    def scratch(self, shape, dtype=float, *, prefix: str = "scratch") -> "ScratchMatrix":
        """Anonymous writable memmap for transient working matrices.

        Used by the out-of-core clustering path for its mutable linkage
        working copy; the backing file is deleted on :meth:`ScratchMatrix.close`,
        and carries the writer-unique temp suffix so the startup sweep
        reclaims it if its process dies first.
        """
        handle, path = tempfile.mkstemp(
            prefix=f"{prefix}-", suffix=_writer_suffix(), dir=self.root
        )
        os.close(handle)
        return ScratchMatrix(Path(path), shape, dtype)

    # ------------------------------------------------------------------ #
    def evict(self, key: str) -> bool:
        """Delete the matrix stored under ``key``; returns whether it existed.

        POSIX semantics apply: a reader already holding the memmap keeps a
        valid mapping (the inode lives until the last map closes); only new
        :meth:`get` calls miss.
        """
        try:
            self.path_for(key).unlink()
        except FileNotFoundError:
            return False
        self.stats.record_eviction()
        return True

    def evict_matching(self, fragment: str) -> int:
        """Delete every stored matrix whose file name contains ``fragment``.

        The zoo-refresh invalidation hook: fragments are sanitised exactly
        like keys, so a performance-matrix content fingerprint matches the
        artifacts derived from it.
        """
        sanitised = _UNSAFE_FILENAME.sub("_", fragment)
        count = 0
        for path in self.root.glob("*.npy"):
            if sanitised in path.name:
                path.unlink(missing_ok=True)
                count += 1
        self.stats.record_eviction(count)
        return count

    def clear(self) -> None:
        """Delete every stored matrix and the temp files of dead writers.

        A live writer's temp file is left alone, so a concurrent commit
        still publishes.
        """
        for path in self.root.glob("*.npy"):
            path.unlink(missing_ok=True)
        sweep_stale_temp_files(self.root)


class ScratchMatrix:
    """Transient writable memmap whose backing file dies with it."""

    def __init__(self, path: Path, shape, dtype) -> None:
        self.path = path
        self.array = np.lib.format.open_memmap(
            path, mode="w+", dtype=np.dtype(dtype), shape=tuple(shape)
        )

    def close(self) -> None:
        """Drop the mapping and delete the backing file."""
        if hasattr(self, "array"):
            del self.array
        self.path.unlink(missing_ok=True)

    def __enter__(self) -> np.ndarray:
        return self.array

    def __exit__(self, *exc_info) -> None:
        self.close()


# --------------------------------------------------------------------------- #
# Process-default store (mirrors repro.cache's default-cache plumbing).
# --------------------------------------------------------------------------- #
_default_store: Optional[MatrixStore] = None
_default_lock = threading.Lock()


def get_store() -> MatrixStore:
    """Process-wide default store (lazily built).

    ``REPRO_STORE_DIR`` names a persistent directory; without it the store
    lives in a per-process temporary directory — spilled artifacts then
    survive for the process lifetime (enough to serve requests off them)
    but not across runs: the directory is removed at interpreter exit.
    """
    import atexit
    import shutil

    global _default_store
    with _default_lock:
        if _default_store is None:
            root = os.environ.get("REPRO_STORE_DIR")
            if root is None:
                root = tempfile.mkdtemp(prefix="repro-store-")
                atexit.register(shutil.rmtree, root, ignore_errors=True)
            _default_store = MatrixStore(root)
        return _default_store


def peek_store() -> Optional[MatrixStore]:
    """The default store if one was ever built — never builds one.

    Invalidation paths use this so evicting from a store that was never
    used does not create a temporary directory as a side effect.
    """
    with _default_lock:
        return _default_store


StoreLike = Union[MatrixStore, str, Path, None]


def resolve_store(store: StoreLike = None) -> MatrixStore:
    """Normalise a user-facing ``store`` argument into a :class:`MatrixStore`.

    ``None`` selects the process default; a path builds a store rooted
    there; a :class:`MatrixStore` passes through unchanged.
    """
    if store is None:
        return get_store()
    if isinstance(store, MatrixStore):
        return store
    if isinstance(store, (str, Path)):
        return MatrixStore(store)
    raise DataError(f"store must be a MatrixStore, path or None, got {store!r}")
