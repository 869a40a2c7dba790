"""Memory-mapped matrix store: the disk tier of the out-of-core offline phase.

A :class:`MatrixStore` is a directory of ``.npy`` files, one per matrix,
addressed by the **same content-hash cache keys** the in-memory
:mod:`repro.cache` uses (``sim:performance:k=5:<fingerprint>`` and friends).
Because keys are content fingerprints, the store inherits the cache's
invalidation story: a changed input produces a fresh key, and stale files
are purged explicitly by fingerprint fragment (:meth:`MatrixStore.evict_matching`,
the same hook the zoo-refresh path calls on the in-memory tiers).

Matrices are written through a :class:`MatrixWriter` — a writable
:class:`numpy.memmap` over a writer-unique temporary file, published with an
atomic :func:`os.replace` on :meth:`~MatrixWriter.commit` — and read back as
read-only memmaps (:meth:`MatrixStore.open`).  Row *tiles* of an open matrix
are served on demand (:func:`iter_row_blocks`): a slice of a memmap touches
only the pages it covers, so a reader holding an ``(n, n)`` similarity
matrix open costs RAM proportional to the rows it actually visits, not to
``n^2``.

Concurrent tile writers are safe by construction: every worker writes a
disjoint row range of one shared mapping.  Thread workers share the parent's
memmap object; forked process workers inherit the ``MAP_SHARED`` mapping, so
their writes land in the same page cache the parent flushes on commit.
"""

from __future__ import annotations

import os
import tempfile
import threading
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from repro.cache.store import _UNSAFE_FILENAME, sweep_stale_temp_files
from repro.utils.exceptions import ConfigurationError, DataError

#: Default rows per on-demand tile when iterating a stored matrix.
DEFAULT_TILE_ROWS = 256


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
        Directory holding the ``.npy`` files (created on demand).

    >>> import numpy as np, tempfile
    >>> store = MatrixStore(tempfile.mkdtemp())
    >>> writer = store.create("sim:performance:k=5:demo", (2, 2))
    >>> writer.array[:] = np.eye(2)
    >>> published = writer.commit()
    >>> bool(np.array_equal(store.open("sim:performance:k=5:demo"), np.eye(2)))
    True
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: Temp files of writers killed mid-publish, reclaimed at startup.
        self.swept_temp_files = sweep_stale_temp_files(self.root)

    # ------------------------------------------------------------------ #
    def path_for(self, key: str) -> Path:
        """On-disk path of ``key`` (sanitised exactly like the disk cache)."""
        return self.root / (_UNSAFE_FILENAME.sub("_", key) + ".npy")

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def open(self, key: str) -> Optional[np.ndarray]:
        """Read-only memmap of the matrix stored under ``key`` (or ``None``).

        A corrupt or half-written file behaves like a miss, mirroring the
        disk cache: the entry is recomputed and overwritten on the next
        :meth:`create` + commit.
        """
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            return np.load(path, mmap_mode="r", allow_pickle=False)
        except (OSError, ValueError):
            return None

    def create(self, key: str, shape, dtype=float) -> MatrixWriter:
        """Start writing a matrix under ``key``; commit publishes atomically."""
        final = self.path_for(key)
        writer_id = f"{os.getpid()}-{threading.get_ident()}"
        tmp = final.with_name(f"{final.name}.tmp-{writer_id}")
        return MatrixWriter(tmp, final, shape, dtype)

    def scratch(self, shape, dtype=float, *, prefix: str = "scratch") -> "ScratchMatrix":
        """Anonymous writable memmap for transient working matrices.

        Used by the out-of-core clustering path for its mutable linkage
        working copy; the backing file is deleted on :meth:`ScratchMatrix.close`.
        """
        handle, path = tempfile.mkstemp(prefix=f"{prefix}-", suffix=".npy", dir=self.root)
        os.close(handle)
        return ScratchMatrix(Path(path), shape, dtype)

    # ------------------------------------------------------------------ #
    def evict(self, key: str) -> bool:
        """Delete the matrix stored under ``key``; returns whether it existed.

        POSIX semantics apply: a reader already holding the memmap keeps a
        valid mapping (the inode lives until the last map closes); only new
        :meth:`open` calls miss.
        """
        path = self.path_for(key)
        if path.exists():
            path.unlink(missing_ok=True)
            return True
        return False

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
        return count

    def clear(self) -> None:
        """Delete every stored matrix (tmp files of dead writers included)."""
        for path in self.root.glob("*.npy*"):
            path.unlink(missing_ok=True)

    def bytes_stored(self) -> int:
        """Total size of the published matrices in the store."""
        return sum(path.stat().st_size for path in self.root.glob("*.npy"))


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


def configure_store(root: Union[str, Path]) -> MatrixStore:
    """Point the process-default store at ``root`` (replacing the old one)."""
    global _default_store
    with _default_lock:
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
