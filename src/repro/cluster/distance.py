"""Distance helpers shared by the clustering engines.

The Eq. 1 similarity of a performance matrix becomes a clustering distance
``d = 1 - s`` through one key derivation and one tile conversion, written
into one of two sinks (:mod:`repro.store.sink`):
:func:`distance_matrix_for` returns a dense array memoised under its own
cache key, so downstream consumers skip even the conversion on repeat
runs; :func:`distance_memmap_for` reads row blocks of a (memmapped)
similarity on demand and publishes the distance in the :mod:`repro.store`
matrix store, so the clustering layer never holds a dense ``(n, n)``
matrix in RAM.  :func:`similarity_to_distance` remains the symmetrising
conversion for text-baseline and custom similarities;
:func:`distance_rows` gives chosen rows of it byte for byte (the zoo
refresh's added models) without converting the rest, and
:func:`check_distance_rows` checks just those rows.

:func:`offline_similarity` is the one place the offline phase decides
whether to spill; a zoo refresh calls it alone, because placing added
models reads only their rows.  :func:`offline_matrices` is the one place
a clustering distance is derived, for a build, a full re-cluster and the
threshold quantile of a refresh alike: an out-of-core similarity always
gets an out-of-core distance.  :func:`check_distance_matrix` and
:func:`upper_triangle_values` stream memmapped inputs block-wise for the
same memory reason.

Both :func:`similarity_to_distance` and :func:`check_distance_matrix` take
an exact-symmetry fast path: one ``array_equal`` against the transpose
settles every exactly symmetric matrix (every distance built here), and
the full symmetrising or ``allclose`` pass runs only when it fails.  The
shortcut changes no output byte and no verdict, so every caller still
gets every check.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.cache import CacheLike, distance_key, resolve_cache, similarity_key
from repro.store import MatrixStore, StoreLike, iter_row_blocks, resolve_store
from repro.store.sink import ArraySink, StoreSink
from repro.utils.exceptions import DataError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import SimilarityConfig
    from repro.core.performance import PerformanceMatrix

#: Rows per block when streaming a memory-mapped matrix through the
#: validation / conversion helpers (also used by the clustering layer's
#: working-copy and nearest-cache initialisation).
STREAM_BLOCK_ROWS = 512

#: Largest float whose double stays finite: above it ``(d + d) / 2`` is
#: ``inf``, not ``d``, so the exact-symmetry shortcut must not apply.
_HALF_MAX = np.finfo(float).max / 2.0


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Symmetric ``(n, n)`` Euclidean distance matrix of the rows of ``points``."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise DataError(f"points must be 2-d, got shape {points.shape}")
    norms = np.sum(points**2, axis=1)
    squared = norms[:, None] + norms[None, :] - 2.0 * points @ points.T
    matrix = np.sqrt(np.clip(squared, 0.0, None))
    np.fill_diagonal(matrix, 0.0)
    # Enforce exact symmetry against floating-point drift.
    return (matrix + matrix.T) / 2.0


def similarity_to_distance(similarity: np.ndarray) -> np.ndarray:
    """Convert a similarity matrix in ``[0, 1]`` to a distance matrix.

    The paper's Eq. 1 produces similarities; the clustering engines work
    on distances ``d = 1 - s`` with a zero diagonal, symmetrised as
    ``(d + d.T) / 2``.  When ``d`` already equals its transpose exactly
    (Eq. 1 always does) and no entry is large enough for ``d + d`` to
    overflow, that average is the identity, so ``d`` is returned without
    it: one exact comparison in place of the add and divide passes.
    ``1 - s`` never yields ``-0.0``, so the shortcut is bitwise-identical.
    """
    sim = np.asarray(similarity, dtype=float)
    if sim.ndim != 2 or sim.shape[0] != sim.shape[1]:
        raise DataError(f"similarity must be a square matrix, got shape {sim.shape}")
    distance = 1.0 - sim
    np.clip(distance, 0.0, None, out=distance)
    np.fill_diagonal(distance, 0.0)
    if np.array_equal(distance, distance.T) and not np.any(distance > _HALF_MAX):
        return distance
    return (distance + distance.T) / 2.0


def distance_rows(similarity: np.ndarray, rows) -> np.ndarray:
    """Rows ``rows`` of ``similarity_to_distance(similarity)``, byte for byte.

    Reads only those rows and the matching columns, so a zoo refresh pays
    ``O(len(rows) * n)`` for the added models instead of the full
    conversion, and a memmapped similarity is never densified.  Each
    entry follows the full conversion's rules: ``1 - s``, clip at 0, zero
    diagonal; an entry equal to its mirror and no larger than
    ``finfo.max / 2`` is returned as is (there ``(d + d) / 2 == d``),
    any other becomes ``(d[i, j] + d[j, i]) / 2`` (a NaN never equals its
    mirror, and an overflowing pair averages to ``inf``), which is what
    the full symmetrising pass writes at that entry.
    """
    rows = np.asarray(rows, dtype=np.intp)
    local = np.arange(rows.size)
    ahead = 1.0 - np.asarray(similarity[rows], dtype=float)
    behind = 1.0 - np.asarray(similarity[:, rows], dtype=float).T
    for side in (ahead, behind):
        np.clip(side, 0.0, None, out=side)
        side[local, rows] = 0.0
    inexact = (ahead != behind) | (ahead > _HALF_MAX)
    if inexact.any():
        ahead[inexact] = (ahead[inexact] + behind[inexact]) / 2.0
    return ahead


def _distance_tile(similarity_rows: np.ndarray, start: int) -> np.ndarray:
    """``1 - s`` of the Eq. 1 rows starting at row ``start``: clip, zero diagonal.

    The only tile conversion of the canonical Eq. 1 similarity.  Eq. 1 is
    exactly symmetric (``s[i, j] == s[j, i]`` bitwise), so the dense
    path's symmetrisation ``(d + d.T) / 2`` would be the identity: tiles
    converted here are bitwise-identical to :func:`similarity_to_distance`
    of the whole matrix, which the property suite enforces.
    """
    tile = 1.0 - np.asarray(similarity_rows)
    np.clip(tile, 0.0, None, out=tile)
    local = np.arange(tile.shape[0])
    tile[local, local + start] = 0.0
    return tile


def _eq1_distance(matrix, top_k: int, sink, similarity_of) -> np.ndarray:
    """Canonical Eq. 1 distance of ``matrix`` written into ``sink``.

    Owns the one key derivation (the distance key of the similarity key)
    and the streamed conversion; ``similarity_of()`` supplies the
    similarity only on a sink miss.
    """
    n = len(matrix.model_names)
    key = None
    if sink.keyed:
        key = distance_key(similarity_key(matrix, method="performance", top_k=top_k))
    hit = sink.lookup(key, n)
    if hit is not None:
        return hit
    similarity = similarity_of()
    block_rows = max(1, sink.budget_bytes // max(1, n * 8 * 2))

    def fill(out: np.ndarray) -> None:
        for start, stop in iter_row_blocks(n, block_rows):
            out[start:stop] = _distance_tile(similarity[start:stop], start)

    return sink.write(key, n, fill)


def distance_matrix_for(
    matrix: "PerformanceMatrix",
    *,
    method: str = "performance",
    top_k: int = 5,
    model_cards: Optional[Dict[str, str]] = None,
    similarity: Optional[np.ndarray] = None,
    cache: CacheLike = None,
) -> np.ndarray:
    """Cache-aware model-distance matrix of a performance matrix.

    Computes (or fetches) the Eq. 1 / text-baseline similarity via
    :func:`repro.core.similarity.similarity_matrix_for` and converts it to
    ``d = 1 - s``.  The Eq. 1 distance is memoised under a key derived from
    the similarity key, so a second call for the same inputs touches
    neither the similarity nor the conversion; the text baseline goes
    through :func:`similarity_to_distance` uncached.

    Parameters
    ----------
    similarity:
        Optional precomputed similarity matrix aligned with
        ``matrix.model_names``; when given, only
        :func:`similarity_to_distance` runs and nothing is read from or
        written to the cache — the conversion is cheaper than hashing the
        array for a key, and a custom similarity must never populate (or
        be shadowed by) the canonical Eq. 1 entry.
    """
    from repro.core.similarity import DEFAULT_CHUNK_BUDGET_BYTES, similarity_matrix_for

    if similarity is not None:
        return similarity_to_distance(similarity)

    def similarity_of() -> np.ndarray:
        return similarity_matrix_for(
            matrix, method=method, top_k=top_k, model_cards=model_cards, cache=cache
        )

    if method != "performance":
        return similarity_to_distance(similarity_of())
    sink = ArraySink(resolve_cache(cache), budget_bytes=DEFAULT_CHUNK_BUDGET_BYTES)
    return _eq1_distance(matrix, top_k, sink, similarity_of)


def check_distance_matrix(matrix: np.ndarray) -> np.ndarray:
    """Validate a precomputed distance matrix (square, symmetric, zero diagonal).

    The checks: no entry below ``-1e-9``, symmetry to ``atol=1e-8`` and a
    zero diagonal to ``atol=1e-8``.  Symmetry is first tested exactly
    (``array_equal`` against the transpose), which decides any exactly
    symmetric input in one cheap pass; only an input that fails it pays
    for ``allclose``.  Memory-mapped inputs are validated block-by-block
    (bounded RAM, per block pair for symmetry); the checks and their
    tolerances are identical to the dense path.
    """
    if isinstance(matrix, np.ndarray) and matrix.dtype == np.float64:
        # Keep the instance as-is: np.asarray would demote an out-of-core
        # np.memmap to a plain-ndarray view and silently send it down the
        # dense (densifying) validation and clustering paths.
        arr = matrix
    else:
        arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DataError(f"distance matrix must be square, got shape {arr.shape}")
    if isinstance(arr, np.memmap):
        _check_distance_memmap(arr)
        return arr
    if np.any(arr < -1e-9):
        raise DataError("distance matrix contains negative entries")
    if not _symmetric(arr, arr.T):
        raise DataError("distance matrix must be symmetric")
    if not np.allclose(np.diag(arr), 0.0, atol=1e-8):
        raise DataError("distance matrix must have a zero diagonal")
    return arr


def check_distance_rows(block: np.ndarray) -> np.ndarray:
    """:func:`check_distance_matrix`'s verdict on rows of a converted similarity.

    ``block`` holds chosen rows of :func:`similarity_to_distance`, as
    :func:`distance_rows` returns them.  That conversion is non-negative
    with a zero diagonal by construction and equals its transpose except
    where an entry is NaN (a NaN never equals its mirror), so on these rows
    the full check reduces to one ``O(rows x n)`` NaN test with the same
    verdict.  A zoo refresh checks the added rows it reads this way.
    """
    if np.isnan(block).any():
        raise DataError("distance matrix must be symmetric")
    return block


def _check_distance_memmap(arr: np.memmap) -> None:
    """Blocked negative/symmetry/diagonal checks for memmapped distances."""
    n = arr.shape[0]
    spans = list(iter_row_blocks(n, STREAM_BLOCK_ROWS))
    for start, stop in spans:
        block = np.asarray(arr[start:stop])
        if np.any(block < -1e-9):
            raise DataError("distance matrix contains negative entries")
        diagonal = block[np.arange(stop - start), np.arange(start, stop)]
        if not np.allclose(diagonal, 0.0, atol=1e-8):
            raise DataError("distance matrix must have a zero diagonal")
    for i, (row_start, row_stop) in enumerate(spans):
        for col_start, col_stop in spans[i:]:
            block = arr[row_start:row_stop, col_start:col_stop]
            mirror = arr[col_start:col_stop, row_start:row_stop]
            if not _symmetric(np.asarray(block), np.asarray(mirror).T):
                raise DataError("distance matrix must be symmetric")


def _symmetric(block: np.ndarray, mirror: np.ndarray) -> bool:
    """Symmetry test of :func:`check_distance_matrix`: equal to ``atol=1e-8``.

    Exact equality implies closeness, so the cheap ``array_equal`` pass
    decides every exactly symmetric input (any matrix built here) and the
    ``allclose`` pass runs only when it fails; no verdict changes.
    """
    return np.array_equal(block, mirror) or np.allclose(block, mirror, atol=1e-8)


def upper_triangle_values(matrix: np.ndarray) -> np.ndarray:
    """Off-diagonal upper-triangle values of a square matrix, row-major.

    Exactly the values (in exactly the order) of
    ``matrix[np.triu_indices_from(matrix, k=1)]`` — so downstream
    statistics (the clustering threshold quantile) are bitwise-identical —
    but gathered row-block by row-block: memmapped matrices are streamed
    without materialising the ``O(n^2)`` index arrays the ``triu`` route
    needs.  The returned array still holds ``n (n - 1) / 2`` floats
    (``~4 n^2`` bytes); ``docs/scaling.md`` accounts for it in the memory
    model.
    """
    n = matrix.shape[0]
    out = np.empty(n * (n - 1) // 2, dtype=float)
    position = 0
    for start, stop in iter_row_blocks(n, STREAM_BLOCK_ROWS):
        # Copy straight into the preallocated result: holding per-row views
        # would pin every source block in memory until the final concat.
        block = np.asarray(matrix[start:stop])
        for i in range(start, stop):
            width = n - i - 1
            out[position : position + width] = block[i - start, i + 1 :]
            position += width
    return out


def distance_memmap_for(
    matrix: "PerformanceMatrix",
    similarity: np.ndarray,
    *,
    top_k: int = 5,
    config: Optional["SimilarityConfig"] = None,
    store: StoreLike = None,
) -> np.ndarray:
    """Out-of-core ``d = 1 - s`` conversion of a (memmapped) Eq. 1 similarity.

    Reads ``similarity`` row tiles on demand, writes the converted distance
    tiles into the matrix store under the canonical distance key (derived
    from the similarity key, as in :func:`distance_matrix_for`) and returns
    the published read-only memmap.

    Requires the exact symmetry the Eq. 1 matrix guarantees by
    construction (``s[i, j] == s[j, i]`` bitwise): under it the tile
    conversion — clip to ``[0, inf)``, zero diagonal — produces a result
    bitwise-identical to ``similarity_to_distance(similarity)``.
    """
    from repro.core.config import SimilarityConfig

    config = config or SimilarityConfig()
    n = len(matrix.model_names)
    if similarity.shape != (n, n):
        raise DataError(
            f"similarity shape {similarity.shape} does not match the {n} "
            "models of matrix"
        )
    sink = StoreSink(
        resolve_store(store if store is not None else config.store_dir),
        budget_bytes=config.max_bytes_in_flight,
    )
    return _eq1_distance(matrix, top_k, sink, lambda: similarity)


def _is_canonical_spill(
    similarity: np.ndarray,
    matrix: "PerformanceMatrix",
    top_k: int,
    config: "SimilarityConfig",
) -> bool:
    """Whether ``similarity`` is the store's canonical Eq. 1 entry of ``matrix``."""
    if not isinstance(similarity, np.memmap):
        return False
    canonical = resolve_store(config.store_dir).path_for(
        similarity_key(matrix, method="performance", top_k=top_k)
    )
    filename = getattr(similarity, "filename", None)
    try:
        return filename is not None and Path(filename).resolve() == canonical.resolve()
    except OSError:  # pragma: no cover - unresolvable paths
        return False


def offline_similarity(
    matrix: "PerformanceMatrix",
    *,
    method: str = "performance",
    top_k: int = 5,
    model_cards: Optional[Dict[str, str]] = None,
    cache: CacheLike = None,
    config: Optional["SimilarityConfig"] = None,
    previous: Optional[Tuple["PerformanceMatrix", np.ndarray]] = None,
) -> np.ndarray:
    """Similarity of ``matrix`` for clustering, in RAM or spilled.

    The one place the offline phase decides whether to go out-of-core:
    with a ``config`` whose :meth:`~repro.core.config.SimilarityConfig.should_spill`
    holds for an Eq. 1 repository, the similarity is a memory-mapped file
    in the matrix store under its canonical key; otherwise it is a dense
    array (memoised when ``cache`` is enabled).  ``previous``
    (``(old_matrix, old_similarity)``) turns it into an incremental update,
    as the zoo refresh computes it.
    """
    from repro.core import similarity as eq1

    if config is not None and method == "performance" and config.should_spill(
        len(matrix.model_names)
    ):
        if previous is not None:
            return eq1.update_similarity_matrix_ooc(
                *previous, matrix, top_k=top_k, config=config, cache=cache
            )
        return eq1.performance_similarity_matrix_ooc(
            matrix, top_k=top_k, config=config, cache=cache
        )
    if previous is not None:
        return eq1.update_similarity_matrix(*previous, matrix, top_k=top_k, cache=cache)
    return eq1.similarity_matrix_for(
        matrix, method=method, top_k=top_k, model_cards=model_cards, cache=cache
    )


def offline_matrices(
    matrix: "PerformanceMatrix",
    *,
    method: str = "performance",
    top_k: int = 5,
    model_cards: Optional[Dict[str, str]] = None,
    cache: CacheLike = None,
    config: Optional["SimilarityConfig"] = None,
    similarity: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, Optional[MatrixStore]]:
    """Similarity and distance of ``matrix`` for clustering, in RAM or spilled.

    The one place a clustering distance is derived.  Without a
    ``similarity`` it is computed by :func:`offline_similarity` and its
    Eq. 1 distance is memoised when ``cache`` is enabled.  A given
    ``similarity`` is used as is and its distance is not cached.  Either
    way, a similarity that is the store's canonical Eq. 1 entry gets an
    out-of-core distance in the same store, so a spilled matrix is never
    densified and a *custom* similarity can never populate the canonical
    distance key.

    Returns ``(similarity, distance, work_store)``: ``work_store`` is the
    store a spilled distance's clustering scratch belongs in, else ``None``.
    """
    computed = similarity is None
    if computed:
        similarity = offline_similarity(
            matrix, method=method, top_k=top_k, model_cards=model_cards,
            cache=cache, config=config,
        )
    if config is not None and _is_canonical_spill(similarity, matrix, top_k, config):
        distance = distance_memmap_for(matrix, similarity, top_k=top_k, config=config)
    elif computed and method == "performance" and resolve_cache(cache) is not None:
        # Memoised conversion of the similarity in hand, never re-read.
        from repro.core.similarity import DEFAULT_CHUNK_BUDGET_BYTES

        sink = ArraySink(resolve_cache(cache), budget_bytes=DEFAULT_CHUNK_BUDGET_BYTES)
        distance = _eq1_distance(matrix, top_k, sink, lambda: similarity)
    else:
        distance = similarity_to_distance(similarity)
    work_store = None
    if config is not None and isinstance(distance, np.memmap):
        work_store = resolve_store(config.store_dir)
    return similarity, distance, work_store
