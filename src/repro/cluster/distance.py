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
conversion for text-baseline and custom similarities.

:func:`offline_matrices` is the one place the offline phase decides
whether to spill: model clustering and the incremental zoo refresh each
make one call to it.  :func:`check_distance_matrix` and
:func:`upper_triangle_values` stream memmapped inputs block-wise for the
same memory reason.
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


def pairwise_distances(points: np.ndarray, *, metric: str = "euclidean") -> np.ndarray:
    """Symmetric ``(n, n)`` distance matrix of the rows of ``points``.

    Supported metrics: ``euclidean``, ``sqeuclidean``, ``cosine`` and
    ``cityblock``.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise DataError(f"points must be 2-d, got shape {points.shape}")
    n = points.shape[0]
    if metric in ("euclidean", "sqeuclidean"):
        norms = np.sum(points**2, axis=1)
        squared = norms[:, None] + norms[None, :] - 2.0 * points @ points.T
        squared = np.clip(squared, 0.0, None)
        matrix = squared if metric == "sqeuclidean" else np.sqrt(squared)
    elif metric == "cosine":
        norms = np.linalg.norm(points, axis=1)
        norms = np.where(norms == 0, 1.0, norms)
        normalised = points / norms[:, None]
        matrix = 1.0 - normalised @ normalised.T
        matrix = np.clip(matrix, 0.0, 2.0)
    elif metric == "cityblock":
        matrix = np.abs(points[:, None, :] - points[None, :, :]).sum(axis=2)
    else:
        raise DataError(f"unknown distance metric {metric!r}")
    np.fill_diagonal(matrix, 0.0)
    # Enforce exact symmetry against floating-point drift.
    return (matrix + matrix.T) / 2.0


def similarity_to_distance(similarity: np.ndarray) -> np.ndarray:
    """Convert a similarity matrix in ``[0, 1]`` to a distance matrix.

    The paper's Eq. 1 produces similarities; the clustering engines work
    on distances ``d = 1 - s`` with a zero diagonal.
    """
    sim = np.asarray(similarity, dtype=float)
    if sim.ndim != 2 or sim.shape[0] != sim.shape[1]:
        raise DataError(f"similarity must be a square matrix, got shape {sim.shape}")
    distance = 1.0 - sim
    distance = np.clip(distance, 0.0, None)
    np.fill_diagonal(distance, 0.0)
    return (distance + distance.T) / 2.0


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

    Memory-mapped inputs are validated block-by-block (bounded RAM); the
    checks and their tolerances are identical to the dense path.
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
    if not np.allclose(arr, arr.T, atol=1e-8):
        raise DataError("distance matrix must be symmetric")
    if not np.allclose(np.diag(arr), 0.0, atol=1e-8):
        raise DataError("distance matrix must have a zero diagonal")
    return arr


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
            if not np.allclose(block, np.asarray(mirror).T, atol=1e-8):
                raise DataError("distance matrix must be symmetric")


def upper_triangle_values(matrix: np.ndarray, *, block_rows: int = STREAM_BLOCK_ROWS) -> np.ndarray:
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
    for start, stop in iter_row_blocks(n, block_rows):
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


def offline_matrices(
    matrix: "PerformanceMatrix",
    *,
    method: str = "performance",
    top_k: int = 5,
    model_cards: Optional[Dict[str, str]] = None,
    cache: CacheLike = None,
    config: Optional["SimilarityConfig"] = None,
    previous: Optional[Tuple["PerformanceMatrix", np.ndarray]] = None,
    similarity: Optional[np.ndarray] = None,
    distance: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, Optional[MatrixStore]]:
    """Similarity and distance of ``matrix`` for clustering, in RAM or spilled.

    The one place the offline phase decides whether to go out-of-core:
    with a ``config`` whose :meth:`~repro.core.config.SimilarityConfig.should_spill`
    holds for an Eq. 1 repository, both matrices are memory-mapped files in
    the matrix store; otherwise they are dense arrays (and the Eq. 1
    distance is memoised when ``cache`` is enabled).  ``previous``
    (``(old_matrix, old_similarity)``) turns the similarity into an
    incremental update.  A given ``similarity`` (and optionally its
    ``distance``) is used as is; its distance stays out-of-core only when
    it is the store's canonical Eq. 1 entry, so a *custom* similarity can
    never populate the canonical distance key.

    Returns ``(similarity, distance, work_store)``: ``work_store`` is the
    store a spilled distance's clustering scratch belongs in, else ``None``.
    """
    from repro.core import similarity as eq1

    if similarity is not None:
        if distance is None:
            if config is not None and _is_canonical_spill(similarity, matrix, top_k, config):
                # Keep a memmapped similarity out-of-core end to end: the
                # dense conversion would allocate the 8 n^2 bytes the spill
                # exists to avoid.
                distance = distance_memmap_for(matrix, similarity, top_k=top_k, config=config)
            else:
                distance = similarity_to_distance(similarity)
    elif (
        config is not None
        and method == "performance"
        and config.should_spill(len(matrix.model_names))
    ):
        if previous is not None:
            similarity = eq1.update_similarity_matrix_ooc(
                *previous, matrix, top_k=top_k, config=config, cache=cache
            )
        else:
            similarity = eq1.performance_similarity_matrix_ooc(
                matrix, top_k=top_k, config=config, cache=cache
            )
        distance = distance_memmap_for(matrix, similarity, top_k=top_k, config=config)
    else:
        if previous is not None:
            similarity = eq1.update_similarity_matrix(*previous, matrix, top_k=top_k, cache=cache)
        else:
            similarity = eq1.similarity_matrix_for(
                matrix, method=method, top_k=top_k, model_cards=model_cards, cache=cache
            )
        if resolve_cache(cache) is not None:
            # Memoised conversion: a repeat resolves with one lookup, and a
            # refreshed epoch's distance is warm under its canonical key.
            distance = distance_matrix_for(
                matrix, method=method, top_k=top_k, model_cards=model_cards, cache=cache
            )
        else:
            distance = similarity_to_distance(similarity)
    work_store = None
    if config is not None and isinstance(distance, np.memmap):
        work_store = resolve_store(config.store_dir)
    return similarity, distance, work_store
