"""Model-similarity measures used for model clustering.

The paper's Eq. 1 defines the performance-based similarity between two
checkpoints as one minus the average of their ``k`` largest per-dataset
accuracy differences:

``sim(m_a, m_b) = 1 - avg( top_k |vec(m_a) - vec(m_b)| )``

The text-based baseline (Table I) instead embeds each checkpoint's model
card and uses cosine similarity.

:func:`performance_similarity_matrix` is the hot path of the offline phase
and is fully vectorized: the pairwise ``|a_i - a_j|`` differences are
broadcast into ``(rows, n, d)`` slabs and the top-``k`` selection uses
:func:`numpy.partition` instead of a full sort; the slab size bounds peak
memory (see :func:`similarity_chunk_rows`).  Results are additionally
memoised in the process-wide :mod:`repro.cache` keyed on the performance
matrix's content fingerprint, so repeated experiment runs reuse the work.

Four front doors — the full build, the incremental
:func:`update_similarity_matrix` and their out-of-core ``_ooc`` twins —
choose a *sink* and hand it to one private writer, which owns the key
lookup, the degenerate shapes, the copy of surviving pairs, the added-row
tiles, the mirrored columns and the unit diagonal.  A full build is an
update with no survivors.  The dense sink returns an in-RAM array; past
checkpoint-hub scale, where the ``(n, n)`` result stops fitting in RAM,
the store sink writes the same tiles to a memory-mapped file in the
:mod:`repro.store` matrix store — bitwise-identical output, peak memory
bounded by :class:`~repro.core.config.SimilarityConfig.max_bytes_in_flight`.
See ``docs/scaling.md``.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional

import numpy as np

from repro.cache import (
    CacheLike,
    resolve_cache,
    similarity_key,
    text_similarity_key,
)
from repro.core.config import SimilarityConfig
from repro.core.performance import PerformanceMatrix
from repro.store import StoreLike, iter_row_blocks, resolve_store
from repro.store.sink import ArraySink, StoreSink
from repro.text.embedding import TextEmbedder
from repro.utils.exceptions import ConfigurationError, DataError

#: Default bound (in bytes) on one broadcast difference block before the
#: vectorized path switches to row chunks.  16 MiB is deliberately small:
#: beyond bounding peak memory, blocks that fit the CPU cache hierarchy are
#: several times faster than one monolithic ``(n, n, d)`` tensor (measured
#: ~8x at n = 800, d = 40), while every repository the paper considers
#: (n <= 40) still runs as a single block.
DEFAULT_CHUNK_BUDGET_BYTES = 16 * 1024 * 1024


def performance_similarity(
    vector_a: np.ndarray, vector_b: np.ndarray, *, top_k: int = 5
) -> float:
    """Eq. 1 similarity between two benchmark-accuracy vectors.

    >>> import numpy as np
    >>> a = np.array([1.0, 0.5, 0.5])
    >>> b = np.array([0.5, 0.5, 0.5])
    >>> performance_similarity(a, b, top_k=1)   # 1 - max|a - b|
    0.5
    """
    a = np.asarray(vector_a, dtype=float)
    b = np.asarray(vector_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise DataError("performance vectors must be 1-d and aligned")
    if a.size == 0:
        raise DataError("performance vectors must be non-empty")
    if top_k < 1:
        raise ConfigurationError("top_k must be >= 1")
    differences = np.abs(a - b)
    k = min(top_k, differences.size)
    largest = np.sort(differences)[-k:]
    return float(1.0 - np.mean(largest))


# --------------------------------------------------------------------------- #
# Vectorized Eq. 1 matrix
# --------------------------------------------------------------------------- #
def similarity_chunk_rows(
    num_models: int, num_datasets: int, *, budget_bytes: int = DEFAULT_CHUNK_BUDGET_BYTES
) -> int:
    """Rows per chunk so one ``(rows, n, d)`` block stays within ``budget_bytes``.

    The chunked and single-shot paths produce bitwise-identical results —
    chunking only trades a little Python-loop overhead for a bounded peak
    memory footprint (``rows * n * d * 8`` bytes instead of ``n^2 * d * 8``).

    >>> similarity_chunk_rows(800, 40, budget_bytes=64 * 1024**2)
    262
    """
    bytes_per_row = max(1, num_models * num_datasets * 8)
    return max(1, min(num_models, budget_bytes // bytes_per_row))


def _similarity_into(
    out: np.ndarray,
    row_vectors: np.ndarray,
    col_vectors: np.ndarray,
    k: int,
    rows: int,
) -> None:
    """Fill ``out`` with Eq. 1 similarities of ``row_vectors`` x ``col_vectors``.

    Row blocks of size ``rows`` broadcast ``|row_i - col_j|`` into a
    ``(rows, c, d)`` slab and select the top-``k`` differences with an
    in-place partition.  One slab buffer is allocated up front and reused by
    every block — the subtract/abs/partition pipeline runs entirely inside
    it, so the hot loop performs no allocations and stays cache-resident for
    small ``rows``.

    Every ``(i, j)`` lane is processed independently (elementwise ops plus a
    per-lane partition and mean), so the value written for a pair depends
    only on that pair's vectors, ``k`` and ``d`` — never on which other
    pairs share the block.  This is the property the incremental
    :func:`update_similarity_matrix` relies on to be bitwise-identical to a
    full recompute.
    """
    r, d = row_vectors.shape
    c = col_vectors.shape[0]
    buffer = np.empty((min(rows, r), c, d))
    for start in range(0, r, rows):
        stop = min(start + rows, r)
        block = buffer[: stop - start]
        np.subtract(row_vectors[start:stop, None, :], col_vectors[None, :, :], out=block)
        np.abs(block, out=block)
        if k < d:
            block.partition(d - k, axis=-1)
            top = block[..., d - k :]
        else:
            top = block
        out[start:stop] = 1.0 - top.mean(axis=-1)


def _validate_incremental_update(
    old_matrix: PerformanceMatrix,
    old_similarity: np.ndarray,
    new_matrix: PerformanceMatrix,
    *,
    top_k: int,
):
    """Preconditions of an incremental update.

    Returns ``(old_similarity, kept_new, kept_old, added_new)`` — the
    validated previous similarity plus the index bookkeeping the writer
    consumes.
    """
    if top_k < 1:
        raise ConfigurationError("top_k must be >= 1")
    old_names = old_matrix.model_names
    old_similarity = np.asarray(old_similarity, dtype=float)
    if old_similarity.shape != (len(old_names), len(old_names)):
        raise DataError(
            f"old_similarity shape {old_similarity.shape} does not match the "
            f"{len(old_names)} models of old_matrix"
        )
    if list(old_matrix.dataset_names) != list(new_matrix.dataset_names):
        raise DataError(
            "incremental similarity updates require unchanged benchmark "
            "datasets; rebuild from scratch instead"
        )
    old_index = {name: i for i, name in enumerate(old_names)}
    new_names = new_matrix.model_names
    kept_new = [j for j, name in enumerate(new_names) if name in old_index]
    kept_old = [old_index[new_names[j]] for j in kept_new]
    added_new = [j for j, name in enumerate(new_names) if name not in old_index]
    if kept_new and not np.array_equal(
        new_matrix.values[:, kept_new], old_matrix.values[:, kept_old]
    ):
        raise DataError(
            "surviving models' accuracy columns changed; the cached "
            "similarity rows are stale — rebuild from scratch instead"
        )
    if len(kept_new) >= 2 and old_matrix.values.shape[0] > 0:
        # Spot-check that old_similarity really was computed with this
        # top_k: recompute one surviving pair through the shared kernel
        # (bitwise-deterministic per lane) and compare.  Without this, a
        # mismatched top_k would silently mix regimes and poison the cache
        # under the new matrix's canonical key.
        probe_vectors = np.ascontiguousarray(
            old_matrix.values[:, [kept_old[0], kept_old[1]]].T, dtype=float
        )
        probe_k = min(top_k, probe_vectors.shape[1])
        probe = np.empty((1, 1))
        _similarity_into(probe, probe_vectors[:1], probe_vectors[1:], probe_k, 1)
        if probe[0, 0] != old_similarity[kept_old[0], kept_old[1]]:
            raise DataError(
                "old_similarity does not match old_matrix under this top_k; "
                "it was computed with different settings — rebuild from "
                "scratch instead"
            )
    return old_similarity, kept_new, kept_old, added_new


def _write_similarity(
    sink,
    matrix: PerformanceMatrix,
    *,
    top_k: int,
    previous=None,
    chunk_rows: Optional[int] = None,
) -> np.ndarray:
    """The one Eq. 1 writer behind the four public front doors.

    ``previous`` is ``(old_matrix, old_similarity)`` for an incremental
    update; without it every model counts as added, so a full build is an
    update with no survivors.  The content key is looked up in ``sink``
    first (an :class:`~repro.store.sink.ArraySink` or a
    :class:`~repro.store.sink.StoreSink`); on a miss the writer copies the
    surviving pairs from ``old_similarity`` in row blocks, computes the
    added rows tile by tile, mirrors them into the surviving rows' columns
    and sets the unit diagonal.  A tile whose rows are contiguous is
    computed straight into the output; only scattered added rows go
    through a ``(tile, n)`` block.

    Tiles write disjoint entries, so they map over a thread pool of
    ``min(_tile_workers(), tiles)`` threads (inline when that is 1); NumPy
    releases the GIL in the broadcast and partition kernels.  Each thread
    holds its own ``(rows, n, d)`` slab, so the slab budget is the sink's
    budget divided by :func:`_tile_workers` and the total stays within it.

    Every entry depends only on its own pair of vectors, so copied,
    mirrored and freshly computed entries are bitwise-identical to a full
    recompute whatever the sink, tiling or thread count.  The mirror is exact
    because IEEE subtraction is antisymmetric: the ``|a - b|`` lane of
    ``(i, j)`` equals the ``(j, i)`` lane.
    """
    if chunk_rows is not None and chunk_rows < 1:
        raise ConfigurationError("chunk_rows must be >= 1")
    n = len(matrix.model_names)
    if previous is None:
        if top_k < 1:
            raise ConfigurationError("top_k must be >= 1")
        old_similarity, kept_new, kept_old, added_new = None, [], [], list(range(n))
    else:
        old_similarity, kept_new, kept_old, added_new = _validate_incremental_update(
            previous[0], previous[1], matrix, top_k=top_k
        )
    key = similarity_key(matrix, method="performance", top_k=top_k) if sink.keyed else None
    hit = sink.lookup(key, n)
    if hit is not None:
        return hit

    vectors = np.ascontiguousarray(matrix.values.T, dtype=float)
    d = vectors.shape[1]
    if n > 1 and d == 0:
        raise DataError("performance vectors must be non-empty")

    def fill(out: np.ndarray) -> None:
        if n <= 1 or d == 0:
            out[...] = 1.0
            return
        kept_new_arr = np.asarray(kept_new, dtype=int)
        kept_old_arr = np.asarray(kept_old, dtype=int)
        copy_rows = max(1, sink.budget_bytes // (n * 8))
        for start, stop in iter_row_blocks(len(kept_new), copy_rows):
            out[np.ix_(kept_new_arr[start:stop], kept_new_arr)] = old_similarity[
                np.ix_(kept_old_arr[start:stop], kept_old_arr)
            ]
        k = min(top_k, d)
        workers = _tile_workers()
        slab_bytes = max(4096, sink.budget_bytes // workers)
        rows = chunk_rows or similarity_chunk_rows(n, d, budget_bytes=slab_bytes)
        added = np.asarray(added_new, dtype=int)

        def tile(span) -> None:
            index = added[span[0] : span[1]]
            first, last = int(index[0]), int(index[-1]) + 1
            contiguous = last - first == index.size
            block = out[first:last] if contiguous else np.empty((index.size, n))
            _similarity_into(block, vectors[index], vectors, k, rows)
            if not contiguous:
                out[index] = block
            if kept_new:
                out[np.ix_(kept_new_arr, index)] = block[:, kept_new_arr].T

        spans = list(iter_row_blocks(added.size, rows))
        workers = min(workers, len(spans))
        if workers <= 1:
            for span in spans:
                tile(span)
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(tile, spans))
        np.fill_diagonal(out, 1.0)

    return sink.write(key, n, fill)


def _tile_workers() -> int:
    """Host CPUs available to this process: the Eq. 1 tile pool's size."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _spill_sink(config: Optional[SimilarityConfig], cache, store) -> StoreSink:
    """Matrix-store sink under ``config``'s memory policy."""
    config = config or SimilarityConfig()
    return StoreSink(
        resolve_store(store if store is not None else config.store_dir),
        budget_bytes=config.max_bytes_in_flight,
        memory=resolve_cache(cache),
    )


def performance_similarity_matrix(
    matrix: PerformanceMatrix,
    *,
    top_k: int = 5,
    chunk_rows: Optional[int] = None,
    cache: CacheLike = None,
) -> np.ndarray:
    """Pairwise Eq. 1 similarities of every model in ``matrix``.

    Fully vectorized: broadcasts pairwise accuracy differences into
    ``(rows, n, d)`` slabs of at most :data:`DEFAULT_CHUNK_BUDGET_BYTES`
    and selects the ``top_k`` largest per pair with a linear-time
    partition.  The slab size bounds peak memory without changing any
    output value.

    Results are memoised in the process-wide artifact cache under the
    matrix's content fingerprint; pass ``cache=False`` to bypass caching or
    an explicit :class:`~repro.cache.ArtifactCache` to use a private one.

    Parameters
    ----------
    matrix:
        Offline performance matrix (models x benchmark datasets).
    top_k:
        Number of largest per-dataset differences averaged (paper: k = 5).
    chunk_rows:
        Explicit rows-per-slab override; ``None`` picks the largest slab
        that fits the default memory budget.
    cache:
        ``None``/``True`` for the process default cache, ``False`` to
        disable, or a specific :class:`~repro.cache.ArtifactCache`.

    >>> import numpy as np
    >>> from repro.core.performance import PerformanceMatrix
    >>> pm = PerformanceMatrix(
    ...     dataset_names=["d0", "d1"],
    ...     model_names=["a", "b"],
    ...     values=np.array([[1.0, 0.5], [0.2, 0.2]]),
    ... )
    >>> performance_similarity_matrix(pm, top_k=1, cache=False)
    array([[1. , 0.5],
           [0.5, 1. ]])
    """
    sink = ArraySink(resolve_cache(cache), budget_bytes=DEFAULT_CHUNK_BUDGET_BYTES)
    return _write_similarity(sink, matrix, top_k=top_k, chunk_rows=chunk_rows)


def update_similarity_matrix(
    old_matrix: PerformanceMatrix,
    old_similarity: np.ndarray,
    new_matrix: PerformanceMatrix,
    *,
    top_k: int = 5,
    chunk_rows: Optional[int] = None,
    cache: CacheLike = None,
) -> np.ndarray:
    """Incrementally updated Eq. 1 similarity after a zoo add/remove.

    Given the similarity matrix of ``old_matrix`` (computed with the same
    ``top_k``), produces the similarity matrix of ``new_matrix`` touching
    only the rows/columns of *changed* models: pairs of surviving models are
    copied from ``old_similarity`` and only ``added x all`` blocks are
    recomputed.  Removals are free (a submatrix copy).  The cost is
    ``O((n_added) * n * d)`` instead of the full ``O(n^2 * d)`` broadcast.

    The result is **bitwise-identical** to
    ``performance_similarity_matrix(new_matrix, top_k=top_k)``: every Eq. 1
    entry depends only on its own pair of accuracy vectors (elementwise
    difference, per-lane partition, per-lane mean), so copied and freshly
    computed entries coincide exactly.  The property suite under
    ``tests/property/`` enforces this for randomized add/remove sequences,
    and :func:`performance_similarity_matrix` remains the from-scratch
    oracle.

    Preconditions (validated): the benchmark datasets are unchanged, the
    surviving models' accuracy columns are bitwise-unchanged, and
    ``old_similarity`` is square and aligned with ``old_matrix``.  The
    result is stored in the artifact cache under the *same* key a full
    recompute of ``new_matrix`` would use, so downstream consumers
    (distance conversion, clustering) hit the warm entry either way.

    >>> import numpy as np
    >>> from repro.core.performance import PerformanceMatrix
    >>> old = PerformanceMatrix(
    ...     dataset_names=["d0"], model_names=["a", "b"],
    ...     values=np.array([[1.0, 0.5]]),
    ... )
    >>> old_sim = performance_similarity_matrix(old, top_k=1, cache=False)
    >>> new = PerformanceMatrix(
    ...     dataset_names=["d0"], model_names=["a", "b", "c"],
    ...     values=np.array([[1.0, 0.5, 0.25]]),
    ... )
    >>> update_similarity_matrix(old, old_sim, new, top_k=1, cache=False)
    array([[1.  , 0.5 , 0.25],
           [0.5 , 1.  , 0.75],
           [0.25, 0.75, 1.  ]])
    """
    sink = ArraySink(resolve_cache(cache), budget_bytes=DEFAULT_CHUNK_BUDGET_BYTES)
    return _write_similarity(
        sink,
        new_matrix,
        top_k=top_k,
        previous=(old_matrix, old_similarity),
        chunk_rows=chunk_rows,
    )


# --------------------------------------------------------------------------- #
# Out-of-core Eq. 1 matrix (memory-mapped, shard-addressable)
# --------------------------------------------------------------------------- #
def performance_similarity_matrix_ooc(
    matrix: PerformanceMatrix,
    *,
    top_k: int = 5,
    config: Optional[SimilarityConfig] = None,
    cache: CacheLike = None,
    store: StoreLike = None,
) -> np.ndarray:
    """Eq. 1 similarity computed out-of-core into a memory-mapped store.

    The result is **bitwise-identical** to
    :func:`performance_similarity_matrix` — same writer, same kernel, same
    per-lane independence — but lives in a read-only :class:`numpy.memmap`
    inside the matrix store instead of RAM: peak memory is bounded by
    ``config.max_bytes_in_flight`` (the slabs of all tile threads) plus one
    row tile per thread, regardless of ``n``.  The file is addressed by the *same*
    content-hash key the in-RAM cache uses, so repeated builds of the same
    repository reuse the spilled artifact, and the zoo-refresh eviction
    sweep purges it together with the in-memory entries.

    Parameters
    ----------
    matrix:
        Offline performance matrix (models x benchmark datasets).
    top_k:
        Eq. 1 parameter (paper: k = 5).
    config:
        Memory policy; defaults to :class:`SimilarityConfig` defaults.
    cache:
        In-memory artifact cache consulted on a store miss: a dense entry
        under the shared key is written through to the store (no
        recompute) so the result is memmapped either way.  The out-of-core
        result is deliberately **not** copied into the in-memory cache.
    store:
        Matrix store override; defaults to ``config.store_dir`` or the
        process default store.
    """
    sink = _spill_sink(config, cache, store)
    return _write_similarity(sink, matrix, top_k=top_k)


def update_similarity_matrix_ooc(
    old_matrix: PerformanceMatrix,
    old_similarity: np.ndarray,
    new_matrix: PerformanceMatrix,
    *,
    top_k: int = 5,
    config: Optional[SimilarityConfig] = None,
    cache: CacheLike = None,
    store: StoreLike = None,
) -> np.ndarray:
    """Incremental Eq. 1 update written out-of-core (memmapped result).

    The out-of-core sibling of :func:`update_similarity_matrix`: surviving
    pairs are copied row-block by row-block from ``old_similarity`` (which
    may itself be a memmap — reads stream through it), only ``added x all``
    tiles are recomputed, and the result is published in the matrix store
    under the same canonical key a cold rebuild of ``new_matrix`` would
    use.  Bitwise-identical to both the in-RAM incremental path and the
    from-scratch oracle; peak memory is bounded by
    ``config.max_bytes_in_flight`` regardless of repository size.
    """
    sink = _spill_sink(config, cache, store)
    return _write_similarity(
        sink, new_matrix, top_k=top_k, previous=(old_matrix, old_similarity)
    )


# --------------------------------------------------------------------------- #
# Text baseline and dispatch
# --------------------------------------------------------------------------- #
def text_similarity_matrix(
    model_cards: Dict[str, str], *, cache: CacheLike = False
) -> np.ndarray:
    """Pairwise cosine similarity of model-card TF-IDF embeddings.

    The row/column order follows the insertion order of ``model_cards``
    (callers should pass an ordered mapping aligned with their model list).
    Caching is opt-in here (``cache=None`` uses the process default) since
    the key must hash every card's full text.
    """
    if not model_cards:
        raise DataError("model_cards must not be empty")
    store = resolve_cache(cache)
    key = text_similarity_key(model_cards) if store else None
    if store is not None:
        cached = store.get(key)
        if cached is not None:
            return cached
    embedder = TextEmbedder().fit(model_cards)
    similarity = embedder.similarity_matrix()
    # Cosine similarity of TF-IDF vectors is non-negative; clip defensively
    # and force an exact unit diagonal for distance conversion downstream.
    similarity = np.clip(similarity, 0.0, 1.0)
    np.fill_diagonal(similarity, 1.0)
    if store is not None:
        store.put(key, similarity)
    return similarity


def similarity_matrix_for(
    matrix: PerformanceMatrix,
    *,
    method: str = "performance",
    top_k: int = 5,
    model_cards: Dict[str, str] | None = None,
    cache: CacheLike = None,
) -> np.ndarray:
    """Dispatch between the performance-based and text-based similarities.

    For ``method="text"`` the ``model_cards`` key set must match
    ``matrix.model_names`` exactly and any mismatch raises
    :class:`~repro.utils.exceptions.ConfigurationError`: a missing card
    previously surfaced as a bare ``KeyError``, and extra cards — while
    formerly ignored — almost always mean the cards belong to a different
    hub or matrix than the one being clustered, which is worth failing
    loudly over.
    """
    if method == "performance":
        return performance_similarity_matrix(matrix, top_k=top_k, cache=cache)
    if method == "text":
        if model_cards is None:
            raise ConfigurationError("text similarity requires model_cards")
        expected, provided = set(matrix.model_names), set(model_cards)
        if expected != provided:
            missing = sorted(expected - provided)
            extra = sorted(provided - expected)
            raise ConfigurationError(
                "model_cards keys must match matrix.model_names exactly; "
                f"missing: {missing[:3]}, unexpected: {extra[:3]}"
            )
        ordered = {name: model_cards[name] for name in matrix.model_names}
        return text_similarity_matrix(ordered, cache=cache)
    raise ConfigurationError(f"unknown similarity method {method!r}")


def pairwise_model_similarity(
    matrix: PerformanceMatrix, model_a: str, model_b: str, *, top_k: int = 5
) -> float:
    """Eq. 1 similarity between two named models."""
    return performance_similarity(
        matrix.model_vector(model_a), matrix.model_vector(model_b), top_k=top_k
    )
