"""Unit tests of the out-of-core Eq. 1 similarity paths."""

import threading

import numpy as np
import pytest

from repro.cache import ArtifactCache, similarity_key
from repro.core.config import SimilarityConfig
from repro.core.performance import PerformanceMatrix
from repro.core.similarity import (
    performance_similarity_matrix,
    performance_similarity_matrix_ooc,
    update_similarity_matrix,
    update_similarity_matrix_ooc,
)
from repro.store import MatrixStore
from repro.utils.exceptions import ConfigurationError, DataError
from oracles import _performance_similarity_matrix_loop


def _matrix(rng, n, d=7, prefix="m"):
    return PerformanceMatrix(
        dataset_names=[f"d{i}" for i in range(d)],
        model_names=[f"{prefix}{j}" for j in range(n)],
        values=rng.uniform(0.0, 1.0, size=(d, n)),
    )


@pytest.fixture()
def store(tmp_path):
    return MatrixStore(tmp_path / "store")


@pytest.fixture()
def config(tmp_path):
    # Tiny in-flight budget: exercises multi-tile streaming on small zoos.
    return SimilarityConfig(
        max_bytes_in_flight=4096, spill_threshold_bytes=0, store_dir=None
    )


@pytest.mark.parametrize("n,d", [(1, 4), (2, 1), (7, 3), (23, 11), (40, 24)])
def test_ooc_matches_dense_bitwise(n, d, config, store):
    rng = np.random.default_rng(n * 100 + d)
    matrix = _matrix(rng, n, d)
    dense = performance_similarity_matrix(matrix, cache=False)
    spilled = performance_similarity_matrix_ooc(
        matrix, config=config, cache=False, store=store
    )
    assert isinstance(spilled, np.memmap)
    assert np.array_equal(dense, spilled)


def test_ooc_result_is_reused_from_store(config, store):
    rng = np.random.default_rng(0)
    matrix = _matrix(rng, 9)
    first = performance_similarity_matrix_ooc(
        matrix, config=config, cache=False, store=store
    )
    path = store.path_for(similarity_key(matrix, method="performance", top_k=5))
    mtime = path.stat().st_mtime_ns
    second = performance_similarity_matrix_ooc(
        matrix, config=config, cache=False, store=store
    )
    assert path.stat().st_mtime_ns == mtime  # served, not recomputed
    assert np.array_equal(first, second)


def test_ooc_write_through_from_memory_cache(config, store, monkeypatch):
    rng = np.random.default_rng(1)
    matrix = _matrix(rng, 6)
    cache = ArtifactCache(max_entries=4)
    dense = performance_similarity_matrix(matrix, cache=cache)
    # A warm dense entry under the shared key is spilled, not recomputed:
    # the Eq. 1 kernel must never run on this call.
    import repro.core.similarity as similarity_module

    def _boom(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("cache hit must not recompute")

    monkeypatch.setattr(similarity_module, "_similarity_into", _boom)
    result = performance_similarity_matrix_ooc(
        matrix, config=config, cache=cache, store=store
    )
    assert isinstance(result, np.memmap)
    assert np.array_equal(result, dense)
    assert store.get(similarity_key(matrix, method="performance", top_k=5)) is not None


def test_ooc_does_not_populate_memory_cache(config, store):
    rng = np.random.default_rng(2)
    matrix = _matrix(rng, 6)
    cache = ArtifactCache(max_entries=4)
    performance_similarity_matrix_ooc(matrix, config=config, cache=cache, store=store)
    assert cache.get(similarity_key(matrix, method="performance", top_k=5)) is None


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("door", ["dense", "dense-update", "ooc", "ooc-update"])
def test_tile_pool_writes_oracle_bytes(door, workers, monkeypatch, tmp_path):
    """Any tile-pool size writes the oracle's bytes into either sink.

    Every other model of ``new`` is added, so an update's 3-row tiles are
    scattered and go through the ``(tile, n)`` block path.  Tiles run on
    the calling thread only when the pool has one worker.
    """
    import repro.core.similarity as similarity_module

    n, d, rows = 48, 6, 3
    rng = np.random.default_rng(3)
    new = _matrix(rng, n, d)
    old = new.submatrix(new.model_names[::2])
    old_similarity = performance_similarity_matrix(old, cache=False)
    oracle = _performance_similarity_matrix_loop(new)

    tile_threads = []
    similarity_into = similarity_module._similarity_into

    def spy(out, *args):
        if out.shape != (1, 1):  # not the update's probe
            tile_threads.append(threading.get_ident())
        similarity_into(out, *args)

    monkeypatch.setattr(similarity_module, "_tile_workers", lambda: workers)
    monkeypatch.setattr(similarity_module, "_similarity_into", spy)
    # Each worker's slab share holds exactly ``rows`` rows.
    config = SimilarityConfig(
        max_bytes_in_flight=rows * workers * n * d * 8, spill_threshold_bytes=0
    )
    store = MatrixStore(tmp_path / "store")
    if door == "dense":
        result = performance_similarity_matrix(new, chunk_rows=rows, cache=False)
    elif door == "dense-update":
        result = update_similarity_matrix(
            old, old_similarity, new, chunk_rows=rows, cache=False
        )
    else:
        result = _through(door, old, old_similarity, new, config, store)
    assert isinstance(result, np.memmap) == door.startswith("ooc")
    assert np.array_equal(result, oracle)
    assert len(tile_threads) >= 4
    on_caller = [ident == threading.get_ident() for ident in tile_threads]
    assert all(on_caller) if workers == 1 else not any(on_caller)


N_TRIANGLE = 23


@pytest.mark.parametrize("sink_kind", ["dense", "store"])
@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("rows", [1, 2, 3, 7, N_TRIANGLE])
def test_each_unordered_pair_is_computed_once(rows, workers, sink_kind, monkeypatch, tmp_path):
    """A full build's tile ``[a, b)`` computes only columns ``a..n``.

    The rest of its rows is mirrored in from earlier tiles, so the lanes
    sum to ``rows_t * (n - first_t)`` over the tiles.  The full build and
    an update whose added models are scattered among the survivors both
    write the oracle's bytes.
    """
    import repro.core.similarity as similarity_module
    from repro.store.sink import ArraySink, StoreSink

    n, d = N_TRIANGLE, 7
    rng = np.random.default_rng(29)
    new = _matrix(rng, n, d)
    gone = _matrix(rng, 2, d, prefix="gone")
    survivors = new.model_names[::2]  # the odd positions are added
    old = PerformanceMatrix(
        dataset_names=new.dataset_names,
        model_names=survivors + gone.model_names,
        values=np.hstack([new.submatrix(survivors).values, gone.values]),
    )
    old_similarity = _performance_similarity_matrix_loop(old)
    oracle = _performance_similarity_matrix_loop(new).tobytes()

    lanes = []
    similarity_into = similarity_module._similarity_into

    def spy(out, row_vectors, col_vectors, *args):
        lanes.append(row_vectors.shape[0] * col_vectors.shape[0])
        similarity_into(out, row_vectors, col_vectors, *args)

    monkeypatch.setattr(similarity_module, "_tile_workers", lambda: workers)
    monkeypatch.setattr(similarity_module, "_similarity_into", spy)

    def sink(name):
        if sink_kind == "dense":
            return ArraySink(None, budget_bytes=1 << 20)
        return StoreSink(MatrixStore(tmp_path / name), budget_bytes=1 << 20)

    full = similarity_module._write_similarity(sink("full"), new, top_k=5, chunk_rows=rows)
    firsts = range(0, n, rows)
    expected = sum((min(first + rows, n) - first) * (n - first) for first in firsts)
    assert sum(lanes) == expected
    assert expected <= n * (n + 1) // 2 + n * rows / 2
    assert np.asarray(full).tobytes() == oracle

    lanes.clear()
    updated = similarity_module._write_similarity(
        sink("update"), new, top_k=5, previous=(old, old_similarity), chunk_rows=rows
    )
    added, kept = n // 2, n - n // 2
    firsts = range(0, added, rows)
    expected = sum((min(first + rows, added) - first) * (kept + added - first) for first in firsts)
    assert sum(lanes) == 1 + expected  # one lane is the top_k probe
    assert np.asarray(updated).tobytes() == oracle


def test_ooc_rejects_bad_top_k(config, store):
    rng = np.random.default_rng(5)
    with pytest.raises(ConfigurationError):
        performance_similarity_matrix_ooc(
            _matrix(rng, 4), top_k=0, config=config, store=store
        )


def test_ooc_rejects_empty_vectors(config, store):
    matrix = PerformanceMatrix(
        dataset_names=[], model_names=["a", "b"], values=np.zeros((0, 2))
    )
    with pytest.raises(DataError):
        performance_similarity_matrix_ooc(
            matrix, config=config, cache=False, store=store
        )


# --------------------------------------------------------------------------- #
# incremental out-of-core updates
# --------------------------------------------------------------------------- #
def test_update_ooc_matches_dense_and_oracle(config, store):
    rng = np.random.default_rng(6)
    grown = _matrix(rng, 20)
    old = grown.submatrix(grown.model_names[:14])
    old_similarity = performance_similarity_matrix(old, cache=False)
    dense = update_similarity_matrix(old, old_similarity, grown, cache=False)
    spilled = update_similarity_matrix_ooc(
        old, old_similarity, grown, config=config, cache=False, store=store
    )
    oracle = performance_similarity_matrix(grown, cache=False)
    assert isinstance(spilled, np.memmap)
    assert np.array_equal(dense, spilled)
    assert np.array_equal(oracle, spilled)


def test_update_ooc_accepts_memmapped_old_similarity(config, store, tmp_path):
    rng = np.random.default_rng(7)
    grown = _matrix(rng, 16)
    old = grown.submatrix(grown.model_names[:11])
    old_spilled = performance_similarity_matrix_ooc(
        old, config=config, cache=False, store=MatrixStore(tmp_path / "old")
    )
    updated = update_similarity_matrix_ooc(
        old, old_spilled, grown, config=config, cache=False, store=store
    )
    oracle = performance_similarity_matrix(grown, cache=False)
    assert np.array_equal(oracle, updated)


def test_update_ooc_removal_only(config, store):
    rng = np.random.default_rng(8)
    grown = _matrix(rng, 15)
    shrunk = grown.submatrix(grown.model_names[:9])
    old_similarity = performance_similarity_matrix(grown, cache=False)
    updated = update_similarity_matrix_ooc(
        grown, old_similarity, shrunk, config=config, cache=False, store=store
    )
    oracle = performance_similarity_matrix(shrunk, cache=False)
    assert np.array_equal(oracle, updated)


def test_update_ooc_shares_dense_validation(config, store):
    rng = np.random.default_rng(9)
    old = _matrix(rng, 6)
    new = PerformanceMatrix(
        dataset_names=["other"],
        model_names=old.model_names,
        values=rng.uniform(size=(1, 6)),
    )
    old_similarity = performance_similarity_matrix(old, cache=False)
    with pytest.raises(DataError):
        update_similarity_matrix_ooc(
            old, old_similarity, new, config=config, cache=False, store=store
        )


# --------------------------------------------------------------------------- #
# edge cases of the one Eq. 1 writer, through all four front doors
# --------------------------------------------------------------------------- #
FRONT_DOORS = ["dense", "dense-update", "ooc", "ooc-update"]


def _through(door, old, old_similarity, new, config, store):
    """Build ``new``'s similarity through ``door``; updates start from ``old``."""
    if door == "dense":
        return performance_similarity_matrix(new, cache=False)
    if door == "ooc":
        return performance_similarity_matrix_ooc(new, config=config, cache=False, store=store)
    if door == "dense-update":
        return update_similarity_matrix(old, old_similarity, new, cache=False)
    return update_similarity_matrix_ooc(
        old, old_similarity, new, config=config, cache=False, store=store
    )


@pytest.mark.parametrize("door", FRONT_DOORS)
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_front_doors_without_benchmarks_match_oracle(door, n, config, store):
    """``d == 0``: all-ones below two models, the oracle's DataError above."""
    matrix = PerformanceMatrix(
        dataset_names=[], model_names=[f"m{j}" for j in range(n)], values=np.zeros((0, n))
    )
    old = matrix.submatrix(matrix.model_names[: min(n, 1)])
    old_similarity = performance_similarity_matrix(old, cache=False)
    if n >= 2:
        with pytest.raises(DataError):
            _performance_similarity_matrix_loop(matrix)
        with pytest.raises(DataError):
            _through(door, old, old_similarity, matrix, config, store)
    else:
        result = _through(door, old, old_similarity, matrix, config, store)
        assert np.array_equal(result, _performance_similarity_matrix_loop(matrix))


@pytest.mark.parametrize("door", ["dense-update", "ooc-update"])
@pytest.mark.parametrize("old_backing", ["dense", "memmap"])
def test_update_doors_accept_either_old_backing(door, old_backing, config, store, tmp_path):
    """A dense previous epoch feeds an out-of-core update and vice versa.

    Added models are interleaved with survivors, so their rows are
    scattered and go through the writer's block-and-scatter path.
    """
    rng = np.random.default_rng(10)
    pool = _matrix(rng, 16, d=6)
    old = pool.submatrix(pool.model_names[:10])
    survivors = [name for name in old.model_names if name not in {"m2", "m7"}]
    added = pool.model_names[10:]
    order = [name for pair in zip(survivors, added) for name in pair]
    new = pool.submatrix(order + survivors[len(added):])
    if old_backing == "dense":
        old_similarity = performance_similarity_matrix(old, cache=False)
    else:
        old_similarity = performance_similarity_matrix_ooc(
            old, config=config, cache=False, store=MatrixStore(tmp_path / "old")
        )
    result = _through(door, old, old_similarity, new, config, store)
    assert isinstance(result, np.memmap) == (door == "ooc-update")
    assert np.array_equal(result, _performance_similarity_matrix_loop(new))


def test_update_interleaved_adds_and_edge_removals_bytes_equal(config, store):
    # Survivors' copy maps every new position to its old row and column:
    # added models sit between survivors, and the first and last old
    # columns are removed, so survivors move by varying offsets.
    rng = np.random.default_rng(17)
    old = _matrix(rng, 30)
    fresh = _matrix(rng, 5, prefix="a")
    removed = {"m0", "m13", "m29"}
    survivors = [name for name in old.model_names if name not in removed]
    names = []
    for position, name in enumerate(survivors):
        if position % 6 == 0 and position // 6 < 4:
            names.append(fresh.model_names[position // 6])
        names.append(name)
    names.append(fresh.model_names[4])
    source = dict(zip(old.model_names + fresh.model_names, np.hstack([old.values, fresh.values]).T))
    new = PerformanceMatrix(
        dataset_names=old.dataset_names,
        model_names=names,
        values=np.stack([source[name] for name in names], axis=1),
    )
    expected = performance_similarity_matrix(new, cache=False).tobytes()
    old_dense = performance_similarity_matrix(old, cache=False)
    dense = update_similarity_matrix(old, old_dense, new, cache=False)
    assert dense.tobytes() == expected
    old_spilled = performance_similarity_matrix_ooc(old, config=config, cache=False, store=store)
    spilled = update_similarity_matrix_ooc(
        old, old_spilled, new, config=config, cache=False, store=store
    )
    assert isinstance(spilled, np.memmap)
    assert np.asarray(spilled).tobytes() == expected
