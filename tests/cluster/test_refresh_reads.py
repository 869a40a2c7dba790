"""A zoo refresh computes only what it reads.

A clustering's silhouette is computed on first read from the similarity it
holds, and ``update_clustering`` converts only the added rows of the
similarity to distances.  These tests pin both to the eager results —
the silhouette scored at construction on the distance the clustering ran
on (``tests/oracles.py:eager_silhouette``) and the full
``similarity_to_distance`` conversion — byte for byte, and check that a
refresh no longer pays for either.
"""

import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import repro.cluster.incremental as incremental_module
import repro.core.model_clustering as clustering_module
from repro.cluster.distance import (
    check_distance_rows,
    distance_memmap_for,
    distance_rows,
    similarity_to_distance,
)
from repro.cluster.incremental import update_clustering
from repro.cluster.silhouette import silhouette_samples
from repro.core.config import ClusteringConfig, SimilarityConfig
from repro.core.model_clustering import ModelClusterer
from repro.core.performance import PerformanceMatrix
from repro.core.similarity import update_similarity_matrix, update_similarity_matrix_ooc
from repro.utils.exceptions import DataError
from oracles import eager_silhouette, symmetrised_distance


def _zoo(seed, n, datasets=12, families=8):
    """``n`` models drawn from seeded latent families, plus Gaussian noise."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.3, 0.9, size=(families, datasets))
    family = rng.integers(0, families, size=n)
    values = np.clip(centers[family] + rng.normal(0.0, 0.03, (n, datasets)), 0.0, 1.0).T
    return PerformanceMatrix(
        dataset_names=[f"d{i}" for i in range(datasets)],
        model_names=[f"m{i:05d}" for i in range(n)],
        values=values,
    )


def _bits(value):
    return None if value is None else float(value).hex()


def _chain_steps(pool, base_n, steps, swap, seed):
    """``steps`` matrices, each swapping ``swap`` random models for fresh ones."""
    rng = np.random.default_rng(seed)
    column = {name: index for index, name in enumerate(pool.model_names)}
    spare = list(pool.model_names[base_n:])
    names = list(pool.model_names[:base_n])

    def matrix_of(chosen):
        return PerformanceMatrix(
            dataset_names=pool.dataset_names,
            model_names=list(chosen),
            values=pool.values[:, [column[name] for name in chosen]],
        )

    yield matrix_of(names)
    for _ in range(steps):
        removed = set(rng.choice(names, size=swap, replace=False).tolist())
        added, spare = spare[:swap], spare[swap:]
        names = [name for name in names if name not in removed] + added
        yield matrix_of(names)


CHAIN_STEPS = 30
CONFIG = ClusteringConfig()


class TestLazySilhouetteOverAChain:
    def test_in_ram_chain_reads_the_eager_value(self):
        matrices = _chain_steps(_zoo(600, 60 + 2 * CHAIN_STEPS), 60, CHAIN_STEPS, 2, 600)
        matrix = next(matrices)
        clustering = ModelClusterer(CONFIG).cluster(matrix, cache=False)
        checked = [clustering]
        reclustered = 0
        for new_matrix in matrices:
            similarity = update_similarity_matrix(
                matrix, clustering.similarity, new_matrix, top_k=CONFIG.top_k, cache=False
            )
            update = update_clustering(clustering, new_matrix, similarity, config=CONFIG)
            reclustered += update.reclustered
            matrix, clustering = new_matrix, update.clustering
            checked.append(clustering)
        assert 0 < reclustered < CHAIN_STEPS  # both refresh shapes are covered
        for clustering in checked:
            expected = eager_silhouette(
                symmetrised_distance(clustering.similarity), clustering.assignment.labels
            )
            assert expected is not None
            assert _bits(clustering.silhouette) == _bits(expected)

    def test_out_of_core_chain_reads_the_eager_value(self, tmp_path):
        spill = SimilarityConfig(
            spill_threshold_bytes=0, max_bytes_in_flight=4096, store_dir=str(tmp_path)
        )
        matrices = _chain_steps(_zoo(601, 60 + 2 * CHAIN_STEPS), 60, CHAIN_STEPS, 2, 601)
        matrix = next(matrices)
        clustering = ModelClusterer(CONFIG).cluster(matrix, cache=False, similarity_config=spill)
        checked = [(matrix, clustering)]
        for new_matrix in matrices:
            similarity = update_similarity_matrix_ooc(
                matrix, clustering.similarity, new_matrix,
                top_k=CONFIG.top_k, config=spill, cache=False,
            )
            update = update_clustering(
                clustering, new_matrix, similarity, config=CONFIG, similarity_config=spill
            )
            matrix, clustering = new_matrix, update.clustering
            checked.append((matrix, clustering))
        for matrix, clustering in checked:
            assert isinstance(clustering.similarity, np.memmap)
            # The out-of-core distance a re-cluster of this step runs on.
            distance = distance_memmap_for(
                matrix, clustering.similarity, top_k=CONFIG.top_k, config=spill
            )
            expected = eager_silhouette(distance, clustering.assignment.labels)
            assert expected is not None
            assert _bits(clustering.silhouette) == _bits(expected)
        # Every scratch distance of the reads is gone again.
        assert not list(tmp_path.glob("silhouette-*"))

    def test_concurrent_first_reads_agree(self, monkeypatch):
        clustering = ModelClusterer(CONFIG).cluster(_zoo(602, 80), cache=False)
        readers_count = 4  # more readers than the host's cores
        # Hold every reader inside the computation, so each one computes.
        barrier = threading.Barrier(readers_count, timeout=30)
        score = clustering_module.silhouette_score

        def rendezvous(distance, labels):
            barrier.wait()
            return score(distance, labels)

        monkeypatch.setattr(clustering_module, "silhouette_score", rendezvous)
        results = []
        readers = [
            threading.Thread(target=lambda: results.append(clustering.silhouette))
            for _ in range(readers_count)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        expected = eager_silhouette(
            symmetrised_distance(clustering.similarity), clustering.assignment.labels
        )
        assert [_bits(value) for value in results] == [_bits(expected)] * readers_count
        assert _bits(clustering.silhouette) == _bits(expected)

    def test_out_of_core_read_never_densifies(self, tmp_path):
        n = 1000
        spill = SimilarityConfig(
            spill_threshold_bytes=0, max_bytes_in_flight=1 << 20, store_dir=str(tmp_path)
        )
        clustering = ModelClusterer(CONFIG).cluster(
            _zoo(603, n, datasets=24, families=60), cache=False, similarity_config=spill
        )
        assert isinstance(clustering.similarity, np.memmap)
        tracemalloc.start()
        try:
            value = clustering.silhouette
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value is not None
        assert peak < n * n * 8 / 2


class TestRefreshReadsOnlyAddedRows:
    def test_refresh_calls_neither_silhouette_nor_full_conversion(self, count_calls):
        calls = count_calls(silhouette_samples, similarity_to_distance)
        matrices = _chain_steps(_zoo(604, 84), 80, 1, 4, 604)
        matrix, new_matrix = next(matrices), next(matrices)
        clustering = ModelClusterer(CONFIG).cluster(matrix, cache=False)
        assert "distance_threshold" in clustering.extras
        calls.clear()
        similarity = update_similarity_matrix(
            matrix, clustering.similarity, new_matrix, top_k=CONFIG.top_k, cache=False
        )
        update = update_clustering(clustering, new_matrix, similarity, config=CONFIG)
        assert not update.reclustered and update.added
        assert calls == Counter()
        # The counters do see the silhouette path: the first read pays it.
        assert update.clustering.silhouette is not None
        assert calls["silhouette_samples"] == 1
        assert calls["similarity_to_distance"] == 1

    def test_a_read_never_changes_extras(self):
        clustering = ModelClusterer(CONFIG).cluster(_zoo(605, 40), cache=False)
        before = dict(clustering.extras)
        assert clustering.silhouette is not None
        assert clustering.extras == before

    @pytest.mark.parametrize("memmapped", [False, True])
    def test_added_rows_equal_the_full_conversion(self, tmp_path, memmapped):
        rng = np.random.default_rng(7)
        similarity = rng.uniform(-0.2, 1.2, size=(9, 9))
        similarity = (similarity + similarity.T) / 2.0
        similarity[0, 3] += 1e-12  # inexactly symmetric
        similarity[2, 5] = np.nan
        similarity[6, 1] = -1e308  # 1 - s lies above finfo.max / 2
        similarity[7, 8] = similarity[8, 7] = -1e308  # an exact pair above it
        if memmapped:
            mapped = np.lib.format.open_memmap(
                tmp_path / "similarity.npy", mode="w+", shape=similarity.shape
            )
            mapped[:] = similarity
            similarity = mapped
        with np.errstate(over="ignore"):  # the pairs above finfo.max / 2 average to inf
            full = similarity_to_distance(np.asarray(similarity))
            for rows in ([], [0], [3, 0], [1, 2, 5, 6, 7, 8], list(range(9))):
                assert distance_rows(similarity, rows).tobytes() == full[rows].tobytes()


class TestRefreshChecksWhatItReads:
    @staticmethod
    def _swap(config, seed):
        matrices = _chain_steps(_zoo(seed, 44), 40, 1, 4, seed)
        matrix, new_matrix = next(matrices), next(matrices)
        clustering = ModelClusterer(config).cluster(matrix, cache=False)
        similarity = update_similarity_matrix(
            matrix, clustering.similarity, new_matrix, top_k=config.top_k, cache=False
        )
        old = set(matrix.model_names)
        added = [i for i, name in enumerate(new_matrix.model_names) if name not in old]
        return clustering, new_matrix, similarity, added

    def test_nan_in_an_added_row_raises(self):
        clustering, new_matrix, similarity, added = self._swap(CONFIG, 606)
        assert "distance_threshold" in clustering.extras
        similarity = similarity.copy()
        similarity[0, added[-1]] = np.nan  # seen from the added row as its mirror
        with pytest.raises(DataError, match="symmetric"):
            update_clustering(clustering, new_matrix, similarity, config=CONFIG)

    def test_an_unchecked_distance_is_refused_where_it_is_read(self):
        config = ClusteringConfig(num_clusters=6)  # records no merge threshold
        clustering, new_matrix, similarity, added = self._swap(config, 608)
        assert "distance_threshold" not in clustering.extras
        survivors = [i for i in range(len(similarity)) if i not in added]
        similarity = similarity.copy()
        # Off every added row: only the quantile's whole-matrix check reads it.
        similarity[survivors[0], survivors[1]] = np.nan
        with pytest.raises(DataError, match="symmetric"):
            update_clustering(clustering, new_matrix, similarity, config=config)

    def test_a_spilled_quantile_reads_an_out_of_core_distance(self, tmp_path, monkeypatch):
        spill = SimilarityConfig(
            spill_threshold_bytes=0, max_bytes_in_flight=4096, store_dir=str(tmp_path)
        )
        config = ClusteringConfig(num_clusters=6)  # records no merge threshold
        matrices = _chain_steps(_zoo(609, 44), 40, 1, 4, 609)
        matrix, new_matrix = next(matrices), next(matrices)
        clustering = ModelClusterer(config).cluster(matrix, cache=False, similarity_config=spill)
        assert "distance_threshold" not in clustering.extras
        similarity = update_similarity_matrix_ooc(
            matrix, clustering.similarity, new_matrix,
            top_k=config.top_k, config=spill, cache=False,
        )
        checked = []
        check = incremental_module.check_distance_matrix

        def recording(distance):
            checked.append(type(distance))
            return check(distance)

        monkeypatch.setattr(incremental_module, "check_distance_matrix", recording)
        update = update_clustering(
            clustering, new_matrix, similarity, config=config, similarity_config=spill
        )
        assert not update.reclustered
        assert checked == [np.memmap]
        dense = update_clustering(clustering, new_matrix, np.array(similarity), config=config)
        assert checked == [np.memmap, np.ndarray]
        assert np.array_equal(
            update.clustering.assignment.labels, dense.clustering.assignment.labels
        )
        assert update.clustering.extras == dense.clustering.extras

    def test_rows_check_gives_the_full_check_verdict(self):
        similarity = np.random.default_rng(9).uniform(size=(6, 6))
        similarity = (similarity + similarity.T) / 2.0
        assert check_distance_rows(distance_rows(similarity, [1, 4])) is not None
        similarity[4, 2] = np.nan
        with pytest.raises(DataError, match="symmetric"):
            check_distance_rows(distance_rows(similarity, [2]))
