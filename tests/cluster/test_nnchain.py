"""Tests for repro.cluster.nnchain (nearest-neighbor-chain agglomeration)."""

import numpy as np
import pytest

from repro.cluster.distance import pairwise_distances
from repro.cluster.hierarchical import AgglomerativeClustering
from repro.cluster.nnchain import NNChainClustering, TiedDistancesError, nn_chain_dendrogram
from repro.store import MatrixStore
from repro.utils.exceptions import ConfigurationError, DataError


def two_blob_distances(rng, n_per_blob=8, separation=10.0):
    points = np.vstack(
        [
            rng.normal(size=(n_per_blob, 2)),
            separation + rng.normal(size=(n_per_blob, 2)),
        ]
    )
    return pairwise_distances(points)


def random_distances(seed, n=24, dim=6):
    return pairwise_distances(np.random.default_rng(seed).normal(size=(n, dim)))


class TestNNChainClustering:
    def test_num_clusters_stopping_rule(self):
        distances = two_blob_distances(np.random.default_rng(0))
        labels = NNChainClustering(num_clusters=2).fit_predict(distances)
        assert len(set(labels.tolist())) == 2
        assert len(set(labels[:8].tolist())) == 1
        assert len(set(labels[8:].tolist())) == 1
        assert labels[0] != labels[8]

    def test_distance_threshold_stopping_rule(self):
        distances = two_blob_distances(np.random.default_rng(1))
        labels = NNChainClustering(distance_threshold=5.0).fit_predict(distances)
        assert len(set(labels.tolist())) == 2

    def test_tiny_threshold_keeps_singletons(self):
        distances = two_blob_distances(np.random.default_rng(2))
        labels = NNChainClustering(distance_threshold=1e-9).fit_predict(distances)
        assert len(set(labels.tolist())) == distances.shape[0]

    def test_single_cluster_when_target_is_one(self):
        distances = two_blob_distances(np.random.default_rng(3))
        labels = NNChainClustering(num_clusters=1).fit_predict(distances)
        assert set(labels.tolist()) == {0}

    @pytest.mark.parametrize("linkage", ["average", "single", "complete"])
    def test_all_linkages_separate_blobs(self, linkage):
        distances = two_blob_distances(np.random.default_rng(4))
        labels = NNChainClustering(num_clusters=2, linkage=linkage).fit_predict(
            distances
        )
        assert labels[0] != labels[8]

    def test_requires_a_stopping_rule(self):
        with pytest.raises(ConfigurationError):
            NNChainClustering()

    def test_rejects_bad_linkage(self):
        with pytest.raises(ConfigurationError):
            NNChainClustering(num_clusters=2, linkage="ward")

    def test_rejects_invalid_distance_matrix(self):
        with pytest.raises(DataError):
            NNChainClustering(num_clusters=2).fit_predict(
                np.array([[0.0, 1.0], [2.0, 0.0]])
            )

    def test_single_item(self):
        labels = NNChainClustering(num_clusters=1).fit_predict(np.zeros((1, 1)))
        assert labels.tolist() == [0]


class TestScanEquivalence:
    """The issue's exactness gate: merge-for-merge identical to the scan."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("linkage", ["average", "single", "complete"])
    def test_labels_match_scan_num_clusters(self, seed, linkage):
        distances = random_distances(seed)
        for k in (1, 2, 5, 12):
            scan = AgglomerativeClustering(num_clusters=k, linkage=linkage)
            chain = NNChainClustering(num_clusters=k, linkage=linkage)
            assert np.array_equal(
                scan.fit_predict(distances), chain.fit_predict(distances)
            ), (seed, linkage, k)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("linkage", ["average", "single", "complete"])
    def test_labels_match_scan_distance_threshold(self, seed, linkage):
        distances = random_distances(seed)
        for quantile in (0.05, 0.2, 0.5, 0.9):
            threshold = float(
                np.quantile(distances[np.triu_indices_from(distances, k=1)], quantile)
            ) * 1.0000001  # nudge off exact data values: heights of the two
            # engines agree to ~1 ulp for average linkage, not bitwise
            scan = AgglomerativeClustering(
                distance_threshold=threshold, linkage=linkage
            )
            chain = NNChainClustering(distance_threshold=threshold, linkage=linkage)
            assert np.array_equal(
                scan.fit_predict(distances), chain.fit_predict(distances)
            ), (seed, linkage, quantile)

    @pytest.mark.parametrize("linkage", ["average", "single", "complete"])
    def test_merge_history_matches_scan(self, linkage):
        distances = random_distances(42, n=30)
        scan = AgglomerativeClustering(num_clusters=3, linkage=linkage)
        chain = NNChainClustering(num_clusters=3, linkage=linkage)
        scan.fit_predict(distances)
        chain.fit_predict(distances)
        assert len(scan.merge_history_) == len(chain.merge_history_)
        for (a1, b1, h1), (a2, b2, h2) in zip(
            scan.merge_history_, chain.merge_history_
        ):
            assert (a1, b1) == (a2, b2)
            if linkage == "average":
                # Lance-Williams rounds differently from the scan's raw
                # block means; the values are mathematically identical.
                assert h1 == pytest.approx(h2, rel=1e-12)
            else:
                assert h1 == h2  # min/max linkage updates are exact


class TestTieDelegation:
    """Tied inputs must reproduce the scan's first-occurrence tie-breaking."""

    def quantized(self, seed, n=16):
        rng = np.random.default_rng(seed)
        # A coarse value grid guarantees duplicate off-diagonal distances.
        raw = rng.integers(1, 5, size=(n, n)).astype(float)
        distances = (raw + raw.T) / 2
        np.fill_diagonal(distances, 0.0)
        return distances

    def test_dendrogram_refuses_ties(self):
        with pytest.raises(TiedDistancesError):
            nn_chain_dendrogram(self.quantized(0))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("linkage", ["average", "single", "complete"])
    def test_tied_inputs_match_scan_exactly(self, seed, linkage):
        distances = self.quantized(seed)
        for kwargs in ({"num_clusters": 4}, {"distance_threshold": 2.0}):
            scan = AgglomerativeClustering(linkage=linkage, **kwargs)
            chain = NNChainClustering(linkage=linkage, **kwargs)
            assert np.array_equal(
                scan.fit_predict(distances), chain.fit_predict(distances)
            )
            # Delegation runs the scan underneath: histories are bitwise.
            assert scan.merge_history_ == chain.merge_history_

    def test_duplicate_points_match_scan(self):
        rng = np.random.default_rng(7)
        points = rng.normal(size=(6, 3))
        points = np.vstack([points, points[:3]])  # exact duplicates
        distances = pairwise_distances(points)
        scan = AgglomerativeClustering(num_clusters=3)
        chain = NNChainClustering(num_clusters=3)
        assert np.array_equal(
            scan.fit_predict(distances), chain.fit_predict(distances)
        )


class TestMemmapPath:
    def memmapped(self, tmp_path, distances):
        path = tmp_path / "distances.npy"
        np.save(path, distances)
        return np.load(path, mmap_mode="r")

    def test_memmap_bitwise_equals_dense(self, tmp_path):
        distances = random_distances(9, n=40)
        mapped = self.memmapped(tmp_path, distances)
        dense_algo = NNChainClustering(num_clusters=5)
        mapped_algo = NNChainClustering(num_clusters=5)
        dense_labels = dense_algo.fit_predict(distances)
        mapped_labels = mapped_algo.fit_predict(
            mapped, work_store=MatrixStore(tmp_path / "store")
        )
        assert np.array_equal(dense_labels, mapped_labels)
        assert dense_algo.merge_history_ == mapped_algo.merge_history_

    def test_scratch_lands_in_callers_store(self, tmp_path):
        calls = []

        class SpyStore(MatrixStore):
            def scratch(self, shape, dtype=float, *, prefix="scratch"):
                calls.append((tuple(shape), prefix))
                return super().scratch(shape, dtype, prefix=prefix)

        distances = random_distances(10, n=12)
        mapped = self.memmapped(tmp_path, distances)
        spy = SpyStore(tmp_path / "store")
        NNChainClustering(num_clusters=3).fit_predict(mapped, work_store=spy)
        assert calls == [((12, 12), "nnchain")]

    def test_dense_input_never_touches_the_store(self, tmp_path):
        class ExplodingStore(MatrixStore):
            def scratch(self, *args, **kwargs):  # pragma: no cover - guard
                raise AssertionError("dense input must not spill")

        distances = random_distances(11, n=10)
        NNChainClustering(num_clusters=2).fit_predict(
            distances, work_store=ExplodingStore(tmp_path / "store")
        )
