"""Tests for repro.cluster.hierarchical."""

import numpy as np
import pytest

from repro.cluster.distance import pairwise_distances
from repro.cluster.hierarchical import AgglomerativeClustering
from repro.utils.exceptions import ConfigurationError, DataError


def two_blob_distances(rng, n_per_blob=8, separation=10.0):
    points = np.vstack(
        [
            rng.normal(size=(n_per_blob, 2)),
            separation + rng.normal(size=(n_per_blob, 2)),
        ]
    )
    return pairwise_distances(points)


class TestAgglomerativeClustering:
    def test_num_clusters_stopping_rule(self):
        distances = two_blob_distances(np.random.default_rng(0))
        labels = AgglomerativeClustering(num_clusters=2).fit_predict(distances)
        assert len(set(labels.tolist())) == 2
        # The two blobs must be separated.
        assert len(set(labels[:8].tolist())) == 1
        assert len(set(labels[8:].tolist())) == 1
        assert labels[0] != labels[8]

    def test_distance_threshold_stopping_rule(self):
        distances = two_blob_distances(np.random.default_rng(1))
        labels = AgglomerativeClustering(distance_threshold=5.0).fit_predict(distances)
        assert len(set(labels.tolist())) == 2

    def test_tiny_threshold_keeps_singletons(self):
        distances = two_blob_distances(np.random.default_rng(2))
        labels = AgglomerativeClustering(distance_threshold=1e-9).fit_predict(distances)
        assert len(set(labels.tolist())) == distances.shape[0]

    def test_single_cluster_when_target_is_one(self):
        distances = two_blob_distances(np.random.default_rng(3))
        labels = AgglomerativeClustering(num_clusters=1).fit_predict(distances)
        assert set(labels.tolist()) == {0}

    @pytest.mark.parametrize("linkage", ["average", "single", "complete"])
    def test_all_linkages_separate_blobs(self, linkage):
        distances = two_blob_distances(np.random.default_rng(4))
        labels = AgglomerativeClustering(num_clusters=2, linkage=linkage).fit_predict(distances)
        assert labels[0] != labels[8]

    def test_merge_history_recorded(self):
        distances = two_blob_distances(np.random.default_rng(5), n_per_blob=4)
        algorithm = AgglomerativeClustering(num_clusters=2)
        algorithm.fit_predict(distances)
        assert len(algorithm.merge_history_) == 6  # 8 items -> 2 clusters

    def test_requires_a_stopping_rule(self):
        with pytest.raises(ConfigurationError):
            AgglomerativeClustering()

    def test_rejects_bad_linkage(self):
        with pytest.raises(ConfigurationError):
            AgglomerativeClustering(num_clusters=2, linkage="ward")

    def test_rejects_invalid_distance_matrix(self):
        with pytest.raises(DataError):
            AgglomerativeClustering(num_clusters=2).fit_predict(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_single_item(self):
        labels = AgglomerativeClustering(num_clusters=1).fit_predict(np.zeros((1, 1)))
        assert labels.tolist() == [0]


def test_memmapped_input_spills_to_the_given_work_store(tmp_path):
    """The scratch working matrix of a memmapped input goes to ``work_store``,
    not the process default, and the labels equal the in-RAM ones."""
    from repro.store import MatrixStore

    calls = []

    class SpyStore(MatrixStore):
        def scratch(self, shape, dtype=float, *, prefix="scratch"):
            calls.append(tuple(shape))
            return super().scratch(shape, dtype, prefix=prefix)

    distances = two_blob_distances(np.random.default_rng(7), n_per_blob=3)
    path = tmp_path / "distances.npy"
    np.save(path, distances)
    mapped = np.load(path, mmap_mode="r")
    spy = SpyStore(tmp_path / "store")
    labels = AgglomerativeClustering(num_clusters=2).fit_predict(mapped, work_store=spy)
    assert calls == [(6, 6)]
    dense = AgglomerativeClustering(num_clusters=2).fit_predict(distances)
    assert labels.tolist() == dense.tolist()
