"""Tests for the silhouette coefficient."""

import numpy as np
import pytest

from repro.cluster.distance import pairwise_distances
from repro.cluster.silhouette import (
    _pairwise_column_sums,
    silhouette_samples,
    silhouette_score,
)
from repro.utils.exceptions import DataError
from oracles import _silhouette_samples_loop


def blob_distances_and_labels(rng, separation):
    points = np.vstack(
        [rng.normal(size=(10, 2)), separation + rng.normal(size=(10, 2))]
    )
    labels = np.array([0] * 10 + [1] * 10)
    return pairwise_distances(points), labels


class TestSilhouette:
    def test_well_separated_clusters_score_high(self):
        distances, labels = blob_distances_and_labels(np.random.default_rng(0), 20.0)
        assert silhouette_score(distances, labels) > 0.8

    def test_random_labels_score_low(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(30, 3))
        distances = pairwise_distances(points)
        labels = rng.integers(0, 2, size=30)
        assert silhouette_score(distances, labels) < 0.3

    def test_better_separation_scores_higher(self):
        close, labels = blob_distances_and_labels(np.random.default_rng(2), 2.0)
        far, _ = blob_distances_and_labels(np.random.default_rng(2), 20.0)
        assert silhouette_score(far, labels) > silhouette_score(close, labels)

    def test_values_in_range(self):
        distances, labels = blob_distances_and_labels(np.random.default_rng(3), 5.0)
        values = silhouette_samples(distances, labels)
        assert np.all(values >= -1.0) and np.all(values <= 1.0)

    def test_singleton_cluster_gets_zero(self):
        distances = pairwise_distances(np.array([[0.0], [0.1], [5.0]]))
        labels = np.array([0, 0, 1])
        values = silhouette_samples(distances, labels)
        assert values[2] == 0.0

    def test_requires_two_clusters(self):
        distances = pairwise_distances(np.ones((4, 2)))
        with pytest.raises(DataError):
            silhouette_score(distances, np.zeros(4, dtype=int))

    def test_rejects_misaligned_labels(self):
        distances = pairwise_distances(np.random.default_rng(4).normal(size=(4, 2)))
        with pytest.raises(DataError):
            silhouette_score(distances, np.array([0, 1]))


class TestStreamingEqualsLoop:
    """The streaming path must be bitwise-identical to the original loop."""

    @pytest.mark.parametrize("seed", range(12))
    def test_bitwise_equal_on_random_labelings(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 120))
        distances = pairwise_distances(rng.normal(size=(n, 4)))
        labels = rng.integers(0, max(2, n // 3), size=n)
        if np.unique(labels).size < 2:
            labels[0] = labels[0] + 1 if labels[0] == 0 else 0
        assert np.array_equal(
            silhouette_samples(distances, labels),
            _silhouette_samples_loop(distances, labels),
        )

    def test_bitwise_equal_with_singletons_and_negative_labels(self):
        rng = np.random.default_rng(99)
        distances = pairwise_distances(rng.normal(size=(15, 3)))
        labels = np.array([0] * 6 + [3] * 6 + [-1, 7, 9])  # unsorted, gappy
        assert np.array_equal(
            silhouette_samples(distances, labels),
            _silhouette_samples_loop(distances, labels),
        )

    def test_memmap_input_streams_and_matches_dense(self, tmp_path):
        rng = np.random.default_rng(5)
        distances = pairwise_distances(rng.normal(size=(60, 4)))
        labels = rng.integers(0, 6, size=60)
        path = tmp_path / "distances.npy"
        np.save(path, distances)
        mapped = np.load(path, mmap_mode="r")
        assert np.array_equal(
            silhouette_samples(mapped, labels),
            _silhouette_samples_loop(distances, labels),
        )


class TestPairwiseColumnSums:
    """Tripwire: the column-sum replay must match numpy's own 1-D ``.sum()``.

    A numpy release that changes its summation order fails this test
    before any silhouette or golden snapshot drifts.
    """

    @pytest.mark.parametrize(
        "widths", [range(0, 301), [511, 512, 513, 1000, 2049, 10_000]],
        ids=["0-300", "large"],
    )
    def test_bitwise_equal_to_row_sums(self, widths):
        rng = np.random.default_rng(2024)
        for width in widths:
            block = rng.normal(size=(6, width)) * rng.choice(
                [1e-8, 1.0, 1e8], size=(6, width)
            )
            block[1] = -0.0
            block[2] = -1e-9
            block[3] = -1e-9 * rng.random(width)
            block[4] = np.abs(block[4])
            sums = _pairwise_column_sums(block, 0, width)
            expected = np.array([row.sum() for row in block])
            assert sums.tobytes() == expected.tobytes(), f"width {width}"

    def test_all_negative_zero_rows_sum_to_positive_zero(self):
        for width in (1, 3, 7, 8, 9, 129):
            sums = _pairwise_column_sums(np.full((2, width), -0.0), 0, width)
            assert sums.tobytes() == np.zeros(2).tobytes()

    def test_sub_range_matches_slice_sum(self):
        block = np.random.default_rng(8).normal(size=(4, 400))
        sums = _pairwise_column_sums(block, 37, 331)
        expected = np.array([row[37:331].sum() for row in block])
        assert sums.tobytes() == expected.tobytes()
