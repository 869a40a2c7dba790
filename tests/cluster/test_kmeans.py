"""Tests for repro.cluster.kmeans."""

import numpy as np
import pytest

from repro.cluster.kmeans import KMeans
from repro.utils.exceptions import ConfigurationError, DataError


def make_blobs(rng, centers, n_per_center=30, spread=0.3):
    points, labels = [], []
    for index, center in enumerate(centers):
        points.append(center + spread * rng.normal(size=(n_per_center, len(center))))
        labels.extend([index] * n_per_center)
    return np.vstack(points), np.array(labels)


class TestKMeans:
    def test_recovers_well_separated_blobs(self):
        rng = np.random.default_rng(0)
        points, truth = make_blobs(rng, np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]]))
        labels = KMeans(3, rng=0).fit_predict(points)
        # Same-blob points share a label and different blobs get different labels.
        for blob in range(3):
            blob_labels = labels[truth == blob]
            assert len(set(blob_labels.tolist())) == 1
        assert len(set(labels.tolist())) == 3

    def test_inertia_recorded(self):
        rng = np.random.default_rng(1)
        points, _ = make_blobs(rng, np.array([[0.0, 0.0], [5.0, 5.0]]))
        model = KMeans(2, rng=0)
        model.fit_predict(points)
        assert model.inertia_ is not None and model.inertia_ >= 0
        assert model.centers_.shape == (2, 2)

    def test_more_clusters_lower_inertia(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(60, 3))
        inertias = []
        for k in (2, 6):
            model = KMeans(k, rng=0)
            model.fit_predict(points)
            inertias.append(model.inertia_)
        assert inertias[1] < inertias[0]

    def test_deterministic_with_seed(self):
        rng = np.random.default_rng(3)
        points, _ = make_blobs(rng, np.array([[0.0, 0.0], [8.0, 8.0]]))
        a = KMeans(2, rng=42).fit_predict(points)
        b = KMeans(2, rng=42).fit_predict(points)
        assert np.array_equal(a, b)

    def test_k_equal_n_points(self):
        points = np.array([[0.0], [1.0], [2.0]])
        labels = KMeans(3, rng=0).fit_predict(points)
        assert len(set(labels.tolist())) == 3

    def test_rejects_more_clusters_than_points(self):
        with pytest.raises(DataError):
            KMeans(5, rng=0).fit_predict(np.ones((3, 2)))

    def test_rejects_invalid_params(self):
        with pytest.raises(ConfigurationError):
            KMeans(0)
        with pytest.raises(ConfigurationError):
            KMeans(2, max_iter=0)

    def test_rejects_1d_points(self):
        with pytest.raises(DataError):
            KMeans(2, rng=0).fit_predict(np.ones(5))
