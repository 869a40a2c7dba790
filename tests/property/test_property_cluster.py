"""Property-based tests for the clustering substrate."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.cluster.distance import distance_rows, pairwise_distances, similarity_to_distance
from repro.cluster.hierarchical import AgglomerativeClustering
from repro.cluster.nnchain import NNChainClustering
from repro.cluster.kmeans import KMeans
from repro.cluster.silhouette import silhouette_samples
from oracles import _silhouette_samples_loop


@st.composite
def point_sets(draw, min_points=4, max_points=25, max_dim=5):
    n = draw(st.integers(min_value=min_points, max_value=max_points))
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    return draw(
        hnp.arrays(
            dtype=float,
            shape=(n, dim),
            elements=st.floats(min_value=-10.0, max_value=10.0),
        )
    )


class TestDistanceProperties:
    @given(point_sets())
    @settings(max_examples=40, deadline=None)
    def test_distance_matrix_axioms(self, points):
        distances = pairwise_distances(points)
        assert np.allclose(distances, distances.T, atol=1e-8)
        assert np.allclose(np.diag(distances), 0.0, atol=1e-8)
        assert np.all(distances >= -1e-9)

    @given(point_sets(min_points=3, max_points=12))
    @settings(max_examples=30, deadline=None)
    def test_triangle_inequality_euclidean(self, points):
        distances = pairwise_distances(points)
        n = distances.shape[0]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert distances[i, j] <= distances[i, k] + distances[k, j] + 1e-6

    @given(
        hnp.arrays(
            dtype=float,
            shape=st.tuples(st.integers(2, 10), st.integers(2, 10)).filter(
                lambda shape: shape[0] == shape[1]
            ),
            elements=st.floats(min_value=0.0, max_value=1.0),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_similarity_to_distance_range(self, similarity):
        similarity = (similarity + similarity.T) / 2
        np.fill_diagonal(similarity, 1.0)
        distance = similarity_to_distance(similarity)
        assert np.all(distance >= 0.0)
        assert np.allclose(np.diag(distance), 0.0)

    @given(
        st.integers(min_value=1, max_value=9).flatmap(
            lambda n: st.tuples(
                hnp.arrays(
                    dtype=float,
                    shape=(n, n),
                    elements=st.floats(allow_nan=True, allow_infinity=True)
                    | st.sampled_from([0.0, 0.5, 1.0, -1e308]),
                ),
                st.booleans(),
                st.lists(st.integers(min_value=0, max_value=n - 1), max_size=n),
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_distance_rows_bytes_equal_the_full_conversion(self, case):
        """Exact and inexact symmetry, NaN, inf and entries above
        ``finfo.max / 2`` all convert row-wise as the whole matrix does."""
        similarity, mirrored, rows = case
        if mirrored:  # mostly exactly symmetric, the Eq. 1 shape
            similarity = np.triu(similarity) + np.triu(similarity, 1).T
        with np.errstate(over="ignore", invalid="ignore"):
            full = similarity_to_distance(similarity)
            assert distance_rows(similarity, rows).tobytes() == full[rows].tobytes()


class TestClusteringProperties:
    @given(point_sets(min_points=5), st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_kmeans_label_contract(self, points, num_clusters):
        num_clusters = min(num_clusters, points.shape[0])
        labels = KMeans(num_clusters, rng=0, num_init=2, max_iter=30).fit_predict(points)
        assert labels.shape == (points.shape[0],)
        assert len(set(labels.tolist())) <= num_clusters
        assert labels.min() >= 0

    @given(point_sets(min_points=4, max_points=15), st.integers(min_value=1, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_hierarchical_respects_num_clusters(self, points, num_clusters):
        num_clusters = min(num_clusters, points.shape[0])
        distances = pairwise_distances(points)
        labels = AgglomerativeClustering(num_clusters=num_clusters).fit_predict(distances)
        # Exactly the requested number of clusters (merging can always continue
        # down to the target because every pair has a finite distance).
        assert len(set(labels.tolist())) == num_clusters

    @given(point_sets(min_points=6, max_points=20))
    @settings(max_examples=30, deadline=None)
    def test_silhouette_values_bounded(self, points):
        distances = pairwise_distances(points)
        labels = KMeans(2, rng=0, num_init=2, max_iter=30).fit_predict(points)
        if len(set(labels.tolist())) < 2:
            return
        values = silhouette_samples(distances, labels)
        assert np.all(values >= -1.0 - 1e-9)
        assert np.all(values <= 1.0 + 1e-9)

    @given(point_sets(min_points=4, max_points=25), st.integers(min_value=2, max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_silhouette_streaming_bitwise_equals_loop(self, points, num_labels):
        distances = pairwise_distances(points)
        rng = np.random.default_rng(points.shape[0] * 31 + num_labels)
        labels = rng.integers(0, num_labels, size=points.shape[0])
        if np.unique(labels).size < 2:
            labels[0] = labels.max() + 1
        assert np.array_equal(
            silhouette_samples(distances, labels),
            _silhouette_samples_loop(distances, labels),
        )


@st.composite
def labelled_distances(draw):
    """A distance matrix and labels in one of four regimes.

    ``random`` draws n and k freely; ``singletons`` gives several
    one-member clusters; ``giant`` puts more than 128 members in one
    cluster (the pairwise sum's recursive split); ``duplicates`` repeats
    points, so whole rows of exact zeros and zero denominators occur.
    """
    regime = draw(st.sampled_from(["random", "singletons", "giant", "duplicates"]))
    n = draw(st.integers(min_value=140 if regime == "giant" else 3, max_value=320))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    points = rng.normal(size=(n, 3))
    if regime == "duplicates":
        points = points[rng.integers(0, max(1, n // 4), size=n)]
    distances = pairwise_distances(points)
    k = draw(st.integers(min_value=2, max_value=max(2, n // 2)))
    labels = rng.integers(0, k, size=n)
    if regime == "singletons":
        lonely = rng.choice(n, size=min(n, draw(st.integers(1, 6))), replace=False)
        labels[lonely] = k + np.arange(lonely.size)
    elif regime == "giant":
        labels = np.where(rng.random(n) < 0.9, 0, labels + 1)
    if np.unique(labels).size < 2:
        labels[0] = labels.max() + 1
    return distances, labels


class TestSilhouetteColumnSums:
    """The vectorised column sums against the per-row oracle, byte for byte.

    ``tobytes()`` rather than ``array_equal`` so that the sign of a zero
    counts too.
    """

    @given(labelled_distances(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_bytes_equal_oracle(self, case, memmapped):
        distances, labels = case
        expected = _silhouette_samples_loop(distances, labels).tobytes()
        if not memmapped:
            assert silhouette_samples(distances, labels).tobytes() == expected
            return
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "distances.npy"
            np.save(path, distances)
            mapped = np.load(path, mmap_mode="r")
            assert silhouette_samples(mapped, labels).tobytes() == expected
            del mapped


def quantized_distances(draw_values, n):
    """Symmetric matrix over a tiny value grid — duplicate distances abound."""
    raw = np.asarray(draw_values, dtype=float).reshape(n, n)
    distances = (raw + raw.T) / 2
    np.fill_diagonal(distances, 0.0)
    return distances


@st.composite
def tied_matrices(draw, min_points=4, max_points=14):
    """Adversarial tied/duplicate-distance inputs for the scan-vs-chain fuzz.

    Three regimes: values from a coarse integer grid (exact ties
    everywhere, exercising the scan's row-min cache tie branch —
    hierarchical.py's first-occurrence rule — via the chain's
    tie-detection delegation), duplicated points (zero distances and
    mirrored rows), and continuous values (generically tie-free, the
    chain's native path).
    """
    n = draw(st.integers(min_value=min_points, max_value=max_points))
    regime = draw(st.sampled_from(["quantized", "duplicates", "continuous"]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    if regime == "quantized":
        grid = draw(st.integers(min_value=2, max_value=4))
        return quantized_distances(rng.integers(1, grid + 1, size=(n, n)), n)
    if regime == "duplicates":
        base = rng.normal(size=(max(2, n // 2), 3))
        points = np.vstack([base, base])[:n]
        return pairwise_distances(points)
    return pairwise_distances(rng.normal(size=(n, 4)))


class TestScanVersusChainProperties:
    """`nnchain` must reproduce the scan engine on every input regime.

    Tie-free inputs replay the scan's merges via the chain theorem; tied
    inputs trip the chain's duplicate-minimum detection and delegate to
    the scan wholesale — either way labels must agree exactly.
    """

    @given(
        tied_matrices(),
        st.sampled_from(["average", "single", "complete"]),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_labels_identical_under_num_clusters(self, distances, linkage, k):
        k = min(k, distances.shape[0])
        scan = AgglomerativeClustering(num_clusters=k, linkage=linkage)
        chain = NNChainClustering(num_clusters=k, linkage=linkage)
        assert np.array_equal(
            scan.fit_predict(distances), chain.fit_predict(distances)
        )
        # Merge slots must agree pair-for-pair; heights agree bitwise
        # except on the chain's native average-linkage path (~1 ulp).
        assert [m[:2] for m in scan.merge_history_] == [
            m[:2] for m in chain.merge_history_
        ]

    @given(tied_matrices(), st.sampled_from(["average", "single", "complete"]))
    @settings(max_examples=40, deadline=None)
    def test_labels_identical_under_threshold(self, distances, linkage):
        # A threshold strictly between grid values cannot sit ulp-close to
        # any (possibly rounded-differently) average-linkage height.
        threshold = float(np.median(distances)) + 0.24217
        scan = AgglomerativeClustering(distance_threshold=threshold, linkage=linkage)
        chain = NNChainClustering(distance_threshold=threshold, linkage=linkage)
        assert np.array_equal(
            scan.fit_predict(distances), chain.fit_predict(distances)
        )
