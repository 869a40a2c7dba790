"""Property-based tests for the transferability metrics."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.metrics.hscore import h_score
from repro.metrics.knn import knn_transfer_accuracy
from repro.metrics.leep import leep_score
from repro.metrics.nce import nce_score
from repro.metrics.normalization import min_max_normalize


@st.composite
def posterior_and_labels(draw, max_samples=60, max_source=6, max_target=4):
    n = draw(st.integers(min_value=4, max_value=max_samples))
    num_source = draw(st.integers(min_value=2, max_value=max_source))
    num_target = draw(st.integers(min_value=2, max_value=max_target))
    raw = draw(
        hnp.arrays(
            dtype=float,
            shape=(n, num_source),
            elements=st.floats(min_value=0.01, max_value=10.0),
        )
    )
    posterior = raw / raw.sum(axis=1, keepdims=True)
    labels = draw(
        hnp.arrays(dtype=int, shape=n, elements=st.integers(0, num_target - 1))
    )
    # Guarantee at least two distinct target labels.
    labels[0], labels[1] = 0, 1
    return posterior, labels


@st.composite
def features_and_labels(draw, max_samples=50, max_dim=8, max_classes=4):
    n = draw(st.integers(min_value=6, max_value=max_samples))
    dim = draw(st.integers(min_value=2, max_value=max_dim))
    num_classes = draw(st.integers(min_value=2, max_value=max_classes))
    features = draw(
        hnp.arrays(
            dtype=float,
            shape=(n, dim),
            elements=st.floats(min_value=-5.0, max_value=5.0),
        )
    )
    labels = draw(hnp.arrays(dtype=int, shape=n, elements=st.integers(0, num_classes - 1)))
    labels[0], labels[1] = 0, 1
    return features, labels


class TestLeepProperties:
    @given(posterior_and_labels())
    @settings(max_examples=40, deadline=None)
    def test_leep_is_finite_and_non_positive(self, data):
        posterior, labels = data
        score = leep_score(posterior, labels)
        assert np.isfinite(score)
        assert score <= 1e-9

    @given(posterior_and_labels())
    @settings(max_examples=30, deadline=None)
    def test_leep_invariant_to_source_permutation(self, data):
        posterior, labels = data
        permutation = np.random.default_rng(0).permutation(posterior.shape[1])
        assert np.isclose(
            leep_score(posterior, labels), leep_score(posterior[:, permutation], labels)
        )

    @given(posterior_and_labels())
    @settings(max_examples=30, deadline=None)
    def test_leep_bounded_below_by_log_num_target(self, data):
        """LEEP is an average log of a probability over target labels, so it
        can never be worse than predicting uniformly over the observed labels."""
        posterior, labels = data
        num_target = int(labels.max()) + 1
        assert leep_score(posterior, labels) >= np.log(1.0 / num_target) - 1e-6


class TestNceProperties:
    @given(posterior_and_labels())
    @settings(max_examples=40, deadline=None)
    def test_nce_non_positive_and_bounded(self, data):
        posterior, labels = data
        score = nce_score(posterior, labels)
        num_target = int(labels.max()) + 1
        assert score <= 1e-9
        assert score >= -np.log(num_target) - 1e-6


class TestHScoreProperties:
    @given(features_and_labels())
    @settings(max_examples=40, deadline=None)
    def test_hscore_non_negative_and_bounded_by_dim(self, data):
        features, labels = data
        value = h_score(features, labels)
        assert value >= -1e-6
        assert value <= features.shape[1] + 1.0


class TestKnnProperties:
    @given(features_and_labels(), st.integers(min_value=1, max_value=7))
    @settings(max_examples=40, deadline=None)
    def test_knn_accuracy_in_unit_interval(self, data, k):
        features, labels = data
        value = knn_transfer_accuracy(features, labels, k=k)
        assert 0.0 <= value <= 1.0


class TestNormalizationProperties:
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_min_max_in_unit_interval_and_order_preserving(self, values):
        normalised = min_max_normalize(values)
        assert np.all(normalised >= 0.0) and np.all(normalised <= 1.0)
        order_before = np.argsort(np.argsort(values, kind="stable"), kind="stable")
        # Order preservation: a larger raw value never maps to a smaller output.
        for i in range(len(values)):
            for j in range(len(values)):
                if values[i] < values[j]:
                    assert normalised[i] <= normalised[j] + 1e-12
