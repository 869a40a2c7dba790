"""Property-based tests for the Eq. 1 model similarity and the NN substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.performance import PerformanceMatrix
from repro.core.similarity import (
    performance_similarity,
    performance_similarity_matrix,
)
from repro.nn.losses import softmax, softmax_cross_entropy
from repro.nn.metrics import accuracy
from oracles import _performance_similarity_matrix_loop


@st.composite
def accuracy_vector_pairs(draw, max_datasets=30):
    size = draw(st.integers(min_value=1, max_value=max_datasets))
    a = draw(
        hnp.arrays(dtype=float, shape=size, elements=st.floats(min_value=0.0, max_value=1.0))
    )
    b = draw(
        hnp.arrays(dtype=float, shape=size, elements=st.floats(min_value=0.0, max_value=1.0))
    )
    return a, b


class TestEq1Properties:
    @given(accuracy_vector_pairs(), st.integers(min_value=1, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_similarity_bounded_and_symmetric(self, vectors, top_k):
        a, b = vectors
        value = performance_similarity(a, b, top_k=top_k)
        assert 0.0 <= value <= 1.0
        assert value == performance_similarity(b, a, top_k=top_k)

    @given(accuracy_vector_pairs())
    @settings(max_examples=60, deadline=None)
    def test_self_similarity_is_one(self, vectors):
        a, _ = vectors
        assert performance_similarity(a, a) == 1.0

    @given(accuracy_vector_pairs(), st.integers(min_value=1, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_smaller_top_k_never_increases_similarity(self, vectors, top_k):
        """Averaging only the largest differences is the most pessimistic view:
        increasing k can only add smaller differences and raise the similarity."""
        a, b = vectors
        small_k = performance_similarity(a, b, top_k=top_k)
        large_k = performance_similarity(a, b, top_k=top_k + 3)
        assert large_k >= small_k - 1e-12


@st.composite
def performance_matrices(draw, max_models=12, max_datasets=10):
    """Random PerformanceMatrix instances, including the n = 1 edge case."""
    n = draw(st.integers(min_value=1, max_value=max_models))
    d = draw(st.integers(min_value=1, max_value=max_datasets))
    values = draw(
        hnp.arrays(
            dtype=float,
            shape=(d, n),
            elements=st.floats(min_value=0.0, max_value=1.0),
        )
    )
    return PerformanceMatrix(
        dataset_names=[f"d{i}" for i in range(d)],
        model_names=[f"m{j}" for j in range(n)],
        values=values,
    )


class TestVectorizedMatrixProperties:
    @given(performance_matrices(), st.integers(min_value=1, max_value=15))
    @settings(max_examples=60, deadline=None)
    def test_vectorized_agrees_with_pairwise_loop(self, matrix, top_k):
        """The vectorized engine reproduces the reference O(n^2) loop exactly,
        including top_k larger than the dataset dimension and n = 1."""
        fast = performance_similarity_matrix(matrix, top_k=top_k, cache=False)
        slow = _performance_similarity_matrix_loop(matrix, top_k=top_k)
        assert fast.shape == slow.shape
        assert np.allclose(fast, slow, atol=1e-12, rtol=0.0)

    @given(
        performance_matrices(),
        st.integers(min_value=1, max_value=15),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_chunking_never_changes_the_result(self, matrix, top_k, chunk_rows):
        whole = performance_similarity_matrix(matrix, top_k=top_k, cache=False)
        chunked = performance_similarity_matrix(
            matrix, top_k=top_k, cache=False, chunk_rows=chunk_rows
        )
        assert np.array_equal(whole, chunked)


class TestNnNumericalProperties:
    @given(
        hnp.arrays(
            dtype=float,
            shape=st.tuples(st.integers(1, 20), st.integers(2, 8)),
            elements=st.floats(min_value=-50.0, max_value=50.0),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_softmax_rows_are_distributions(self, logits):
        probs = softmax(logits)
        assert np.all(probs >= 0.0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    @given(
        hnp.arrays(
            dtype=float,
            shape=st.tuples(st.integers(1, 15), st.integers(2, 6)),
            elements=st.floats(min_value=-20.0, max_value=20.0),
        ),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_cross_entropy_non_negative_with_zero_mean_grad_rows(self, logits, data):
        labels = data.draw(
            hnp.arrays(
                dtype=int,
                shape=logits.shape[0],
                elements=st.integers(0, logits.shape[1] - 1),
            )
        )
        loss, grad = softmax_cross_entropy(logits, labels)
        assert loss >= -1e-9
        # Each gradient row sums to zero (softmax minus one-hot, scaled by 1/n).
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-8)

    @given(
        hnp.arrays(dtype=int, shape=st.integers(1, 50), elements=st.integers(0, 5))
    )
    @settings(max_examples=40, deadline=None)
    def test_accuracy_of_identical_arrays_is_one(self, labels):
        assert accuracy(labels, labels.copy()) == 1.0
