"""Tests for repro.core.similarity (Eq. 1 and the text baseline)."""

import numpy as np
import pytest

from repro.cache import ArtifactCache
from repro.core.performance import PerformanceMatrix
from repro.core.similarity import (
    performance_similarity,
    performance_similarity_matrix,
    similarity_chunk_rows,
    similarity_matrix_for,
    text_similarity_matrix,
)
from repro.utils.exceptions import ConfigurationError, DataError
from oracles import _performance_similarity_matrix_loop


def _random_matrix(n, d, seed=0):
    rng = np.random.default_rng(seed)
    return PerformanceMatrix(
        dataset_names=[f"d{i}" for i in range(d)],
        model_names=[f"m{j}" for j in range(n)],
        values=rng.random((d, n)),
    )


class TestPerformanceSimilarity:
    def test_identical_vectors_give_one(self):
        vector = np.array([0.5, 0.6, 0.7])
        assert performance_similarity(vector, vector) == 1.0

    def test_known_value(self):
        a = np.array([0.5, 0.9, 0.4, 0.8])
        b = np.array([0.5, 0.5, 0.5, 0.5])
        # top-2 differences: 0.4 and 0.3 -> 1 - 0.35
        assert np.isclose(performance_similarity(a, b, top_k=2), 0.65)

    def test_uses_largest_differences(self):
        a = np.array([0.9, 0.5, 0.5, 0.5])
        b = np.array([0.1, 0.5, 0.5, 0.5])
        assert np.isclose(performance_similarity(a, b, top_k=1), 0.2)
        assert performance_similarity(a, b, top_k=4) > performance_similarity(a, b, top_k=1)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.random(6), rng.random(6)
        assert performance_similarity(a, b) == performance_similarity(b, a)

    def test_top_k_larger_than_dimension_clamped(self):
        a, b = np.array([0.3, 0.4]), np.array([0.5, 0.1])
        assert np.isfinite(performance_similarity(a, b, top_k=10))

    def test_rejects_misaligned(self):
        with pytest.raises(DataError):
            performance_similarity(np.ones(3), np.ones(4))

    def test_rejects_invalid_top_k(self):
        with pytest.raises(ConfigurationError):
            performance_similarity(np.ones(3), np.ones(3), top_k=0)


class TestSimilarityMatrices:
    def test_performance_matrix_properties(self, nlp_matrix_small):
        similarity = performance_similarity_matrix(nlp_matrix_small, top_k=5)
        n = len(nlp_matrix_small.model_names)
        assert similarity.shape == (n, n)
        assert np.allclose(np.diag(similarity), 1.0)
        assert np.allclose(similarity, similarity.T)

    def test_sibling_models_more_similar_than_unrelated(self, nlp_matrix_small):
        vector = nlp_matrix_small.model_vector
        anchor = vector("Jeevesh8/bert_ft_qqp-68")
        sibling = performance_similarity(anchor, vector("Jeevesh8/bert_ft_qqp-9"))
        unrelated = performance_similarity(
            anchor, vector("CAMeL-Lab/bert-base-arabic-camelbert-mix-did-nadi")
        )
        assert sibling > unrelated

    def test_text_similarity_matrix(self, nlp_hub_small):
        cards = nlp_hub_small.model_cards()
        similarity = text_similarity_matrix(cards)
        assert similarity.shape == (len(cards), len(cards))
        assert np.allclose(np.diag(similarity), 1.0)
        assert similarity.min() >= 0.0

    def test_text_similarity_rejects_empty(self):
        with pytest.raises(DataError):
            text_similarity_matrix({})

    def test_dispatch_performance(self, nlp_matrix_small):
        out = similarity_matrix_for(nlp_matrix_small, method="performance")
        assert out.shape[0] == len(nlp_matrix_small.model_names)

    def test_dispatch_text_requires_cards(self, nlp_matrix_small):
        with pytest.raises(ConfigurationError):
            similarity_matrix_for(nlp_matrix_small, method="text")

    def test_dispatch_unknown_method(self, nlp_matrix_small):
        with pytest.raises(ConfigurationError):
            similarity_matrix_for(nlp_matrix_small, method="embedding")

    def test_dispatch_text_rejects_missing_card(self, nlp_matrix_small, nlp_hub_small):
        cards = nlp_hub_small.model_cards()
        cards.pop(nlp_matrix_small.model_names[0])
        with pytest.raises(ConfigurationError, match="missing"):
            similarity_matrix_for(nlp_matrix_small, method="text", model_cards=cards)

    def test_dispatch_text_rejects_extra_card(self, nlp_matrix_small, nlp_hub_small):
        cards = nlp_hub_small.model_cards()
        cards["not-a-hub-model"] = "a stray model card"
        with pytest.raises(ConfigurationError, match="unexpected"):
            similarity_matrix_for(nlp_matrix_small, method="text", model_cards=cards)

    def test_dispatch_text_accepts_exact_card_set(self, nlp_matrix_small, nlp_hub_small):
        out = similarity_matrix_for(
            nlp_matrix_small, method="text", model_cards=nlp_hub_small.model_cards()
        )
        assert out.shape[0] == len(nlp_matrix_small.model_names)


class TestVectorizedSimilarityMatrix:
    """The vectorized engine must agree exactly with the pairwise loop."""

    @pytest.mark.parametrize(
        "n,d,top_k",
        [
            (2, 1, 1),
            (5, 3, 2),
            (12, 8, 5),
            (23, 40, 5),
            (16, 4, 9),     # top_k > d gets clamped to d
            (7, 1, 5),      # single benchmark dataset
        ],
    )
    def test_matches_reference_loop(self, n, d, top_k):
        matrix = _random_matrix(n, d, seed=n * 100 + d)
        fast = performance_similarity_matrix(matrix, top_k=top_k, cache=False)
        slow = _performance_similarity_matrix_loop(matrix, top_k=top_k)
        assert np.allclose(fast, slow, atol=1e-12, rtol=0.0)

    def test_single_model_matrix(self):
        matrix = _random_matrix(1, 6)
        out = performance_similarity_matrix(matrix, cache=False)
        assert out.shape == (1, 1) and out[0, 0] == 1.0

    def test_chunked_path_identical_to_single_shot(self):
        matrix = _random_matrix(17, 9, seed=3)
        whole = performance_similarity_matrix(matrix, top_k=4, cache=False)
        for rows in (1, 2, 5, 16, 17, 100):
            chunked = performance_similarity_matrix(
                matrix, top_k=4, cache=False, chunk_rows=rows
            )
            assert np.array_equal(whole, chunked)

    def test_properties_hold(self):
        matrix = _random_matrix(14, 6, seed=9)
        out = performance_similarity_matrix(matrix, cache=False)
        assert np.allclose(np.diag(out), 1.0)
        assert np.allclose(out, out.T)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_rejects_invalid_top_k(self):
        with pytest.raises(ConfigurationError):
            performance_similarity_matrix(_random_matrix(3, 3), top_k=0, cache=False)

    def test_rejects_invalid_chunk_rows(self):
        with pytest.raises(ConfigurationError):
            performance_similarity_matrix(
                _random_matrix(3, 3), chunk_rows=0, cache=False
            )

    def test_cache_hit_on_second_call(self):
        cache = ArtifactCache(max_entries=4)
        matrix = _random_matrix(6, 4)
        first = performance_similarity_matrix(matrix, cache=cache)
        second = performance_similarity_matrix(matrix, cache=cache)
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert np.array_equal(first, second)

    def test_chunk_rows_heuristic(self):
        assert similarity_chunk_rows(800, 40, budget_bytes=64 * 1024**2) == 262
        assert similarity_chunk_rows(10, 5) == 10          # small fits whole
        assert similarity_chunk_rows(10**6, 10**6) == 1    # never below one row
