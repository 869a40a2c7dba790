"""Integration tests: similarity/distance caching and key-seeded proxy scoring."""

import numpy as np

import repro.cache as cache_module
from repro.cache import (
    ArtifactCache,
    fingerprint_model,
    fingerprint_task,
    proxy_score_key,
)
from repro.cluster.distance import distance_matrix_for, similarity_to_distance
from repro.core.config import ClusteringConfig
from repro.core.model_clustering import ModelClusterer
from repro.core.similarity import performance_similarity_matrix
from repro.metrics.registry import KeySeededScorer, get_scorer
from repro.utils.rng import stable_hash


class TestSimilarityCaching:
    def test_second_invocation_is_served_from_cache(self, nlp_matrix_small):
        cache = ArtifactCache(max_entries=8)
        first = performance_similarity_matrix(nlp_matrix_small, top_k=5, cache=cache)
        assert cache.stats.hits == 0 and cache.stats.misses == 1
        second = performance_similarity_matrix(nlp_matrix_small, top_k=5, cache=cache)
        assert cache.stats.hits == 1
        assert np.array_equal(first, second)

    def test_different_top_k_is_a_different_entry(self, nlp_matrix_small):
        cache = ArtifactCache(max_entries=8)
        performance_similarity_matrix(nlp_matrix_small, top_k=5, cache=cache)
        performance_similarity_matrix(nlp_matrix_small, top_k=3, cache=cache)
        assert cache.stats.hits == 0 and cache.stats.misses == 2

    def test_cache_false_bypasses_default(self, nlp_matrix_small):
        cache_module.clear_cache()
        stats = cache_module.get_cache().stats
        lookups_before = stats.lookups
        performance_similarity_matrix(nlp_matrix_small, top_k=5, cache=False)
        assert stats.lookups == lookups_before

    def test_default_cache_round_trip(self, nlp_matrix_small):
        cache_module.clear_cache()
        stats = cache_module.get_cache().stats
        baseline_hits = stats.hits
        performance_similarity_matrix(nlp_matrix_small, top_k=7)
        performance_similarity_matrix(nlp_matrix_small, top_k=7)
        assert stats.hits == baseline_hits + 1

    def test_mutating_a_result_does_not_poison_the_cache(self, nlp_matrix_small):
        cache = ArtifactCache(max_entries=8)
        first = performance_similarity_matrix(nlp_matrix_small, top_k=5, cache=cache)
        first[0, 1] = -123.0
        second = performance_similarity_matrix(nlp_matrix_small, top_k=5, cache=cache)
        assert second[0, 1] != -123.0

    def test_chunked_and_single_block_share_one_cache_entry(self, nlp_matrix_small):
        # chunk_rows changes only the execution schedule, never the values,
        # so it must not leak into the cache key: a chunked computation and
        # a single-block one have to hit each other's entries.
        from repro.cache import similarity_key

        chunked_first = ArtifactCache(max_entries=8)
        chunked = performance_similarity_matrix(
            nlp_matrix_small, top_k=5, chunk_rows=2, cache=chunked_first
        )
        assert chunked_first.stats.misses == 1 and chunked_first.stats.puts == 1
        served = performance_similarity_matrix(
            nlp_matrix_small, top_k=5, cache=chunked_first
        )
        assert chunked_first.stats.hits == 1  # single-block call hit the chunked entry
        assert np.array_equal(chunked, served)

        single_first = ArtifactCache(max_entries=8)
        single = performance_similarity_matrix(
            nlp_matrix_small, top_k=5, cache=single_first
        )
        served_chunked = performance_similarity_matrix(
            nlp_matrix_small, top_k=5, chunk_rows=3, cache=single_first
        )
        assert single_first.stats.hits == 1  # chunked call hit the single entry
        assert np.array_equal(single, served_chunked)
        # Both schedules key under the same canonical similarity key.
        key = similarity_key(nlp_matrix_small, method="performance", top_k=5)
        assert chunked_first.get(key) is not None
        assert single_first.get(key) is not None


class TestDistanceCaching:
    def test_distance_served_from_cache_without_similarity_recompute(
        self, nlp_matrix_small
    ):
        cache = ArtifactCache(max_entries=8)
        first = distance_matrix_for(nlp_matrix_small, top_k=5, cache=cache)
        lookups_after_first = cache.stats.lookups
        second = distance_matrix_for(nlp_matrix_small, top_k=5, cache=cache)
        assert np.array_equal(first, second)
        # The second call resolves with a single lookup: the distance key.
        assert cache.stats.lookups == lookups_after_first + 1
        assert cache.stats.hits >= 1

    def test_distance_matches_direct_conversion(self, nlp_matrix_small):
        cache = ArtifactCache(max_entries=8)
        direct = similarity_to_distance(
            performance_similarity_matrix(nlp_matrix_small, top_k=5, cache=False)
        )
        routed = distance_matrix_for(nlp_matrix_small, top_k=5, cache=cache)
        assert np.allclose(direct, routed, atol=1e-12)

    def test_custom_similarity_does_not_poison_canonical_entry(
        self, nlp_matrix_small
    ):
        cache = ArtifactCache(max_entries=8)
        n = len(nlp_matrix_small.model_names)
        custom = np.full((n, n), 0.5)
        np.fill_diagonal(custom, 1.0)
        custom_distance = distance_matrix_for(
            nlp_matrix_small, top_k=5, similarity=custom, cache=cache
        )
        # A precomputed similarity bypasses the cache entirely.
        assert cache.stats.lookups == 0 and cache.stats.puts == 0
        canonical = distance_matrix_for(nlp_matrix_small, top_k=5, cache=cache)
        expected = similarity_to_distance(
            performance_similarity_matrix(nlp_matrix_small, top_k=5, cache=False)
        )
        assert np.allclose(canonical, expected, atol=1e-12)
        assert not np.allclose(canonical, custom_distance)

    def test_cold_clustering_never_reads_back_what_it_stored(self, nlp_matrix_small):
        cache = ArtifactCache(max_entries=8)
        cold = ModelClusterer(ClusteringConfig()).cluster(nlp_matrix_small, cache=cache)
        # One miss and one put each for the similarity and its distance.
        assert (cache.stats.hits, cache.stats.misses, cache.stats.puts) == (0, 2, 2)
        uncached = ModelClusterer(ClusteringConfig()).cluster(nlp_matrix_small, cache=False)
        assert np.array_equal(cold.similarity, uncached.similarity)
        assert np.array_equal(cold.assignment.labels, uncached.assignment.labels)

    def test_clusterer_reuses_cached_artifacts(self, nlp_matrix_small, nlp_hub_small):
        cache = ArtifactCache(max_entries=8)
        clusterer = ModelClusterer(ClusteringConfig())
        first = clusterer.cluster(
            nlp_matrix_small, model_cards=nlp_hub_small.model_cards(), cache=cache
        )
        misses_after_first = cache.stats.misses
        second = clusterer.cluster(
            nlp_matrix_small, model_cards=nlp_hub_small.model_cards(), cache=cache
        )
        assert cache.stats.misses == misses_after_first  # everything was a hit
        assert np.array_equal(first.assignment.labels, second.assignment.labels)
        assert np.array_equal(first.similarity, second.similarity)


class TestKeySeededScorer:
    def test_matches_plain_scorer_unsubsampled(self, nlp_hub_small, nlp_suite_small):
        # Without subsampling there is no randomness, so the key-seeded
        # wrapper must reproduce the plain scorer bit-for-bit.
        model = nlp_hub_small.get(nlp_hub_small.model_names[0])
        task = nlp_suite_small.task("mnli")
        plain = get_scorer("leep").score(model, task, max_samples=None)
        seeded = get_scorer("leep", deterministic=True)
        assert isinstance(seeded, KeySeededScorer)
        assert seeded.score(model, task, max_samples=None) == plain

    def test_subsampling_seeded_from_the_key(self, nlp_hub_small, nlp_suite_small):
        # The caller's rng is ignored: the subsample is drawn from a stream
        # seeded by the score's content key, so every call agrees.
        model = nlp_hub_small.get(nlp_hub_small.model_names[0])
        task = nlp_suite_small.task("mnli")
        key = proxy_score_key(
            "leep", fingerprint_model(model), fingerprint_task(task), max_samples=32
        )
        want = get_scorer("leep").score(
            model, task, max_samples=32, rng=np.random.default_rng(stable_hash(key))
        )
        seeded = get_scorer("leep", deterministic=True)
        for seed in (0, 1):
            got = seeded.score(
                model, task, max_samples=32, rng=np.random.default_rng(seed)
            )
            assert got == want
