"""Tests for the coarse-recall phase (Eq. 2-4)."""

import numpy as np
import pytest

from repro.core.config import RecallConfig
from repro.core.recall import CoarseRecall, RandomRecall
from repro.utils.exceptions import SelectionError


@pytest.fixture(scope="module")
def recall(nlp_hub_small, nlp_matrix_small, nlp_clustering_small):
    return CoarseRecall(
        nlp_hub_small,
        nlp_matrix_small,
        nlp_clustering_small,
        config=RecallConfig(top_k=5),
    )


@pytest.fixture(scope="module")
def mnli_result(recall, nlp_suite_small):
    return recall.recall(nlp_suite_small.task("mnli"))


class TestCoarseRecall:
    def test_returns_requested_number_of_models(self, mnli_result):
        assert len(mnli_result.recalled_models) == 5

    def test_all_models_scored(self, mnli_result, nlp_hub_small):
        assert set(mnli_result.recall_scores) == set(nlp_hub_small.model_names)

    def test_recalled_are_top_scoring(self, mnli_result):
        scores = mnli_result.recall_scores
        recalled = mnli_result.recalled_models
        threshold = min(scores[name] for name in recalled)
        not_recalled = [name for name in scores if name not in recalled]
        assert all(scores[name] <= threshold + 1e-12 for name in not_recalled)

    def test_recalled_ordered_by_score(self, mnli_result):
        scores = [mnli_result.recall_scores[name] for name in mnli_result.recalled_models]
        assert scores == sorted(scores, reverse=True)

    def test_scores_are_non_negative(self, mnli_result):
        assert all(value >= 0 for value in mnli_result.recall_scores.values())

    def test_proxy_only_computed_for_representatives(
        self, mnli_result, nlp_clustering_small
    ):
        representatives = set(nlp_clustering_small.representatives.values())
        assert set(mnli_result.raw_proxy_scores) == representatives

    def test_epoch_cost_accounting(self, mnli_result, nlp_clustering_small):
        expected = 0.5 * len(set(nlp_clustering_small.representatives.values()))
        assert mnli_result.epoch_cost == pytest.approx(expected)

    def test_recall_quality_beats_random(
        self, recall, nlp_hub_small, nlp_suite_small, fine_tuner
    ):
        """The recalled set must contain better models than a random draw (Fig. 5)."""
        task = nlp_suite_small.task("mnli")
        truth = {
            name: fine_tuner.fine_tune(nlp_hub_small.get(name), task, epochs=3).final_test
            for name in nlp_hub_small.model_names
        }
        recalled = recall.recall(task, top_k=5).recalled_models
        coarse_avg = np.mean([truth[name] for name in recalled])
        repository_avg = np.mean(list(truth.values()))
        assert coarse_avg > repository_avg

    def test_top_k_larger_than_repository(self, recall, nlp_suite_small, nlp_hub_small):
        result = recall.recall(nlp_suite_small.task("mnli"), top_k=100)
        assert len(result.recalled_models) == len(nlp_hub_small)

    def test_invalid_top_k(self, recall, nlp_suite_small):
        with pytest.raises(SelectionError):
            recall.recall(nlp_suite_small.task("mnli"), top_k=0)

    def test_rank_of(self, mnli_result):
        top = mnli_result.top_model
        assert mnli_result.rank_of(top) == 0
        assert mnli_result.rank_of("not-a-model") is None

    def test_matrix_must_cover_hub(self, nlp_hub_small, nlp_matrix_small, nlp_clustering_small):
        partial_matrix = nlp_matrix_small.submatrix(nlp_matrix_small.model_names[:3])
        with pytest.raises(SelectionError):
            CoarseRecall(nlp_hub_small, partial_matrix, nlp_clustering_small)

    def test_alternative_proxy_score(
        self, nlp_hub_small, nlp_matrix_small, nlp_clustering_small, nlp_suite_small
    ):
        recall_knn = CoarseRecall(
            nlp_hub_small,
            nlp_matrix_small,
            nlp_clustering_small,
            config=RecallConfig(proxy_score="knn", top_k=5),
        )
        result = recall_knn.recall(nlp_suite_small.task("mnli"))
        assert len(result.recalled_models) == 5


class TestSingletonPropagation:
    def test_singleton_scores_use_propagation(
        self, mnli_result, nlp_clustering_small, nlp_matrix_small
    ):
        """Eq. 4: singleton scores are bounded by prior * max representative proxy."""
        singles = nlp_clustering_small.singleton_models()
        if not singles:
            pytest.skip("no singleton clusters in the reduced test hub")
        max_proxy = max(mnli_result.proxy_scores.values())
        for name in singles:
            prior = nlp_matrix_small.average_accuracy(name)
            assert mnli_result.recall_scores[name] <= prior * max_proxy + 1e-9


class TestRandomRecall:
    def test_returns_k_distinct_models(self, nlp_hub_small, nlp_suite_small):
        result = RandomRecall(nlp_hub_small, rng=0).recall(
            nlp_suite_small.task("mnli"), top_k=5
        )
        assert len(result.recalled_models) == 5
        assert len(set(result.recalled_models)) == 5

    def test_reproducible_with_seed(self, nlp_hub_small, nlp_suite_small):
        task = nlp_suite_small.task("mnli")
        a = RandomRecall(nlp_hub_small, rng=7).recall(task, top_k=5).recalled_models
        b = RandomRecall(nlp_hub_small, rng=7).recall(task, top_k=5).recalled_models
        assert a == b

    def test_invalid_top_k(self, nlp_hub_small, nlp_suite_small):
        with pytest.raises(SelectionError):
            RandomRecall(nlp_hub_small).recall(nlp_suite_small.task("mnli"), top_k=0)
