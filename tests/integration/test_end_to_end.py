"""Integration tests: the full offline + online pipeline on both modalities.

These tests exercise the same path a user of the library follows: build a
hub, run the offline phase, then answer online selection queries — and they
check the cross-module invariants the paper's evaluation relies on.
"""

import numpy as np
import pytest

from repro.core.config import FineSelectionConfig, PipelineConfig, RecallConfig
from repro.core.pipeline import OfflineArtifacts
from repro.core.selection import BruteForceSelection, SuccessiveHalving
from repro.service import SelectionService
from repro.zoo.finetune import FineTuner


@pytest.fixture(scope="module")
def nlp_artifacts(nlp_hub_small, nlp_suite_small, nlp_matrix_small, nlp_clustering_small, test_pipeline_config):
    return OfflineArtifacts(
        hub=nlp_hub_small,
        suite=nlp_suite_small,
        matrix=nlp_matrix_small,
        clustering=nlp_clustering_small,
        config=test_pipeline_config,
    )


@pytest.fixture(scope="module")
def nlp_selector(nlp_artifacts, fine_tuner):
    service = SelectionService(nlp_artifacts, fine_tuner=fine_tuner)
    yield service
    service.close()


@pytest.fixture(scope="module")
def cv_selector(cv_hub_small, cv_suite_small, cv_matrix_small, fine_tuner, test_pipeline_config):
    from repro.core.model_clustering import ModelClusterer

    clustering = ModelClusterer(test_pipeline_config.clustering).cluster(
        cv_matrix_small, model_cards=cv_hub_small.model_cards()
    )
    artifacts = OfflineArtifacts(
        hub=cv_hub_small,
        suite=cv_suite_small,
        matrix=cv_matrix_small,
        clustering=clustering,
        config=test_pipeline_config,
    )
    service = SelectionService(artifacts, fine_tuner=fine_tuner)
    yield service
    service.close()


class TestNlpEndToEnd:
    def test_two_phase_cheaper_and_competitive(self, nlp_selector, fine_tuner, nlp_hub_small, nlp_suite_small):
        config = FineSelectionConfig(total_epochs=3)
        task = nlp_suite_small.task("mnli")

        two_phase = nlp_selector.select("mnli", top_k=6)
        brute_force = BruteForceSelection(nlp_hub_small, fine_tuner, config=config).run(
            nlp_hub_small.model_names, task
        )
        halving = SuccessiveHalving(nlp_hub_small, fine_tuner, config=config).run(
            nlp_hub_small.model_names, task
        )

        # Cost ordering: 2PH < SH < BF (the paper's Table VI shape).
        assert two_phase.total_cost < halving.total_cost
        assert halving.total_cost < brute_force.total_cost
        # The selected model is competitive with the brute-force winner.
        assert two_phase.selected_accuracy >= brute_force.selected_accuracy - 0.15

    def test_selected_model_not_a_weak_checkpoint(self, nlp_selector):
        """The two-phase pipeline should never pick the out-of-domain checkpoints."""
        weak = {
            "aliosm/sha3bor-metre-detector-arabertv2-base",
            "CAMeL-Lab/bert-base-arabic-camelbert-mix-did-nadi",
        }
        for target in ("mnli", "boolq"):
            result = nlp_selector.select(target, top_k=6)
            assert result.selected_model not in weak

    def test_recall_covers_strong_models(self, nlp_selector):
        recall = nlp_selector.recall("mnli", top_k=6)
        strong = {"roberta-base", "bert-base-uncased", "ishan/bert-base-uncased-mnli",
                  "Jeevesh8/feather_berts_46", "albert-base-v2", "distilbert-base-uncased"}
        assert len(set(recall.recalled_models) & strong) >= 3


class TestCvEndToEnd:
    def test_select_all_cv_targets(self, cv_selector, cv_hub_small):
        for target in ("beans", "medmnist_v2"):
            result = cv_selector.select(target, top_k=5)
            assert result.selected_model in cv_hub_small.model_names
            assert 0.0 <= result.selected_accuracy <= 1.0
            assert result.total_cost < len(cv_hub_small) * 3

    def test_stage_survivor_counts_never_increase(self, cv_selector):
        result = cv_selector.select("beans", top_k=5)
        sizes = [len(stage.surviving_models) for stage in result.selection.stages]
        assert all(later <= earlier for earlier, later in zip(sizes, sizes[1:]))
        assert sizes[-1] == 1

    def test_runtime_accounting_consistent(self, cv_selector):
        result = cv_selector.select("beans", top_k=5)
        # Runtime equals the sum over stages of survivors-at-training-time.
        stage_sizes = []
        previous = len(result.recall.recalled_models)
        for stage in result.selection.stages:
            stage_sizes.append(previous)
            previous = len(stage.surviving_models)
        assert result.selection.runtime_epochs == sum(stage_sizes)


class TestProxyChoiceAblation:
    def test_alternative_proxy_scores_also_work(self, nlp_artifacts, fine_tuner, nlp_suite_small):
        """The pipeline is proxy-agnostic: swapping LEEP for kNN still recalls
        a competitive candidate set (the paper's future-work direction)."""
        from repro.core.recall import CoarseRecall

        task = nlp_suite_small.task("mnli")
        results = {}
        for proxy in ("leep", "knn"):
            recall = CoarseRecall(
                nlp_artifacts.hub,
                nlp_artifacts.matrix,
                nlp_artifacts.clustering,
                config=RecallConfig(proxy_score=proxy, top_k=6),
            ).recall(task)
            results[proxy] = set(recall.recalled_models)
        # Both candidate sets overlap substantially (they rely on the same
        # prior-accuracy term and cluster structure).
        assert len(results["leep"] & results["knn"]) >= 3
