"""Tests for the end-to-end two-phase pipeline."""

import pytest

from repro.core.pipeline import OfflineArtifacts
from repro.service import SelectionService
from repro.utils.exceptions import SelectionError


@pytest.fixture(scope="module")
def artifacts(nlp_hub_small, nlp_suite_small, nlp_matrix_small, nlp_clustering_small, test_pipeline_config):
    return OfflineArtifacts(
        hub=nlp_hub_small,
        suite=nlp_suite_small,
        matrix=nlp_matrix_small,
        clustering=nlp_clustering_small,
        config=test_pipeline_config,
    )


@pytest.fixture(scope="module")
def selector(artifacts, fine_tuner):
    service = SelectionService(artifacts, fine_tuner=fine_tuner)
    yield service
    service.close()


class TestOfflineArtifacts:
    def test_build_from_hub(self, nlp_hub_small, nlp_suite_small, fine_tuner, test_pipeline_config):
        small_hub = nlp_hub_small.subset(nlp_hub_small.model_names[:4])
        artifacts = OfflineArtifacts.build(
            small_hub, nlp_suite_small, config=test_pipeline_config, fine_tuner=fine_tuner
        )
        assert artifacts.matrix.model_names == small_hub.model_names
        assert artifacts.clustering.assignment.num_clusters >= 1


class TestTwoPhaseSelection:
    def test_select_by_name(self, selector, nlp_hub_small, test_pipeline_config):
        result = selector.select("mnli", top_k=5)
        assert result.selected_model in nlp_hub_small.model_names
        assert result.selected_model in result.recall.recalled_models
        assert 0.0 <= result.selected_accuracy <= 1.0
        # Total cost: proxy inference + fine-tuning epochs, well below brute force.
        brute_force_cost = len(nlp_hub_small) * test_pipeline_config.fine_selection.total_epochs
        assert result.total_cost < brute_force_cost

    def test_select_by_task_object(self, selector, nlp_suite_small):
        task = nlp_suite_small.task("boolq")
        result = selector.select(task, top_k=4)
        assert result.target_name == "boolq"
        assert len(result.recall.recalled_models) == 4

    def test_unknown_target_rejected(self, selector):
        with pytest.raises(SelectionError):
            selector.select("imagenet")

    def test_recall_only(self, selector):
        recall = selector.recall("mnli", top_k=3)
        assert len(recall.recalled_models) == 3

    def test_cluster_summary(self, selector, nlp_hub_small):
        summary = selector.cluster_summary()
        assert summary["num_models"] == len(nlp_hub_small)

    def test_results_reproducible(self, artifacts, fine_tuner):
        services = [SelectionService(artifacts, fine_tuner=fine_tuner) for _ in range(2)]
        try:
            a, b = (service.select("mnli", top_k=5) for service in services)
        finally:
            for service in services:
                service.close()
        assert a.selected_model == b.selected_model
        assert a.recall.recalled_models == b.recall.recalled_models
        assert a.total_cost == b.total_cost
