"""Tests for the experiment context (memoisation and reduced configurations)."""

import pytest

from repro.experiments import context as context_module
from repro.experiments.context import ExperimentContext, default_scale, get_context
from repro.utils.exceptions import ConfigurationError


@pytest.fixture(autouse=True)
def _clean_cache(monkeypatch):
    """Each test memoises into its own empty context cache."""
    monkeypatch.setattr(context_module, "_CONTEXT_CACHE", {})


class TestExperimentContext:
    def test_invalid_modality(self):
        with pytest.raises(ConfigurationError):
            ExperimentContext(modality="audio")

    def test_invalid_scale(self):
        with pytest.raises(ConfigurationError):
            ExperimentContext(modality="nlp", scale="tiny")

    def test_offline_epochs_follow_modality(self):
        assert ExperimentContext("nlp").offline_epochs == 5
        assert ExperimentContext("cv").offline_epochs == 4

    def test_num_models_cap(self):
        context = ExperimentContext("nlp", scale="small", num_models=6)
        assert len(context.hub) == 6

    def test_artifacts_are_cached_per_context(self):
        context = ExperimentContext("cv", scale="small", num_models=6)
        assert context.matrix is context.matrix
        assert context.clustering is context.clustering
        assert context.selector is context.selector

    def test_target_ground_truth_covers_all_models_and_targets(self):
        context = ExperimentContext("cv", scale="small", num_models=5)
        truth = context.target_ground_truth()
        assert set(truth) == set(context.target_names)
        for curves in truth.values():
            assert set(curves) == set(context.hub.model_names)


class TestGetContext:
    def test_memoised_per_key(self):
        a = get_context("nlp", scale="small", num_models=4)
        b = get_context("nlp", scale="small", num_models=4)
        c = get_context("nlp", scale="small", num_models=5)
        assert a is b
        assert a is not c

    def test_default_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "small")
        assert default_scale() == "small"
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "bogus")
        assert default_scale() == "full"
        monkeypatch.delenv("REPRO_EXPERIMENT_SCALE")
        assert default_scale() == "full"
