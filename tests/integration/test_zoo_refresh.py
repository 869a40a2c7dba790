"""Integration tests: incremental zoo refresh through artifacts and service.

The acceptance bar of the dynamic-zoo subsystem: a running
:class:`~repro.service.SelectionService` must serve *correct* selections
across a :meth:`refresh` (equal to a service built from scratch over the
updated repository) **without** rebuilding unaffected artifacts — surviving
checkpoints are not re-fine-tuned, surviving similarity rows are not
recomputed, and the refreshed similarity lands in the cache under its
canonical key while the superseded version's entries are evicted.
"""

import numpy as np
import pytest
from oracles import serial_select

import repro.cache
from repro.cache import ArtifactCache, distance_key, similarity_key
from repro.cluster.distance import (
    distance_matrix_for,
    distance_memmap_for,
    similarity_to_distance,
)
from repro.core.pipeline import OfflineArtifacts
from repro.service import SelectionService
from repro.utils.exceptions import ConfigurationError
from repro.zoo.finetune import FineTuneConfig, FineTuner

ADDED_MODEL = "aviator-neural/bert-base-uncased-sst2"


@pytest.fixture()
def artifacts(nlp_hub_small, nlp_suite_small, test_pipeline_config):
    return OfflineArtifacts.build(
        nlp_hub_small,
        nlp_suite_small,
        config=test_pipeline_config,
        fine_tuner=FineTuner(FineTuneConfig(epochs=3), seed=0),
    )


class TestArtifactRefresh:
    def test_refresh_requires_a_change(self, artifacts):
        with pytest.raises(ConfigurationError):
            artifacts.refresh()

    def test_refresh_matches_from_scratch_build(
        self, artifacts, nlp_suite_small, test_pipeline_config
    ):
        result = artifacts.refresh(
            added=[ADDED_MODEL], removed=[artifacts.hub.model_names[0]], cache=False
        )
        fresh = OfflineArtifacts.build(
            result.artifacts.hub,
            nlp_suite_small,
            config=test_pipeline_config,
            fine_tuner=FineTuner(FineTuneConfig(epochs=3), seed=0),
            cache=False,
        )
        assert result.artifacts.matrix.model_names == fresh.matrix.model_names
        assert np.array_equal(result.artifacts.matrix.values, fresh.matrix.values)
        assert np.array_equal(
            result.artifacts.clustering.similarity, fresh.clustering.similarity
        )
        assert result.new_version.epoch == 1
        assert result.added == [ADDED_MODEL]

    def test_refresh_fine_tunes_only_added_models(self, artifacts, monkeypatch):
        calls = []
        original = FineTuner.start_sessions

        def counting(self, models, task, **kwargs):
            calls.extend((model.name, task.name) for model in models)
            return original(self, models, task, **kwargs)

        monkeypatch.setattr(FineTuner, "start_sessions", counting)
        artifacts.refresh(added=[ADDED_MODEL], cache=False)
        # Exactly one offline run per benchmark dataset, all for the
        # added checkpoint — surviving columns were copied, not rebuilt.
        assert {name for name, _ in calls} == {ADDED_MODEL}
        assert len(calls) == len(artifacts.matrix.dataset_names)

    def test_refresh_warms_and_evicts_cache(
        self, artifacts, test_pipeline_config, monkeypatch
    ):
        cache = ArtifactCache(max_entries=16)
        # The service refreshes and purges through the process-default cache.
        monkeypatch.setattr(repro.cache, "_default_cache", cache)
        top_k = test_pipeline_config.clustering.top_k
        old_key = similarity_key(artifacts.matrix, method="performance", top_k=top_k)
        cache.put(old_key, artifacts.clustering.similarity)

        # A bare artifacts refresh evicts nothing: the old epoch may still serve.
        assert artifacts.refresh(added=[ADDED_MODEL]).evicted_entries == 0
        assert cache.get(old_key) is not None

        result = SelectionService(artifacts).refresh(added=[ADDED_MODEL])
        new_key = similarity_key(
            result.artifacts.matrix, method="performance", top_k=top_k
        )
        # The refreshed similarity is warm under its canonical key; no
        # distance was derived for a refresh that kept the clustering ...
        assert not result.reclustered
        assert cache.get(new_key) is not None
        assert cache.get(distance_key(new_key)) is None
        # ... and the service evicted the superseded version's entries.
        assert result.evicted_entries >= 1
        assert cache.get(old_key) is None

    def test_incremental_similarity_row_is_not_recomputed(self, artifacts):
        """The cache hit/miss ledger proves the warm path: clustering the
        refreshed matrix again finds its similarity by lookup; only the
        distance, which the refresh never derived, is a miss."""
        cache = ArtifactCache(max_entries=16)
        result = artifacts.refresh(added=[ADDED_MODEL], cache=cache)
        from repro.core.model_clustering import ModelClusterer

        new_key = similarity_key(
            result.artifacts.matrix,
            method="performance",
            top_k=artifacts.config.clustering.top_k,
        )
        assert distance_key(new_key) not in cache.memory
        misses_before, hits_before = cache.stats.misses, cache.stats.hits
        clustering = ModelClusterer(artifacts.config.clustering).cluster(
            result.artifacts.matrix, cache=cache
        )
        assert cache.stats.misses == misses_before + 1  # the distance key alone
        assert cache.stats.hits > hits_before
        assert np.array_equal(
            clustering.similarity, result.artifacts.clustering.similarity
        )


class TestServiceRefresh:
    def test_selections_correct_across_refresh(self, artifacts, nlp_suite_small):
        service = SelectionService(artifacts)
        before = service.select("mnli").selected_model
        result = service.refresh(
            added=[ADDED_MODEL], removed=[artifacts.hub.model_names[0]]
        )
        served = service.select("mnli")
        # Oracle: the serial loop run directly over the refreshed artifacts.
        oracle = serial_select(
            result.artifacts, "mnli",
            fine_tuner=FineTuner(FineTuneConfig(epochs=3), seed=0),
        )
        assert served.selected_model == oracle.selected_model
        assert served.total_cost == oracle.total_cost
        assert before in artifacts.hub.model_names  # old epoch untouched

    def test_refresh_updates_stats_and_version(self, artifacts):
        service = SelectionService(artifacts)
        v0 = service.stats()["zoo_version"]
        assert v0.startswith("v0-")
        assert service.stats()["refreshes"] == 0
        result = service.refresh(added=[ADDED_MODEL])
        stats = service.stats()
        assert stats["refreshes"] == 1
        assert stats["zoo_version"] == result.new_version.key
        assert stats["zoo_version"].startswith("v1-")
        assert stats["num_models"] == len(artifacts.hub) + 1

    def test_refresh_equivalence_holds_for_non_zero_seed(self):
        """Regression: the refresh must use the *offline* tuner, not the
        online selector's seed-keyed one — with `seed=1` the two diverge,
        and mixing them silently broke incremental == from-scratch."""
        service = SelectionService.from_modality(
            "nlp", scale="small", num_models=8, seed=1
        )
        # A catalogue model beyond the served 8 (ADDED_MODEL is within them).
        result = service.refresh(added=["bondi/bert-semaphore-prediction-w4"])
        fresh = OfflineArtifacts.build(
            result.artifacts.hub,
            result.artifacts.suite,
            config=result.artifacts.config,
            cache=False,
        )
        assert np.array_equal(result.artifacts.matrix.values, fresh.matrix.values)
        assert np.array_equal(
            result.artifacts.clustering.similarity, fresh.clustering.similarity
        )

    def test_a_refresh_that_keeps_the_clustering_derives_no_distance(
        self, artifacts, count_calls
    ):
        calls = count_calls(distance_matrix_for, distance_memmap_for, similarity_to_distance)
        result = SelectionService(artifacts).refresh(
            removed=[artifacts.hub.model_names[0]]
        )
        assert not result.reclustered
        assert calls == {}
        # The counters are live: the first silhouette read converts once.
        assert result.artifacts.clustering.silhouette is not None
        assert calls == {"similarity_to_distance": 1}

    def test_refresh_does_not_rebuild_survivors(self, artifacts, monkeypatch):
        service = SelectionService(artifacts)
        calls = []
        original = FineTuner.start_sessions

        def counting(self, models, task, **kwargs):
            calls.extend(model.name for model in models)
            return original(self, models, task, **kwargs)

        monkeypatch.setattr(FineTuner, "start_sessions", counting)
        service.refresh(added=[ADDED_MODEL])
        assert calls  # the spy sees the added model's offline runs
        offline_calls = [name for name in calls if name != ADDED_MODEL]
        assert not offline_calls  # surviving checkpoints were never touched
