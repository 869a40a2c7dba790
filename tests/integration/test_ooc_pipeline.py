"""Integration tests: the out-of-core offline phase through build/refresh/serve."""

import numpy as np
import pytest

from repro.cache import distance_key, fingerprint_matrix, similarity_key
from repro.core.config import PipelineConfig, SimilarityConfig
from repro.core.pipeline import OfflineArtifacts
from repro.data.workloads import DataScale, suite_for_modality
from repro.service import SelectionService
from repro.store import MatrixStore
from repro.zoo.hub import ModelHub


@pytest.fixture(scope="module")
def small_world():
    suite = suite_for_modality("nlp", seed=0, scale=DataScale.small())
    hub = ModelHub(suite, seed=0)
    return suite, hub.subset(hub.model_names[:8])


def _configs(tmp_path):
    from dataclasses import replace

    dense = PipelineConfig.for_modality("nlp")
    spilled = replace(
        dense,
        similarity=SimilarityConfig(
            spill_threshold_bytes=0,
            max_bytes_in_flight=8192,
            store_dir=str(tmp_path / "store"),
        ),
    )
    return dense, spilled


def test_build_spilled_equals_dense(small_world, tmp_path):
    suite, hub = small_world
    dense_config, spilled_config = _configs(tmp_path)
    dense = OfflineArtifacts.build(hub, suite, config=dense_config, cache=False)
    spilled = OfflineArtifacts.build(hub, suite, config=spilled_config, cache=False)
    assert isinstance(spilled.clustering.similarity, np.memmap)
    assert np.array_equal(dense.matrix.values, spilled.matrix.values)
    assert np.array_equal(
        dense.clustering.similarity, spilled.clustering.similarity
    )
    assert np.array_equal(
        dense.clustering.assignment.labels, spilled.clustering.assignment.labels
    )
    assert dense.clustering.representatives == spilled.clustering.representatives
    # The spilled artifacts really live in the configured store.
    assert any((tmp_path / "store").glob("*.npy"))


def test_refresh_spilled_equals_dense(small_world, tmp_path):
    suite, hub = small_world
    dense_config, spilled_config = _configs(tmp_path)
    dense = OfflineArtifacts.build(hub, suite, config=dense_config, cache=False)
    spilled = OfflineArtifacts.build(hub, suite, config=spilled_config, cache=False)

    full_hub = ModelHub(suite, seed=0)
    addition = full_hub.model_names[8]
    removal = hub.model_names[0]
    dense_result = dense.refresh(added=[addition], removed=[removal], cache=False)
    spilled_result = spilled.refresh(added=[addition], removed=[removal], cache=False)
    dense_after, spilled_after = dense_result.artifacts, spilled_result.artifacts
    assert np.array_equal(dense_after.matrix.values, spilled_after.matrix.values)
    assert np.array_equal(
        dense_after.clustering.similarity, spilled_after.clustering.similarity
    )
    assert np.array_equal(
        dense_after.clustering.assignment.labels,
        spilled_after.clustering.assignment.labels,
    )
    assert dense_result.reclustered == spilled_result.reclustered
    assert dense_result.staleness == spilled_result.staleness
    assert isinstance(spilled_after.clustering.similarity, np.memmap)


def test_refresh_evicts_superseded_spilled_artifacts(small_world, tmp_path):
    suite, hub = small_world
    _, spilled_config = _configs(tmp_path)
    artifacts = OfflineArtifacts.build(hub, suite, config=spilled_config, cache=False)
    store = MatrixStore(tmp_path / "store")
    old_fragment = fingerprint_matrix(artifacts.matrix)
    # A bare artifacts refresh leaves the superseded files in place.
    artifacts.refresh(removed=[hub.model_names[0]], cache=False)
    assert store.evict_matching(old_fragment) > 0
    # Rebuild (the probe just evicted the files) and refresh through the
    # service, which purges after its swap: the superseded files are gone.
    artifacts = OfflineArtifacts.build(hub, suite, config=spilled_config, cache=False)
    SelectionService(artifacts).refresh(removed=[hub.model_names[0]])
    assert store.evict_matching(old_fragment) == 0


def test_refresh_that_keeps_the_clustering_spills_no_distance(small_world, tmp_path):
    suite, hub = small_world
    _, spilled_config = _configs(tmp_path)
    artifacts = OfflineArtifacts.build(hub, suite, config=spilled_config, cache=False)
    result = artifacts.refresh(removed=[hub.model_names[0]], cache=False)
    assert not result.reclustered
    store = MatrixStore(tmp_path / "store")
    key = similarity_key(
        result.artifacts.matrix,
        method="performance",
        top_k=spilled_config.clustering.top_k,
    )
    assert store.get(key) is not None  # the similarity spilled under its key
    assert store.get(distance_key(key)) is None


def test_cluster_keeps_precomputed_memmap_similarity_out_of_core(small_world, tmp_path):
    """A canonical spilled similarity is clustered without densifying."""
    from repro.core.model_clustering import ModelClusterer
    from repro.core.performance import build_performance_matrix
    from repro.core.similarity import (
        performance_similarity_matrix,
        performance_similarity_matrix_ooc,
    )

    suite, hub = small_world
    _, spilled_config = _configs(tmp_path)
    similarity_config = spilled_config.similarity
    matrix = build_performance_matrix(hub, suite)
    spilled_similarity = performance_similarity_matrix_ooc(
        matrix, config=similarity_config, cache=False
    )
    clustering = ModelClusterer().cluster(
        matrix,
        similarity=spilled_similarity,
        cache=False,
        similarity_config=similarity_config,
    )
    assert isinstance(clustering.similarity, np.memmap)
    dense = ModelClusterer().cluster(
        matrix,
        similarity=performance_similarity_matrix(matrix, cache=False),
        cache=False,
    )
    assert np.array_equal(
        dense.assignment.labels, clustering.assignment.labels
    )
    # The derived distance landed in the store under its canonical key.
    store = MatrixStore(tmp_path / "store")
    key = distance_key(similarity_key(matrix, method="performance", top_k=5))
    assert store.get(key) is not None


def test_evicting_never_creates_the_store_directory(tmp_path):
    from repro.core.config import SimilarityConfig
    from repro.core.performance import PerformanceMatrix
    from repro.core.pipeline import purge_superseded_artifacts

    matrix = PerformanceMatrix(["d0"], ["m0", "m1"], np.zeros((1, 2)))
    missing = tmp_path / "never-created"
    config = SimilarityConfig(store_dir=str(missing))
    assert purge_superseded_artifacts(matrix, config, cache=False) == 0
    assert not missing.exists()


def test_service_serves_from_memmapped_artifacts(small_world, tmp_path):
    suite, hub = small_world
    _, spilled_config = _configs(tmp_path)
    artifacts = OfflineArtifacts.build(hub, suite, config=spilled_config, cache=False)
    service = SelectionService(artifacts)
    assert service.stats()["similarity_backing"] == "memmap"
    result = service.select(service.target_names[0])
    assert result.selected_model in hub.model_names

    dense_service = SelectionService.from_hub(hub, suite)
    dense_result = dense_service.select(dense_service.target_names[0])
    assert result.selected_model == dense_result.selected_model
    assert result.selected_accuracy == dense_result.selected_accuracy
    assert dense_service.stats()["similarity_backing"] == "memory"
