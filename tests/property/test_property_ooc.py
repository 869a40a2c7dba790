"""Property-based equivalence of the out-of-core offline phase.

The spill-to-disk paths are only admissible because they are **bitwise**
interchangeable with the in-RAM ones:

* :func:`performance_similarity_matrix_ooc` must equal
  :func:`performance_similarity_matrix` for any shape, ``top_k`` and
  in-flight memory budget (tiling cannot change a single bit — every Eq. 1
  lane is independent of its block mates);
* the tile-wise distance conversion must equal
  :func:`similarity_to_distance` (exact Eq. 1 symmetry makes the dense
  path's ``(d + d.T) / 2`` the identity);
* clustering on the memmapped matrices — streamed threshold quantile,
  scratch-memmap working copy, cached-argmin merge loop — must reproduce
  the in-RAM clustering merge for merge;
* the out-of-core incremental update must equal both the in-RAM
  incremental path and the from-scratch oracle over arbitrary add/remove
  sequences.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.distance import (
    distance_memmap_for,
    similarity_to_distance,
    upper_triangle_values,
)
from repro.core.config import ClusteringConfig, SimilarityConfig
from repro.core.model_clustering import ModelClusterer
from repro.core.performance import PerformanceMatrix
from repro.core.similarity import (
    performance_similarity_matrix,
    performance_similarity_matrix_ooc,
    update_similarity_matrix_ooc,
)
from repro.store import MatrixStore


def _matrix(values, names):
    return PerformanceMatrix(
        dataset_names=[f"d{i}" for i in range(values.shape[0])],
        model_names=list(names),
        values=values,
    )


def _spill_config(budget):
    return SimilarityConfig(spill_threshold_bytes=0, max_bytes_in_flight=budget)


@st.composite
def performance_matrices(draw, max_models=24, max_datasets=10):
    n = draw(st.integers(min_value=2, max_value=max_models))
    d = draw(st.integers(min_value=1, max_value=max_datasets))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0, size=(d, n))
    if draw(st.booleans()):
        # Quantised accuracies produce heavy similarity ties — the regime
        # where a divergent merge order would actually show up.
        values = np.round(values * 8) / 8
    return _matrix(values, [f"m{i}" for i in range(n)])


@settings(max_examples=40, deadline=None)
@given(
    matrix=performance_matrices(),
    top_k=st.integers(min_value=1, max_value=8),
    budget=st.sampled_from([4096, 65536, 64 * 1024 * 1024]),
)
def test_ooc_similarity_bitwise_equals_dense(tmp_path_factory, matrix, top_k, budget):
    store = MatrixStore(tmp_path_factory.mktemp("sim"))
    dense = performance_similarity_matrix(matrix, top_k=top_k, cache=False)
    spilled = performance_similarity_matrix_ooc(
        matrix,
        top_k=top_k,
        config=_spill_config(budget),
        cache=False,
        store=store,
    )
    assert np.array_equal(dense, spilled)


@settings(max_examples=30, deadline=None)
@given(matrix=performance_matrices(), top_k=st.integers(min_value=1, max_value=6))
def test_ooc_distance_bitwise_equals_dense(tmp_path_factory, matrix, top_k):
    store = MatrixStore(tmp_path_factory.mktemp("dist"))
    dense_similarity = performance_similarity_matrix(matrix, top_k=top_k, cache=False)
    spilled_similarity = performance_similarity_matrix_ooc(
        matrix, top_k=top_k, config=_spill_config(4096), cache=False, store=store
    )
    dense_distance = similarity_to_distance(dense_similarity)
    spilled_distance = distance_memmap_for(
        matrix, spilled_similarity, top_k=top_k, config=_spill_config(4096), store=store
    )
    assert np.array_equal(dense_distance, spilled_distance)
    # The streamed upper-triangle gather is value- and order-identical to
    # the triu indexing the threshold quantile used to rely on.
    assert np.array_equal(
        upper_triangle_values(spilled_distance),
        dense_distance[np.triu_indices_from(dense_distance, k=1)],
    )


@settings(max_examples=25, deadline=None)
@given(matrix=performance_matrices(max_models=20))
def test_ooc_clustering_bitwise_equals_dense(tmp_path_factory, matrix):
    config = ClusteringConfig()
    dense = ModelClusterer(config).cluster(matrix, cache=False)
    spill = SimilarityConfig(
        spill_threshold_bytes=0,
        max_bytes_in_flight=4096,
        store_dir=str(tmp_path_factory.mktemp("cluster")),
    )
    spilled = ModelClusterer(config).cluster(
        matrix, cache=False, similarity_config=spill
    )
    assert np.array_equal(dense.assignment.labels, spilled.assignment.labels)
    assert dense.representatives == spilled.representatives
    assert dense.silhouette == spilled.silhouette
    assert dense.extras["distance_threshold"] == spilled.extras["distance_threshold"]
    assert np.array_equal(dense.similarity, spilled.similarity)
    assert spilled.extras.get("ooc") == 1.0
    assert isinstance(spilled.similarity, np.memmap)


@st.composite
def update_steps(draw, max_steps=3):
    """A base repository (from one model) plus add/remove steps.

    Removals may take every model, so the chain reaches the writer's
    degenerate shapes (n <= 1) and updates with no survivors.
    """
    d = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    base_n = draw(st.integers(min_value=1, max_value=8))
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_steps))):
        steps.append(
            (
                draw(st.integers(min_value=0, max_value=8)),  # removals
                draw(st.integers(min_value=0, max_value=3)),  # additions
            )
        )
    return d, rng, base_n, steps


@settings(max_examples=25, deadline=None)
@given(spec=update_steps(), top_k=st.integers(min_value=1, max_value=5))
def test_ooc_incremental_chain_equals_oracle(tmp_path_factory, spec, top_k):
    d, rng, base_n, steps = spec
    store = MatrixStore(tmp_path_factory.mktemp("chain"))
    config = _spill_config(4096)
    counter = base_n
    names = [f"m{i}" for i in range(base_n)]
    values = rng.uniform(0.0, 1.0, size=(d, base_n))
    current = _matrix(values, names)
    similarity = performance_similarity_matrix_ooc(
        current, top_k=top_k, config=config, cache=False, store=store
    )
    for remove_count, add_count in steps:
        keep = list(range(len(current.model_names)))
        rng.shuffle(keep)
        keep = sorted(keep[: max(0, len(keep) - remove_count)])
        fresh = [f"m{counter + i}" for i in range(add_count)]
        counter += add_count
        new_names = [current.model_names[i] for i in keep] + fresh
        new_values = np.concatenate(
            [current.values[:, keep], rng.uniform(0.0, 1.0, size=(d, add_count))],
            axis=1,
        )
        new_matrix = _matrix(new_values, new_names)
        similarity = update_similarity_matrix_ooc(
            current, similarity, new_matrix,
            top_k=top_k, config=config, cache=False, store=store,
        )
        oracle = performance_similarity_matrix(new_matrix, top_k=top_k, cache=False)
        assert np.array_equal(oracle, similarity)
        current = new_matrix
