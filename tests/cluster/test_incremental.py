"""Unit tests for incremental cluster maintenance (repro.cluster.incremental)."""

import numpy as np
import pytest

from repro.cluster.incremental import ClusteringUpdate, update_clustering
from repro.core.config import ClusteringConfig
from repro.core.model_clustering import ModelClusterer
from repro.core.performance import PerformanceMatrix
from repro.core.similarity import (
    performance_similarity_matrix,
    update_similarity_matrix,
)
from repro.utils.exceptions import DataError


def _matrix(values, names):
    return PerformanceMatrix(
        dataset_names=[f"d{i}" for i in range(values.shape[0])],
        model_names=list(names),
        values=values,
    )


@pytest.fixture()
def base():
    """A 10-model repository with two tight families and loose singletons."""
    rng = np.random.default_rng(3)
    centers = {
        "a": rng.uniform(0.4, 0.9, size=6),
        "b": rng.uniform(0.2, 0.7, size=6),
    }
    columns, names = [], []
    for family, center in centers.items():
        for i in range(3):
            columns.append(np.clip(center + rng.normal(0, 0.01, 6), 0, 1))
            names.append(f"{family}{i}")
    for i in range(4):
        columns.append(rng.uniform(0.0, 1.0, size=6))
        names.append(f"solo{i}")
    matrix = _matrix(np.column_stack(columns), names)
    config = ClusteringConfig(staleness_threshold=0.5)
    clustering = ModelClusterer(config).cluster(matrix, cache=False)
    return matrix, clustering, config


def _grow(matrix, rng, added_names):
    values = np.concatenate(
        [matrix.values, rng.uniform(0, 1, (matrix.values.shape[0], len(added_names)))],
        axis=1,
    )
    return _matrix(values, matrix.model_names + list(added_names))


class TestUpdateClustering:
    def test_noop_update_returns_old_clustering(self, base):
        matrix, clustering, config = base
        update = update_clustering(
            clustering, matrix, clustering.similarity, config=config
        )
        assert isinstance(update, ClusteringUpdate)
        assert update.clustering is clustering
        assert not update.reclustered
        assert update.touched_clusters == []

    def test_sibling_add_joins_its_family_cluster(self, base):
        matrix, clustering, config = base
        # A new checkpoint nearly identical to family "a" must join it.
        new_values = np.concatenate(
            [matrix.values, matrix.values[:, [0]] + 1e-4], axis=1
        )
        new_matrix = _matrix(new_values, matrix.model_names + ["a_new"])
        similarity = update_similarity_matrix(
            matrix, clustering.similarity, new_matrix, top_k=config.top_k, cache=False
        )
        update = update_clustering(clustering, new_matrix, similarity, config=config)
        assert not update.reclustered
        assert update.clustering.cluster_of("a_new") == update.clustering.cluster_of("a0")
        assert update.clustering.cluster_of("a_new") in update.touched_clusters

    def test_outlier_add_becomes_singleton(self, base):
        matrix, clustering, config = base
        # An adversarial vector far from everything: distance ~1 to all.
        outlier = np.where(matrix.values.mean(axis=1) > 0.5, 0.0, 1.0)[:, None]
        new_matrix = _matrix(
            np.concatenate([matrix.values, outlier], axis=1),
            matrix.model_names + ["outlier"],
        )
        similarity = update_similarity_matrix(
            matrix, clustering.similarity, new_matrix, top_k=config.top_k, cache=False
        )
        update = update_clustering(clustering, new_matrix, similarity, config=config)
        assert not update.reclustered
        clustering = update.clustering
        assert len(clustering.cluster_members(clustering.cluster_of("outlier"))) == 1

    def test_untouched_clusters_keep_their_representative(self, base):
        matrix, clustering, config = base
        removed = "b0"
        survivors = [n for n in matrix.model_names if n != removed]
        idx = [matrix.model_names.index(n) for n in survivors]
        new_matrix = _matrix(matrix.values[:, idx], survivors)
        similarity = update_similarity_matrix(
            matrix, clustering.similarity, new_matrix, top_k=config.top_k, cache=False
        )
        update = update_clustering(clustering, new_matrix, similarity, config=config)
        a_cluster = update.clustering.cluster_of("a0")
        assert a_cluster not in update.touched_clusters
        assert (
            update.clustering.representatives[a_cluster]
            == clustering.representatives[clustering.cluster_of("a0")]
        )

    def test_staleness_accumulates_until_recluster(self, base):
        matrix, clustering, config = base
        rng = np.random.default_rng(11)
        total_added = 0
        reclustered = False
        for step in range(14):
            new_matrix = _grow(matrix, rng, [f"extra{step}"])
            similarity = update_similarity_matrix(
                matrix, clustering.similarity, new_matrix,
                top_k=config.top_k, cache=False,
            )
            update = update_clustering(
                clustering, new_matrix, similarity, config=config
            )
            total_added += 1
            if update.reclustered:
                reclustered = True
                assert update.clustering.extras["stale_models"] == 0.0
                break
            stale = update.clustering.extras["stale_models"]
            assert stale == total_added
            assert stale / len(new_matrix.model_names) <= config.staleness_threshold
            matrix, clustering = new_matrix, update.clustering
        # stale/n = k/(10+k) crosses the 0.5 budget at the 11th add.
        assert reclustered

    def test_shrink_below_two_models_raises(self, base):
        matrix, clustering, config = base
        last = matrix.model_names[:1]
        tiny = _matrix(matrix.values[:, :1], last)
        similarity = np.ones((1, 1))
        with pytest.raises(DataError):
            update_clustering(clustering, tiny, similarity, config=config)

    def test_misaligned_similarity_rejected(self, base):
        matrix, clustering, config = base
        with pytest.raises(DataError):
            update_clustering(clustering, matrix, np.ones((3, 3)), config=config)


def _elect_by_lookup(clustering, matrix, old=None, touched=()):
    """Each election keyed by ``matrix.average_accuracy(name)``, one name at a time."""
    expected = {}
    for cluster_id, members in clustering.non_singleton_clusters().items():
        if old is not None and cluster_id not in touched:
            survivor = old.representatives.get(old.cluster_of(members[0]))
            if survivor is not None:
                expected[cluster_id] = survivor
                continue
        expected[cluster_id] = max(members, key=matrix.average_accuracy)
    return expected


class TestRepresentativeElection:
    """Elections read one ``average_accuracies()`` dict; the winners must
    equal those of per-name ``average_accuracy`` lookups."""

    def test_build_and_refresh_chain_match_per_name_lookups(self):
        rng = np.random.default_rng(17)
        centers = rng.uniform(0.2, 0.9, size=(6, 12))

        def family_column(family):
            return np.clip(centers[family] + rng.normal(0, 0.01, 12), 0, 1)

        names = [f"f{i % 6}-{i}" for i in range(48)]
        matrix = _matrix(
            np.column_stack([family_column(i % 6) for i in range(48)]), names
        )
        config = ClusteringConfig(staleness_threshold=0.3)
        clustering = ModelClusterer(config).cluster(matrix, cache=False)
        assert clustering.non_singleton_clusters()
        assert clustering.representatives == _elect_by_lookup(clustering, matrix)

        reclustered = False
        for step in range(12):
            added = [f"f{step % 6}-new{step}", f"solo-new{step}"]
            values = np.column_stack([
                matrix.values[:, 1:],
                family_column(step % 6),
                rng.uniform(0, 1, 12),
            ])
            new_matrix = _matrix(values, matrix.model_names[1:] + added)
            similarity = update_similarity_matrix(
                matrix, clustering.similarity, new_matrix,
                top_k=config.top_k, cache=False,
            )
            update = update_clustering(clustering, new_matrix, similarity, config=config)
            new = update.clustering
            if update.reclustered:
                reclustered = True
                expected = _elect_by_lookup(new, new_matrix)
            else:
                expected = _elect_by_lookup(
                    new, new_matrix, old=clustering, touched=update.touched_clusters
                )
            assert new.representatives == expected
            matrix, clustering = new_matrix, new
        assert reclustered


class TestUpdateSimilarityValidation:
    def test_changed_benchmarks_rejected(self, base):
        matrix, clustering, _ = base
        renamed = PerformanceMatrix(
            dataset_names=[f"x{i}" for i in range(matrix.values.shape[0])],
            model_names=matrix.model_names,
            values=matrix.values,
        )
        with pytest.raises(DataError):
            update_similarity_matrix(
                matrix, clustering.similarity, renamed, cache=False
            )

    def test_mutated_survivor_column_rejected(self, base):
        matrix, clustering, _ = base
        poisoned = matrix.values.copy()
        poisoned[0, 0] += 0.25
        with pytest.raises(DataError):
            update_similarity_matrix(
                matrix,
                clustering.similarity,
                _matrix(poisoned, matrix.model_names),
                cache=False,
            )

    def test_misaligned_old_similarity_rejected(self, base):
        matrix, _, _ = base
        with pytest.raises(DataError):
            update_similarity_matrix(matrix, np.ones((2, 2)), matrix, cache=False)

    def test_pure_removal_is_a_submatrix_copy(self, base):
        matrix, clustering, _ = base
        survivors = matrix.model_names[2:]
        idx = [matrix.model_names.index(n) for n in survivors]
        new_matrix = _matrix(matrix.values[:, idx], survivors)
        result = update_similarity_matrix(
            matrix, clustering.similarity, new_matrix, top_k=5, cache=False
        )
        oracle = performance_similarity_matrix(new_matrix, top_k=5, cache=False)
        assert np.array_equal(result, oracle)

    def test_mismatched_top_k_rejected(self, base):
        """Regression: a top_k differing from the one old_similarity was
        computed with must fail loudly, not silently mix regimes and poison
        the cache under the new matrix's canonical key."""
        matrix, clustering, config = base
        assert config.top_k == 5
        with pytest.raises(DataError):
            update_similarity_matrix(
                matrix, clustering.similarity, matrix, top_k=3, cache=False
            )
