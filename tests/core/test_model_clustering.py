"""Tests for repro.core.model_clustering."""

import numpy as np
import pytest

from repro.cluster.assignments import ClusterAssignment
from repro.cluster.hierarchical import AgglomerativeClustering
from repro.cluster.nnchain import NNChainClustering
from repro.core.config import ClusteringConfig
from repro.core.model_clustering import ModelClusterer, ModelClustering
from repro.utils.exceptions import SelectionError


class TestModelClusterer:
    def test_every_model_assigned(self, nlp_clustering_small, nlp_hub_small):
        assert set(nlp_clustering_small.model_names) == set(nlp_hub_small.model_names)

    def test_representatives_have_highest_average_accuracy(
        self, nlp_clustering_small, nlp_matrix_small
    ):
        for cluster_id, members in nlp_clustering_small.non_singleton_clusters().items():
            representative = nlp_clustering_small.representative_of(cluster_id)
            best = max(members, key=nlp_matrix_small.average_accuracy)
            assert representative == best

    def test_sibling_qqp_models_more_similar_than_median(self, nlp_clustering_small):
        """The bert_ft_qqp-* checkpoints should be mutually closer than typical pairs.

        On the reduced test hub (small datasets, few benchmarks) the exact
        cluster boundaries are noisy, so this asserts the underlying
        similarity structure the clustering relies on rather than an exact
        co-membership.
        """
        similarity = nlp_clustering_small.similarity
        off_diagonal = similarity[np.triu_indices_from(similarity, k=1)]
        lower_quartile = float(np.percentile(off_diagonal, 25))
        sibling = nlp_clustering_small.similarity_between(
            "Jeevesh8/bert_ft_qqp-68", "Jeevesh8/bert_ft_qqp-9"
        )
        unrelated = nlp_clustering_small.similarity_between(
            "Jeevesh8/bert_ft_qqp-68",
            "CAMeL-Lab/bert-base-arabic-camelbert-mix-did-nadi",
        )
        assert sibling > lower_quartile
        assert sibling > unrelated

    def test_singleton_helpers_consistent(self, nlp_clustering_small):
        singles = set(nlp_clustering_small.singleton_models())
        for name in nlp_clustering_small.model_names:
            members = nlp_clustering_small.assignment.members(
                nlp_clustering_small.cluster_of(name)
            )
            assert (len(members) == 1) == (name in singles)

    def test_similarity_between(self, nlp_clustering_small):
        value = nlp_clustering_small.similarity_between(
            "bert-base-uncased", "roberta-base"
        )
        assert 0.0 <= value <= 1.0
        assert nlp_clustering_small.similarity_between(
            "bert-base-uncased", "bert-base-uncased"
        ) == pytest.approx(1.0)

    def test_summary_counts(self, nlp_clustering_small, nlp_hub_small):
        summary = nlp_clustering_small.summary()
        assert summary["num_models"] == len(nlp_hub_small)
        assert (
            summary["num_models_in_non_singleton"]
            + len(nlp_clustering_small.singleton_models())
            == len(nlp_hub_small)
        )

    def test_representative_of_singleton_raises(self, nlp_clustering_small):
        singles = nlp_clustering_small.singleton_models()
        if singles:
            cluster_id = nlp_clustering_small.cluster_of(singles[0])
            with pytest.raises(SelectionError):
                nlp_clustering_small.representative_of(cluster_id)

    def test_kmeans_clustering(self, nlp_matrix_small, nlp_hub_small):
        config = ClusteringConfig(method="kmeans", num_clusters=4)
        clustering = ModelClusterer(config).cluster(
            nlp_matrix_small, model_cards=nlp_hub_small.model_cards()
        )
        assert clustering.assignment.num_clusters == 4

    def test_text_similarity_clustering(self, nlp_matrix_small, nlp_hub_small):
        config = ClusteringConfig(similarity="text")
        clustering = ModelClusterer(config).cluster(
            nlp_matrix_small, model_cards=nlp_hub_small.model_cards()
        )
        assert clustering.assignment.num_clusters >= 1

    def test_performance_similarity_beats_text(self, nlp_matrix_small, nlp_hub_small):
        """Table I's headline: Eq. 1 similarity clusters better than model cards."""
        cards = nlp_hub_small.model_cards()
        performance = ModelClusterer(ClusteringConfig(num_clusters=4)).cluster(
            nlp_matrix_small, model_cards=cards
        )
        text = ModelClusterer(ClusteringConfig(similarity="text", num_clusters=4)).cluster(
            nlp_matrix_small, model_cards=cards
        )
        assert performance.silhouette >= text.silhouette - 0.05

    def test_explicit_threshold_respected(self, nlp_matrix_small):
        tight = ModelClusterer(ClusteringConfig(distance_threshold=1e-9)).cluster(
            nlp_matrix_small
        )
        loose = ModelClusterer(ClusteringConfig(distance_threshold=1.0)).cluster(
            nlp_matrix_small
        )
        assert tight.assignment.num_clusters == len(nlp_matrix_small.model_names)
        assert loose.assignment.num_clusters == 1

    def test_requires_two_models(self, nlp_matrix_small):
        single = nlp_matrix_small.submatrix(["bert-base-uncased"])
        with pytest.raises(SelectionError):
            ModelClusterer(ClusteringConfig()).cluster(single)


class TestAlgorithmDispatch:
    def test_default_algorithm_is_nnchain(self, nlp_matrix_small, monkeypatch):
        engines = []
        fit_predict = NNChainClustering.fit_predict

        def spy(engine, *args, **kwargs):
            engines.append(engine)
            return fit_predict(engine, *args, **kwargs)

        monkeypatch.setattr(NNChainClustering, "fit_predict", spy)
        ModelClusterer(ClusteringConfig()).cluster(nlp_matrix_small, cache=False)
        assert len(engines) == 1

    @pytest.mark.parametrize("kwargs", [{}, {"num_clusters": 4}, {"distance_threshold": 0.3}])
    def test_scan_and_nnchain_agree_on_the_zoo(self, nlp_matrix_small, kwargs, monkeypatch):
        """The oracle gate: the scan clusters the seeded zoo like nnchain."""
        import repro.core.model_clustering as module

        config = ClusteringConfig(**kwargs)
        chain = ModelClusterer(config).cluster(nlp_matrix_small, cache=False)
        monkeypatch.setattr(module, "NNChainClustering", AgglomerativeClustering)
        scan = ModelClusterer(config).cluster(nlp_matrix_small, cache=False)
        assert np.array_equal(chain.assignment.labels, scan.assignment.labels)
        assert chain.representatives == scan.representatives
        assert chain.extras == scan.extras


class TestSilhouetteSkipReporting:
    def test_skip_past_cap_recorded_in_extras(self, nlp_matrix_small, monkeypatch):
        import repro.core.model_clustering as module

        monkeypatch.setattr(module, "SILHOUETTE_MAX_MODELS", 2)
        clustering = ModelClusterer(ClusteringConfig()).cluster(
            nlp_matrix_small, cache=False
        )
        assert clustering.silhouette is None
        assert clustering.extras["silhouette_skipped"] == 1.0

    def test_small_repository_not_marked_skipped(self, nlp_clustering_small):
        assert "silhouette_skipped" not in nlp_clustering_small.extras

    def test_degenerate_labels_are_none_but_not_skipped(self):
        clustering = ModelClustering(
            assignment=ClusterAssignment.from_labels(["a", "b", "c"], np.zeros(3, dtype=int)),
            similarity=np.ones((3, 3)),
            representatives={0: "a"},
            config=ClusteringConfig(),
        )
        assert clustering.silhouette is None
        assert "silhouette_skipped" not in clustering.extras
