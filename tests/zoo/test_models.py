"""Tests for repro.zoo.models.PretrainedModel."""

import threading

import numpy as np
import pytest

from oracles import encode_loop

from repro.utils.exceptions import ConfigurationError, DataError
from repro.zoo.hub import ModelHub
from repro.zoo.models import encode_models


class TestEncoder:
    def test_encode_shape(self, nlp_hub_small, nlp_suite_small):
        model = nlp_hub_small.get("bert-base-uncased")
        features = nlp_suite_small.task("sst2").train.features[:10]
        encoded = model.encode(features)
        assert encoded.shape == (10, model.hidden_dim)

    def test_encode_is_deterministic(self, nlp_hub_small, nlp_suite_small):
        model = nlp_hub_small.get("bert-base-uncased")
        features = nlp_suite_small.task("sst2").train.features[:5]
        assert np.allclose(model.encode(features), model.encode(features))

    def test_encode_rejects_wrong_dimension(self, nlp_hub_small):
        model = nlp_hub_small.get("bert-base-uncased")
        with pytest.raises(DataError):
            model.encode(np.ones((3, 7)))

    def test_different_models_encode_differently(self, nlp_hub_small, nlp_suite_small):
        features = nlp_suite_small.task("sst2").train.features[:5]
        a = nlp_hub_small.get("bert-base-uncased").encode(features)
        b = nlp_hub_small.get("roberta-base").encode(features)
        assert not np.allclose(a, b)

    def test_higher_quality_means_less_noise(self, nlp_hub_small):
        strong = nlp_hub_small.get("roberta-base")
        weak = nlp_hub_small.get("CAMeL-Lab/bert-base-arabic-camelbert-mix-did-nadi")
        assert strong.representation_noise < weak.representation_noise

    def test_encode_matches_per_row_oracle_on_every_model(self, nlp_suite_small):
        hub = ModelHub(nlp_suite_small, seed=0)
        task = nlp_suite_small.task("mnli")
        assert len(hub.model_names) >= 40
        for name in hub.model_names:
            model = hub.get(name)
            assert model.representation_noise > 0
            for split in (task.train, task.val, task.test):
                got = model.encode(split.features)
                expected = encode_loop(model, split.features)
                assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), name

    def test_encode_models_rejects_mixed_or_empty_groups(self, nlp_hub_small, cv_hub_small):
        nlp = nlp_hub_small.get("bert-base-uncased")
        cv = cv_hub_small.get("google/vit-base-patch16-224")
        features = np.zeros((2, nlp.space.feature_dim))
        with pytest.raises(ConfigurationError):
            encode_models([nlp, cv], features)
        with pytest.raises(ConfigurationError):
            encode_models([], features)

    def test_concept_gains_reflect_domain(self, nlp_hub_small):
        model = nlp_hub_small.get("bert-base-uncased")
        # The most-covered concept should have a higher gain than the least covered.
        best = int(np.argmax(model.domain))
        worst = int(np.argmin(model.domain))
        assert model.concept_gains[best] > model.concept_gains[worst]


class TestSourceHead:
    def test_posterior_is_probability_matrix(self, nlp_hub_small, nlp_suite_small):
        model = nlp_hub_small.get("bert-base-uncased")
        features = nlp_suite_small.task("sst2").train.features[:8]
        posterior = model.source_posterior(features)
        assert posterior.shape == (8, model.num_source_classes)
        assert np.allclose(posterior.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(posterior >= 0)

    def test_source_head_is_cached(self, nlp_hub_small):
        model = nlp_hub_small.get("bert-base-uncased")
        assert model.source_head() is model.source_head()

    def test_concurrent_source_head_trains_once(self, nlp_suite_small):
        """Lazy source-head training is lock-guarded: racing threads all get
        the same head object (weights independent of interleaving)."""
        model = ModelHub(nlp_suite_small, seed=0).get("bert-base-uncased")
        barrier = threading.Barrier(4, timeout=10)
        heads = []

        def grab():
            barrier.wait()
            heads.append(model.source_head())

        threads = [threading.Thread(target=grab) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(heads) == 4
        assert all(head is heads[0] for head in heads)


class TestTransferStructure:
    def test_domain_affinity_bounds(self, nlp_hub_small, nlp_suite_small):
        model = nlp_hub_small.get("bert-base-uncased")
        affinity = model.domain_affinity(nlp_suite_small.spec("mnli").domain)
        assert 0.0 <= affinity <= 1.0

    def test_finetuned_sibling_models_have_similar_domains(self, nlp_hub_small):
        """Checkpoints fine-tuned on the same dataset share most of their domain."""
        a = nlp_hub_small.get("Jeevesh8/bert_ft_qqp-68")
        b = nlp_hub_small.get("Jeevesh8/bert_ft_qqp-9")
        unrelated = nlp_hub_small.get("aliosm/sha3bor-metre-detector-arabertv2-base")
        sibling_affinity = a.domain_affinity(b.domain)
        unrelated_affinity = a.domain_affinity(unrelated.domain)
        assert sibling_affinity > unrelated_affinity

    def test_better_matched_model_transfers_better(
        self, nlp_hub_small, nlp_suite_small, fine_tuner
    ):
        """A strong in-domain model must beat a weak out-of-domain one on average."""
        task = nlp_suite_small.task("mnli")
        strong = nlp_hub_small.get("ishan/bert-base-uncased-mnli")
        weak = nlp_hub_small.get("CAMeL-Lab/bert-base-arabic-camelbert-mix-did-nadi")
        strong_acc = fine_tuner.fine_tune(strong, task, epochs=3).final_test
        weak_acc = fine_tuner.fine_tune(weak, task, epochs=3).final_test
        assert strong_acc > weak_acc

    def test_modality_mismatch_rejected(self, cv_hub_small, nlp_suite_small, fine_tuner):
        cv_model = cv_hub_small.get("google/vit-base-patch16-224")
        nlp_task = nlp_suite_small.task("sst2")
        with pytest.raises(ConfigurationError):
            fine_tuner.start_session(cv_model, nlp_task)
