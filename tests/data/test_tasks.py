"""Tests for repro.data.tasks."""

import numpy as np
import pytest

from repro.data.domain import DomainSpace
from repro.data.tasks import ClassificationTask, TaskSpec, generate_task
from repro.nn.network import MLPClassifier
from repro.utils.exceptions import ConfigurationError


@pytest.fixture()
def space():
    return DomainSpace(feature_dim=16, num_concepts=8, modality="nlp", rng=0)


def make_spec(space, **overrides):
    defaults = dict(
        name="toy",
        modality="nlp",
        domain=space.random_domain_vector(np.random.default_rng(0)),
        num_classes=3,
        num_train=60,
        num_val=30,
        num_test=30,
    )
    defaults.update(overrides)
    return TaskSpec(**defaults)


class TestTaskSpec:

    def test_rejects_single_class(self, space):
        with pytest.raises(ConfigurationError):
            make_spec(space, num_classes=1)

    def test_rejects_too_few_samples(self, space):
        with pytest.raises(ConfigurationError):
            make_spec(space, num_train=2, num_classes=3)

    def test_rejects_invalid_imbalance(self, space):
        with pytest.raises(ConfigurationError):
            make_spec(space, class_imbalance=1.0)

    def test_rejects_non_positive_noise(self, space):
        with pytest.raises(ConfigurationError):
            make_spec(space, noise=0.0)


class TestGenerateTask:
    def test_shapes_and_label_ranges(self, space):
        task = generate_task(make_spec(space), space, rng=0)
        assert task.train.features.shape == (60, space.feature_dim)
        assert task.val.features.shape == (30, space.feature_dim)
        assert task.test.features.shape == (30, space.feature_dim)
        for split in (task.train, task.val, task.test):
            assert split.labels.min() >= 0
            assert split.labels.max() < 3

    def test_every_class_present_in_every_split(self, space):
        task = generate_task(make_spec(space), space, rng=1)
        for split in (task.train, task.val, task.test):
            assert set(split.labels.tolist()) == {0, 1, 2}

    def test_deterministic_given_seed(self, space):
        a = generate_task(make_spec(space), space, rng=5)
        b = generate_task(make_spec(space), space, rng=5)
        assert np.array_equal(a.train.features, b.train.features)

    def test_modality_mismatch_rejected(self, space):
        spec = make_spec(space)
        cv_space = DomainSpace(16, 8, modality="cv", rng=1)
        with pytest.raises(ConfigurationError):
            generate_task(spec, cv_space, rng=0)

    def test_imbalanced_labels_are_skewed(self, space):
        spec = make_spec(space, class_imbalance=0.7, num_train=300)
        task = generate_task(spec, space, rng=2)
        counts = np.bincount(task.train.labels, minlength=3)
        assert counts[0] > counts[2]

    def test_task_is_learnable_by_linear_head(self, space):
        """The class signal must be recoverable from the raw features."""
        spec = make_spec(space, num_train=150, noise=0.8, separation=2.0)
        task = generate_task(spec, space, rng=3)
        model = MLPClassifier(space.feature_dim, 3, learning_rate=5e-2, rng=0)
        model.fit(task.train.features, task.train.labels, epochs=15)
        assert model.score(task.test.features, task.test.labels) > 0.7

    def test_harder_task_is_harder(self, space):
        """Higher noise-to-separation ratio should lower attainable accuracy."""
        easy_spec = make_spec(space, name="easy", noise=0.5, separation=2.5, num_train=150)
        hard_spec = make_spec(space, name="hard", noise=2.5, separation=0.8, num_train=150)
        scores = {}
        for spec in (easy_spec, hard_spec):
            task = generate_task(spec, space, rng=4)
            model = MLPClassifier(space.feature_dim, 3, learning_rate=5e-2, rng=0)
            model.fit(task.train.features, task.train.labels, epochs=12)
            scores[spec.name] = model.score(task.test.features, task.test.labels)
        assert scores["easy"] > scores["hard"]

    def test_repr_mentions_name(self, space):
        task = generate_task(make_spec(space), space, rng=0)
        assert "toy" in repr(task)
