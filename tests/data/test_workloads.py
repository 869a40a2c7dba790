"""Tests for repro.data.workloads."""

import numpy as np
import pytest

from repro.data.domain import DomainSpace
from repro.data.workloads import DataScale, WorkloadSuite, cv_suite, nlp_suite
from repro.utils.exceptions import ConfigurationError, DataError


class TestCatalogues:
    def test_nlp_suite_sizes_match_paper(self):
        suite = nlp_suite(seed=0, scale=DataScale.small())
        assert len(suite.benchmark_names) == 24
        assert suite.target_names == ["tweet_eval", "mnli", "multirc", "boolq"]

    def test_cv_suite_sizes_match_paper(self):
        suite = cv_suite(seed=0, scale=DataScale.small())
        assert len(suite.benchmark_names) == 10
        assert suite.target_names == [
            "chest_xray_classification",
            "medmnist_v2",
            "oxford_flowers",
            "beans",
        ]

    def test_benchmarks_and_targets_disjoint(self):
        suite = nlp_suite(seed=0, scale=DataScale.small())
        assert not set(suite.benchmark_names) & set(suite.target_names)

    def test_invalid_modality(self):
        with pytest.raises(ConfigurationError):
            WorkloadSuite("audio")


class TestTaskAccess:
    def test_task_caching(self):
        suite = nlp_suite(seed=0, scale=DataScale.small())
        assert suite.task("cola") is suite.task("cola")

    def test_unknown_dataset(self):
        suite = nlp_suite(seed=0, scale=DataScale.small())
        with pytest.raises(DataError):
            suite.task("does-not-exist")

    def test_split_sizes_follow_scale(self):
        scale = DataScale(num_train=50, num_val=20, num_test=25)
        suite = nlp_suite(seed=0, scale=scale)
        task = suite.task("sst2")
        assert len(task.train) == 50
        assert len(task.val) == 20
        assert len(task.test) == 25

    def test_benchmark_filtering(self):
        suite = WorkloadSuite(
            "nlp", seed=0, scale=DataScale.small(), benchmark_names=["cola", "sst2"]
        )
        assert suite.benchmark_names == ["cola", "sst2"]

    def test_unknown_filter_name_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSuite("nlp", benchmark_names=["not-a-dataset"])


class TestDomainStructure:
    def test_related_targets_are_closer(self):
        """mnli is anchored near xnli/anli; it should be closer to them than average."""
        suite = nlp_suite(seed=0, scale=DataScale.small())
        mnli = suite.spec("mnli").domain
        related = np.mean(
            [
                DomainSpace.domain_affinity(mnli, suite.spec(name).domain)
                for name in ("xnli", "anli", "sick")
            ]
        )
        others = np.mean(
            [
                DomainSpace.domain_affinity(mnli, suite.spec(name).domain)
                for name in suite.benchmark_names
                if name not in ("xnli", "anli", "sick")
            ]
        )
        assert related > others

    def test_reproducible_across_instances(self):
        a = nlp_suite(seed=3, scale=DataScale.small())
        b = nlp_suite(seed=3, scale=DataScale.small())
        assert np.array_equal(a.spec("mnli").domain, b.spec("mnli").domain)
        assert np.array_equal(
            a.task("cola").train.features, b.task("cola").train.features
        )

    def test_different_seeds_differ(self):
        a = nlp_suite(seed=0, scale=DataScale.small())
        b = nlp_suite(seed=1, scale=DataScale.small())
        assert not np.array_equal(a.spec("mnli").domain, b.spec("mnli").domain)
