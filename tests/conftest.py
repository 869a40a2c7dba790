"""Shared fixtures for the test suite.

Expensive artifacts (suites, hubs, performance matrices) are built once per
session on deliberately reduced configurations: the small data scale, a
subset of benchmark datasets and a subset of the model catalogue.  This
keeps the full suite fast while still exercising the real code paths.
"""

from __future__ import annotations

import sys
from collections import Counter

import numpy as np
import pytest

from repro.core.config import ClusteringConfig, FineSelectionConfig, PipelineConfig
from repro.core.model_clustering import ModelClusterer
from repro.core.performance import build_performance_matrix
from repro.data.workloads import DataScale, WorkloadSuite
from repro.nn.batched import _VERDICTS
from repro.zoo.finetune import FineTuneConfig, FineTuner
from repro.zoo.hub import ModelHub

#: Benchmark subset used by the NLP test suite (keeps the matrix small).
NLP_TEST_BENCHMARKS = ["cola", "qqp", "sst2", "rte", "imdb", "xnli", "trec", "snli"]
NLP_TEST_TARGETS = ["mnli", "boolq"]
#: Model subset for NLP tests: a mix of strong general models, sibling
#: fine-tunes (for clustering) and weak out-of-domain checkpoints.
NLP_TEST_MODELS = [
    "bert-base-uncased",
    "roberta-base",
    "albert-base-v2",
    "distilbert-base-uncased",
    "ishan/bert-base-uncased-mnli",
    "Jeevesh8/feather_berts_46",
    "Jeevesh8/bert_ft_qqp-68",
    "Jeevesh8/bert_ft_qqp-9",
    "connectivity/bert_ft_qqp-1",
    "Jeevesh8/bert_ft_cola-88",
    "aliosm/sha3bor-metre-detector-arabertv2-base",
    "CAMeL-Lab/bert-base-arabic-camelbert-mix-did-nadi",
]

CV_TEST_BENCHMARKS = ["cifar10", "mnist", "food101", "fer2013", "cats_vs_dogs"]
CV_TEST_TARGETS = ["beans", "medmnist_v2"]
CV_TEST_MODELS = [
    "google/vit-base-patch16-224",
    "google/vit-base-patch16-384",
    "facebook/deit-base-patch16-224",
    "microsoft/beit-base-patch16-224",
    "lixiqi/beit-base-patch16-224-pt22k-ft22k-finetuned-FER2013-6e-05",
    "lixiqi/beit-base-patch16-224-pt22k-ft22k-finetuned-FER2013-7e-05",
    "sail/poolformer_m36",
    "oschamp/vit-artworkclassifier",
    "nateraw/vit-age-classifier",
    "mrgiraffe/vit-large-dataset-model-v3",
]

TEST_EPOCHS = 3


@pytest.fixture(scope="session")
def rng():
    """Deterministic generator for ad-hoc randomness in tests."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def nlp_suite_small():
    """Reduced NLP workload suite (8 benchmarks, 2 targets, small splits)."""
    return WorkloadSuite(
        "nlp",
        seed=0,
        scale=DataScale.small(),
        benchmark_names=NLP_TEST_BENCHMARKS,
        target_names=NLP_TEST_TARGETS,
    )


@pytest.fixture(scope="session")
def cv_suite_small():
    """Reduced CV workload suite (5 benchmarks, 2 targets, small splits)."""
    return WorkloadSuite(
        "cv",
        seed=0,
        scale=DataScale.small(),
        benchmark_names=CV_TEST_BENCHMARKS,
        target_names=CV_TEST_TARGETS,
    )


@pytest.fixture(scope="session")
def nlp_hub_small(nlp_suite_small):
    """Reduced NLP model hub (12 checkpoints)."""
    hub = ModelHub(nlp_suite_small, seed=0)
    return hub.subset(NLP_TEST_MODELS)


@pytest.fixture(scope="session")
def cv_hub_small(cv_suite_small):
    """Reduced CV model hub (10 checkpoints)."""
    hub = ModelHub(cv_suite_small, seed=0)
    return hub.subset(CV_TEST_MODELS)


@pytest.fixture(scope="session")
def fine_tuner():
    """Fine-tuner shared by the test suite (3-epoch default budget)."""
    return FineTuner(FineTuneConfig(epochs=TEST_EPOCHS), seed=0)


@pytest.fixture(scope="session")
def nlp_matrix_small(nlp_hub_small, nlp_suite_small, fine_tuner):
    """Performance matrix of the reduced NLP hub (built once per session)."""
    return build_performance_matrix(
        nlp_hub_small, nlp_suite_small, fine_tuner=fine_tuner, epochs=TEST_EPOCHS
    )


@pytest.fixture(scope="session")
def cv_matrix_small(cv_hub_small, cv_suite_small, fine_tuner):
    """Performance matrix of the reduced CV hub (built once per session)."""
    return build_performance_matrix(
        cv_hub_small, cv_suite_small, fine_tuner=fine_tuner, epochs=TEST_EPOCHS
    )


@pytest.fixture(scope="session")
def nlp_clustering_small(nlp_matrix_small, nlp_hub_small):
    """Hierarchical performance-based clustering of the reduced NLP hub."""
    clusterer = ModelClusterer(ClusteringConfig())
    return clusterer.cluster(nlp_matrix_small, model_cards=nlp_hub_small.model_cards())


@pytest.fixture(scope="session")
def test_pipeline_config():
    """Pipeline configuration sized for the reduced test hubs."""
    return PipelineConfig(
        fine_selection=FineSelectionConfig(total_epochs=TEST_EPOCHS),
        offline_epochs=TEST_EPOCHS,
    )


@pytest.fixture(autouse=True)
def fresh_fusion_verdicts():
    """Start and end every test without process-wide fusion verdicts.

    A test that forces a kernel mismatch must neither leak its failed
    verdict into other tests nor inherit a pass verdict that would let its
    lying kernel train unprobed.
    """
    _VERDICTS.clear()
    yield
    _VERDICTS.clear()


@pytest.fixture()
def count_calls(monkeypatch):
    """Count calls of functions by name, wherever a ``repro`` module holds them.

    ``from x import f`` copies the reference, so every module-level name
    bound to one of the functions is replaced by a counting wrapper for the
    test.  ``count_calls(f, g)`` returns the live :class:`Counter`.
    """

    def install(*functions) -> Counter:
        calls: Counter = Counter()
        for function in functions:

            def counted(*args, _function=function, **kwargs):
                calls[_function.__name__] += 1
                return _function(*args, **kwargs)

            for name, module in list(sys.modules.items()):
                if module is None or not (name == "repro" or name.startswith("repro.")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is function:
                        monkeypatch.setattr(module, attr, counted)
        return calls

    return install
