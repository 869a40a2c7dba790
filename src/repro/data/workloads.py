"""Benchmark and target dataset suites mirroring the paper's evaluation setup.

The paper builds its performance matrix from GLUE/SuperGLUE plus popular
domain-specific NLP datasets (24 benchmark datasets for 40 NLP models) and
from image-classification datasets (10 benchmark datasets for 30 CV models),
then evaluates on held-out *target* datasets (tweet_eval, MNLI, MultiRC,
BoolQ for NLP; chest-xray, MedMNIST, oxford-flowers, beans for CV).

This module recreates both suites as synthetic tasks.  Dataset names are kept
identical to the paper so the experiment harness can print the same rows.
Target-task domains are anchored near (but not equal to) related benchmark
domains, e.g. ``mnli`` near ``xnli``/``anli``/``sick``, reproducing the
"latent transferability between heterogeneous tasks" the paper studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.domain import DomainSpace
from repro.data.tasks import ClassificationTask, TaskSpec, generate_task
from repro.utils.exceptions import ConfigurationError, DataError
from repro.utils.rng import RngFactory


@dataclass(frozen=True)
class DataScale:
    """Split sizes used when materialising tasks.

    ``default()`` matches the experiment harness; ``small()`` keeps unit
    tests fast.
    """

    num_train: int = 192
    num_val: int = 64
    num_test: int = 96

    @classmethod
    def default(cls) -> "DataScale":
        return cls()

    @classmethod
    def small(cls) -> "DataScale":
        return cls(num_train=60, num_val=24, num_test=32)


# --------------------------------------------------------------------------- #
# Dataset catalogues.  Each entry: (name, num_classes, noise, separation,
# imbalance, related datasets used to anchor the domain).
# --------------------------------------------------------------------------- #

_NLP_BENCHMARKS: List[Tuple[str, int, float, float, float, Tuple[str, ...]]] = [
    ("cola", 2, 1.25, 1.5, 0.0, ()),
    ("mrpc", 2, 1.05, 1.6, 0.1, ()),
    ("qnli", 2, 1.0, 1.6, 0.0, ()),
    ("qqp", 2, 0.95, 1.7, 0.0, ()),
    ("rte", 2, 1.35, 1.4, 0.0, ()),
    ("sst2", 2, 0.85, 1.8, 0.0, ()),
    ("stsb", 3, 1.15, 1.5, 0.1, ()),
    ("wnli", 2, 1.45, 1.3, 0.0, ()),
    ("cb", 3, 1.3, 1.4, 0.2, ()),
    ("copa", 2, 1.35, 1.4, 0.0, ()),
    ("wic", 2, 1.2, 1.5, 0.0, ()),
    ("imdb", 2, 0.9, 1.8, 0.0, ("sst2",)),
    ("yelp_review_full", 5, 1.1, 1.6, 0.0, ("sst2", "imdb")),
    ("yahoo_answers_topics", 10, 1.2, 1.7, 0.0, ()),
    ("dbpedia_14", 14, 1.0, 1.9, 0.0, ("yahoo_answers_topics",)),
    ("xnli", 3, 1.1, 1.6, 0.0, ()),
    ("anli", 3, 1.4, 1.4, 0.1, ("xnli",)),
    ("app_reviews", 5, 1.2, 1.5, 0.3, ("sst2",)),
    ("trec", 6, 1.0, 1.7, 0.1, ()),
    ("sick", 3, 1.1, 1.6, 0.1, ("xnli",)),
    ("financial_phrasebank", 3, 1.15, 1.6, 0.3, ("sst2",)),
    ("paws", 2, 1.05, 1.6, 0.1, ("qqp", "mrpc")),
    ("snli", 3, 1.0, 1.7, 0.0, ("xnli", "anli")),
    ("stsb_multi_mt", 3, 1.2, 1.5, 0.1, ("stsb",)),
]

_NLP_TARGETS: List[Tuple[str, int, float, float, float, Tuple[str, ...]]] = [
    ("tweet_eval", 3, 1.2, 1.5, 0.2, ("sst2", "imdb")),
    ("mnli", 3, 1.05, 1.6, 0.0, ("xnli", "anli", "sick")),
    ("multirc", 2, 1.35, 1.35, 0.2, ("qnli", "copa")),
    ("boolq", 2, 1.25, 1.45, 0.2, ("qnli", "xnli")),
]

_CV_BENCHMARKS: List[Tuple[str, int, float, float, float, Tuple[str, ...]]] = [
    ("food101", 8, 1.0, 1.8, 0.0, ()),
    ("cc6204_hackaton_cub", 10, 1.3, 1.5, 0.1, ()),
    ("cats_vs_dogs", 2, 0.8, 2.0, 0.0, ()),
    ("cifar10", 10, 1.0, 1.8, 0.0, ()),
    ("mnist", 10, 0.7, 2.2, 0.0, ()),
    ("snacks", 6, 1.1, 1.6, 0.1, ("food101",)),
    ("fer2013", 7, 1.35, 1.4, 0.2, ()),
    ("fashion_mnist", 10, 0.9, 1.9, 0.0, ("mnist",)),
    ("svhn", 10, 1.1, 1.7, 0.0, ("mnist", "cifar10")),
    ("stl10", 10, 1.15, 1.6, 0.0, ("cifar10",)),
]

_CV_TARGETS: List[Tuple[str, int, float, float, float, Tuple[str, ...]]] = [
    ("chest_xray_classification", 2, 1.1, 1.6, 0.3, ("fer2013", "mnist")),
    ("medmnist_v2", 5, 1.3, 1.45, 0.2, ("mnist", "fer2013")),
    ("oxford_flowers", 10, 1.0, 1.7, 0.1, ("food101", "cc6204_hackaton_cub")),
    ("beans", 3, 0.95, 1.8, 0.0, ("cats_vs_dogs", "food101")),
]


class WorkloadSuite:
    """All benchmark and target tasks of one modality, built reproducibly.

    Tasks are materialised lazily and cached, so a suite can be shared
    across the hub construction, the coarse-recall phase and the experiment
    harness without regenerating data.
    """

    def __init__(
        self,
        modality: str,
        *,
        seed: int = 0,
        scale: Optional[DataScale] = None,
        feature_dim: int = 32,
        num_concepts: int = 16,
        benchmark_names: Optional[Sequence[str]] = None,
        target_names: Optional[Sequence[str]] = None,
    ) -> None:
        if modality not in ("nlp", "cv"):
            raise ConfigurationError(f"modality must be 'nlp' or 'cv', got {modality!r}")
        self.modality = modality
        self.scale = scale or DataScale.default()
        self._rng_factory = RngFactory(seed)
        self.space = DomainSpace(
            feature_dim=feature_dim,
            num_concepts=num_concepts,
            modality=modality,
            rng=self._rng_factory.named("domain-space", modality),
        )
        benchmark_catalogue = _NLP_BENCHMARKS if modality == "nlp" else _CV_BENCHMARKS
        target_catalogue = _NLP_TARGETS if modality == "nlp" else _CV_TARGETS
        self._specs: Dict[str, TaskSpec] = {}
        self.benchmark_names: List[str] = []
        self.target_names: List[str] = []
        for entry in benchmark_catalogue:
            spec = self._build_spec(entry, role="benchmark")
            self._specs[spec.name] = spec
            self.benchmark_names.append(spec.name)
        for entry in target_catalogue:
            spec = self._build_spec(entry, role="target")
            self._specs[spec.name] = spec
            self.target_names.append(spec.name)
        if benchmark_names is not None:
            self.benchmark_names = self._filter_names(benchmark_names, self.benchmark_names)
        if target_names is not None:
            self.target_names = self._filter_names(target_names, self.target_names)
        self._tasks: Dict[str, ClassificationTask] = {}

    # ------------------------------------------------------------------ #
    def _filter_names(self, requested: Sequence[str], available: List[str]) -> List[str]:
        unknown = [name for name in requested if name not in available]
        if unknown:
            raise ConfigurationError(f"unknown dataset name(s): {unknown}")
        return [name for name in available if name in set(requested)]

    def _build_spec(
        self,
        entry: Tuple[str, int, float, float, float, Tuple[str, ...]],
        *,
        role: str,
    ) -> TaskSpec:
        name, num_classes, noise, separation, imbalance, related = entry
        rng = self._rng_factory.named("task-domain", self.modality, name)
        anchor = None
        if related:
            anchors = [self._specs[rel].domain for rel in related if rel in self._specs]
            if anchors:
                anchor = np.mean(anchors, axis=0)
        domain = self.space.random_domain_vector(
            rng,
            concentration=0.55,
            anchor=anchor,
            anchor_weight=0.55 if anchor is not None else 0.0,
        )
        return TaskSpec(
            name=name,
            modality=self.modality,
            domain=domain,
            num_classes=num_classes,
            num_train=self.scale.num_train,
            num_val=self.scale.num_val,
            num_test=self.scale.num_test,
            noise=noise,
            separation=separation,
            class_imbalance=imbalance,
            role=role,
            metadata={"related": ",".join(related)} if related else {},
        )

    # ------------------------------------------------------------------ #
    @property
    def dataset_names(self) -> List[str]:
        """Benchmark names followed by target names."""
        return list(self.benchmark_names) + list(self.target_names)

    def spec(self, name: str) -> TaskSpec:
        """Return the spec of dataset ``name``."""
        if name not in self._specs:
            raise DataError(f"unknown dataset {name!r}")
        return self._specs[name]

    def task(self, name: str) -> ClassificationTask:
        """Materialise (and cache) dataset ``name``."""
        if name not in self._tasks:
            spec = self.spec(name)
            rng = self._rng_factory.named("task-data", self.modality, name)
            self._tasks[name] = generate_task(spec, self.space, rng)
        return self._tasks[name]

    def benchmarks(self) -> List[ClassificationTask]:
        """All benchmark tasks in catalogue order."""
        return [self.task(name) for name in self.benchmark_names]

    def targets(self) -> List[ClassificationTask]:
        """All target tasks in catalogue order."""
        return [self.task(name) for name in self.target_names]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"WorkloadSuite(modality={self.modality!r}, "
            f"benchmarks={len(self.benchmark_names)}, targets={len(self.target_names)})"
        )


def nlp_suite(seed: int = 0, scale: Optional[DataScale] = None, **kwargs) -> WorkloadSuite:
    """Convenience constructor for the NLP workload suite."""
    return WorkloadSuite("nlp", seed=seed, scale=scale, **kwargs)


def cv_suite(seed: int = 0, scale: Optional[DataScale] = None, **kwargs) -> WorkloadSuite:
    """Convenience constructor for the CV workload suite."""
    return WorkloadSuite("cv", seed=seed, scale=scale, **kwargs)


def suite_for_modality(
    modality: str, seed: int = 0, scale: Optional[DataScale] = None, **kwargs
) -> WorkloadSuite:
    """Build the suite for ``modality`` (``"nlp"`` or ``"cv"``)."""
    return WorkloadSuite(modality, seed=seed, scale=scale, **kwargs)
