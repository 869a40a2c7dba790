"""Synthetic classification task specification and generation.

Each task draws per-class prototypes inside the subspace spanned by the
concepts its domain vector weights, and adds isotropic noise plus a
class-independent nuisance component.  Difficulty is controlled by the
noise level and the prototype separation, so tasks naturally range from
"easy, every decent model converges fast" to "hard, only well-matched
models reach a high plateau" — mirroring the spread the paper's Fig. 1
shows across the HuggingFace hub.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.data.domain import DomainSpace
from repro.data.splits import DataSplit
from repro.utils.exceptions import ConfigurationError, DataError
from repro.utils.rng import as_generator


@dataclass(frozen=True)
class TaskSpec:
    """Static description of a synthetic classification task.

    Attributes
    ----------
    name:
        Unique dataset name (mirrors the paper's dataset names, e.g.
        ``"mnli"`` or ``"cifar10"``).
    modality:
        ``"nlp"`` or ``"cv"``; a model can only be fine-tuned on tasks of
        its own modality.
    domain:
        Non-negative, unit-sum concept weights — which latent concepts
        carry this task's class signal.
    num_classes:
        Size of the label space.
    num_train / num_val / num_test:
        Split sizes.
    noise:
        Standard deviation of sample noise around the class prototypes;
        larger values make the task harder.
    separation:
        Scale of the class prototypes in concept space; larger values make
        the task easier.
    class_imbalance:
        0 gives balanced classes; values towards 1 skew the label
        distribution geometrically.
    role:
        ``"benchmark"`` or ``"target"`` — used by the workload suites.
    """

    name: str
    modality: str
    domain: np.ndarray
    num_classes: int
    num_train: int = 240
    num_val: int = 60
    num_test: int = 100
    noise: float = 1.0
    separation: float = 1.6
    class_imbalance: float = 0.0
    role: str = "benchmark"
    metadata: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ConfigurationError(f"task {self.name!r}: num_classes must be >= 2")
        for attr in ("num_train", "num_val", "num_test"):
            if getattr(self, attr) < self.num_classes:
                raise ConfigurationError(
                    f"task {self.name!r}: {attr} must be >= num_classes"
                )
        if self.noise <= 0 or self.separation <= 0:
            raise ConfigurationError(
                f"task {self.name!r}: noise and separation must be positive"
            )
        if not 0.0 <= self.class_imbalance < 1.0:
            raise ConfigurationError(
                f"task {self.name!r}: class_imbalance must be in [0, 1)"
            )


class ClassificationTask:
    """A materialised task: spec plus train/val/test splits."""

    def __init__(
        self,
        spec: TaskSpec,
        train: DataSplit,
        val: DataSplit,
        test: DataSplit,
    ) -> None:
        self.spec = spec
        self.train = train
        self.val = val
        self.test = test
        for split_name, split in (("train", train), ("val", val), ("test", test)):
            if split.labels.size and split.labels.max() >= spec.num_classes:
                raise DataError(
                    f"task {spec.name!r}: {split_name} labels exceed num_classes"
                )

    @property
    def name(self) -> str:
        """Dataset name."""
        return self.spec.name

    @property
    def num_classes(self) -> int:
        """Label-space size."""
        return self.spec.num_classes

    @property
    def modality(self) -> str:
        """Task modality (``nlp`` or ``cv``)."""
        return self.spec.modality

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ClassificationTask(name={self.name!r}, classes={self.num_classes}, "
            f"train={len(self.train)}, val={len(self.val)}, test={len(self.test)})"
        )


def _sample_labels(
    rng: np.random.Generator, size: int, num_classes: int, imbalance: float
) -> np.ndarray:
    """Draw labels; geometric skew controlled by ``imbalance``."""
    if imbalance == 0.0:
        # Balanced: round-robin assignment then shuffle so every class is
        # guaranteed to appear in every split.
        labels = np.arange(size) % num_classes
        rng.shuffle(labels)
        return labels
    weights = np.array([(1.0 - imbalance) ** c for c in range(num_classes)])
    weights = weights / weights.sum()
    labels = rng.choice(num_classes, size=size, p=weights)
    # Guarantee every class appears at least once.
    for cls in range(num_classes):
        if not np.any(labels == cls):
            labels[rng.integers(0, size)] = cls
    return labels


#: Scale of the class-independent offset every task's samples share.
_NUISANCE_SCALE = 0.6


def generate_task(spec: TaskSpec, space: DomainSpace, rng=None) -> ClassificationTask:
    """Materialise a :class:`ClassificationTask` from its spec.

    The generative model per sample of class ``c``:

    ``x = lift(separation * domain_mask * z_c) + nuisance + noise``

    where ``z_c`` is a per-class latent prototype, ``domain_mask`` scales
    each concept by the task's domain weight (so only the task's concepts
    carry signal), ``nuisance`` is a class-independent offset shared by the
    task, and ``noise`` is isotropic Gaussian.
    """
    if spec.modality != space.modality:
        raise ConfigurationError(
            f"task {spec.name!r} has modality {spec.modality!r} but the domain "
            f"space is for {space.modality!r}"
        )
    generator = as_generator(rng)
    domain = space.normalize_domain(spec.domain)
    # Concept weights: emphasise the task's concepts, scaled so that the
    # expected signal magnitude does not depend on how many concepts the
    # task spreads its mass over.
    concept_scale = np.sqrt(domain * space.num_concepts)
    prototypes = generator.normal(size=(spec.num_classes, space.num_concepts))
    prototypes *= spec.separation * concept_scale[None, :]
    nuisance_direction = generator.normal(size=space.feature_dim)
    nuisance_direction /= np.linalg.norm(nuisance_direction)

    def make_split(size: int) -> DataSplit:
        labels = _sample_labels(generator, size, spec.num_classes, spec.class_imbalance)
        concept_signal = prototypes[labels]
        features = space.lift(concept_signal)
        features += _NUISANCE_SCALE * generator.normal(size=(size, 1)) * nuisance_direction
        features += spec.noise * generator.normal(size=(size, space.feature_dim))
        return DataSplit(features, labels)

    return ClassificationTask(
        spec,
        train=make_split(spec.num_train),
        val=make_split(spec.num_val),
        test=make_split(spec.num_test),
    )
