"""Simulated pre-trained models.

A :class:`PretrainedModel` stands in for a HuggingFace checkpoint.  It owns:

* a *domain vector* describing which latent concepts its (synthetic)
  pre-training and fine-tuning history covered;
* an *encoder* that amplifies those concepts and attenuates the rest, with
  representation noise inversely related to the checkpoint's quality;
* a *source head*: a classifier over the model's own source label space,
  trained on synthetic source data drawn from the model's domain — this is
  what LEEP-style proxy scores evaluate on target samples.

Fine-tuning a model on a task (see :mod:`repro.zoo.finetune`) trains a new
head on the encoder output, so transfer performance is governed by how much
of the task's class signal survives the encoder — i.e. by domain overlap and
encoder quality, reproducing the structure the paper exploits.
"""

from __future__ import annotations

import threading
import zlib
from typing import Optional

import numpy as np

from repro.data.domain import DomainSpace
from repro.data.tasks import TaskSpec, generate_task
from repro.nn.network import MLPClassifier
from repro.utils.exceptions import ConfigurationError, DataError
from repro.utils.rng import seeded_standard_normal
from repro.zoo.catalog import ModelCatalogEntry

#: Gain floor applied to concepts outside the model's domain: even a poorly
#: matched encoder does not erase all information, it just attenuates it.
_GAIN_FLOOR = 0.08
#: Saturation constant of the concept-coverage curve.
_COVERAGE_TAU = 0.045


class PretrainedModel:
    """One simulated checkpoint of the model repository.

    Parameters
    ----------
    entry:
        The catalogue entry describing the checkpoint.
    space:
        Domain space shared with the workload suite of the same modality.
    domain:
        Non-negative, unit-sum concept coverage of the checkpoint.
    hidden_dim:
        Dimensionality of the encoder output (the "CLS embedding" stand-in).
    rng:
        Generator controlling the encoder projection, representation noise
        and the source-head training data.
    """

    def __init__(
        self,
        entry: ModelCatalogEntry,
        space: DomainSpace,
        domain: np.ndarray,
        *,
        hidden_dim: int = 24,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if entry.modality != space.modality:
            raise ConfigurationError(
                f"model {entry.name!r} is {entry.modality!r} but the domain space "
                f"is {space.modality!r}"
            )
        if hidden_dim < 4:
            raise ConfigurationError("hidden_dim must be at least 4")
        self.entry = entry
        self.space = space
        self.domain = space.normalize_domain(domain)
        self.hidden_dim = int(hidden_dim)
        self._rng = rng if rng is not None else np.random.default_rng(0)

        coverage = self.domain / (self.domain + _COVERAGE_TAU)
        self.concept_gains = _GAIN_FLOOR + (1.0 - _GAIN_FLOOR) * coverage
        self.concept_gains *= 0.35 + 0.65 * entry.quality

        projection = self._rng.normal(size=(space.num_concepts, hidden_dim))
        q, _ = np.linalg.qr(projection)
        self.projection = q[:, : min(hidden_dim, space.num_concepts)]
        if self.projection.shape[1] < hidden_dim:
            pad = self._rng.normal(
                scale=0.05, size=(space.num_concepts, hidden_dim - self.projection.shape[1])
            )
            self.projection = np.concatenate([self.projection, pad], axis=1)
        self.representation_noise = 0.3 + 1.4 * (1.0 - entry.quality)
        self._noise_key = int(self._rng.integers(0, 2**31 - 1))
        self._source_head: Optional[MLPClassifier] = None
        self._head_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # The head lock serialises lazy source-head training (it consumes the
    # model's own RNG stream) so concurrent proxy scoring cannot race it;
    # it is recreated, not copied, across pickling so session snapshots
    # holding the model can be written to the plan store.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_head_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._head_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Full checkpoint name (repository/model)."""
        return self.entry.name

    @property
    def short_name(self) -> str:
        """Checkpoint name without the repository prefix."""
        return self.entry.short_name

    @property
    def modality(self) -> str:
        """``"nlp"`` or ``"cv"``."""
        return self.entry.modality

    @property
    def quality(self) -> float:
        """Encoder quality in ``(0, 1]``."""
        return self.entry.quality

    @property
    def num_source_classes(self) -> int:
        """Label-space size of the model's source head."""
        return self.entry.source_classes

    # ------------------------------------------------------------------ #
    def encode(self, features: np.ndarray, *, deterministic: bool = True) -> np.ndarray:
        """Map raw features to the model's representation space.

        The encoder projects onto concept coordinates, scales each concept
        by the model's gain (how well the checkpoint covers it), projects
        into the hidden space and applies a mild saturation.  Noise is
        deterministic per input by default so repeated encodings of the
        same sample agree (as a frozen real encoder would).
        """
        features = np.asarray(features, dtype=float)
        if features.ndim != 2 or features.shape[1] != self.space.feature_dim:
            raise DataError(
                f"expected features of shape (n, {self.space.feature_dim}), "
                f"got {features.shape}"
            )
        concepts = self.space.project(features)
        gained = concepts * self.concept_gains[None, :]
        hidden = gained @ self.projection
        hidden = np.tanh(hidden / 2.0) * 2.0
        if self.representation_noise > 0:
            noise = self._deterministic_noise(features, hidden.shape)
            hidden = hidden + self.representation_noise * noise
        return hidden

    def _deterministic_noise(self, features: np.ndarray, shape) -> np.ndarray:
        """Noise that is reproducible per input row yet statistically white.

        Each row is hashed (together with a per-model key) into a seed for a
        small generator, so encoding the same sample twice yields the same
        representation — as a frozen real encoder would — while the noise
        carries no information about the class signal.  All rows are seeded
        in one vectorised pass that is bitwise equal to a per-row
        ``np.random.default_rng(seed).standard_normal``.
        """
        rounded = np.round(features, decimals=8)
        seeds = [
            (zlib.crc32(row.tobytes()) ^ self._noise_key) & 0x7FFFFFFF
            for row in rounded
        ]
        return seeded_standard_normal(np.array(seeds, dtype=np.int64), shape[1])

    # ------------------------------------------------------------------ #
    def source_head(self) -> MLPClassifier:
        """Classifier over the model's source label space (lazily trained).

        Training happens exactly once, under a lock: the fit consumes the
        model's RNG stream, and the scheduler thread and the refresh/serve
        threads share the hub, so an unguarded race would make the head's
        weights depend on thread interleaving.
        """
        if self._source_head is None:
            with self._head_lock:
                if self._source_head is None:
                    self._source_head = self._train_source_head()
        return self._source_head

    def _train_source_head(self) -> MLPClassifier:
        spec = TaskSpec(
            name=f"{self.entry.short_name}::source",
            modality=self.modality,
            domain=self.domain,
            num_classes=self.num_source_classes,
            num_train=40 * self.num_source_classes,
            num_val=self.num_source_classes * 4,
            num_test=self.num_source_classes * 4,
            noise=0.9,
            separation=1.8,
            role="benchmark",
        )
        source_task = generate_task(spec, self.space, self._rng)
        encoded = self.encode(source_task.train.features)
        head = MLPClassifier(
            input_dim=self.hidden_dim,
            num_classes=self.num_source_classes,
            optimizer="adam",
            learning_rate=5e-2,
            rng=self._rng,
        )
        head.fit(encoded, source_task.train.labels, epochs=6, batch_size=32)
        return head

    def source_posterior(self, features: np.ndarray) -> np.ndarray:
        """Source-label probabilities for raw target features.

        This is the "dummy label distribution" LEEP evaluates: the frozen
        checkpoint's own classifier applied to the new task's inputs.
        """
        encoded = self.encode(features)
        return self.source_head().predict_proba(encoded)

    def domain_affinity(self, task_domain: np.ndarray) -> float:
        """Cosine affinity between this model's domain and a task domain."""
        return DomainSpace.domain_affinity(self.domain, task_domain)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"PretrainedModel(name={self.name!r}, modality={self.modality!r}, "
            f"quality={self.quality:.2f})"
        )
