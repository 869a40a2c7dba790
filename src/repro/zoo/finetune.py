"""Fine-tuning engine producing epoch-level convergence processes.

The paper fine-tunes each checkpoint on a dataset for a fixed number of
epochs and records validation accuracy at every validation interval plus the
final test accuracy; these records form both the performance matrix (offline)
and the convergence processes mined for the fine-selection phase (online).

:class:`FineTuner` reproduces that contract: it attaches a fresh classifier
head to a :class:`~repro.zoo.models.PretrainedModel`'s encoder and trains it
with mini-batch SGD/Adam, returning a :class:`LearningCurve`.  Stage-wise
training (needed by successive halving and by Algorithm 1) goes through
:class:`FineTuneSession`, which can be advanced epoch by epoch while the
selection algorithm decides which models survive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.data.tasks import ClassificationTask
from repro.nn.batched import FUSED_MIN_GROUP, FusedSessionGroup
from repro.nn.metrics import accuracy
from repro.nn.network import MLPClassifier
from repro.utils.exceptions import ConfigurationError, DataError
from repro.utils.rng import RngFactory
from repro.zoo.models import PretrainedModel, encode_models

#: Most sessions one offline fine-tuning group holds at once.  Peak memory
#: grows with the group (every member's encoded splits and stacked heads
#: are live together); 10 keeps the in-process NLP build within ~2 MB of
#: the serial build's peak while keeping most of the fused speed-up (see
#: ``docs/fused-training.md``).
OFFLINE_GROUP = 10


@dataclass(frozen=True)
class FineTuneConfig:
    """Hyper-parameters of one fine-tuning run.

    ``epochs`` is the full training budget (5 for NLP, 4 for CV in the
    paper); selection algorithms may stop earlier.
    """

    epochs: int = 5
    learning_rate: float = 5e-2
    batch_size: int = 32
    hidden_dims: Tuple[int, ...] = ()
    weight_decay: float = 1e-4
    optimizer: str = "adam"
    activation: str = "relu"

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ConfigurationError("epochs must be positive")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")


@dataclass
class LearningCurve:
    """Convergence process of one (model, dataset) fine-tuning run."""

    model_name: str
    dataset_name: str
    val_accuracy: List[float] = field(default_factory=list)
    test_accuracy: List[float] = field(default_factory=list)
    train_loss: List[float] = field(default_factory=list)

    @property
    def epochs(self) -> int:
        """Number of completed epochs."""
        return len(self.val_accuracy)

    @property
    def final_test(self) -> float:
        """Test accuracy after the last completed epoch."""
        if not self.test_accuracy:
            raise DataError("learning curve has no recorded epochs")
        return self.test_accuracy[-1]

    def val_at(self, stage: int) -> float:
        """Validation accuracy at 1-based epoch ``stage`` (clamped to the end)."""
        if not self.val_accuracy:
            raise DataError("learning curve has no recorded epochs")
        index = min(max(stage, 1), self.epochs) - 1
        return self.val_accuracy[index]

    def truncated(self, epochs: int) -> "LearningCurve":
        """Copy of the curve keeping only the first ``epochs`` entries."""
        return LearningCurve(
            model_name=self.model_name,
            dataset_name=self.dataset_name,
            val_accuracy=list(self.val_accuracy[:epochs]),
            test_accuracy=list(self.test_accuracy[:epochs]),
            train_loss=list(self.train_loss[:epochs]),
        )


class FineTuneSession:
    """Incremental fine-tuning of one model on one task.

    The session holds the model's encodings of the task's three splits
    (see :meth:`FineTuner.start_sessions`) and trains the head in
    epoch-sized stages.  Selection algorithms advance surviving sessions and
    simply stop calling :meth:`train_epochs` for filtered models, which is
    how the epoch accounting in the paper's Tables V/VI arises.
    """

    def __init__(
        self,
        model: PretrainedModel,
        task: ClassificationTask,
        config: FineTuneConfig,
        rng: np.random.Generator,
        train_features: np.ndarray,
        val_features: np.ndarray,
        test_features: np.ndarray,
    ) -> None:
        self.model = model
        self.task = task
        self.config = config
        self._train_features = train_features
        #: One ``[val; test]`` slab for the single-pass epoch evaluation;
        #: the per-split features are views into it.
        self._eval_features = np.concatenate([val_features, test_features], axis=0)
        self._val_features = self._eval_features[: val_features.shape[0]]
        self._test_features = self._eval_features[val_features.shape[0]:]
        self.head = MLPClassifier(
            input_dim=model.hidden_dim,
            num_classes=task.num_classes,
            hidden_dims=config.hidden_dims,
            activation=config.activation,
            l2=config.weight_decay,
            optimizer=config.optimizer,
            learning_rate=config.learning_rate,
            rng=rng,
        )
        self.curve = LearningCurve(model_name=model.name, dataset_name=task.name)

    @property
    def epochs_trained(self) -> int:
        """Number of epochs this session has completed."""
        return self.curve.epochs

    def train_epochs(self, num_epochs: int = 1) -> LearningCurve:
        """Advance the session by ``num_epochs`` epochs and return the curve."""
        if num_epochs <= 0:
            raise ConfigurationError("num_epochs must be positive")
        for _ in range(num_epochs):
            loss = self.head.fit_epoch(
                self._train_features,
                self.task.train.labels,
                batch_size=self.config.batch_size,
            )
            val_accuracy, test_accuracy = self.evaluate()
            self.curve.train_loss.append(loss)
            self.curve.val_accuracy.append(val_accuracy)
            self.curve.test_accuracy.append(test_accuracy)
        return self.curve

    def evaluate(self) -> Tuple[float, float]:
        """Validation and test accuracy from one concatenated forward pass.

        Scores both held-out splits with a single ``(n_val + n_test, d)``
        matmul instead of two separate :meth:`MLPClassifier.score` calls.
        Each logits row depends only on its own input row, so the
        accuracies are bitwise-identical to the two-pass form (gated by
        ``benchmarks/bench_fused_training.py``).
        """
        logits = self.head.decision_function(self._eval_features)
        predictions = np.argmax(logits, axis=1)
        n_val = self._val_features.shape[0]
        return (
            accuracy(np.asarray(self.task.val.labels), predictions[:n_val]),
            accuracy(np.asarray(self.task.test.labels), predictions[n_val:]),
        )

    def validation_accuracy(self) -> float:
        """Current accuracy on the validation split."""
        return self.head.score(self._val_features, self.task.val.labels)

    def test_accuracy(self) -> float:
        """Current accuracy on the test split."""
        return self.head.score(self._test_features, self.task.test.labels)

    # ------------------------------------------------------------------ #
    # fused-training adoption surface (see repro.nn.batched)
    # ------------------------------------------------------------------ #
    @property
    def train_features(self) -> np.ndarray:
        """Encoded training features ``(n, d)`` (shared, do not mutate)."""
        return self._train_features

    @property
    def train_labels(self) -> np.ndarray:
        """Training labels aligned with :attr:`train_features`."""
        return self.task.train.labels

    @property
    def eval_split(self) -> int:
        """Row where the test split starts inside :meth:`eval_features`."""
        return self._val_features.shape[0]

    def eval_features(self) -> np.ndarray:
        """Concatenated ``[val; test]`` feature slab ``(n_val + n_test, d)``."""
        return self._eval_features

    def fusion_signature(self) -> Tuple:
        """Geometry key deciding which sessions can train in one fused group.

        Two sessions with equal signatures share every shape and
        hyper-parameter the stacked kernels broadcast over — task data
        (and hence labels and split sizes), encoder width, head
        architecture, optimiser and learning rate, batch size and weight
        decay — so their mini-batch trajectories can advance in lockstep
        as slices of one ``(S, n, d)`` slab.
        """
        from repro.cache import fingerprint_task

        return (
            fingerprint_task(self.task, split="all"),
            int(self.model.hidden_dim),
            int(self.task.num_classes),
            tuple(int(w) for w in self.config.hidden_dims),
            self.config.activation,
            self.config.optimizer,
            float(self.config.learning_rate),
            int(self.config.batch_size),
            float(self.config.weight_decay),
        )

    def record_epoch(
        self,
        train_loss: float,
        train_accuracy: float,
        val_accuracy: float,
        test_accuracy: float,
    ) -> None:
        """Adopt one externally trained epoch's records (fused training).

        Appends exactly what a serial :meth:`train_epochs` iteration
        appends — the head's history entries plus the session curve — so a
        session whose parameters were advanced by the stacked kernels of
        :mod:`repro.nn.batched` is indistinguishable from one trained
        serially.
        """
        self.head.history.train_loss.append(train_loss)
        self.head.history.train_accuracy.append(train_accuracy)
        self.curve.train_loss.append(train_loss)
        self.curve.val_accuracy.append(val_accuracy)
        self.curve.test_accuracy.append(test_accuracy)


class FineTuner:
    """Factory for fine-tuning runs with reproducible per-pair randomness."""

    def __init__(self, config: Optional[FineTuneConfig] = None, *, seed: int = 0) -> None:
        self.config = config or FineTuneConfig()
        self._rng_factory = RngFactory(seed)

    def start_sessions(
        self,
        models: Sequence[PretrainedModel],
        task: ClassificationTask,
        *,
        config: Optional[FineTuneConfig] = None,
    ) -> List[FineTuneSession]:
        """Fine-tuning sessions of every model on ``task``, one per model.

        Each split is encoded once for the whole group
        (:func:`~repro.zoo.models.encode_models`); session ``s`` gets slice
        ``s`` of each slab and its own ``(model, task)`` random stream.
        """
        cfg = config or self.config
        for model in models:
            if model.modality != task.modality:
                raise ConfigurationError(
                    f"cannot fine-tune {model.modality!r} model {model.name!r} on "
                    f"{task.modality!r} task {task.name!r}"
                )
        train, val, test = (
            encode_models(models, split.features)
            for split in (task.train, task.val, task.test)
        )
        return [
            FineTuneSession(
                model,
                task,
                cfg,
                self._rng_factory.named("finetune", model.name, task.name, cfg.learning_rate),
                train[s],
                val[s],
                test[s],
            )
            for s, model in enumerate(models)
        ]

    def start_session(
        self,
        model: PretrainedModel,
        task: ClassificationTask,
        *,
        config: Optional[FineTuneConfig] = None,
    ) -> FineTuneSession:
        """Create an incremental fine-tuning session for ``(model, task)``."""
        return self.start_sessions([model], task, config=config)[0]

    def fine_tune_many(
        self,
        models: Sequence[PretrainedModel],
        task: ClassificationTask,
        *,
        epochs: Optional[int] = None,
        config: Optional[FineTuneConfig] = None,
    ) -> List[LearningCurve]:
        """Fully fine-tune every model on ``task``; curves in ``models`` order.

        The models train in groups of at most :data:`OFFLINE_GROUP`, in
        order.  A group of at least :data:`~repro.nn.batched.FUSED_MIN_GROUP`
        sessions training two or more epochs advances as one
        :class:`~repro.nn.batched.FusedSessionGroup` (its first epoch is the
        bitwise probe); otherwise each session trains serially, since with
        one epoch the probe would only duplicate it.  Either way every curve
        equals a serial :meth:`fine_tune` bitwise.
        """
        cfg = config or self.config
        num_epochs = epochs if epochs is not None else cfg.epochs
        models = list(models)
        curves: List[LearningCurve] = []
        for start in range(0, len(models), OFFLINE_GROUP):
            group = models[start : start + OFFLINE_GROUP]
            curves.extend(self._fine_tune_group(group, task, cfg, num_epochs))
        return curves

    def _fine_tune_group(
        self,
        models: Sequence[PretrainedModel],
        task: ClassificationTask,
        config: FineTuneConfig,
        epochs: int,
    ) -> List[LearningCurve]:
        """Train one offline group; its sessions die when this returns."""
        sessions = self.start_sessions(models, task, config=config)
        if len(sessions) >= FUSED_MIN_GROUP and epochs >= 2:
            FusedSessionGroup(sessions).advance(epochs, probe=True)
        else:
            for session in sessions:
                session.train_epochs(epochs)
        return [session.curve for session in sessions]

    def fine_tune(
        self,
        model: PretrainedModel,
        task: ClassificationTask,
        *,
        epochs: Optional[int] = None,
        config: Optional[FineTuneConfig] = None,
    ) -> LearningCurve:
        """Run a full fine-tuning and return its learning curve."""
        return self.fine_tune_many([model], task, epochs=epochs, config=config)[0]
