"""Linear softmax classifier head with mini-batch Adam training.

This is the workhorse used by :mod:`repro.zoo.finetune` to attach a new
classification head on top of a pre-trained encoder and fine-tune it on a
target dataset, recording a per-epoch validation/test curve (the paper's
"convergence process").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.nn.layers import Linear
from repro.nn.losses import softmax, softmax_cross_entropy_stats
from repro.nn.metrics import accuracy
from repro.nn.optim import Adam
from repro.utils.exceptions import ConfigurationError, DataError
from repro.utils.rng import as_generator


@dataclass
class TrainingHistory:
    """Per-epoch record of a single training run."""

    train_loss: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)

    @property
    def epochs(self) -> int:
        """Number of completed epochs."""
        return len(self.train_loss)


class MLPClassifier:
    """One linear layer with a softmax output, trained with Adam.

    Parameters
    ----------
    input_dim:
        Dimensionality of the input features.
    num_classes:
        Number of output classes.
    l2:
        L2 penalty applied to the layer's weights.
    learning_rate:
        Adam's step size.
    rng:
        Seed or generator controlling initialisation and shuffling.
    """

    def __init__(
        self,
        input_dim: int,
        num_classes: int,
        *,
        l2: float = 0.0,
        learning_rate: float = 1e-2,
        rng=None,
    ) -> None:
        if input_dim <= 0 or num_classes <= 1:
            raise ConfigurationError(
                "input_dim must be positive and num_classes must be >= 2"
            )
        self.input_dim = int(input_dim)
        self.num_classes = int(num_classes)
        self._rng = as_generator(rng)
        self.net = Linear(input_dim, num_classes, rng=self._rng, l2=l2)
        self.optimizer = Adam(learning_rate)
        self.history = TrainingHistory()

    # ------------------------------------------------------------------ #
    # inference
    # ------------------------------------------------------------------ #
    def decision_function(self, x: np.ndarray) -> np.ndarray:
        """Raw logits for ``x`` of shape ``(n, input_dim)``."""
        x = self._check_features(x)
        return self.net.forward(x, training=False)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Softmax class probabilities."""
        return softmax(self.decision_function(x), axis=1)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Hard class predictions."""
        return np.argmax(self.decision_function(x), axis=1)

    def score(self, x: np.ndarray, y: np.ndarray) -> float:
        """Classification accuracy on ``(x, y)``."""
        return accuracy(np.asarray(y), self.predict(x))

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #
    def fit_epoch(
        self,
        x: np.ndarray,
        y: np.ndarray,
        *,
        batch_size: int = 32,
    ) -> float:
        """Train for a single epoch; returns the mean batch loss."""
        x = self._check_features(x)
        y = np.asarray(y, dtype=int)
        if y.shape[0] != x.shape[0]:
            raise DataError("x and y must have the same number of rows")
        if batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        order = self._rng.permutation(x.shape[0])
        losses = []
        correct = 0
        for start in range(0, x.shape[0], batch_size):
            idx = order[start : start + batch_size]
            batch_x, batch_y = x[idx], y[idx]
            logits = self.net.forward(batch_x, training=True)
            loss, grad, predictions = softmax_cross_entropy_stats(logits, batch_y)
            losses.append(loss)
            correct += int(np.sum(predictions == batch_y))
            self.net.backward(grad)
            self.optimizer.step(self.net.params(), self.net.grads())
        mean_loss = float(np.mean(losses))
        self.history.train_loss.append(mean_loss)
        self.history.train_accuracy.append(correct / x.shape[0])
        return mean_loss

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        *,
        epochs: int = 10,
        batch_size: int = 32,
    ) -> TrainingHistory:
        """Train for ``epochs`` epochs and return the accumulated history."""
        if epochs <= 0:
            raise ConfigurationError("epochs must be positive")
        for _ in range(epochs):
            self.fit_epoch(x, y, batch_size=batch_size)
        return self.history

    # ------------------------------------------------------------------ #
    def _check_features(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise DataError(
                f"expected features of shape (n, {self.input_dim}), got {x.shape}"
            )
        return x
