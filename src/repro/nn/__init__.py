"""Minimal numpy neural-network substrate used for fine-tuning.

The paper fine-tunes transformer checkpoints on a GPU; this substrate
provides the same *interface contract* — a trainable classifier head
producing epoch-level validation/test accuracy curves — implemented as a
plain numpy linear softmax layer trained with Adam, so the whole
reproduction runs on a laptop CPU.

Public API:

* :class:`~repro.nn.network.MLPClassifier` — the linear softmax head.
* The layer (:class:`~repro.nn.layers.Linear`).
* Losses (:func:`~repro.nn.losses.softmax_cross_entropy`).
* The optimiser (:class:`~repro.nn.optim.Adam`).
* Metrics (:func:`~repro.nn.metrics.accuracy`, macro-F1 ...).
* Fused multi-session training (:class:`~repro.nn.batched.StackedHeads`,
  :class:`~repro.nn.batched.FusedSessionGroup`) — stacked-parameter
  kernels advancing many same-geometry sessions per round, bitwise
  identical to the serial path.
"""

from repro.nn.batched import (
    FusedAdvanceReport,
    FusedSessionGroup,
    StackedHeads,
    StackedOptimizer,
    fused_fit_epoch,
    heads_compatible,
    stacked_predictions,
)
from repro.nn.layers import Linear
from repro.nn.losses import (
    softmax,
    softmax_cross_entropy,
    softmax_cross_entropy_stats,
)
from repro.nn.metrics import accuracy, confusion_matrix, macro_f1
from repro.nn.network import MLPClassifier, TrainingHistory
from repro.nn.optim import Adam

__all__ = [
    "Linear",
    "softmax",
    "softmax_cross_entropy",
    "softmax_cross_entropy_stats",
    "accuracy",
    "confusion_matrix",
    "macro_f1",
    "MLPClassifier",
    "TrainingHistory",
    "Adam",
    "FusedAdvanceReport",
    "FusedSessionGroup",
    "StackedHeads",
    "StackedOptimizer",
    "fused_fit_epoch",
    "heads_compatible",
    "stacked_predictions",
]
