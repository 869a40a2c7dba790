"""Fused multi-session training: stacked-head kernels for same-geometry heads.

The online phase's hot path is ``S`` independent mini-batch loops — one
:meth:`~repro.nn.network.MLPClassifier.fit_epoch` per fine-tuning session,
driven one session at a time by the epoch scheduler's round loop.  What
speeds that loop up on a single CPU is *kernel fusion*: sessions fine-tuning different checkpoints on
the same task share every shape that matters — ``(n, d)`` feature slabs,
``(d, c)`` heads, batch size, optimiser and learning rate — so one
scheduling round is naturally a batched ``(S, b, d) @ (S, d, c)`` problem,
the same shape as multi-adapter batched serving in production inference
stacks.

This module provides that engine:

* :class:`StackedHeads` adopts ``S`` compatible classifier heads into
  stacked parameter tensors (an ``(S, d, c)`` weight, an ``(S, c)``
  bias) with a stacked forward/backward through ``np.matmul`` over
  ``(S, b, d)`` slabs, and a :class:`StackedOptimizer` mirroring the
  per-head Adam state as ``(S, ...)`` moment tensors.
* :func:`fused_fit_epoch` replicates ``fit_epoch`` exactly for every slice:
  per-session shuffle permutations are **pre-drawn from each session's own
  RNG in the serial draw order**, the stacked softmax-cross-entropy applies
  the same shift/exp/reduce sequence per slice, and the per-batch losses
  are accumulated per slice exactly as the serial loop accumulates them.
* :class:`FusedSessionGroup` drives whole fine-tuning sessions: it advances
  every member one epoch at a time with the fused kernels, scores the
  per-epoch validation/test accuracies as **one** stacked forward over the
  concatenated ``[val; test]`` slab (instead of ``2·S`` separate ``score``
  passes), and writes parameters, optimiser state and curve records back
  into the member sessions so they are indistinguishable from serially
  trained ones.

Correctness contract — every numpy kernel used here is bitwise-identical
per slice to its 2-D counterpart (stacked ``matmul`` dispatches the same
BLAS call per slice; elementwise optimiser updates and last-axis reductions
are order-identical), and the engine *proves* it once per kernel geometry
per process instead of assuming it: the first fused epoch of an unverified
geometry runs the serial oracle alongside and compares the full float
trajectory (parameters, optimiser moments, losses, accuracies).  Any slice
that diverges delegates the group, and every later one of its geometry, to
the per-session path — nnchain-style delegation: the serial epoch already
computed is kept, so a failed probe wastes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.network import MLPClassifier
from repro.nn.optim import Adam
from repro.utils.exceptions import ConfigurationError

__all__ = [
    "StackedHeads",
    "StackedOptimizer",
    "FusedSessionGroup",
    "FusedAdvanceReport",
    "fused_fit_epoch",
    "stacked_predictions",
    "heads_compatible",
    "FUSED_MIN_GROUP",
]

#: Smallest same-geometry session group worth stacking; smaller groups run
#: the per-session path (stacking a singleton only adds copying overhead).
#: Shared by the online scheduler's rounds and the offline fine-tuning
#: groups.
FUSED_MIN_GROUP = 2

#: Process-wide probe verdict per kernel geometry (keyed in
#: :meth:`FusedSessionGroup.advance`), shared by the offline build and
#: every scheduler: ``True`` = fused proven bitwise-equal to serial.
_VERDICTS: Dict[Tuple, bool] = {}


def _layer_structure(head: MLPClassifier) -> Tuple:
    """Hashable description of a head's layer: ``(in, out, l2)``."""
    layer = head.net
    return (layer.in_features, layer.out_features, layer.l2)


def _optimizer_signature(head: MLPClassifier, *, clock: bool = True) -> Tuple:
    """Hashable description of a head's Adam hyper-parameters and clock."""
    opt = head.optimizer
    signature = (opt.learning_rate, opt.beta1, opt.beta2, opt.epsilon)
    return signature + (opt._t,) if clock else signature


def heads_compatible(heads: Sequence[MLPClassifier]) -> bool:
    """Whether ``heads`` can train as one stacked group.

    Requires an identical layer (shape and L2) and identical Adam
    hyper-parameters and step count — everything :class:`StackedHeads`
    broadcasts over.
    """
    if not heads:
        return False
    structure = _layer_structure(heads[0])
    opt = _optimizer_signature(heads[0])
    return all(
        _layer_structure(head) == structure and _optimizer_signature(head) == opt
        for head in heads[1:]
    )


class StackedOptimizer(Adam):
    """Adam over ``S`` aligned per-head optimisers, as ``(S, ...)`` moments.

    The update is :meth:`Adam.step` itself: its arithmetic is elementwise
    (or broadcast by scalars), so on tensors carrying a leading stack axis
    each slice follows the identical float trajectory the per-head
    optimiser would.
    """

    def __init__(self, heads: Sequence[MLPClassifier]) -> None:
        if not heads:
            raise ConfigurationError("cannot stack an empty optimizer group")
        signature = _optimizer_signature(heads[0])
        for head in heads[1:]:
            if _optimizer_signature(head) != signature:
                raise ConfigurationError(
                    "optimizer mismatch in fused group: "
                    f"{signature} != {_optimizer_signature(head)}"
                )
        template = heads[0].optimizer
        super().__init__(
            template.learning_rate, template.beta1, template.beta2, template.epsilon
        )
        self._heads = list(heads)
        # A shared clock means every head's moments are set, or none are.
        self._t = template._t
        if template._m is not None:
            self._m = self._stack("_m")
            self._v = self._stack("_v")

    def _stack(self, attribute: str) -> List[np.ndarray]:
        states = [getattr(head.optimizer, attribute) for head in self._heads]
        return [np.stack(moments) for moments in zip(*states)]

    def writeback(self) -> None:
        """Copy the stacked moments and the step clock back into each head."""
        for s, head in enumerate(self._heads):
            opt = head.optimizer
            opt._t = self._t
            if self._m is not None and self._v is not None:
                opt._m = [m[s].copy() for m in self._m]
                opt._v = [v[s].copy() for v in self._v]

    def state_slice(self, s: int) -> Tuple[int, List[np.ndarray]]:
        """The clock and member ``s``'s ``m`` then ``v`` slices (probe)."""
        moments = (self._m or []) + (self._v or [])
        return self._t, [moment[s] for moment in moments]


class StackedHeads:
    """``S`` compatible classifier heads as one stacked-parameter model.

    Construction copies every head's parameters into an ``(S, d, c)``
    weight and an ``(S, c)`` bias; training then runs entirely in stacked
    space; :meth:`writeback` copies parameters and optimiser state back
    into the heads **in place** (the heads' existing arrays are
    overwritten, so views held by layer objects stay valid).
    """

    def __init__(self, heads: Sequence[MLPClassifier]) -> None:
        heads = list(heads)
        if not heads:
            raise ConfigurationError("cannot stack an empty head group")
        if not heads_compatible(heads):
            raise ConfigurationError(
                "heads are not fusion-compatible (layer shape, L2 or "
                "optimizer state mismatch)"
            )
        self._layers = [head.net for head in heads]
        self.weight = np.stack([layer.weight for layer in self._layers])
        self.bias = np.stack([layer.bias for layer in self._layers])
        self._l2 = self._layers[0].l2
        self.optimizer = StackedOptimizer(heads)
        # Backward caches (training forward only).
        self._input: Optional[np.ndarray] = None
        self._grad_weight: Optional[np.ndarray] = None
        self._grad_bias: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # stacked forward / backward
    # ------------------------------------------------------------------ #
    def forward(self, x: np.ndarray, *, training: bool = False) -> np.ndarray:
        """Stacked forward pass: ``(S, n, d)`` to ``(S, n, c)`` logits."""
        if training:
            self._input = x
        return np.matmul(x, self.weight) + self.bias[:, None, :]

    def backward(self, grad: np.ndarray) -> None:
        """Stacked backward pass; stores the stacked parameter gradients."""
        if self._input is None:
            raise ConfigurationError("backward called before a training forward pass")
        grad_weight = np.matmul(self._input.transpose(0, 2, 1), grad)
        if self._l2:
            grad_weight += self._l2 * self.weight
        self._grad_weight = grad_weight
        self._grad_bias = grad.sum(axis=1)

    def step(self) -> None:
        """Apply one stacked optimiser update from the cached gradients."""
        self.optimizer.step(
            [self.weight, self.bias], [self._grad_weight, self._grad_bias]
        )

    # ------------------------------------------------------------------ #
    # adoption back into the member heads
    # ------------------------------------------------------------------ #
    def writeback(self) -> None:
        """Copy stacked parameters and optimiser state back into the heads."""
        for s, layer in enumerate(self._layers):
            layer.weight[...] = self.weight[s]
            layer.bias[...] = self.bias[s]
        self.optimizer.writeback()

    def param_slice(self, s: int) -> List[np.ndarray]:
        """The stacked parameter slices of member ``s`` (probe comparisons)."""
        return [self.weight[s], self.bias[s]]


def _stacked_cross_entropy_stats(
    logits: np.ndarray, labels: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-slice mean loss, gradient and predictions for stacked logits.

    The stacked twin of
    :func:`repro.nn.losses.softmax_cross_entropy_stats`: shift by the row
    maximum (taken from the argmax gather), exponentiate once, share the
    exponentials between loss and gradient.  All reductions run along the
    last (contiguous) axis, so every slice reduces in the same order as
    the 2-D call.
    """
    size, n = logits.shape[0], logits.shape[1]
    stack_index = np.arange(size)[:, None]
    row_index = np.arange(n)[None, :]
    predictions = np.argmax(logits, axis=2)
    top = np.take_along_axis(logits, predictions[:, :, None], axis=2)
    shifted = logits - top
    exp = np.exp(shifted)
    sum_exp = np.sum(exp, axis=2, keepdims=True)
    log_probs = shifted - np.log(sum_exp)
    losses = -np.mean(log_probs[stack_index, row_index, labels], axis=1)
    grad = exp / sum_exp
    grad[stack_index, row_index, labels] -= 1.0
    grad /= n
    return losses, grad, predictions


def fused_fit_epoch(
    stacked: StackedHeads,
    x: np.ndarray,
    y: np.ndarray,
    perms: np.ndarray,
    *,
    batch_size: int,
) -> Tuple[List[float], List[float]]:
    """Train every stacked head for one epoch over its own permutation.

    Parameters
    ----------
    stacked:
        The stacked heads (mutated in stacked space).
    x:
        ``(S, n, d)`` feature slab — slice ``s`` is member ``s``'s encoded
        training features.
    y:
        ``(n,)`` shared integer labels (same task for every member).
    perms:
        ``(S, n)`` per-member shuffle permutations, pre-drawn from each
        member's own RNG in the serial draw order.
    batch_size:
        Mini-batch size shared by the group.

    Returns
    -------
    tuple
        ``(mean_losses, train_accuracies)`` — per-member floats built by
        the exact accumulation the serial ``fit_epoch`` performs (python
        float list, then ``np.mean``).
    """
    if batch_size <= 0:
        raise ConfigurationError("batch_size must be positive")
    size, n = perms.shape
    stack_index = np.arange(size)[:, None]
    batch_losses: List[List[float]] = [[] for _ in range(size)]
    correct = np.zeros(size, dtype=np.int64)
    for start in range(0, n, batch_size):
        idx = perms[:, start : start + batch_size]
        batch_x = x[stack_index, idx]
        batch_y = y[idx]
        logits = stacked.forward(batch_x, training=True)
        losses, grad, predictions = _stacked_cross_entropy_stats(logits, batch_y)
        for s, loss in enumerate(losses.tolist()):
            batch_losses[s].append(loss)
        correct += np.sum(predictions == batch_y, axis=1)
        stacked.backward(grad)
        stacked.step()
    mean_losses = [float(np.mean(member)) for member in batch_losses]
    accuracies = [int(count) / n for count in correct]
    return mean_losses, accuracies


def stacked_predictions(stacked: StackedHeads, x: np.ndarray) -> np.ndarray:
    """Hard class predictions ``(S, n)`` of an inference-mode stacked forward."""
    return np.argmax(stacked.forward(x, training=False), axis=2)


@dataclass
class FusedAdvanceReport:
    """Accounting of one :meth:`FusedSessionGroup.advance` call.

    ``fused_epochs``/``serial_epochs`` count *session-epochs* (one member
    advancing one epoch), so their sum is always ``S * epochs``.
    ``probe_epochs`` counts the duplicated oracle epochs a verification
    probe spent on top.  ``verified``/``delegated``: the geometry's verdict
    passed (the group trained fused) / failed (it trained serially).
    """

    sessions: int = 0
    epochs: int = 0
    fused_epochs: int = 0
    serial_epochs: int = 0
    probe_epochs: int = 0
    verified: bool = False
    delegated: bool = False
    mismatches: List[str] = field(default_factory=list)


class FusedSessionGroup:
    """Advance ``S`` same-geometry fine-tuning sessions with fused kernels.

    Members must expose the :class:`~repro.zoo.finetune.FineTuneSession`
    adoption surface (``head``, ``train_features``, ``train_labels``,
    ``eval_features()``, ``eval_split``, ``record_epoch``,
    ``train_epochs``, ``fusion_signature``) and agree on
    ``fusion_signature()`` and ``epochs_trained``.  The module docstring
    describes the bitwise contract; :meth:`advance` enforces it through
    the process-wide verdict of the group's kernel geometry.
    """

    def __init__(self, sessions: Sequence) -> None:
        sessions = list(sessions)
        if len(sessions) < 1:
            raise ConfigurationError("fused group needs at least one session")
        signature = sessions[0].fusion_signature()
        position = sessions[0].epochs_trained
        for session in sessions[1:]:
            if session.fusion_signature() != signature:
                raise ConfigurationError(
                    "sessions in a fused group must share their geometry "
                    "signature"
                )
            if session.epochs_trained != position:
                raise ConfigurationError(
                    "sessions in a fused group must be at the same epoch "
                    f"({session.epochs_trained} != {position})"
                )
        self.sessions = sessions
        self.batch_size = int(sessions[0].config.batch_size)

    # ------------------------------------------------------------------ #
    def _draw_permutations(self) -> np.ndarray:
        """One shuffle permutation per member, from each member's own RNG.

        This is the serial draw order: ``fit_epoch`` draws exactly one
        permutation per epoch from the head's generator and nothing else,
        so pulling the epoch's permutation from each session's generator
        here leaves every RNG in the exact state a serial epoch would.
        """
        return np.stack(
            [
                session.head._rng.permutation(session.train_features.shape[0])
                for session in self.sessions
            ]
        )

    def _evaluate(self, stacked: StackedHeads, eval_slab: np.ndarray):
        """Per-member (val, test) accuracies from one stacked forward."""
        predictions = stacked_predictions(stacked, eval_slab)
        split = self.sessions[0].eval_split
        val_labels = np.asarray(self.sessions[0].task.val.labels)
        test_labels = np.asarray(self.sessions[0].task.test.labels)
        pairs = []
        for s in range(len(self.sessions)):
            pairs.append(
                (
                    float(np.mean(val_labels == predictions[s, :split])),
                    float(np.mean(test_labels == predictions[s, split:])),
                )
            )
        return pairs

    def _probe_matches(
        self,
        stacked: StackedHeads,
        staged: Dict[str, object],
        report: FusedAdvanceReport,
    ) -> bool:
        """Compare the staged fused epoch against the serially trained one.

        Called after the members were advanced one epoch by the *serial*
        oracle: every staged per-slice quantity — loss, accuracies,
        parameters, optimiser moments — must equal the serial result
        bitwise for the group to stay fused.
        """
        for s, session in enumerate(self.sessions):
            name = getattr(session.curve, "model_name", str(s))
            serial_params = session.head.net.params()
            for mine, theirs in zip(stacked.param_slice(s), serial_params):
                if not np.array_equal(mine, theirs):
                    report.mismatches.append(f"{name}: params")
                    return False
            if staged["losses"][s] != session.curve.train_loss[-1]:
                report.mismatches.append(f"{name}: loss")
                return False
            if staged["train_accs"][s] != session.head.history.train_accuracy[-1]:
                report.mismatches.append(f"{name}: train accuracy")
                return False
            val_acc, test_acc = staged["scores"][s]
            if (
                val_acc != session.curve.val_accuracy[-1]
                or test_acc != session.curve.test_accuracy[-1]
            ):
                report.mismatches.append(f"{name}: val/test accuracy")
                return False
            clock, moments = stacked.optimizer.state_slice(s)
            opt = session.head.optimizer
            if clock != opt._t:
                report.mismatches.append(f"{name}: optimizer clock")
                return False
            # Equal clocks: both sides hold moments, or neither does.
            for mine, theirs in zip(moments, (opt._m or []) + (opt._v or [])):
                if not np.array_equal(mine, theirs):
                    report.mismatches.append(f"{name}: optimizer state")
                    return False
        return True

    # ------------------------------------------------------------------ #
    def advance(self, epochs: int) -> FusedAdvanceReport:
        """Train every member ``epochs`` epochs; fused where proven safe.

        A geometry without a verdict is probed: the first epoch runs both
        stacked and serial from the same RNG state, and whether the
        trajectories match bitwise becomes the geometry's verdict for the
        process.  A pass trains the remaining epochs fused; a failure
        delegates the whole group to the serial path, keeping a probe's
        serial epoch, so the probe never wastes training.
        """
        if epochs <= 0:
            raise ConfigurationError("epochs must be positive")
        size = len(self.sessions)
        report = FusedAdvanceReport(sessions=size, epochs=epochs)
        first = self.sessions[0]
        # The verdict key: what fixes the kernels' order of operations, not
        # the task's data.  ``S`` stays in it (a larger stack has slices at
        # offsets no smaller probe checked); Adam's clock sets scalars only.
        geometry = (
            size, first.train_features.shape, first.eval_features().shape,
            first.eval_split, _layer_structure(first.head),
            _optimizer_signature(first.head, clock=False), self.batch_size,
        )
        verdict = _VERDICTS.get(geometry)
        remaining = epochs
        if verdict is not False:
            y = np.asarray(first.train_labels, dtype=int)
            x = np.stack([np.asarray(s.train_features, dtype=float) for s in self.sessions])
            eval_slab = np.stack(
                [np.asarray(s.eval_features(), dtype=float) for s in self.sessions]
            )
            stacked = StackedHeads([session.head for session in self.sessions])

        if verdict is None:
            rng_states = [
                session.head._rng.bit_generator.state for session in self.sessions
            ]
            perms = self._draw_permutations()
            losses, train_accs = fused_fit_epoch(
                stacked, x, y, perms, batch_size=self.batch_size
            )
            staged = {
                "losses": losses,
                "train_accs": train_accs,
                "scores": self._evaluate(stacked, eval_slab),
            }
            # Serial oracle for the same epoch: rewind each RNG to the
            # pre-epoch state and let the real fit_epoch redraw the same
            # permutation.  The member sessions now hold the serial
            # trajectory; the stacked state holds the fused one.
            for session, state in zip(self.sessions, rng_states):
                session.head._rng.bit_generator.state = state
                session.train_epochs(1)
            report.probe_epochs += size
            report.serial_epochs += size
            remaining -= 1
            verdict = self._probe_matches(stacked, staged, report)
            if verdict:  # a failure stays final whatever a concurrent probe found
                _VERDICTS.setdefault(geometry, True)
            else:
                _VERDICTS[geometry] = False

        if not verdict:
            report.delegated = True
            if remaining:
                for session in self.sessions:
                    session.train_epochs(remaining)
                report.serial_epochs += size * remaining
            return report
        # Fused == serial bitwise (after a probe the heads already hold its
        # epoch, and the stacked state is identical): continue stacked.
        report.verified = True
        for _ in range(remaining):
            perms = self._draw_permutations()
            losses, train_accs = fused_fit_epoch(
                stacked, x, y, perms, batch_size=self.batch_size
            )
            scores = self._evaluate(stacked, eval_slab)
            for s, session in enumerate(self.sessions):
                session.record_epoch(
                    losses[s], train_accs[s], scores[s][0], scores[s][1]
                )
            report.fused_epochs += size
        stacked.writeback()
        return report
