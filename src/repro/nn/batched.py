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
  stacked parameter tensors (``(S, d_in, d_out)`` weights, ``(S, d_out)``
  biases) with a stacked forward/backward through ``np.matmul`` over
  ``(S, b, d)`` slabs, and a :class:`StackedOptimizer` mirroring the
  per-head SGD/Momentum/Adam state as ``(S, ...)`` moment tensors.
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
are order-identical), and the engine *proves* it per group instead of
assuming it: the first fused epoch of an unverified geometry runs the
serial oracle alongside and compares the full float trajectory (parameters,
optimiser moments, losses, accuracies).  Any slice that diverges delegates
the whole group to the per-session path — nnchain-style delegation: the
serial epoch already computed is kept, so a failed probe wastes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers import Dropout, Linear, Relu, Tanh
from repro.nn.network import MLPClassifier
from repro.nn.optim import SGD, Adam, Momentum
from repro.utils.exceptions import ConfigurationError

__all__ = [
    "StackedHeads",
    "StackedOptimizer",
    "FusedSessionGroup",
    "FusedAdvanceReport",
    "fused_fit_epoch",
    "stacked_predictions",
    "heads_compatible",
]


def _layer_structure(head: MLPClassifier) -> Tuple:
    """Hashable description of a head's layer stack (shapes + activations)."""
    parts: List[Tuple] = []
    for layer in head.net.layers:
        if isinstance(layer, Linear):
            parts.append(("linear", layer.in_features, layer.out_features, layer.l2))
        elif isinstance(layer, Relu):
            parts.append(("relu",))
        elif isinstance(layer, Tanh):
            parts.append(("tanh",))
        elif isinstance(layer, Dropout):
            # Dropout consumes per-batch RNG draws inside the forward pass;
            # supporting it would interleave mask draws with the shuffle
            # stream.  The fine-tuning engine never uses it, so heads with
            # dropout simply stay on the serial path.
            parts.append(("dropout", layer.rate))
        else:  # pragma: no cover - no other layer types exist today
            parts.append((type(layer).__name__,))
    return tuple(parts)


def _optimizer_signature(head: MLPClassifier) -> Tuple:
    """Hashable description of a head's optimiser type, hypers and clock."""
    opt = head.optimizer
    if isinstance(opt, Adam):
        return ("adam", opt.learning_rate, opt.beta1, opt.beta2, opt.epsilon, opt._t)
    if isinstance(opt, Momentum):
        return (
            "momentum",
            opt.learning_rate,
            opt.momentum,
            opt._velocity is None,
        )
    if isinstance(opt, SGD):
        return ("sgd", opt.learning_rate)
    return ("unknown", type(opt).__name__)


def heads_compatible(heads: Sequence[MLPClassifier]) -> bool:
    """Whether ``heads`` can train as one stacked group.

    Requires identical layer structure (shapes, activations, L2), no
    dropout, and identical optimiser type, hyper-parameters and step
    count — everything :class:`StackedHeads` broadcasts over.
    """
    if not heads:
        return False
    structure = _layer_structure(heads[0])
    if any(part[0] == "dropout" and part[1] > 0.0 for part in structure):
        return False
    if any(part[0] == "unknown" for part in (_optimizer_signature(heads[0]),)):
        return False
    opt = _optimizer_signature(heads[0])
    return all(
        _layer_structure(head) == structure and _optimizer_signature(head) == opt
        for head in heads[1:]
    )


class StackedOptimizer:
    """Stacked SGD/Momentum/Adam state over ``S`` aligned per-head optimisers.

    Mirrors :mod:`repro.nn.optim` exactly, but every parameter, gradient
    and moment tensor carries a leading stack axis: the update arithmetic
    is elementwise (or broadcast by scalars), so each slice follows the
    identical float trajectory the per-head optimiser would.
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
        self.kind = signature[0]
        if self.kind == "unknown":
            raise ConfigurationError(
                f"cannot stack optimizer type {signature[1]!r}"
            )
        template = heads[0].optimizer
        self.learning_rate = template.learning_rate
        self._heads = list(heads)
        self._momentum = getattr(template, "momentum", 0.0)
        self._beta1 = getattr(template, "beta1", 0.0)
        self._beta2 = getattr(template, "beta2", 0.0)
        self._epsilon = getattr(template, "epsilon", 0.0)
        self._t = getattr(template, "_t", 0)
        #: Stacked moment tensors, aligned with the stacked param list.
        self._velocity: Optional[List[np.ndarray]] = None
        self._m: Optional[List[np.ndarray]] = None
        self._v: Optional[List[np.ndarray]] = None
        self._adopt_state()

    def _adopt_state(self) -> None:
        """Stack the per-head moment tensors (zeros where still lazy)."""

        def stack(attribute: str) -> Optional[List[np.ndarray]]:
            states = [getattr(head.optimizer, attribute) for head in self._heads]
            if all(state is None for state in states):
                return None
            params = [head.net.params() for head in self._heads]
            return [
                np.stack(
                    [
                        states[s][i]
                        if states[s] is not None
                        else np.zeros_like(params[s][i])
                        for s in range(len(self._heads))
                    ]
                )
                for i in range(len(params[0]))
            ]

        if self.kind == "momentum":
            self._velocity = stack("_velocity")
        elif self.kind == "adam":
            self._m = stack("_m")
            self._v = stack("_v")

    def step(self, params: List[np.ndarray], grads: List[np.ndarray]) -> None:
        """One stacked update, elementwise-identical per slice to the serial one."""
        if len(params) != len(grads):
            raise ConfigurationError(
                f"params and grads must align ({len(params)} != {len(grads)})"
            )
        if self.kind == "sgd":
            for param, grad in zip(params, grads):
                param -= self.learning_rate * grad
            return
        if self.kind == "momentum":
            if self._velocity is None:
                self._velocity = [np.zeros_like(p) for p in params]
            for param, grad, vel in zip(params, grads, self._velocity):
                vel *= self._momentum
                vel -= self.learning_rate * grad
                param += vel
            return
        # adam
        if self._m is None or self._v is None:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        self._t += 1
        bias1 = 1.0 - self._beta1**self._t
        bias2 = 1.0 - self._beta2**self._t
        for param, grad, m, v in zip(params, grads, self._m, self._v):
            m *= self._beta1
            m += (1.0 - self._beta1) * grad
            v *= self._beta2
            v += (1.0 - self._beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self._epsilon)

    def writeback(self) -> None:
        """Copy the stacked moments (and step clock) back into each head."""
        for s, head in enumerate(self._heads):
            opt = head.optimizer
            if self.kind == "momentum" and self._velocity is not None:
                opt._velocity = [vel[s].copy() for vel in self._velocity]
            elif self.kind == "adam":
                opt._t = self._t
                if self._m is not None and self._v is not None:
                    opt._m = [m[s].copy() for m in self._m]
                    opt._v = [v[s].copy() for v in self._v]

    def state_slice(self, s: int) -> Dict[str, object]:
        """Stacked moment slices of member ``s`` (probe comparisons)."""
        state: Dict[str, object] = {"t": self._t}
        if self._velocity is not None:
            state["velocity"] = [vel[s] for vel in self._velocity]
        if self._m is not None:
            state["m"] = [m[s] for m in self._m]
        if self._v is not None:
            state["v"] = [v[s] for v in self._v]
        return state


class StackedHeads:
    """``S`` compatible classifier heads as one stacked-parameter model.

    Construction copies every head's parameters into ``(S, ...)`` tensors;
    training then runs entirely in stacked space; :meth:`writeback` copies
    parameters and optimiser state back into the heads **in place** (the
    heads' existing arrays are overwritten, so views held by layer objects
    stay valid).
    """

    def __init__(self, heads: Sequence[MLPClassifier]) -> None:
        heads = list(heads)
        if not heads:
            raise ConfigurationError("cannot stack an empty head group")
        if not heads_compatible(heads):
            raise ConfigurationError(
                "heads are not fusion-compatible (layer structure, dropout "
                "or optimizer state mismatch)"
            )
        self.heads = heads
        self.size = len(heads)
        self.input_dim = heads[0].input_dim
        self.num_classes = heads[0].num_classes
        self._linears = [
            [layer for layer in head.net.layers if isinstance(layer, Linear)]
            for head in heads
        ]
        self.structure = _layer_structure(heads[0])
        #: Stacked (S, in, out) weights / (S, out) biases per linear layer.
        self.weights = [
            np.stack([linears[i].weight for linears in self._linears])
            for i in range(len(self._linears[0]))
        ]
        self.biases = [
            np.stack([linears[i].bias for linears in self._linears])
            for i in range(len(self._linears[0]))
        ]
        self._l2 = [linear.l2 for linear in self._linears[0]]
        self.optimizer = StackedOptimizer(heads)
        # Backward caches (training forward only).
        self._inputs: List[Optional[np.ndarray]] = [None] * len(self.weights)
        self._masks: List[Optional[np.ndarray]] = []
        self._grad_weights: List[Optional[np.ndarray]] = [None] * len(self.weights)
        self._grad_biases: List[Optional[np.ndarray]] = [None] * len(self.weights)

    # ------------------------------------------------------------------ #
    # stacked forward / backward
    # ------------------------------------------------------------------ #
    def forward(self, x: np.ndarray, *, training: bool = False) -> np.ndarray:
        """Stacked forward pass: ``(S, n, d_in)`` to ``(S, n, c)`` logits."""
        out = x
        linear_index = 0
        self._masks = []
        for part in self.structure:
            if part[0] == "linear":
                if training:
                    self._inputs[linear_index] = out
                out = (
                    np.matmul(out, self.weights[linear_index])
                    + self.biases[linear_index][:, None, :]
                )
                linear_index += 1
            elif part[0] == "relu":
                mask = out > 0
                if training:
                    self._masks.append(mask)
                out = out * mask
            elif part[0] == "tanh":
                out = np.tanh(out)
                if training:
                    self._masks.append(out)
        return out

    def backward(self, grad: np.ndarray) -> None:
        """Stacked backward pass; stores per-layer stacked gradients."""
        linear_index = len(self.weights) - 1
        mask_index = len(self._masks) - 1
        for part in reversed(self.structure):
            if part[0] == "linear":
                cached = self._inputs[linear_index]
                if cached is None:
                    raise ConfigurationError(
                        "backward called before a training forward pass"
                    )
                grad_weight = np.matmul(cached.transpose(0, 2, 1), grad)
                if self._l2[linear_index]:
                    grad_weight += self._l2[linear_index] * self.weights[linear_index]
                self._grad_weights[linear_index] = grad_weight
                self._grad_biases[linear_index] = grad.sum(axis=1)
                grad = np.matmul(grad, self.weights[linear_index].transpose(0, 2, 1))
                linear_index -= 1
            elif part[0] == "relu":
                grad = grad * self._masks[mask_index]
                mask_index -= 1
            elif part[0] == "tanh":
                grad = grad * (1.0 - self._masks[mask_index] ** 2)
                mask_index -= 1

    def step(self) -> None:
        """Apply one stacked optimiser update from the cached gradients."""
        params: List[np.ndarray] = []
        grads: List[np.ndarray] = []
        for index in range(len(self.weights)):
            params.extend((self.weights[index], self.biases[index]))
            grads.extend((self._grad_weights[index], self._grad_biases[index]))
        self.optimizer.step(params, grads)

    # ------------------------------------------------------------------ #
    # adoption back into the member heads
    # ------------------------------------------------------------------ #
    def writeback(self) -> None:
        """Copy stacked parameters and optimiser state back into the heads."""
        for s, linears in enumerate(self._linears):
            for index, linear in enumerate(linears):
                linear.weight[...] = self.weights[index][s]
                linear.bias[...] = self.biases[index][s]
        self.optimizer.writeback()

    def param_slice(self, s: int) -> List[np.ndarray]:
        """The stacked parameter slices of member ``s`` (probe comparisons)."""
        params: List[np.ndarray] = []
        for index in range(len(self.weights)):
            params.extend((self.weights[index][s], self.biases[index][s]))
        return params


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
    probe spent on top.
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
    the probe gate.
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
        self.signature = signature
        self.batch_size = int(sessions[0].config.batch_size)

    # ------------------------------------------------------------------ #
    def _draw_permutations(self) -> np.ndarray:
        """One shuffle permutation per member, from each member's own RNG.

        This is the serial draw order: ``fit_epoch`` draws exactly one
        permutation per epoch from the head's generator (dropout is
        excluded from fusion), so pulling the epoch's permutation from
        each session's generator here leaves every RNG in the exact state
        a serial epoch would.
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
            state = stacked.optimizer.state_slice(s)
            opt = session.head.optimizer
            if state["t"] != getattr(opt, "_t", state["t"]):
                report.mismatches.append(f"{name}: optimizer clock")
                return False
            for attribute, key in (("_velocity", "velocity"), ("_m", "m"), ("_v", "v")):
                theirs_state = getattr(opt, attribute, None)
                if key in state and theirs_state is not None:
                    for mine, theirs in zip(state[key], theirs_state):
                        if not np.array_equal(mine, theirs):
                            report.mismatches.append(f"{name}: optimizer state")
                            return False
        return True

    # ------------------------------------------------------------------ #
    def advance(self, epochs: int, *, probe: bool = True) -> FusedAdvanceReport:
        """Train every member ``epochs`` epochs; fused where proven safe.

        With ``probe=True`` (an unverified geometry) the first epoch runs
        both stacked and serial from the same RNG state and compares the
        trajectories bitwise; a match trains the remaining epochs fused, a
        mismatch delegates the whole group to the serial path — keeping
        the serial epoch already computed, so the probe never wastes
        training.  ``probe=False`` trusts a previous verification and
        runs every epoch fused.
        """
        if epochs <= 0:
            raise ConfigurationError("epochs must be positive")
        report = FusedAdvanceReport(sessions=len(self.sessions), epochs=epochs)
        size = len(self.sessions)
        y = np.asarray(self.sessions[0].train_labels, dtype=int)
        x = np.stack(
            [
                np.asarray(session.train_features, dtype=float)
                for session in self.sessions
            ]
        )
        eval_slab = np.stack(
            [
                np.asarray(session.eval_features(), dtype=float)
                for session in self.sessions
            ]
        )
        stacked = StackedHeads([session.head for session in self.sessions])
        remaining = epochs

        if probe:
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
            if not self._probe_matches(stacked, staged, report):
                report.delegated = True
                if remaining:
                    for session in self.sessions:
                        session.train_epochs(remaining)
                    report.serial_epochs += size * remaining
                return report
            report.verified = True
            # Fused == serial bitwise; the member heads already hold the
            # epoch's parameters, and the stacked state is identical —
            # continue in stacked space.

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
