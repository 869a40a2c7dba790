"""Losses and probability utilities for the NN substrate."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.exceptions import DataError


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable softmax along ``axis``."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable log-softmax along ``axis``."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy loss and its gradient w.r.t. the logits.

    Parameters
    ----------
    logits:
        ``(n, c)`` unnormalised scores.
    labels:
        ``(n,)`` integer class labels in ``[0, c)``.

    Returns
    -------
    tuple
        ``(loss, grad)`` where ``grad`` has the shape of ``logits``.
    """
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if logits.ndim != 2:
        raise DataError(f"logits must be 2-dimensional, got shape {logits.shape}")
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise DataError("labels must be a 1-d array aligned with logits rows")
    n = logits.shape[0]
    if n == 0:
        raise DataError("cannot compute cross-entropy on an empty batch")
    log_probs = log_softmax(logits, axis=1)
    loss = -float(np.mean(log_probs[np.arange(n), labels]))
    grad = softmax(logits, axis=1)
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad


def softmax_cross_entropy_stats(
    logits: np.ndarray, labels: np.ndarray
) -> Tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy loss, its gradient, and the hard predictions.

    Single-pass variant of :func:`softmax_cross_entropy` for training
    loops that also need the batch's predicted classes (to accumulate a
    training accuracy): the row maximum is taken from the ``argmax``
    gather instead of a second ``max`` scan, and the exponentials are
    shared between the log-softmax (loss) and softmax (gradient) instead
    of being computed twice.  Bitwise-identical to calling
    :func:`softmax_cross_entropy` and ``np.argmax`` separately — the same
    shift, exponential and reduction are applied in the same order.

    Returns
    -------
    tuple
        ``(loss, grad, predictions)`` where ``grad`` has the shape of
        ``logits`` and ``predictions`` is the ``(n,)`` row argmax.
    """
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if logits.ndim != 2:
        raise DataError(f"logits must be 2-dimensional, got shape {logits.shape}")
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise DataError("labels must be a 1-d array aligned with logits rows")
    n = logits.shape[0]
    if n == 0:
        raise DataError("cannot compute cross-entropy on an empty batch")
    predictions = np.argmax(logits, axis=1)
    top = np.take_along_axis(logits, predictions[:, None], axis=1)
    shifted = logits - top
    exp = np.exp(shifted)
    sum_exp = np.sum(exp, axis=1, keepdims=True)
    log_probs = shifted - np.log(sum_exp)
    loss = -float(np.mean(log_probs[np.arange(n), labels]))
    grad = exp / sum_exp
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad, predictions
