"""Classification metrics shared by the fine-tuning engine and experiments."""

from __future__ import annotations

import numpy as np

from repro.utils.exceptions import DataError


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of exact label matches."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise DataError(
            f"y_true and y_pred shapes differ ({y_true.shape} vs {y_pred.shape})"
        )
    if y_true.size == 0:
        raise DataError("cannot compute accuracy on empty arrays")
    return float(np.mean(y_true == y_pred))


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray, num_classes: int) -> np.ndarray:
    """``(num_classes, num_classes)`` confusion counts (rows = true labels)."""
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    if y_true.shape != y_pred.shape:
        raise DataError("y_true and y_pred must have the same shape")
    matrix = np.zeros((num_classes, num_classes), dtype=int)
    for true, pred in zip(y_true, y_pred):
        matrix[true, pred] += 1
    return matrix


def macro_f1(y_true: np.ndarray, y_pred: np.ndarray, num_classes: int) -> float:
    """Macro-averaged F1 score (classes absent from ``y_true`` are skipped)."""
    matrix = confusion_matrix(y_true, y_pred, num_classes)
    scores = []
    for cls in range(num_classes):
        tp = matrix[cls, cls]
        fp = matrix[:, cls].sum() - tp
        fn = matrix[cls, :].sum() - tp
        if tp + fn == 0:
            continue
        precision = tp / (tp + fp) if (tp + fp) else 0.0
        recall = tp / (tp + fn)
        if precision + recall == 0:
            scores.append(0.0)
        else:
            scores.append(2 * precision * recall / (precision + recall))
    if not scores:
        raise DataError("macro_f1 requires at least one class present in y_true")
    return float(np.mean(scores))
