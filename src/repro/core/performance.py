"""Performance matrix: offline fine-tuning records of every checkpoint.

``Matrix(D, M)[i][j]`` is the test accuracy of model ``m_j`` fine-tuned on
benchmark dataset ``d_i`` (the paper's Section II definition).  Besides the
final accuracies, the builder keeps every full learning curve because the
fine-selection phase mines convergence trends from the same offline runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.workloads import WorkloadSuite
from repro.utils.exceptions import DataError, SelectionError
from repro.zoo.finetune import FineTuneConfig, FineTuner, LearningCurve
from repro.zoo.hub import ModelHub


@dataclass
class PerformanceMatrix:
    """Offline training record of a model repository on benchmark datasets.

    Attributes
    ----------
    dataset_names:
        Benchmark dataset names (rows).
    model_names:
        Checkpoint names (columns).
    values:
        ``(num_datasets, num_models)`` final test accuracies.
    curves:
        Full learning curves keyed by ``(model_name, dataset_name)``.
    epochs:
        Number of offline fine-tuning epochs per cell.
    """

    dataset_names: List[str]
    model_names: List[str]
    values: np.ndarray
    curves: Dict[Tuple[str, str], LearningCurve] = field(default_factory=dict)
    epochs: int = 5

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        expected = (len(self.dataset_names), len(self.model_names))
        if self.values.shape != expected:
            raise DataError(
                f"performance matrix shape {self.values.shape} does not match "
                f"datasets x models {expected}"
            )
        finite = np.isfinite(self.values)
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            raise DataError(
                f"performance matrix cell ({self.dataset_names[row]!r}, "
                f"{self.model_names[col]!r}) is {self.values[row, col]}, not finite"
            )

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def dataset_index(self, dataset_name: str) -> int:
        """Row index of ``dataset_name``."""
        try:
            return self.dataset_names.index(dataset_name)
        except ValueError:
            raise DataError(f"unknown benchmark dataset {dataset_name!r}") from None

    def model_index(self, model_name: str) -> int:
        """Column index of ``model_name``."""
        try:
            return self.model_names.index(model_name)
        except ValueError:
            raise DataError(f"unknown model {model_name!r}") from None

    def value(self, dataset_name: str, model_name: str) -> float:
        """``p(d_i | m_j)`` — accuracy of ``model_name`` on ``dataset_name``."""
        return float(
            self.values[self.dataset_index(dataset_name), self.model_index(model_name)]
        )

    def model_vector(self, model_name: str) -> np.ndarray:
        """``vec(m_j)``: the model's accuracies across all benchmark datasets."""
        return self.values[:, self.model_index(model_name)].copy()

    def average_accuracy(self, model_name: str) -> float:
        """``acc(m_j)``: mean benchmark accuracy (the Eq. 2 prior term)."""
        return float(np.mean(self.model_vector(model_name)))

    def average_accuracies(self) -> Dict[str, float]:
        """``acc(m_j)`` for every model, in one reduction over the columns.

        Each value equals :meth:`average_accuracy` bitwise: a mean over the
        contiguous last axis runs numpy's pairwise sum on each row, exactly
        as ``np.mean`` does on that row alone.
        """
        means = np.ascontiguousarray(self.values.T).mean(axis=1)
        return dict(zip(self.model_names, means.tolist()))

    def best_model_for(self, dataset_name: str) -> str:
        """Model with the maximum accuracy on ``dataset_name``."""
        row = self.values[self.dataset_index(dataset_name)]
        return self.model_names[int(np.argmax(row))]

    def curve(self, model_name: str, dataset_name: str) -> LearningCurve:
        """Full learning curve of ``(model, dataset)``."""
        key = (model_name, dataset_name)
        if key not in self.curves:
            raise DataError(f"no learning curve recorded for {key}")
        return self.curves[key]

    def curves_for_model(self, model_name: str) -> Dict[str, LearningCurve]:
        """All benchmark learning curves of ``model_name`` keyed by dataset."""
        if model_name not in self.model_names:
            raise DataError(f"unknown model {model_name!r}")
        return {
            dataset: self.curves[(model, dataset)]
            for (model, dataset) in self.curves
            if model == model_name
        }

    def submatrix(self, model_names: Sequence[str]) -> "PerformanceMatrix":
        """Restriction of the matrix to ``model_names`` (keeping all datasets)."""
        indices = [self.model_index(name) for name in model_names]
        curves = {
            key: curve for key, curve in self.curves.items() if key[0] in set(model_names)
        }
        return PerformanceMatrix(
            dataset_names=list(self.dataset_names),
            model_names=list(model_names),
            values=self.values[:, indices].copy(),
            curves=curves,
            epochs=self.epochs,
        )

    # ------------------------------------------------------------------ #
    # (de)serialisation — lets the expensive offline phase be cached on disk
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """JSON-serialisable representation (including learning curves)."""
        return {
            "dataset_names": list(self.dataset_names),
            "model_names": list(self.model_names),
            "values": self.values.tolist(),
            "epochs": self.epochs,
            "curves": [
                {
                    "model": model,
                    "dataset": dataset,
                    "val_accuracy": curve.val_accuracy,
                    "test_accuracy": curve.test_accuracy,
                    "train_loss": curve.train_loss,
                }
                for (model, dataset), curve in self.curves.items()
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PerformanceMatrix":
        """Inverse of :meth:`to_dict`."""
        curves = {}
        for record in payload.get("curves", []):
            curve = LearningCurve(
                model_name=record["model"],
                dataset_name=record["dataset"],
                val_accuracy=list(record["val_accuracy"]),
                test_accuracy=list(record["test_accuracy"]),
                train_loss=list(record.get("train_loss", [])),
            )
            curves[(curve.model_name, curve.dataset_name)] = curve
        return cls(
            dataset_names=list(payload["dataset_names"]),
            model_names=list(payload["model_names"]),
            values=np.asarray(payload["values"], dtype=float),
            curves=curves,
            epochs=int(payload.get("epochs", 5)),
        )

    def to_json(self) -> str:
        """JSON string of :meth:`to_dict`."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "PerformanceMatrix":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


def build_performance_matrix(
    hub: ModelHub,
    suite: Optional[WorkloadSuite] = None,
    *,
    fine_tuner: Optional[FineTuner] = None,
    epochs: Optional[int] = None,
    benchmark_names: Optional[Sequence[str]] = None,
) -> PerformanceMatrix:
    """Fine-tune every hub checkpoint on every benchmark dataset.

    This is the paper's offline phase (40x24 runs for NLP, 30x10 for CV),
    run benchmark by benchmark through :meth:`FineTuner.fine_tune_many`.
    """
    suite = _checked_suite(hub, suite)
    tuner = fine_tuner or FineTuner(FineTuneConfig(), seed=0)
    num_epochs = epochs if epochs is not None else (5 if hub.modality == "nlp" else 4)
    dataset_names = list(benchmark_names) if benchmark_names else list(suite.benchmark_names)
    values, curves = _fine_tune_columns(
        tuner, hub.models(), suite, dataset_names, num_epochs
    )
    return PerformanceMatrix(
        dataset_names=dataset_names,
        model_names=hub.model_names,
        values=values,
        curves=curves,
        epochs=num_epochs,
    )


def update_performance_matrix(
    old: PerformanceMatrix,
    hub: ModelHub,
    suite: Optional[WorkloadSuite] = None,
    *,
    fine_tuner: Optional[FineTuner] = None,
    epochs: Optional[int] = None,
) -> PerformanceMatrix:
    """Performance matrix of an updated ``hub``, fine-tuning only new models.

    ``hub`` is the repository *after* an add/remove update
    (:meth:`~repro.zoo.hub.ModelHub.with_changes`); ``old`` is the matrix of
    the previous epoch.  Columns of surviving models are copied, columns of
    removed models are dropped, and only the added models are fine-tuned on
    the benchmarks — ``O(n_added * d)`` runs instead of ``O(n * d)``.

    Fine-tuning randomness is keyed per ``(model, dataset)`` pair (named
    random streams), so the result is bitwise-identical to
    :func:`build_performance_matrix` over the updated hub with the same
    ``fine_tuner`` seed; the property suite enforces this.
    """
    suite = _checked_suite(hub, suite)
    num_epochs = epochs if epochs is not None else old.epochs
    if num_epochs != old.epochs:
        raise SelectionError(
            f"incremental update must keep the offline budget ({old.epochs} "
            f"epochs), got {num_epochs}; rebuild from scratch instead"
        )
    dataset_names = list(old.dataset_names)
    model_names = hub.model_names
    old_index = {name: i for i, name in enumerate(old.model_names)}
    added = [column for column, name in enumerate(model_names) if name not in old_index]

    tuner = fine_tuner or FineTuner(FineTuneConfig(), seed=0)
    fresh, curves = _fine_tune_columns(
        tuner, [hub.get(model_names[c]) for c in added], suite, dataset_names, num_epochs
    )
    values = np.zeros((len(dataset_names), len(model_names)))
    values[:, added] = fresh
    for column, model_name in enumerate(model_names):
        if model_name in old_index:
            values[:, column] = old.values[:, old_index[model_name]]
    kept = set(model_names)
    curves.update(
        {key: curve for key, curve in old.curves.items() if key[0] in kept}
    )
    return PerformanceMatrix(
        dataset_names=dataset_names,
        model_names=model_names,
        values=values,
        curves=curves,
        epochs=num_epochs,
    )


def _checked_suite(hub: ModelHub, suite: Optional[WorkloadSuite]) -> WorkloadSuite:
    """``suite`` (default: the hub's own), checked against the hub's modality."""
    suite = suite or hub.suite
    if suite.modality != hub.modality:
        raise SelectionError(
            f"hub modality {hub.modality!r} does not match suite {suite.modality!r}"
        )
    return suite


def _fine_tune_columns(
    tuner: FineTuner,
    models: Sequence,
    suite: WorkloadSuite,
    dataset_names: Sequence[str],
    epochs: int,
) -> Tuple[np.ndarray, Dict[Tuple[str, str], LearningCurve]]:
    """Fine-tune ``models`` on every benchmark: ``(datasets x models)`` values
    and the curves, keyed in model-major order."""
    rows = [
        tuner.fine_tune_many(models, suite.task(name), epochs=epochs)
        for name in dataset_names
    ]
    values = np.zeros((len(dataset_names), len(models)))
    for row, row_curves in enumerate(rows):
        values[row] = [curve.final_test for curve in row_curves]
    curves = {
        (model.name, name): rows[row][column]
        for column, model in enumerate(models)
        for row, name in enumerate(dataset_names)
    }
    return values, curves
