"""Convergence-trend mining (the paper's Eq. 5 and Eq. 6).

For a given checkpoint, the validation curves it produced on the benchmark
datasets fall into a small number of groups ("convergence trends", Fig. 4):
datasets on which the model converges fast to a high accuracy, datasets where
it plateaus low, and so on.  At fine-selection stage ``t`` the miner

1. clusters the benchmark datasets by the model's validation accuracy at
   stage ``t`` (:class:`TrendSet`);
2. matches the model's current validation accuracy on the *target* dataset to
   the nearest trend (Eq. 5);
3. predicts the final test accuracy as the matched trend's mean final test
   accuracy (Eq. 6).

The prediction lets Algorithm 1 filter more than half of the candidates at
early stages when their predicted ceiling is clearly below a competitor's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.kmeans import KMeans
from repro.utils.exceptions import DataError, SelectionError
from repro.zoo.finetune import LearningCurve


@dataclass(frozen=True)
class ConvergenceTrend:
    """One trend: mean validation accuracy at the stage and mean final test accuracy."""

    trend_id: int
    val_accuracy: float
    test_accuracy: float
    dataset_names: tuple

    @property
    def size(self) -> int:
        """Number of benchmark datasets forming the trend."""
        return len(self.dataset_names)


@dataclass
class TrendSet:
    """All convergence trends of one model at one validation stage."""

    model_name: str
    stage: int
    trends: List[ConvergenceTrend]

    def __post_init__(self) -> None:
        if not self.trends:
            raise DataError("a TrendSet requires at least one trend")

    def match(self, val_accuracy: float) -> ConvergenceTrend:
        """Eq. 5: the trend whose stage-``t`` validation accuracy is closest."""
        return min(self.trends, key=lambda trend: abs(trend.val_accuracy - val_accuracy))

    def predict(self, val_accuracy: float) -> float:
        """Eq. 6: predicted final test accuracy for a current validation accuracy."""
        return self.match(val_accuracy).test_accuracy

    def trend_labels(self) -> Dict[str, int]:
        """Dataset name -> trend id mapping."""
        labels: Dict[str, int] = {}
        for trend in self.trends:
            for name in trend.dataset_names:
                labels[name] = trend.trend_id
        return labels


class ConvergenceTrendMiner:
    """Mines convergence trends from a model's benchmark learning curves."""

    def __init__(self, *, num_trends: int = 4, seed: int = 0) -> None:
        if num_trends < 1:
            raise SelectionError("num_trends must be >= 1")
        self.num_trends = int(num_trends)
        self._seed = int(seed)

    # ------------------------------------------------------------------ #
    def mine(
        self,
        model_name: str,
        curves: Mapping[str, LearningCurve],
        *,
        stage: int,
        num_trends: Optional[int] = None,
    ) -> TrendSet:
        """Cluster ``curves`` (dataset -> curve) by validation accuracy at ``stage``.

        ``stage`` is 1-based: stage 1 corresponds to the first validation
        after ``validation_interval`` epochs.
        """
        if not curves:
            raise SelectionError(f"no benchmark curves available for {model_name!r}")
        if stage < 1:
            raise SelectionError("stage must be >= 1")
        dataset_names = sorted(curves.keys())
        val_values = np.array(
            [curves[name].val_at(stage) for name in dataset_names], dtype=float
        )
        final_tests = np.array(
            [curves[name].final_test for name in dataset_names], dtype=float
        )
        k = min(num_trends or self.num_trends, len(dataset_names))
        labels = self._cluster_values(val_values, k)
        trends: List[ConvergenceTrend] = []
        for trend_id in sorted(set(labels.tolist())):
            mask = labels == trend_id
            trends.append(
                ConvergenceTrend(
                    trend_id=int(trend_id),
                    val_accuracy=float(val_values[mask].mean()),
                    test_accuracy=float(final_tests[mask].mean()),
                    dataset_names=tuple(
                        name for name, keep in zip(dataset_names, mask) if keep
                    ),
                )
            )
        trends.sort(key=lambda trend: trend.val_accuracy)
        # Re-number trends by increasing validation accuracy for stable output.
        trends = [
            ConvergenceTrend(
                trend_id=index,
                val_accuracy=trend.val_accuracy,
                test_accuracy=trend.test_accuracy,
                dataset_names=trend.dataset_names,
            )
            for index, trend in enumerate(trends)
        ]
        return TrendSet(model_name=model_name, stage=stage, trends=trends)

    def _cluster_values(self, values: np.ndarray, k: int) -> np.ndarray:
        if k <= 1 or np.allclose(values, values[0]):
            return np.zeros(values.shape[0], dtype=int)
        kmeans = KMeans(k, rng=np.random.default_rng(self._seed), num_init=4)
        return kmeans.fit_predict(values.reshape(-1, 1))

    # ------------------------------------------------------------------ #
    def predict_final_accuracy(
        self,
        model_name: str,
        curves: Mapping[str, LearningCurve],
        current_val: float,
        *,
        stage: int,
    ) -> float:
        """Convenience wrapper: mine trends at ``stage`` and apply Eq. 5/6."""
        trend_set = self.mine(model_name, curves, stage=stage)
        return trend_set.predict(current_val)


#: Memo of mined trend sets keyed by ``(model, stage, num_trends)``; a
#: ``None`` value records that the matrix holds no curves for the model.
TrendTable = Dict[Tuple[str, int, int], Optional[TrendSet]]


def lookup_trend_set(
    table: TrendTable,
    miner: ConvergenceTrendMiner,
    matrix,
    model_name: str,
    *,
    stage: int,
    num_trends: Optional[int] = None,
) -> Optional[TrendSet]:
    """``model_name``'s trend set at ``stage``, mined at most once per ``table``.

    :meth:`ConvergenceTrendMiner.mine` is a pure function of the matrix's
    curves (its k-means reseeds on every call) and a performance matrix is
    never mutated, so a table that lives exactly as long as its matrix
    returns values bitwise equal to re-mining.  Returns ``None`` when the
    matrix has no curves for the model.  Every caller gets the same
    :class:`TrendSet` object, which none may mutate.  Concurrent fills of
    one key write equal values, so a plain dict needs no lock.
    """
    key = (model_name, int(stage), int(num_trends or miner.num_trends))
    try:
        return table[key]
    except KeyError:
        pass
    curves = matrix.curves_for_model(model_name)
    trend_set = (
        miner.mine(model_name, curves, stage=key[1], num_trends=key[2])
        if curves
        else None
    )
    table[key] = trend_set
    return trend_set


def random_trend_labels(
    dataset_names: Sequence[str], num_trends: int, rng: np.random.Generator
) -> Dict[str, int]:
    """Random dataset->trend assignment (the Fig. 6 baseline)."""
    if num_trends < 1:
        raise SelectionError("num_trends must be >= 1")
    labels = rng.integers(0, num_trends, size=len(dataset_names))
    return {name: int(label) for name, label in zip(dataset_names, labels)}


def leave_one_out_prediction_error(
    curves: Mapping[str, LearningCurve],
    miner: ConvergenceTrendMiner,
    model_name: str,
    *,
    stage: int = 1,
) -> Dict[str, float]:
    """Fig. 6 (red bars): relative error of trend-based final-accuracy prediction.

    Every benchmark dataset is treated in turn as the "target": trends are
    mined from the remaining datasets, the held-out dataset's stage-``t``
    validation accuracy is matched, and the predicted final test accuracy is
    compared against the actual one.  Returns the mean relative error for the
    trend-based prediction and for the global-mean baseline.
    """
    names = sorted(curves.keys())
    if len(names) < 3:
        raise SelectionError("leave-one-out evaluation needs at least three datasets")
    trend_errors: List[float] = []
    mean_errors: List[float] = []
    for held_out in names:
        rest = {name: curve for name, curve in curves.items() if name != held_out}
        trend_set = miner.mine(model_name, rest, stage=stage)
        actual = curves[held_out].final_test
        if actual <= 0:
            continue
        predicted = trend_set.predict(curves[held_out].val_at(stage))
        global_mean = float(np.mean([curve.final_test for curve in rest.values()]))
        trend_errors.append(abs(predicted - actual) / actual)
        mean_errors.append(abs(global_mean - actual) / actual)
    return {
        "trend_prediction_error": float(np.mean(trend_errors)),
        "global_mean_error": float(np.mean(mean_errors)),
    }
