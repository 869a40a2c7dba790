"""Train/validation/test split container."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.exceptions import DataError


@dataclass
class DataSplit:
    """One split (features + integer labels) of a classification task."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.features.ndim != 2:
            raise DataError(f"features must be 2-d, got shape {self.features.shape}")
        if self.labels.ndim != 1:
            raise DataError(f"labels must be 1-d, got shape {self.labels.shape}")
        if self.features.shape[0] != self.labels.shape[0]:
            raise DataError(
                "features and labels row counts differ "
                f"({self.features.shape[0]} vs {self.labels.shape[0]})"
            )

    def __len__(self) -> int:
        return int(self.features.shape[0])

    @property
    def num_features(self) -> int:
        """Feature dimensionality."""
        return int(self.features.shape[1])

    def class_counts(self, num_classes: int) -> np.ndarray:
        """Per-class sample counts (length ``num_classes``)."""
        return np.bincount(self.labels, minlength=num_classes)
