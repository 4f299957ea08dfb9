"""In-memory dataset container used by the federated simulation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = ["Dataset", "batch_indices"]


def batch_indices(rng: np.random.Generator, population: int, batch_size: int) -> np.ndarray:
    """Indices of one mini-batch of ``batch_size`` examples drawn with replacement.

    The paper's local training performs ``L`` iterations with batch size
    ``B`` drawn from the client's shard; sampling *with replacement* matches
    the subsampling assumption of the moments accountant (Definition 3).
    This is each local step's draw in
    :meth:`repro.core.base.LocalTrainerBase.train_client`, which caps
    ``batch_size`` at ``population``.
    """
    return rng.integers(0, population, size=batch_size)


@dataclass
class Dataset:
    """A supervised dataset held entirely in memory.

    Attributes
    ----------
    features:
        Array of shape ``(N, ...)``; images are ``(N, C, H, W)`` and tabular
        data is ``(N, D)``.
    labels:
        Integer class labels of shape ``(N,)``.
    num_classes:
        Total number of classes of the underlying task (may exceed the number
        of classes present in this particular subset, e.g. a client shard).
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"features ({self.features.shape[0]}) and labels ({self.labels.shape[0]}) disagree"
            )
        if self.num_classes <= 0:
            raise ValueError("num_classes must be positive")

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    @property
    def input_shape(self) -> Tuple[int, ...]:
        """Shape of a single example."""
        return tuple(self.features.shape[1:])

    def subset(self, indices: Sequence[int]) -> "Dataset":
        """Return a new dataset containing the given example indices."""
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[indices], self.labels[indices], self.num_classes)

    def classes_present(self) -> np.ndarray:
        """Sorted array of distinct labels occurring in this dataset."""
        return np.unique(self.labels)

    def class_distribution(self) -> np.ndarray:
        """Empirical class-frequency vector of length ``num_classes``."""
        counts = np.bincount(self.labels, minlength=self.num_classes).astype(np.float64)
        total = counts.sum()
        return counts / total if total > 0 else counts

    def split(self, fraction: float, rng: np.random.Generator) -> Tuple["Dataset", "Dataset"]:
        """Randomly split into two datasets with ``fraction`` of examples in the first."""
        if not 0.0 < fraction < 1.0:
            raise ValueError("fraction must be strictly between 0 and 1")
        order = rng.permutation(len(self))
        cut = int(round(fraction * len(self)))
        return self.subset(order[:cut]), self.subset(order[cut:])
