"""DSSGD: distributed selective SGD baseline (Shokri & Shmatikov, CCS 2015).

The paper's Figure 4 compares its defenses against "Distributed Selective
SGD", in which each client shares only a small fraction of its model
parameters per round — the ones with the largest updates — instead of adding
noise.  The baseline offers *parameter-level* obfuscation only: the shared
values themselves are exact, which is why the paper finds it vulnerable to all
three gradient-leakage types.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.federated.config import FederatedConfig
from repro.nn import Sequential
from repro.privacy.mechanisms import StepNoise

from .base import LocalTrainerBase

__all__ = ["DSSGDTrainer", "select_top_fraction"]


def select_top_fraction(update: List[np.ndarray], fraction: float) -> List[np.ndarray]:
    """Keep only the largest-magnitude ``fraction`` of entries of an update.

    Selection is performed over the concatenated update (as in selective SGD's
    "largest values" criterion); non-selected entries are zeroed.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    arrays = [np.asarray(layer, dtype=np.float64) for layer in update]
    if fraction == 1.0:
        return [np.array(layer, copy=True) for layer in arrays]
    flat = np.concatenate([layer.reshape(-1) for layer in arrays])
    if flat.size == 0:
        return [np.array(layer, copy=True) for layer in arrays]
    keep = max(1, int(np.ceil(fraction * flat.size)))
    threshold = np.partition(np.abs(flat), flat.size - keep)[flat.size - keep]
    selected: List[np.ndarray] = []
    for layer in arrays:
        mask = np.abs(layer) >= threshold
        selected.append(layer * mask)
    return selected


class DSSGDTrainer(LocalTrainerBase):
    """Selective parameter sharing: non-private training, partial update sharing."""

    name = "dssgd"

    def __init__(self, model: Sequential, config: FederatedConfig) -> None:
        super().__init__(model, config)
        self.share_fraction = float(config.dssgd_share_fraction)

    def _sanitized_batch_gradient(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        round_index: int,
        rng: np.random.Generator,
        noise: Optional[StepNoise],
    ) -> Tuple[List[np.ndarray], float, float]:
        gradients, loss = self.compute_batch_gradient(features, labels)
        return gradients, loss, self._global_norm(gradients)

    def _postprocess_update(
        self, delta: List[np.ndarray], round_index: int, rng: np.random.Generator
    ) -> Tuple[List[np.ndarray], Dict[str, float]]:
        shared = select_top_fraction(delta, self.share_fraction)
        kept = sum(int(np.sum(layer != 0)) for layer in shared)
        total = sum(int(layer.size) for layer in shared)
        return shared, {"share_fraction": self.share_fraction, "kept_fraction": kept / max(total, 1)}
