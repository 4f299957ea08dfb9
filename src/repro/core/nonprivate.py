"""Non-private federated learning baseline (plain local SGD)."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.privacy.mechanisms import StepNoise

from .base import LocalTrainerBase

__all__ = ["NonPrivateTrainer"]


class NonPrivateTrainer(LocalTrainerBase):
    """Standard FedSGD local training without clipping or noise.

    This is the ``non-private`` row of Tables II, III and VII.  It is
    vulnerable to all three gradient-leakage types: the per-example gradients
    observed during local training and the shared round update are both exact.
    """

    name = "nonprivate"

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
