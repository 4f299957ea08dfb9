"""Fed-SDP: the conventional per-client differential privacy baseline (Algorithm 1).

Fed-SDP performs *non-private* local training and sanitises only the
per-client round update ``Delta W_i(t)``: each layer of the update is clipped
to L2 norm ``C`` and Gaussian noise ``N(0, sigma^2 C^2)`` is added, either at
the client before sharing (resilient to type-0 and type-1 leakage) or at the
server after collection (resilient to type-0 only).  Because the per-example
gradients seen *during* local training are untouched, Fed-SDP is vulnerable to
type-2 leakage — the observation that motivates Fed-CDP.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.federated.config import FederatedConfig
from repro.nn import Sequential
from repro.privacy.clipping import ConstantClipping, clip_gradients_per_layer
from repro.privacy.ledger import RoundCharge
from repro.privacy.mechanisms import GaussianMechanism, StepNoise

from .base import LocalTrainerBase

__all__ = ["FedSDPTrainer"]


class FedSDPTrainer(LocalTrainerBase):
    """Per-client clipping and noise injection on the shared round update."""

    name = "fed_sdp"

    def __init__(self, model: Sequential, config: FederatedConfig) -> None:
        super().__init__(model, config)
        self.clipping = ConstantClipping(config.clipping_bound)
        self.server_side = bool(config.sdp_server_side)

    # ------------------------------------------------------------------
    # Local training is exactly the non-private loop.
    # ------------------------------------------------------------------
    def _sanitized_batch_gradient(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        round_index: int,
        rng: np.random.Generator,
        noise: Optional[StepNoise],
    ) -> Tuple[List[np.ndarray], float, float]:
        # One batched forward/backward; the (vectorized) global norm is the
        # Figure-3 telemetry, computed from flat dot products per layer.
        gradients, loss = self.compute_batch_gradient(features, labels)
        return gradients, loss, self._global_norm(gradients)

    # ------------------------------------------------------------------
    # Sanitisation of the shared update
    # ------------------------------------------------------------------
    def sanitize_update(
        self, delta: List[np.ndarray], round_index: int, rng: np.random.Generator
    ) -> List[np.ndarray]:
        """Clip each layer of the update to C and add N(0, sigma^2 C^2) noise."""
        bound = self.clipping.bound_for_round(round_index)
        clipped = clip_gradients_per_layer(delta, bound)
        mechanism = GaussianMechanism(self.config.noise_scale, bound)
        return mechanism.add_noise_to_list(clipped, rng=rng)

    def _postprocess_update(
        self, delta: List[np.ndarray], round_index: int, rng: np.random.Generator
    ) -> Tuple[List[np.ndarray], Dict[str, float]]:
        metadata = {
            "clipping_bound": self.clipping.bound_for_round(round_index),
            "noise_scale": self.config.noise_scale,
            "sanitized_at_server": float(self.server_side),
        }
        if self.server_side:
            # The raw update leaves the client; the server sanitises it before
            # aggregation (see FederatedServer).  Type-1 adversaries therefore
            # still see the exact update.
            return delta, metadata
        return self.sanitize_update(delta, round_index, rng), metadata

    # ------------------------------------------------------------------
    # Privacy accounting: one client-level subsampled-Gaussian invocation per
    # round.  The moments accountant charges it at the sampling rate
    # q2 = Kt / K; the heterogeneous ledger records a plain Gaussian release
    # (q = 1) for each client that actually participated.
    # ------------------------------------------------------------------
    def round_privacy_charge(self, round_index: int) -> RoundCharge:
        del round_index
        return RoundCharge(
            level="client",
            noise_multiplier=max(self.config.noise_scale, 1e-12),
            steps=1,
        )

    def supports_instance_level_privacy(self) -> bool:
        """Fed-SDP provides only client-level DP (Table VI: "not supported")."""
        return False
