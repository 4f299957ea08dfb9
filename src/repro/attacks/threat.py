"""Threat harness: type-0, type-1 and type-2 gradient leakage attacks.

Section III defines three leakage types by *where* and *on what* the adversary
reads gradients:

* **type-0** — the server (or an adversary at the server) intercepts the
  per-client shared update of a round;
* **type-1** — an adversary at the client reads the per-client update that
  resulted from the completed local training, before/as it is shared;
* **type-2** — an adversary at the client reads *per-example* gradients while
  local training is running.

For each defense method, the harness asks the local trainer what an adversary
at each of those observation points would actually see (exact gradients for
the non-private and DSSGD baselines, noisy per-client updates for Fed-SDP,
noisy per-example gradients for Fed-CDP/Fed-CDP(decay), and — for the
server-side Fed-SDP variant — exact updates at the client but noisy updates at
the server), and then runs the attack engine of :mod:`repro.attacks.multistart`
against that observation: one restart over the leaked batch, its attack seed
drawn from the harness's own ``rng``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import LocalTrainerBase
from repro.core.dssgd import DSSGDTrainer, select_top_fraction
from repro.core.fed_cdp import FedCDPTrainer
from repro.core.fed_sdp import FedSDPTrainer
from repro.federated.compression import prune_update

from .multistart import MultiRestartReconstruction
from .reconstruction import AttackConfig, AttackResult

__all__ = ["LEAKAGE_TYPES", "LeakageObservation", "GradientLeakageThreat"]


LEAKAGE_TYPES: Tuple[str, ...] = ("type0", "type1", "type2")


@dataclass
class LeakageObservation:
    """What the adversary intercepted, plus the private data it corresponds to."""

    leakage_type: str
    gradients: List[np.ndarray]
    ground_truth: np.ndarray
    labels: np.ndarray
    batch_size: int


class GradientLeakageThreat:
    """Builds adversarial observations for a defense and attacks them."""

    def __init__(
        self,
        trainer: LocalTrainerBase,
        attack_config: Optional[AttackConfig] = None,
        compression_ratio: float = 0.0,
    ) -> None:
        self.trainer = trainer
        self.attack_config = attack_config if attack_config is not None else AttackConfig()
        #: gradient pruning applied to shared updates (communication-efficient FL)
        self.compression_ratio = float(compression_ratio)

    # ------------------------------------------------------------------
    # Observation construction
    # ------------------------------------------------------------------
    def _batch_gradient_observed_in_transit(
        self,
        global_weights: Sequence[np.ndarray],
        features: np.ndarray,
        labels: np.ndarray,
        round_index: int,
        rng: np.random.Generator,
        at_server: bool,
    ) -> List[np.ndarray]:
        """Per-client shared gradient as seen at the client (type 1) or server (type 0).

        Following the paper's Figure 1 setup, the type-0/1 attack targets the
        gradient shared after a local step over a small batch, which for the
        purposes of the attack equals the batch-averaged gradient of the
        global model (sanitised according to the defense under test).
        """
        trainer = self.trainer
        trainer.model.set_weights(list(global_weights))

        if isinstance(trainer, FedCDPTrainer):
            # Fed-CDP (and decay): every per-example gradient is already noisy
            # before it is averaged, at the client and hence also at the server.
            # The whole batch goes through the vectorized stacked pipeline.
            observed, _, _ = trainer.sanitized_stack_mean(features, labels, round_index, rng)
        else:
            observed, _ = trainer.compute_batch_gradient(features, labels)
            if isinstance(trainer, FedSDPTrainer):
                if trainer.server_side and not at_server:
                    # noise is only added at the server; the client-side (type 1)
                    # adversary sees the exact update
                    pass
                else:
                    observed = trainer.sanitize_update(list(observed), round_index, rng)
            elif isinstance(trainer, DSSGDTrainer):
                observed = select_top_fraction(list(observed), trainer.share_fraction)

        if self.compression_ratio > 0.0:
            observed = prune_update(observed, self.compression_ratio)
        return [np.asarray(layer, dtype=np.float64) for layer in observed]

    def observe(
        self,
        leakage_type: str,
        global_weights: Sequence[np.ndarray],
        features: np.ndarray,
        labels: np.ndarray,
        round_index: int = 0,
        rng: Optional[np.random.Generator] = None,
    ) -> LeakageObservation:
        """Construct the adversary's observation for the requested leakage type."""
        rng = rng if rng is not None else np.random.default_rng()
        leakage_type = leakage_type.lower()
        if leakage_type not in LEAKAGE_TYPES:
            raise ValueError(f"unknown leakage type {leakage_type!r}; expected one of {LEAKAGE_TYPES}")
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        if features.shape[0] != labels.shape[0] or features.shape[0] == 0:
            raise ValueError("features and labels must be non-empty and aligned")

        if leakage_type == "type2":
            observed = self.trainer.observed_per_example_gradient(
                global_weights, features[:1], labels[:1], round_index=round_index, rng=rng
            )
            if self.compression_ratio > 0.0:
                observed = prune_update(observed, self.compression_ratio)
            return LeakageObservation(
                leakage_type=leakage_type,
                gradients=[np.asarray(g, dtype=np.float64) for g in observed],
                ground_truth=features[0],
                labels=labels[:1],
                batch_size=1,
            )

        at_server = leakage_type == "type0"
        observed = self._batch_gradient_observed_in_transit(
            global_weights, features, labels, round_index, rng, at_server=at_server
        )
        return LeakageObservation(
            leakage_type=leakage_type,
            gradients=observed,
            ground_truth=features,
            labels=labels,
            batch_size=features.shape[0],
        )

    # ------------------------------------------------------------------
    # Attack execution
    # ------------------------------------------------------------------
    def attack(
        self,
        leakage_type: str,
        global_weights: Sequence[np.ndarray],
        features: np.ndarray,
        labels: np.ndarray,
        round_index: int = 0,
        rng: Optional[np.random.Generator] = None,
    ) -> AttackResult:
        """Observe the requested leakage surface and run the reconstruction attack."""
        rng = rng if rng is not None else np.random.default_rng()
        observation = self.observe(
            leakage_type, global_weights, features, labels, round_index=round_index, rng=rng
        )
        return MultiRestartReconstruction(self.trainer.model, self.attack_config).run(
            observation.gradients,
            np.shape(features)[1:],
            [rng],
            ground_truth=observation.ground_truth,
            labels=observation.labels,
            batch_size=observation.batch_size,
            global_weights=global_weights,
        )

    def attack_all_types(
        self,
        global_weights: Sequence[np.ndarray],
        features: np.ndarray,
        labels: np.ndarray,
        round_index: int = 0,
        rng: Optional[np.random.Generator] = None,
    ) -> Dict[str, AttackResult]:
        """Run all three leakage attacks against the same private batch."""
        rng = rng if rng is not None else np.random.default_rng()
        return {
            leakage_type: self.attack(
                leakage_type, global_weights, features, labels, round_index=round_index, rng=rng
            )
            for leakage_type in LEAKAGE_TYPES
        }
