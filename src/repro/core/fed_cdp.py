"""Fed-CDP: per-example client differential privacy (Algorithm 2).

Fed-CDP is the paper's contribution.  At every local iteration of every
selected client, the gradient of *each individual training example* is clipped
layer-by-layer to L2 norm ``C`` and perturbed with Gaussian noise
``N(0, sigma^2 C^2)`` **before** the batch average and the local SGD step.
Because sanitisation happens at the moment a per-example gradient exists, an
adversary reading gradients during local training (type-2 leakage) only ever
observes noisy gradients; the accumulated noise in the local update also
protects against type-0/1 interception of the shared round update.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.federated.config import FederatedConfig
from repro.nn import Sequential
from repro.nn.perexample import stack_to_example_lists
from repro.privacy.clipping import (
    ClippingPolicy,
    ConstantClipping,
    clip_gradients_per_layer,
    clip_noise_mean,
    clip_per_example_stack,  # noqa: F401  (patched by name by benchmarks/e2e/tracing.py)
    per_example_global_norms,
    per_example_layer_norms,
)
from repro.privacy.ledger import RoundCharge
from repro.privacy.mechanisms import GaussianMechanism, LocalStream, StepNoise

from .base import LocalTrainerBase

__all__ = ["FedCDPTrainer"]


class FedCDPTrainer(LocalTrainerBase):
    """Per-example clipping and noise injection during local training."""

    name = "fed_cdp"

    def __init__(
        self,
        model: Sequential,
        config: FederatedConfig,
        clipping_policy: Optional[ClippingPolicy] = None,
    ) -> None:
        super().__init__(model, config)
        self.clipping: ClippingPolicy = (
            clipping_policy if clipping_policy is not None else ConstantClipping(config.clipping_bound)
        )

    # ------------------------------------------------------------------
    # Algorithm 2, lines 6-15: per-example clip + noise, then batch average.
    # ------------------------------------------------------------------
    def sanitize_per_example_gradient(
        self,
        gradients: Sequence[np.ndarray],
        round_index: int,
        rng: np.random.Generator,
    ) -> List[np.ndarray]:
        """Clip one example's layer-wise gradients to C(t) and add Gaussian noise."""
        mechanism = self._mechanism(round_index)
        clipped = clip_gradients_per_layer(gradients, mechanism.sensitivity)
        return mechanism.add_noise_to_list(clipped, rng=rng)

    def _mechanism(self, round_index: int) -> GaussianMechanism:
        return GaussianMechanism(self.config.noise_scale, self.clipping.bound_for_round(round_index))

    def _step_noise(self, round_index: int) -> Optional[GaussianMechanism]:
        # the looped reference draws its noise itself, example by example
        return None if self.per_example_mode == "looped" else self._mechanism(round_index)

    def sanitized_stack_mean(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        round_index: int,
        noise: Optional[StepNoise],
    ) -> Tuple[List[np.ndarray], float, List[np.ndarray]]:
        """Batch mean of the clipped, noised per-example gradients of a batch.

        Vectorized equivalent of averaging :meth:`sanitize_per_example_gradient`
        over the examples: the per-example stack's layer norms come from one
        einsum per layer, and :func:`clip_noise_mean` clips, noises and
        averages it in one pass over the row blocks of the step's flat
        ``(B, total_params)`` draw, ``noise`` (``None`` at sigma = 0), which
        a :class:`LocalStream` makes in the looped path's order and may have
        drawn ahead on the noise thread.  Returns ``(mean_gradient,
        mean_loss, pre_clip_layer_norms)``; the norms feed the Figure-3
        raw-norm telemetry without a second pass.
        """
        bound = self.clipping.bound_for_round(round_index)
        stack, mean_loss = self.compute_per_example_gradient_stack(features, labels)
        layer_norms = per_example_layer_norms(stack)
        return clip_noise_mean(stack, layer_norms, bound, noise), mean_loss, layer_norms

    def sanitized_mean(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        round_index: int,
        rng: np.random.Generator,
    ) -> List[np.ndarray]:
        """:meth:`sanitized_stack_mean` of one batch, its noise drawn from ``rng``.

        The batch's draw is a one-step :class:`LocalStream` without index
        draws: what the type-0/1 and type-2 adversaries observe.
        """
        with LocalStream(self._mechanism(round_index), rng, 1, len(features), self._num_params()) as stream:
            _, noise = next(iter(stream))
            return self.sanitized_stack_mean(features, labels, round_index, noise)[0]

    def _sanitized_batch_gradient(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        round_index: int,
        rng: np.random.Generator,
        noise: Optional[StepNoise],
    ) -> Tuple[List[np.ndarray], float, float]:
        if self.per_example_mode == "looped":
            # True end-to-end reference: per-example Python-loop sanitisation,
            # exactly what the paper's per-example pipeline (and the seed
            # implementation) did.  Table III's paper-shape benchmark times
            # this path.
            stack, mean_loss = self.compute_per_example_gradient_stack(features, labels)
            per_example = stack_to_example_lists(stack)
            raw_norm = float(np.mean([self._global_norm(example) for example in per_example]))
            sanitized_examples = [
                self.sanitize_per_example_gradient(example, round_index, rng)
                for example in per_example
            ]
            averaged = [
                np.stack([example[layer] for example in sanitized_examples]).mean(axis=0)
                for layer in range(len(sanitized_examples[0]))
            ]
            return averaged, mean_loss, raw_norm
        averaged, mean_loss, layer_norms = self.sanitized_stack_mean(features, labels, round_index, noise)
        raw_norm = float(np.mean(per_example_global_norms(layer_norms=layer_norms)))
        return averaged, mean_loss, raw_norm

    def _postprocess_update(
        self, delta: List[np.ndarray], round_index: int, rng: np.random.Generator
    ) -> Tuple[List[np.ndarray], Dict[str, float]]:
        metadata = {
            "clipping_bound": self.clipping.bound_for_round(round_index),
            "noise_scale": self.config.noise_scale,
        }
        return delta, metadata

    # ------------------------------------------------------------------
    # Type-2 leakage surface: the adversary only ever sees sanitised
    # per-example gradients.
    # ------------------------------------------------------------------
    def observed_per_example_gradient(
        self,
        global_weights: Sequence[np.ndarray],
        features: np.ndarray,
        labels: np.ndarray,
        round_index: int = 0,
        *,
        rng: np.random.Generator,
    ) -> List[np.ndarray]:
        self.model.set_weights(list(global_weights))
        # the training path at B = 1: the mean over one row is the row
        return self.sanitized_mean(features[:1], labels[:1], round_index, rng)

    # ------------------------------------------------------------------
    # Privacy accounting: L subsampled-Gaussian invocations per round at the
    # instance level.  The default moments accountant charges them at the
    # equal-shard rate q = B * Kt / N (Section V); the heterogeneous ledger
    # charges each participating client at its realised q_k = B / n_k.
    # ------------------------------------------------------------------
    def round_privacy_charge(self, round_index: int) -> RoundCharge:
        del round_index
        return RoundCharge(
            level="instance",
            noise_multiplier=max(self.config.noise_scale, 1e-12),
            steps=self.config.effective_local_iterations,
        )

    def supports_instance_level_privacy(self) -> bool:
        """Fed-CDP provides both instance-level and (joint) client-level DP."""
        return True
