"""Local-trainer abstraction shared by all training methods.

A *local trainer* implements what one client does during a federated round:
starting from the broadcast global weights, run ``L`` local iterations of
batch size ``B`` over the client's shard, and produce the parameter update
``Delta W_i(t)`` that is shared with the server.  The paper's methods differ
only in how (and where) gradients are clipped and noised, so they are
implemented as subclasses of :class:`LocalTrainerBase`:

* :class:`repro.core.nonprivate.NonPrivateTrainer` — plain local SGD;
* :class:`repro.core.fed_sdp.FedSDPTrainer` — Algorithm 1, per-client noise;
* :class:`repro.core.fed_cdp.FedCDPTrainer` — Algorithm 2, per-example noise;
* :class:`repro.core.decay.FedCDPDecayTrainer` — Fed-CDP with decaying C;
* :class:`repro.core.dssgd.DSSGDTrainer` — selective parameter sharing baseline.

Besides ``train_client`` the base class defines the two *leakage surfaces*
used by the threat harness in :mod:`repro.attacks.threat`:

* :meth:`LocalTrainerBase.observed_per_example_gradient` — what a type-2
  adversary reads during local training (a single example's gradient, after
  whatever sanitisation the method applies at that point);
* :meth:`LocalTrainerBase.train_client` returning the shared update — what a
  type-0/1 adversary intercepts after local training completes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.autodiff import Tensor, grad
from repro.federated.config import FederatedConfig
from repro.nn import CrossEntropyLoss, Sequential
from repro.nn.perexample import per_example_gradients, per_example_gradients_looped
from repro.privacy.accountant import MomentsAccountant
from repro.privacy.clipping import global_l2_norm
from repro.privacy.ledger import RoundCharge

__all__ = ["LocalUpdate", "LocalTrainerBase"]


@dataclass
class LocalUpdate:
    """Result of one client's local training at one federated round."""

    #: per-layer parameter update ``W_i(t)_L - W(t)`` shared with the server
    delta: List[np.ndarray]
    #: the locally updated weights ``W_i(t)_L`` (used by FedAvg aggregation)
    local_weights: List[np.ndarray]
    #: number of examples in the client's shard
    num_examples: int
    #: mean training loss over the local iterations
    mean_loss: float
    #: mean pre-clipping global L2 norm of the per-iteration gradients
    mean_gradient_norm: float
    #: wall-clock milliseconds per local iteration (Table III metric)
    time_per_iteration_ms: float
    #: free-form per-method metadata (e.g. clipping bound used this round)
    metadata: Dict[str, float] = field(default_factory=dict)


class LocalTrainerBase:
    """Shared machinery: forward/backward passes and local SGD bookkeeping."""

    #: human-readable method name, overridden by subclasses
    name = "base"

    def __init__(self, model: Sequential, config: FederatedConfig) -> None:
        self.model = model
        self.config = config
        self.loss_fn = CrossEntropyLoss()
        #: Per-example gradient engine selector.  "auto" uses the
        #: batched-graph engine when the model is traceable and falls back to
        #: the looped reference otherwise; "looped" forces the
        #: one-backward-per-example reference path (timed by Table III and
        #: used by the equivalence tests).
        self.per_example_mode = "auto"

    # ------------------------------------------------------------------
    # Gradient computation helpers
    # ------------------------------------------------------------------
    def _loss_on_batch(self, features: np.ndarray, labels: np.ndarray) -> Tensor:
        logits = self.model(Tensor(features))
        return self.loss_fn(logits, labels)

    def compute_batch_gradient(
        self, features: np.ndarray, labels: np.ndarray
    ) -> Tuple[List[np.ndarray], float]:
        """Mean gradient of the loss over a batch; returns (gradients, loss value)."""
        params = self.model.parameters()
        loss = self._loss_on_batch(features, labels)
        gradients = grad(loss, params)
        return [g.numpy() for g in gradients], float(loss.item())

    def compute_per_example_gradient_stack(
        self, features: np.ndarray, labels: np.ndarray
    ) -> Tuple[List[np.ndarray], float]:
        """Stacked per-example gradients for a batch (Algorithm 2, lines 6-12).

        Returns one ``(B, *param_shape)`` array per model parameter plus the
        mean loss over the batch.  The hot path is the batched-graph engine of
        :mod:`repro.nn.perexample` (trace once, replay over the stacked
        batch); ``self.per_example_mode = "looped"`` forces the
        one-backward-per-example reference implementation, which ``"auto"``
        also uses for models the batched engine does not cover.
        """
        mode = self.per_example_mode
        if mode == "looped":
            return per_example_gradients_looped(self.model, features, labels)
        if mode != "auto":
            raise ValueError(f"unknown per_example_mode {mode!r}; expected 'auto' or 'looped'")
        return per_example_gradients(self.model, features, labels)

    # ------------------------------------------------------------------
    # Local training loop
    # ------------------------------------------------------------------
    def _local_iterations(self, dataset) -> int:
        """Number of local iterations ``L``, capped at ``ceil(N_i / B)`` as in the paper."""
        spec_iterations = self.config.effective_local_iterations
        batch = self.config.effective_batch_size
        upper = max(1, int(np.ceil(len(dataset) / batch)))
        return max(1, min(spec_iterations, upper))

    def train_client(
        self,
        dataset,
        global_weights: Sequence[np.ndarray],
        round_index: int,
        rng: np.random.Generator,
    ) -> LocalUpdate:
        """Run one client's local training for this round.

        Subclasses implement :meth:`_sanitized_batch_gradient` (how a batch's
        descent direction is produced) and optionally
        :meth:`_postprocess_update` (what happens to the finished update
        before it is shared).
        """
        self.model.set_weights(list(global_weights))
        batch_size = self.config.effective_batch_size
        iterations = self._local_iterations(dataset)
        learning_rate = self.config.learning_rate

        losses: List[float] = []
        gradient_norms: List[float] = []
        start = time.perf_counter()
        for features, labels in dataset.batches(
            batch_size, rng=rng, num_batches=iterations, with_replacement=True
        ):
            step_gradient, loss_value, raw_norm = self._sanitized_batch_gradient(
                features, labels, round_index, rng
            )
            losses.append(loss_value)
            gradient_norms.append(raw_norm)
            params = self.model.parameters()
            for param, gradient in zip(params, step_gradient):
                param.data = param.data - learning_rate * gradient
        elapsed_ms = (time.perf_counter() - start) * 1000.0

        local_weights = self.model.get_weights()
        delta = [local - global_ for local, global_ in zip(local_weights, global_weights)]
        delta, metadata = self._postprocess_update(delta, round_index, rng)
        return LocalUpdate(
            delta=delta,
            local_weights=[g + d for g, d in zip(global_weights, delta)],
            num_examples=len(dataset),
            mean_loss=float(np.mean(losses)) if losses else float("nan"),
            mean_gradient_norm=float(np.mean(gradient_norms)) if gradient_norms else 0.0,
            time_per_iteration_ms=elapsed_ms / max(iterations, 1),
            metadata=metadata,
        )

    # ------------------------------------------------------------------
    # Hooks overridden by the concrete methods
    # ------------------------------------------------------------------
    def _sanitized_batch_gradient(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        round_index: int,
        rng: np.random.Generator,
    ) -> Tuple[List[np.ndarray], float, float]:
        """Produce the descent direction for one local batch.

        Returns ``(gradients, loss, raw_gradient_norm)`` where
        ``raw_gradient_norm`` is the pre-sanitisation global L2 norm (the
        quantity plotted in Figure 3).
        """
        raise NotImplementedError

    def _postprocess_update(
        self, delta: List[np.ndarray], round_index: int, rng: np.random.Generator
    ) -> Tuple[List[np.ndarray], Dict[str, float]]:
        """Transform the finished local update before sharing (identity by default)."""
        return delta, {}

    # ------------------------------------------------------------------
    # Leakage surfaces used by the attack harness
    # ------------------------------------------------------------------
    def observed_per_example_gradient(
        self,
        global_weights: Sequence[np.ndarray],
        features: np.ndarray,
        labels: np.ndarray,
        round_index: int = 0,
        rng: Optional[np.random.Generator] = None,
    ) -> List[np.ndarray]:
        """Gradient of a single example as a type-2 adversary would observe it.

        The default (non-private) behaviour returns the clean gradient;
        methods that sanitise per-example gradients *before* they are stored
        (Fed-CDP and its decay variant) override this to return the sanitised
        version, which is what makes them resilient to type-2 leakage.
        """
        self.model.set_weights(list(global_weights))
        stack, _ = self.compute_per_example_gradient_stack(features[:1], labels[:1])
        return [layer[0] for layer in stack]

    # ------------------------------------------------------------------
    # Privacy accounting
    # ------------------------------------------------------------------
    def round_privacy_charge(self, round_index: int) -> Optional[RoundCharge]:
        """Declarative description of what one round of this method releases.

        ``None`` (the default) marks a method with no DP guarantee; private
        methods return a :class:`~repro.privacy.ledger.RoundCharge` that any
        registered accountant (``moments``, ``heterogeneous``) knows how to
        interpret against its own sampling model.
        """
        del round_index
        return None

    def accumulate_privacy(self, accountant: MomentsAccountant, round_index: int) -> None:
        """Record one round's spending on a standalone moments accountant.

        Convenience wrapper over :meth:`round_privacy_charge` using the
        config's equal-shard rates — the paper's accounting model.  The
        simulation itself goes through ``accountant.charge_round`` so that
        participant-aware accountants see the realised cohort.
        """
        charge = self.round_privacy_charge(round_index)
        if charge is None:
            return
        rate = (
            self.config.instance_sampling_rate
            if charge.level == "instance"
            else self.config.client_sampling_rate
        )
        accountant.accumulate(
            sampling_rate=rate,
            noise_multiplier=charge.noise_multiplier,
            steps=charge.steps,
        )

    def supports_instance_level_privacy(self) -> bool:
        """Whether the method provides a per-example (instance-level) DP guarantee."""
        return False

    # ------------------------------------------------------------------
    # Small shared utilities
    # ------------------------------------------------------------------
    @staticmethod
    def _global_norm(gradients: Sequence[np.ndarray]) -> float:
        return global_l2_norm(gradients)
