"""Gradient reconstruction attack (client privacy leakage / deep leakage from gradients).

The attack follows the five-step schema of Figure 1a in the paper:

1. initialise a dummy input (the *attack seed*) with the same shape as the
   private training data;
2. feed it through the client's local model;
3. obtain the dummy input's gradients by backpropagation;
4. compute the L2 distance between the dummy gradients and the leaked
   gradients stolen from the client;
5. update the dummy input to minimise that distance with an L-BFGS optimizer,
   iterating until a maximum number of attack iterations ``T`` (300 by
   default) or until the gradient-matching loss drops below a success
   threshold.

The gradient of the matching loss with respect to the dummy input is computed
analytically with the double-backprop support of :mod:`repro.autodiff`
(``create_graph=True``), and handed to ``scipy.optimize``'s L-BFGS-B — the
same optimizer family the paper uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize

from repro.autodiff import Tensor, grad
from repro.nn import CrossEntropyLoss, Sequential

from .metrics import reconstruction_distance
from .seeds import make_seed

__all__ = ["AttackConfig", "AttackResult", "GradientReconstructionAttack", "infer_label_from_gradients"]


@dataclass
class AttackConfig:
    """Tunable parameters of the reconstruction attack (Figure 1a)."""

    #: maximum number of attack iterations ``T`` (the paper uses 300)
    max_iterations: int = 300
    #: gradient-matching loss below which the attack is declared successful
    success_loss_threshold: float = 1e-4
    #: success is also declared when the matching loss drops below this
    #: fraction of the leaked gradient's squared L2 norm (scale-invariant
    #: criterion; sanitised gradients cannot be matched this closely)
    success_relative_threshold: float = 1e-3
    #: attack-seed initialization kind (the paper uses ``patterned``)
    seed_kind: str = "patterned"
    #: clamp the reconstruction into this value range (images live in [0, 1])
    value_range: Tuple[float, float] = (0.0, 1.0)
    #: whether the adversary knows the true label (otherwise inferred)
    label_known: bool = True
    #: gradient-matching objective: ``"l2"`` (the paper / DLG) or ``"cosine"``
    #: (Geiping et al., the paper's reference [7])
    objective: str = "l2"
    #: weight of the total-variation smoothness prior on image reconstructions
    tv_weight: float = 0.0

    def __post_init__(self) -> None:
        from .objectives import OBJECTIVE_KINDS

        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if self.success_loss_threshold <= 0:
            raise ValueError("success_loss_threshold must be positive")
        if self.success_relative_threshold <= 0:
            raise ValueError("success_relative_threshold must be positive")
        if self.value_range[0] >= self.value_range[1]:
            raise ValueError("value_range must be an increasing pair")
        if self.objective not in OBJECTIVE_KINDS:
            raise ValueError(f"unknown objective {self.objective!r}; expected one of {OBJECTIVE_KINDS}")
        if self.tv_weight < 0:
            raise ValueError("tv_weight must be non-negative")


@dataclass
class AttackResult:
    """Outcome of one reconstruction attack."""

    #: whether the gradient-matching loss reached the success threshold
    succeeded: bool
    #: number of attack iterations performed before success / give-up
    num_iterations: int
    #: final gradient-matching loss
    final_loss: float
    #: RMSE between the reconstruction and the private ground truth
    reconstruction_distance: float
    #: the reconstructed input(s)
    reconstruction: np.ndarray
    #: gradient-matching loss after each attack iteration
    loss_history: List[float] = field(default_factory=list)
    #: label(s) used by the attacker (ground truth or inferred)
    labels_used: Optional[np.ndarray] = None


def infer_label_from_gradients(target_gradients: Sequence[np.ndarray], model: Sequential) -> int:
    """Single-example label inference from the last layer's bias gradient.

    For softmax cross-entropy on a single example the gradient of the final
    bias is ``p - onehot(y)``: exactly one entry is negative, and it marks the
    true class (the iDLG observation).  Falls back to the most-negative entry
    of the last gradient block when no bias gradient is available.
    """
    last = np.asarray(target_gradients[-1], dtype=np.float64).reshape(-1)
    return int(np.argmin(last))


class GradientReconstructionAttack:
    """Reconstruct private inputs from leaked gradients of a known model."""

    def __init__(
        self,
        model: Sequential,
        config: Optional[AttackConfig] = None,
    ) -> None:
        self.model = model
        self.config = config if config is not None else AttackConfig()
        self._loss_fn = CrossEntropyLoss()

    # ------------------------------------------------------------------
    # Attack objective
    # ------------------------------------------------------------------
    def _gradient_matching_loss_and_grad(
        self,
        dummy_flat: np.ndarray,
        input_shape: Tuple[int, ...],
        labels: np.ndarray,
        target_gradients: Sequence[np.ndarray],
    ) -> Tuple[float, np.ndarray]:
        """Value and input-gradient of the configured gradient-matching objective."""
        from .objectives import build_matching_loss

        params = self.model.parameters()
        dummy = Tensor(dummy_flat.reshape(input_shape), requires_grad=True)
        logits = self.model(dummy)
        loss = self._loss_fn(logits, labels)
        dummy_gradients = grad(loss, params, create_graph=True)
        matching = build_matching_loss(
            self.config.objective, dummy_gradients, target_gradients, dummy, tv_weight=self.config.tv_weight
        )
        (input_gradient,) = grad(matching, [dummy])
        return float(matching.item()), input_gradient.numpy().reshape(-1)

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def run(
        self,
        target_gradients: Sequence[np.ndarray],
        example_shape: Tuple[int, ...],
        ground_truth: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
        batch_size: int = 1,
        global_weights: Optional[Sequence[np.ndarray]] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> AttackResult:
        """Run the reconstruction attack against a leaked gradient.

        Parameters
        ----------
        target_gradients:
            The leaked per-layer gradients (single example for a type-2
            attack, batch-averaged for type-0/1 attacks).
        example_shape:
            Shape of one private example, e.g. ``(1, 28, 28)`` or ``(105,)``.
        ground_truth:
            Optional private input(s), used only to report the reconstruction
            distance; the attack itself never reads it.
        labels:
            True labels when the adversary knows them
            (``config.label_known``); otherwise inferred from the gradients.
        batch_size:
            Number of examples to reconstruct jointly (the paper's type-0/1
            attack reconstructs a batch of 3).
        global_weights:
            Model weights at the moment of the leak; when given, loaded into
            the model before the attack (the adversary knows the model).
        rng:
            Random generator for the attack seed.
        """
        rng = rng if rng is not None else np.random.default_rng()
        config = self.config
        if global_weights is not None:
            self.model.set_weights(list(global_weights))

        input_shape = (batch_size,) + tuple(int(s) for s in example_shape)
        if labels is None or not config.label_known:
            inferred = infer_label_from_gradients(target_gradients, self.model)
            labels = np.full(batch_size, inferred, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        if labels.shape[0] != batch_size:
            raise ValueError(f"expected {batch_size} labels, got {labels.shape[0]}")

        seed = make_seed(config.seed_kind, input_shape, rng=rng)
        low, high = config.value_range
        bounds = optimize.Bounds(low, high)

        if config.objective == "l2":
            # Scale-aware success criterion: the loss is compared against the
            # leaked gradient's own squared norm.
            target_squared_norm = float(
                sum(np.sum(np.square(np.asarray(g, dtype=np.float64))) for g in target_gradients)
            )
            effective_threshold = max(
                config.success_loss_threshold,
                config.success_relative_threshold * target_squared_norm,
            )
        else:
            # The cosine objective is already scale-invariant (range [0, 2]).
            effective_threshold = config.success_loss_threshold

        loss_history: List[float] = []
        state = {
            "best_loss": float("inf"),
            "best_flat": seed.reshape(-1).copy(),
            "last_loss": float("inf"),
            "iterations": 0,
        }

        def objective(flat: np.ndarray) -> Tuple[float, np.ndarray]:
            value, gradient = self._gradient_matching_loss_and_grad(
                flat, input_shape, labels, target_gradients
            )
            state["last_loss"] = value
            if value < state["best_loss"]:
                state["best_loss"] = value
                state["best_flat"] = np.array(flat, copy=True)
            return value, gradient

        def callback(flat: np.ndarray) -> None:
            state["iterations"] += 1
            loss_history.append(state["last_loss"])
            if state["best_loss"] < effective_threshold:
                # Early termination once the reconstruction matches the leaked
                # gradients; supported natively by scipy >= 1.11 and caught
                # below for older releases.
                raise StopIteration

        try:
            optimize.minimize(
                objective,
                seed.reshape(-1),
                jac=True,
                method="L-BFGS-B",
                bounds=bounds,
                callback=callback,
                options={"maxiter": config.max_iterations, "ftol": 0.0, "gtol": 1e-12},
            )
        except StopIteration:
            pass
        final_flat = state["best_flat"]
        final_loss = state["best_loss"] if np.isfinite(state["best_loss"]) else state["last_loss"]
        iterations = state["iterations"] if state["iterations"] > 0 else config.max_iterations
        succeeded = final_loss < effective_threshold

        reconstruction = np.clip(final_flat.reshape(input_shape), low, high)
        if batch_size == 1:
            reconstruction_out = reconstruction[0]
        else:
            reconstruction_out = reconstruction

        distance = float("nan")
        if ground_truth is not None:
            truth = np.asarray(ground_truth, dtype=np.float64)
            if truth.shape == reconstruction_out.shape:
                distance = reconstruction_distance(reconstruction_out, truth)
            else:
                distance = reconstruction_distance(reconstruction.reshape(truth.shape), truth)

        return AttackResult(
            succeeded=bool(succeeded),
            num_iterations=int(min(iterations, config.max_iterations)),
            final_loss=float(final_loss),
            reconstruction_distance=distance,
            reconstruction=reconstruction_out,
            loss_history=loss_history,
            labels_used=labels,
        )
