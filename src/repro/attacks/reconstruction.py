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

This module holds what describes one attack: its :class:`AttackConfig`, its
:class:`AttackResult` and the iDLG label inference.  The one engine that runs
it is :class:`repro.attacks.multistart.MultiRestartReconstruction`: the
offline threat harness (:mod:`repro.attacks.threat`) runs it with a single
restart over the leaked batch, the in-loop adversary with several restarts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["AttackConfig", "AttackResult", "infer_label_from_gradients"]


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
    """Outcome of one reconstruction attack (over one or more restarts)."""

    #: whether the best restart's matching loss reached the success threshold
    succeeded: bool
    #: optimiser iterations performed before success / give-up
    num_iterations: int
    #: best matching loss across restarts (the winning restart's loss)
    final_loss: float
    #: RMSE between the winning reconstruction and the private ground truth
    reconstruction_distance: float
    #: the winning restart's reconstruction, shaped like one example (batch
    #: of one) or ``(batch_size, *example_shape)``
    reconstruction: np.ndarray
    #: lowest restart matching loss at each attack iteration's iterate
    loss_history: List[float] = field(default_factory=list)
    #: label(s) used by the attacker (ground truth or inferred)
    labels_used: Optional[np.ndarray] = None
    #: PSNR (dB) of the winning reconstruction over the config's value range
    psnr: float = float("nan")
    #: index of the restart that produced the best matching loss
    best_restart: int = 0
    #: number of restarts optimised jointly
    restarts: int = 1
    #: best matching loss reached by each restart
    per_restart_losses: List[float] = field(default_factory=list)
    #: True when the batched-graph path ran (False = looped fallback)
    vectorized: bool = False


def infer_label_from_gradients(target_gradients: Sequence[np.ndarray]) -> int:
    """Single-example label inference from the last layer's bias gradient.

    For softmax cross-entropy on a single example the gradient of the final
    bias is ``p - onehot(y)``: exactly one entry is negative, and it marks the
    true class (the iDLG observation).  The last gradient block is taken to be
    that bias gradient, as it is for every model in :mod:`repro.nn`; there is
    no fallback for a model whose last parameter is not the output bias.
    """
    last = np.asarray(target_gradients[-1], dtype=np.float64).reshape(-1)
    return int(np.argmin(last))
