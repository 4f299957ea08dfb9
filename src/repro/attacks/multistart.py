"""Batched multi-restart gradient reconstruction (the in-loop attack engine).

The reconstruction attack of :mod:`repro.attacks.reconstruction` is sensitive
to its dummy-seed initialisation (Section III of the paper), so a serious
adversary restarts it from several seeds and keeps the best reconstruction.
Run naively, ``R`` restarts cost ``R`` full L-BFGS optimisations — far too
slow to execute inside every attacked round of a federated simulation.

This module runs all restarts as **one batched optimisation** instead: the
``R`` dummy inputs are stacked into a single ``(R, *example_shape)`` batch
and optimised jointly under the separable objective

    J(x_1, ..., x_R) = sum_r  J(x_r)

where ``J(x_r)`` is restart ``r``'s gradient-matching loss against the leaked
target (any objective of :mod:`repro.attacks.objectives`, including the
cosine loss and the total-variation prior).  The engine is the batched-graph
transform of :mod:`repro.autodiff.batched`: the *single-restart* objective —
forward pass, ``create_graph=True`` parameter gradients, matching loss and
its input gradient — is traced once per attack, and every L-BFGS evaluation
replays that trace over the stacked restarts in one batched pass.  Because
every batch rule maps restarts independently, the restarts never interact:
their gradient blocks are exactly what ``R`` standalone optimisations would
compute, and each restart's loss trajectory matches a single-restart run of
the same objective.

This replaces the PR-5 dense-rule construction, which hand-assembled
per-restart L2 losses from ``Dense``-layer outer products and therefore
excluded conv models, the cosine objective and the TV prior — all of which
now run vectorized.  The looped evaluation of the same joint objective is
kept as the fallback for models outside the traceable family
(:func:`repro.nn.perexample.is_traceable`) and is regression-tested against
the batched path.  Every supported objective and prior is composed from
replayable primitives, so the model alone decides which path runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize

from repro.autodiff import BatchedGraph, Tensor, grad, logsumexp, mul, tracing, tsum
from repro.nn.models import Sequential
from repro.nn.perexample import is_traceable

from .metrics import psnr as compute_psnr
from .metrics import reconstruction_distance
from .objectives import build_matching_loss
from .reconstruction import AttackConfig, GradientReconstructionAttack
from .seeds import make_seed

__all__ = [
    "MultiRestartResult",
    "MultiRestartReconstruction",
]


@dataclass
class MultiRestartResult:
    """Outcome of one batched multi-restart reconstruction."""

    #: whether any restart's matching loss reached the success threshold
    succeeded: bool
    #: joint optimiser iterations performed before success / give-up
    num_iterations: int
    #: best matching loss across restarts (the winning restart's loss)
    final_loss: float
    #: RMSE between the winning reconstruction and the private ground truth
    reconstruction_distance: float
    #: PSNR (dB) of the winning reconstruction over the config's value range
    psnr: float
    #: the winning restart's reconstruction, shaped like one example
    reconstruction: np.ndarray
    #: index of the restart that produced the best matching loss
    best_restart: int
    #: number of restarts optimised jointly
    restarts: int
    #: best matching loss reached by each restart
    per_restart_losses: List[float] = field(default_factory=list)
    #: True when the batched-graph path ran (False = looped fallback)
    vectorized: bool = False
    #: label(s) the adversary used
    labels_used: Optional[np.ndarray] = None


class MultiRestartReconstruction:
    """Reconstruct one private example from R dummy seeds in one optimisation."""

    def __init__(self, model: Sequential, config: Optional[AttackConfig] = None) -> None:
        self.model = model
        self.config = config if config is not None else AttackConfig()
        # the looped fallback reuses the single-restart objective machinery
        self._single = GradientReconstructionAttack(model, self.config)
        # single-slot trace cache: (key, BatchedGraph, num_classes, pinned
        # target arrays).  The targets are baked into the graph by reference,
        # so the key includes their identities and the cache pins them alive.
        self._trace: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Batched-graph objective: trace once, replay per L-BFGS evaluation
    # ------------------------------------------------------------------
    def _restart_trace(
        self, example_shape: Tuple[int, ...], target_gradients: Sequence[np.ndarray]
    ) -> Tuple[BatchedGraph, int]:
        params = self.model.parameters()
        key = (
            tuple(example_shape),
            tuple(id(g) for g in target_gradients),
            tuple(id(p) for p in params),
        )
        if self._trace is not None and self._trace[0] == key:
            return self._trace[1], self._trace[2]

        dummy = Tensor(np.zeros((1,) + tuple(example_shape)), requires_grad=True)
        with tracing():
            logits = self.model(dummy)
            num_classes = logits.shape[-1]
            targets = Tensor(np.zeros((1, num_classes)))
            # single-example cross-entropy with the one-hot label as a
            # replayable leaf (sum == mean over a batch of one)
            loss = tsum(logsumexp(logits, axis=-1) - tsum(mul(logits, targets), axis=-1))
            dummy_gradients = grad(loss, params, create_graph=True)
            matching = build_matching_loss(
                self.config.objective,
                dummy_gradients,
                target_gradients,
                dummy,
                tv_weight=self.config.tv_weight,
            )
            (input_gradient,) = grad(matching, [dummy], create_graph=True)
        graph = BatchedGraph(
            [matching, input_gradient], {"dummy": dummy, "targets": targets}, params=params
        )
        self._trace = (key, graph, num_classes, list(target_gradients))
        return graph, num_classes

    def _objective_vectorized(
        self,
        flat: np.ndarray,
        batch_shape: Tuple[int, ...],
        labels: np.ndarray,
        target_gradients: Sequence[np.ndarray],
    ) -> Tuple[float, np.ndarray, np.ndarray]:
        restarts = batch_shape[0]
        example_shape = tuple(batch_shape[1:])
        graph, num_classes = self._restart_trace(example_shape, target_gradients)
        onehot = np.zeros((restarts, num_classes), dtype=np.float64)
        onehot[np.arange(restarts), np.asarray(labels).reshape(-1)] = 1.0
        losses, input_gradient = graph.replay(
            {
                "dummy": np.asarray(flat, dtype=np.float64).reshape((restarts, 1) + example_shape),
                "targets": onehot[:, None],
            }
        )
        per_restart = np.asarray(losses, dtype=np.float64).reshape(restarts)
        return (
            float(per_restart.sum()),
            np.asarray(input_gradient, dtype=np.float64).reshape(-1),
            per_restart,
        )

    def _objective_looped(
        self,
        flat: np.ndarray,
        batch_shape: Tuple[int, ...],
        labels: np.ndarray,
        target_gradients: Sequence[np.ndarray],
    ) -> Tuple[float, np.ndarray, np.ndarray]:
        restarts = batch_shape[0]
        example_shape = (1,) + tuple(batch_shape[1:])
        flats = flat.reshape(restarts, -1)
        per_restart = np.empty(restarts, dtype=np.float64)
        gradients = []
        for restart in range(restarts):
            value, gradient = self._single._gradient_matching_loss_and_grad(
                flats[restart], example_shape, labels[restart : restart + 1], target_gradients
            )
            per_restart[restart] = value
            gradients.append(gradient)
        return float(per_restart.sum()), np.concatenate(gradients), per_restart

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def run(
        self,
        target_gradients: Sequence[np.ndarray],
        example_shape: Tuple[int, ...],
        restart_seeds: Sequence[np.random.SeedSequence],
        ground_truth: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
        global_weights: Optional[Sequence[np.ndarray]] = None,
    ) -> MultiRestartResult:
        """Run the batched multi-restart attack against one leaked gradient.

        ``restart_seeds`` supplies one independent ``SeedSequence`` per dummy
        restart (the in-loop scheduler keys them on
        ``(config seed, attack domain, round, client, restart)``), which is
        the only randomness the attack consumes.
        """
        config = self.config
        if not restart_seeds:
            raise ValueError("at least one restart seed is required")
        if labels is None:
            raise ValueError("the in-loop attack requires the target label")
        if global_weights is not None:
            self.model.set_weights(list(global_weights))

        num_params = len(self.model.parameters())
        if len(target_gradients) != num_params:
            raise ValueError(
                f"expected {num_params} target gradient blocks (one per model "
                f"parameter), got {len(target_gradients)}"
            )

        restarts = len(restart_seeds)
        example_shape = tuple(int(s) for s in example_shape)
        batch_shape = (restarts,) + example_shape
        labels = np.broadcast_to(np.asarray(labels, dtype=np.int64).reshape(-1), (restarts,))
        target_gradients = [np.asarray(g, dtype=np.float64) for g in target_gradients]

        dummies = np.stack(
            [
                make_seed(config.seed_kind, example_shape, rng=np.random.default_rng(seed))
                for seed in restart_seeds
            ]
        )
        low, high = config.value_range
        bounds = optimize.Bounds(low, high)

        vectorized = is_traceable(self.model)
        evaluate = self._objective_vectorized if vectorized else self._objective_looped

        if config.objective == "l2":
            target_squared_norm = float(sum(np.sum(np.square(g)) for g in target_gradients))
            effective_threshold = max(
                config.success_loss_threshold,
                config.success_relative_threshold * target_squared_norm,
            )
        else:
            effective_threshold = config.success_loss_threshold

        best_losses = np.full(restarts, np.inf)
        best_flats = dummies.reshape(restarts, -1).copy()
        last_losses = np.full(restarts, np.inf)
        state = {"iterations": 0}

        def objective(flat: np.ndarray) -> Tuple[float, np.ndarray]:
            total, gradient, per_restart = evaluate(
                flat, batch_shape, labels, target_gradients
            )
            last_losses[:] = per_restart
            improved = per_restart < best_losses
            if improved.any():
                best_losses[improved] = per_restart[improved]
                best_flats[improved] = flat.reshape(restarts, -1)[improved]
            return total, gradient

        def callback(flat: np.ndarray) -> None:
            state["iterations"] += 1
            if best_losses.min() < effective_threshold:
                raise StopIteration

        try:
            optimize.minimize(
                objective,
                dummies.reshape(-1),
                jac=True,
                method="L-BFGS-B",
                bounds=bounds,
                callback=callback,
                options={"maxiter": config.max_iterations, "ftol": 0.0, "gtol": 1e-12},
            )
        except StopIteration:
            pass

        finals = np.where(np.isfinite(best_losses), best_losses, last_losses)
        best_restart = int(np.argmin(finals))
        final_loss = float(finals[best_restart])
        iterations = state["iterations"] if state["iterations"] > 0 else config.max_iterations
        reconstruction = np.clip(best_flats[best_restart].reshape(example_shape), low, high)

        distance = float("nan")
        psnr_value = float("nan")
        if ground_truth is not None:
            truth = np.asarray(ground_truth, dtype=np.float64).reshape(example_shape)
            distance = reconstruction_distance(reconstruction, truth)
            psnr_value = compute_psnr(reconstruction, truth, data_range=high - low)

        return MultiRestartResult(
            succeeded=bool(final_loss < effective_threshold),
            num_iterations=int(min(iterations, config.max_iterations)),
            final_loss=final_loss,
            reconstruction_distance=distance,
            psnr=psnr_value,
            reconstruction=reconstruction,
            best_restart=best_restart,
            restarts=restarts,
            per_restart_losses=[float(v) for v in finals],
            vectorized=vectorized,
            labels_used=np.array(labels, copy=True),
        )
