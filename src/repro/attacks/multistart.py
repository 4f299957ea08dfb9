"""Batched multi-restart gradient reconstruction: the one attack engine.

The reconstruction attack described in :mod:`repro.attacks.reconstruction` is
sensitive to its dummy-seed initialisation (Section III of the paper), so a
serious adversary restarts it from several seeds and keeps the best
reconstruction.  Run naively, ``R`` restarts cost ``R`` full L-BFGS
optimisations — far too slow to execute inside every attacked round of a
federated simulation.

This module runs all restarts as **one batched optimisation** instead: the
``R`` dummy inputs — each a batch of ``batch_size`` examples — are stacked
into a single ``(R, batch_size, *example_shape)`` array and optimised jointly
under the separable objective

    J(x_1, ..., x_R) = sum_r  J(x_r)

where ``J(x_r)`` is restart ``r``'s gradient-matching loss against the leaked
target (any objective of :mod:`repro.attacks.objectives`, including the
cosine loss and the total-variation prior).  The engine is the batched-graph
transform of :mod:`repro.autodiff.batched`: the *single-restart* objective —
forward pass, ``create_graph=True`` parameter gradients (of the mean
cross-entropy over the restart's batch), matching loss and its input
gradient — is traced once per attack, and every L-BFGS evaluation replays
that trace over the stacked restarts in one batched pass.  Because every
batch rule maps restarts independently, the restarts never interact: their
gradient blocks are exactly what ``R`` standalone optimisations would
compute, and each restart's loss trajectory matches a single-restart run of
the same objective.

Both attack settings run here.  The offline threat harness
(:mod:`repro.attacks.threat`: Table VII, Figures 1 and 4, the ablations)
runs one restart over the leaked batch — a batch of 3 for the type-0/1
attack, of 1 for type-2 — and the in-loop adversary
(:mod:`repro.attacks.schedule`) runs ``attack_seeds`` restarts of one
example.  The eager evaluation of the same joint objective, one restart at a
time, is kept as the fallback for models outside the traceable family
(:func:`repro.nn.perexample.is_traceable`) and is regression-tested against
the batched path.  Every supported objective and prior is composed from
replayable primitives, so the model alone decides which path runs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize

from repro.autodiff import BatchedGraph, Tensor, grad, logsumexp, mean, mul, tracing, tsum
from repro.nn import CrossEntropyLoss
from repro.nn.models import Sequential
from repro.nn.perexample import is_traceable

from .metrics import psnr as compute_psnr
from .metrics import reconstruction_distance
from .objectives import build_matching_loss
from .reconstruction import AttackConfig, AttackResult, infer_label_from_gradients
from .seeds import make_seed

__all__ = ["MultiRestartReconstruction"]


class MultiRestartReconstruction:
    """Reconstruct a private batch from R dummy seeds in one optimisation."""

    def __init__(self, model: Sequential, config: Optional[AttackConfig] = None) -> None:
        self.model = model
        self.config = config if config is not None else AttackConfig()
        self._loss_fn = CrossEntropyLoss()
        # single-slot trace cache: (key, BatchedGraph, num_classes, pinned
        # target arrays).  The targets are baked into the graph by reference,
        # so the key includes their identities and the cache pins them alive.
        self._trace: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Batched-graph objective: trace once, replay per L-BFGS evaluation
    # ------------------------------------------------------------------
    def _restart_trace(
        self, input_shape: Tuple[int, ...], target_gradients: Sequence[np.ndarray]
    ) -> Tuple[BatchedGraph, int]:
        params = self.model.parameters()
        key = (
            tuple(input_shape),
            tuple(id(g) for g in target_gradients),
            tuple(id(p) for p in params),
        )
        if self._trace is not None and self._trace[0] == key:
            return self._trace[1], self._trace[2]

        batch_size = input_shape[0]
        dummy = Tensor(np.zeros(input_shape), requires_grad=True)
        with tracing():
            logits = self.model(dummy)
            num_classes = logits.shape[-1]
            targets = Tensor(np.zeros((batch_size, num_classes)))
            # cross-entropy with the one-hot labels as a replayable leaf; a
            # batch of one takes the sum, which equals its mean
            per_example = logsumexp(logits, axis=-1) - tsum(mul(logits, targets), axis=-1)
            loss = tsum(per_example) if batch_size == 1 else mean(per_example)
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
        restarts: int,
        input_shape: Tuple[int, ...],
        labels: np.ndarray,
        target_gradients: Sequence[np.ndarray],
    ) -> Tuple[float, np.ndarray, np.ndarray]:
        graph, num_classes = self._restart_trace(input_shape, target_gradients)
        onehot = np.zeros((restarts, input_shape[0], num_classes), dtype=np.float64)
        onehot[:, np.arange(input_shape[0]), labels] = 1.0
        losses, input_gradient = graph.replay(
            {
                "dummy": np.asarray(flat, dtype=np.float64).reshape((restarts,) + input_shape),
                "targets": onehot,
            }
        )
        per_restart = np.asarray(losses, dtype=np.float64).reshape(restarts)
        return (
            float(per_restart.sum()),
            np.asarray(input_gradient, dtype=np.float64).reshape(-1),
            per_restart,
        )

    # ------------------------------------------------------------------
    # Looped fallback: the eager objective, one restart at a time
    # ------------------------------------------------------------------
    def _gradient_matching_loss_and_grad(
        self,
        dummy_flat: np.ndarray,
        input_shape: Tuple[int, ...],
        labels: np.ndarray,
        target_gradients: Sequence[np.ndarray],
    ) -> Tuple[float, np.ndarray]:
        """Value and input-gradient of the configured gradient-matching objective."""
        params = self.model.parameters()
        dummy = Tensor(dummy_flat.reshape(input_shape), requires_grad=True)
        loss = self._loss_fn(self.model(dummy), labels)
        dummy_gradients = grad(loss, params, create_graph=True)
        matching = build_matching_loss(
            self.config.objective, dummy_gradients, target_gradients, dummy, tv_weight=self.config.tv_weight
        )
        (input_gradient,) = grad(matching, [dummy])
        return float(matching.item()), input_gradient.numpy().reshape(-1)

    def _objective_looped(
        self,
        flat: np.ndarray,
        restarts: int,
        input_shape: Tuple[int, ...],
        labels: np.ndarray,
        target_gradients: Sequence[np.ndarray],
    ) -> Tuple[float, np.ndarray, np.ndarray]:
        flats = flat.reshape(restarts, -1)
        per_restart = np.empty(restarts, dtype=np.float64)
        gradients = []
        for restart in range(restarts):
            value, gradient = self._gradient_matching_loss_and_grad(
                flats[restart], input_shape, labels, target_gradients
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
        restart_rngs: Sequence[np.random.Generator],
        ground_truth: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
        batch_size: int = 1,
        global_weights: Optional[Sequence[np.ndarray]] = None,
    ) -> AttackResult:
        """Run the batched multi-restart attack against one leaked gradient.

        Parameters
        ----------
        target_gradients:
            The leaked per-layer gradients (single example for a type-2
            attack, batch-averaged for type-0/1 attacks).
        example_shape:
            Shape of one private example, e.g. ``(1, 28, 28)`` or ``(105,)``.
        restart_rngs:
            One generator per dummy restart; restart ``r``'s attack seed is
            drawn from ``restart_rngs[r]``, which is the only randomness the
            attack consumes.  The in-loop scheduler passes a fresh generator
            per restart keyed on ``(config seed, attack domain, round,
            client, restart)``; the offline harness passes its own ``rng``.
        ground_truth:
            Optional private input(s), used only to report the reconstruction
            distance and PSNR; the attack itself never reads it.
        labels:
            The ``batch_size`` true labels when the adversary knows them
            (``config.label_known``); otherwise inferred from the gradients.
        batch_size:
            Number of examples each restart reconstructs jointly (the paper's
            type-0/1 attack reconstructs a batch of 3).
        global_weights:
            Model weights at the moment of the leak; when given, loaded into
            the model before the attack (the adversary knows the model).
        """
        config = self.config
        if not restart_rngs:
            raise ValueError("at least one restart generator is required")
        if global_weights is not None:
            self.model.set_weights(list(global_weights))

        num_params = len(self.model.parameters())
        if len(target_gradients) != num_params:
            raise ValueError(
                f"expected {num_params} target gradient blocks (one per model "
                f"parameter), got {len(target_gradients)}"
            )
        target_gradients = [np.asarray(g, dtype=np.float64) for g in target_gradients]

        restarts = len(restart_rngs)
        example_shape = tuple(int(s) for s in example_shape)
        input_shape = (batch_size,) + example_shape
        if labels is None or not config.label_known:
            labels = np.full(batch_size, infer_label_from_gradients(target_gradients), dtype=np.int64)
        labels = np.array(labels, dtype=np.int64).reshape(-1)
        if labels.shape[0] != batch_size:
            raise ValueError(f"expected {batch_size} labels, got {labels.shape[0]}")

        dummies = np.stack([make_seed(config.seed_kind, input_shape, rng=rng) for rng in restart_rngs])
        low, high = config.value_range
        bounds = optimize.Bounds(low, high)

        vectorized = is_traceable(self.model)
        evaluate = self._objective_vectorized if vectorized else self._objective_looped

        if config.objective == "l2":
            # Scale-aware success criterion: the loss is compared against the
            # leaked gradient's own squared norm.
            target_squared_norm = float(sum(np.sum(np.square(g)) for g in target_gradients))
            effective_threshold = max(
                config.success_loss_threshold,
                config.success_relative_threshold * target_squared_norm,
            )
        else:
            # The cosine objective is already scale-invariant (range [0, 2]).
            effective_threshold = config.success_loss_threshold

        best_losses = np.full(restarts, np.inf)
        best_flats = dummies.reshape(restarts, -1).copy()
        last_losses = np.full(restarts, np.inf)
        loss_history: List[float] = []

        def objective(flat: np.ndarray) -> Tuple[float, np.ndarray]:
            total, gradient, per_restart = evaluate(
                flat, restarts, input_shape, labels, target_gradients
            )
            last_losses[:] = per_restart
            improved = per_restart < best_losses
            if improved.any():
                best_losses[improved] = per_restart[improved]
                best_flats[improved] = flat.reshape(restarts, -1)[improved]
            return total, gradient

        def callback(flat: np.ndarray) -> None:
            loss_history.append(float(last_losses.min()))
            if best_losses.min() < effective_threshold:
                # Early termination once a restart matches the leaked
                # gradients; supported natively by scipy >= 1.11 and caught
                # below for older releases.
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
        iterations = len(loss_history) if loss_history else config.max_iterations
        reconstruction = np.clip(
            best_flats[best_restart].reshape(example_shape if batch_size == 1 else input_shape), low, high
        )

        distance = float("nan")
        psnr_value = float("nan")
        if ground_truth is not None:
            truth = np.asarray(ground_truth, dtype=np.float64).reshape(reconstruction.shape)
            distance = reconstruction_distance(reconstruction, truth)
            psnr_value = compute_psnr(reconstruction, truth, data_range=high - low)

        return AttackResult(
            succeeded=bool(final_loss < effective_threshold),
            num_iterations=int(min(iterations, config.max_iterations)),
            final_loss=final_loss,
            reconstruction_distance=distance,
            reconstruction=reconstruction,
            loss_history=loss_history,
            labels_used=labels,
            psnr=psnr_value,
            best_restart=best_restart,
            restarts=restarts,
            per_restart_losses=[float(v) for v in finals],
            vectorized=vectorized,
        )
