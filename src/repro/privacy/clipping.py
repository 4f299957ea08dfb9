"""Gradient clipping: the L2 projection and the clipping-bound schedules.

Two kinds of objects live here:

* the clipping *operation* — :func:`clip_by_l2_norm` and
  :func:`clip_gradients_per_layer`, implementing lines 9-12 of Algorithm 2 and
  lines 7-11 of Algorithm 1 (each layer's gradient block is clipped to L2 norm
  at most ``C``);
* clipping-bound *policies* — how ``C`` evolves over the federated rounds.
  :class:`ConstantClipping` is the conventional choice (``C = 4`` by default,
  following Abadi et al.), :class:`LinearDecayClipping` implements the paper's
  Fed-CDP(decay) schedule (linearly decaying ``C`` from 6 to 2 over the
  training rounds, Section VI), and :class:`MedianNormClipping` implements the
  median-of-norms heuristic discussed in Section IV-C.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:
    from .mechanisms import StepNoise

__all__ = [
    "l2_norm",
    "global_l2_norm",
    "clip_by_l2_norm",
    "clip_gradients_per_layer",
    "per_example_layer_norms",
    "per_example_global_norms",
    "clip_per_example_stack",
    "clip_noise_mean",
    "ClippingPolicy",
    "ConstantClipping",
    "LinearDecayClipping",
    "ExponentialDecayClipping",
    "MedianNormClipping",
]


def l2_norm(value: np.ndarray) -> float:
    """Flat L2 norm of an array."""
    return float(np.linalg.norm(np.asarray(value, dtype=np.float64).reshape(-1)))


def global_l2_norm(values: Sequence[np.ndarray]) -> float:
    """L2 norm of the concatenation of several arrays.

    Uses flat dot products (``np.vdot``) per block, which avoids the
    temporary allocated by ``np.square`` on every call in the training loop.
    """
    return float(np.sqrt(sum(float(np.vdot(v, v)) for v in values)))


def _check_bound(bound: float, name: str = "clipping bound") -> None:
    """Reject a non-positive or non-finite bound: a NaN would turn clipping
    off (looped path) or poison every example (stacked path), and an infinite
    one would never clip."""
    if not (math.isfinite(bound) and bound > 0):
        raise ValueError(f"{name} must be positive and finite, got {bound}")


def clip_by_l2_norm(value: np.ndarray, bound: float) -> np.ndarray:
    """Scale ``value`` so its L2 norm is at most ``bound`` (Algorithm 2, line 10).

    Implements ``value / max(1, ||value||_2 / C)``: values inside the ball are
    untouched, larger ones are radially projected onto the ball.
    """
    _check_bound(bound)
    value = np.asarray(value, dtype=np.float64)
    norm = l2_norm(value)
    scale = max(1.0, norm / bound)
    return value / scale


def clip_gradients_per_layer(gradients: Sequence[np.ndarray], bound: float) -> List[np.ndarray]:
    """Clip each layer's gradient block independently to L2 norm ``bound``.

    The paper clips layer by layer ("a M layer neural network will have M L2
    norms, one for each layer") for both Fed-SDP and Fed-CDP.
    """
    return [clip_by_l2_norm(gradient, bound) for gradient in gradients]


# ----------------------------------------------------------------------
# Vectorized forms operating on a stacked per-example representation:
# one ``(B, *param_shape)`` array per layer, as produced by
# :func:`repro.nn.perexample.per_example_gradients`.
# ----------------------------------------------------------------------
def per_example_layer_norms(stack: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Per-example L2 norm of each layer block: a ``(B,)`` array per layer.

    One einsum contraction per layer replaces the ``B * num_layers`` Python
    ``np.linalg.norm`` calls of the looped path.
    """
    norms: List[np.ndarray] = []
    for layer in stack:
        flat = np.asarray(layer, dtype=np.float64).reshape(layer.shape[0], -1)
        norms.append(np.sqrt(np.einsum("bi,bi->b", flat, flat)))
    return norms


def per_example_global_norms(
    stack: Optional[Sequence[np.ndarray]] = None,
    layer_norms: Optional[Sequence[np.ndarray]] = None,
) -> np.ndarray:
    """Per-example L2 norm over the concatenation of all layers: shape ``(B,)``.

    Pass ``layer_norms`` (from :func:`per_example_layer_norms` or
    :func:`clip_per_example_stack`) to reuse norms the clipping step already
    computed instead of touching the gradient stack again.
    """
    if layer_norms is None:
        if stack is None:
            raise ValueError("provide either a gradient stack or precomputed layer norms")
        layer_norms = per_example_layer_norms(stack)
    squared = np.zeros_like(np.asarray(layer_norms[0], dtype=np.float64))
    for norms in layer_norms:
        squared = squared + np.square(norms)
    return np.sqrt(squared)


def clip_per_example_stack(
    stack: Sequence[np.ndarray], bound: float
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Clip every example's layer blocks to L2 norm ``bound`` in one pass.

    Vectorized form of applying :func:`clip_gradients_per_layer` to each
    example of the stack: all ``B`` scale factors of a layer are computed from
    one einsum and applied with one broadcasted division (a division, not a
    multiply by the reciprocal, so every example matches
    :func:`clip_by_l2_norm` bit for bit).

    Returns ``(clipped_stack, pre_clip_layer_norms)`` so callers (Fed-CDP's
    Figure-3 norm telemetry, :class:`MedianNormClipping`) can reuse the norms
    without recomputing them.
    """
    _check_bound(bound)
    layer_norms = per_example_layer_norms(stack)
    clipped: List[np.ndarray] = []
    for layer, scale in zip(stack, _clip_scales(layer_norms, bound)):
        shape = (layer.shape[0],) + (1,) * (np.asarray(layer).ndim - 1)
        clipped.append(np.asarray(layer, dtype=np.float64) / scale.reshape(shape))
    return clipped, layer_norms


def _clip_scales(layer_norms: Sequence[np.ndarray], bound: float) -> List[np.ndarray]:
    """Each example's divisor ``max(1, ||g||/C)`` per layer, as in :func:`clip_by_l2_norm`."""
    return [np.maximum(1.0, norms / bound) for norms in layer_norms]


def clip_noise_mean(
    stack: Sequence[np.ndarray],
    layer_norms: Sequence[np.ndarray],
    bound: float,
    noise: Optional["StepNoise"] = None,
) -> List[np.ndarray]:
    """Batch mean of the clipped, noised examples of a stack, in one pass.

    Bit for bit ``[layer.mean(axis=0) for layer in
    noise.mechanism.add_noise_to_stack(clip_per_example_stack(stack,
    bound)[0], ...)]`` over the same draw, without the clipped or noised
    ``(B, P)`` copies: the examples are taken in the draw's row blocks, and
    each block is clipped (the same division by :func:`_clip_scales`),
    noised in place by ``add_noise_to_stack`` as soon as it is drawn, and
    added row by row into each layer's sum, which starts at zero as numpy's
    axis-0 reduction does and is divided by ``B`` at the end.

    ``layer_norms`` are the stack's :func:`per_example_layer_norms`;
    ``noise`` is the step's draw from a
    :class:`~repro.privacy.mechanisms.LocalStream`, or ``None`` for no noise.
    """
    _check_bound(bound)
    batch = stack[0].shape[0]
    flats = [np.asarray(layer, dtype=np.float64).reshape(batch, -1) for layer in stack]
    scales = [scale[:, None] for scale in _clip_scales(layer_norms, bound)]
    sums = [np.zeros(flat.shape[1]) for flat in flats]
    blocks = noise.blocks if noise is not None else [None]
    start = 0
    for block in blocks:
        stop = batch if block is None else start + block.shape[0]
        clipped = [flat[start:stop] / scale[start:stop] for flat, scale in zip(flats, scales)]
        if block is not None:
            # the mechanism's add, not a bare one: benchmarks/e2e/tracing.py times it as `noise`
            clipped = noise.mechanism.add_noise_to_stack(clipped, rng=None, noise=block)
        for total, rows in zip(sums, clipped):
            for row in rows:
                total += row
        start = stop
    if start != batch:
        raise ValueError(f"the noise draw covers {start} rows; the stack has {batch}")
    return [(total / batch).reshape(layer.shape[1:]) for total, layer in zip(sums, stack)]


class ClippingPolicy:
    """Schedule of the clipping bound ``C`` over federated rounds."""

    def bound_for_round(self, round_index: int) -> float:  # pragma: no cover - abstract
        """Clipping bound to use at federated round ``round_index`` (0-based)."""
        raise NotImplementedError

    def describe(self) -> str:
        """Short human-readable description for experiment logs."""
        return type(self).__name__


class ConstantClipping(ClippingPolicy):
    """Fixed clipping bound (the paper's default, ``C = 4``)."""

    def __init__(self, bound: float = 4.0) -> None:
        _check_bound(bound)
        self.bound = float(bound)

    def bound_for_round(self, round_index: int) -> float:
        return self.bound

    def describe(self) -> str:
        return f"constant(C={self.bound:g})"


class LinearDecayClipping(ClippingPolicy):
    """Linearly decaying clipping bound, the Fed-CDP(decay) schedule.

    The paper "linearly decay[s] the clipping bound from C=6 to C=2 in 100
    rounds"; the start/end bounds and horizon are configurable.
    """

    def __init__(self, start: float = 6.0, end: float = 2.0, total_rounds: int = 100) -> None:
        _check_bound(start, "start clipping bound")
        _check_bound(end, "end clipping bound")
        if total_rounds <= 0:
            raise ValueError("total_rounds must be positive")
        self.start = float(start)
        self.end = float(end)
        self.total_rounds = int(total_rounds)

    def bound_for_round(self, round_index: int) -> float:
        if round_index < 0:
            raise ValueError("round_index must be non-negative")
        progress = min(round_index, self.total_rounds - 1) / max(self.total_rounds - 1, 1)
        return self.start + (self.end - self.start) * progress

    def describe(self) -> str:
        return f"linear_decay(C={self.start:g}->{self.end:g} over {self.total_rounds} rounds)"


class ExponentialDecayClipping(ClippingPolicy):
    """Exponentially decaying clipping bound (ablation alternative to linear decay)."""

    def __init__(self, start: float = 6.0, decay_rate: float = 0.99, minimum: float = 1.0) -> None:
        _check_bound(start, "start clipping bound")
        _check_bound(minimum, "minimum clipping bound")
        if not 0.0 < decay_rate <= 1.0:
            raise ValueError("decay_rate must lie in (0, 1]")
        self.start = float(start)
        self.decay_rate = float(decay_rate)
        self.minimum = float(minimum)

    def bound_for_round(self, round_index: int) -> float:
        if round_index < 0:
            raise ValueError("round_index must be non-negative")
        return max(self.minimum, self.start * (self.decay_rate ** round_index))

    def describe(self) -> str:
        return f"exp_decay(C0={self.start:g}, rate={self.decay_rate:g}, min={self.minimum:g})"


class MedianNormClipping(ClippingPolicy):
    """Adaptive bound set to the running median of observed gradient norms.

    Section IV-C notes that instead of a preset constant one "can use the
    median norm of all original updates ... as the clipping bound".  Observed
    norms are fed in via :meth:`observe`; until any are seen, a fallback bound
    is used.
    """

    def __init__(self, fallback: float = 4.0, window: int = 1000) -> None:
        _check_bound(fallback, "fallback bound")
        if window <= 0:
            raise ValueError("window must be positive")
        self.fallback = float(fallback)
        self.window = int(window)
        self._norms: List[float] = []

    def observe(self, norm: float) -> None:
        """Record an observed (pre-clipping) gradient L2 norm."""
        if norm < 0:
            raise ValueError("norms are non-negative")
        self._norms.append(float(norm))
        if len(self._norms) > self.window:
            self._norms = self._norms[-self.window :]

    def observe_gradients(self, gradients: Sequence[np.ndarray]) -> None:
        """Record the layer-wise norms of a gradient list."""
        for gradient in gradients:
            self.observe(l2_norm(gradient))

    def bound_for_round(self, round_index: int) -> float:
        if not self._norms:
            return self.fallback
        return float(np.median(self._norms))

    def describe(self) -> str:
        return f"median_norm(fallback={self.fallback:g}, window={self.window})"
