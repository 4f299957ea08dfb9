"""Per-example gradient engine (the DP-SGD hot path).

Fed-CDP sanitises the gradient of *each individual training example* the
moment it exists, which naively requires one forward/backward pass per example
— the O(batch) overhead Table III measures.  This module removes that
overhead with one fast engine and keeps one reference to check it against:

* :func:`per_example_gradients_batched` — the loss-and-gradients computation
  of a *single* example is traced once (per model / example shape) and
  replayed over the whole batch with the per-op batch rules of
  :mod:`repro.autodiff.batched`: one batched pass through the recorded
  forward *and* backward, at full BLAS width for ``Dense`` and ``Conv2D``
  alike.  Every layer of the paper's two architectures treats the examples of
  a batch independently, so the replay is exact rather than approximate;
* :func:`per_example_gradients_looped` — one forward/backward pass per
  example: the fallback for models the batched engine does not cover and the
  ground truth it is regression-tested against in
  ``tests/nn/test_perexample.py``.

The public entry point :func:`per_example_gradients` uses the batched engine
when the model is traceable (see :func:`is_traceable`) and otherwise
transparently falls back to the looped reference.

Gradients are returned in the **stacked representation**: one
``(B, *param_shape)`` array per model parameter, aligned with
``model.parameters()``.  The DP pipeline (clipping, noising, averaging)
operates on this stack with broadcasted numpy ops — see
:func:`repro.privacy.clipping.clip_per_example_stack`,
:meth:`repro.privacy.mechanisms.GaussianMechanism.add_noise_to_stack` and
the fused :func:`repro.privacy.clipping.clip_noise_mean`.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Tuple

import numpy as np

from repro.autodiff import BatchedGraph, Tensor, grad, logsumexp, mul, tracing, tsum

from . import functional as F
from .layers import Conv2D, Dense
from .models import Sequential

__all__ = [
    "is_traceable",
    "per_example_gradients",
    "per_example_gradients_batched",
    "per_example_gradients_looped",
    "stack_to_example_lists",
]


def is_traceable(model) -> bool:
    """Whether the batched engine covers ``model``.

    Only flat :class:`~repro.nn.models.Sequential` models built from ``Dense``,
    ``Conv2D`` and parameter-free layers qualify; anything else routes through
    the looped reference path.
    """
    if not isinstance(model, Sequential):
        return False
    for layer in model.layers:
        if isinstance(layer, (Dense, Conv2D)):
            continue
        if layer.parameters():
            return False
    return True


class _PerExampleTrace:
    """A compiled single-example loss/gradient graph plus its metadata."""

    __slots__ = ("graph", "num_classes")

    def __init__(self, graph: BatchedGraph, num_classes: int) -> None:
        self.graph = graph
        self.num_classes = num_classes


# model -> {(example_shape, param identities) -> _PerExampleTrace}.  Keyed on
# parameter *identities* (not values): ``Module.set_weights`` mutates
# ``param.data`` in place on stable Tensor objects, and the compiled graph
# reads parameter data live at replay time, so a trace survives weight
# updates; swapping a layer out replaces the Tensor objects and retraces.
_TRACE_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _per_example_trace(model: Sequential, example_shape: Tuple[int, ...]) -> _PerExampleTrace:
    per_model: Dict = _TRACE_CACHE.setdefault(model, {})
    params = model.parameters()
    key = (tuple(example_shape), tuple(id(p) for p in params))
    trace = per_model.get(key)
    if trace is not None:
        return trace

    x = Tensor(np.zeros((1,) + tuple(example_shape)))
    with tracing():
        logits = model(x)
        num_classes = logits.shape[-1]
        targets = Tensor(np.zeros((1, num_classes)))
        # Cross-entropy with the one-hot target as a *batched input*: the
        # same primitives as F.cross_entropy_with_logits, but differentiable
        # graph capture needs the target to be a leaf we can re-feed.
        per_example = logsumexp(logits, axis=-1) - tsum(mul(logits, targets), axis=-1)
        loss_sum = tsum(per_example)
        gradients = grad(loss_sum, params, create_graph=True)
    graph = BatchedGraph(
        list(gradients) + [per_example],
        {"features": x, "targets": targets},
        params=params,
    )
    trace = _PerExampleTrace(graph, num_classes)
    per_model[key] = trace
    return trace


def per_example_gradients_batched(
    model: Sequential, features: np.ndarray, labels: np.ndarray
) -> Tuple[List[np.ndarray], np.ndarray]:
    """Per-example gradients and losses via the batched-graph transform.

    Traces the single-example loss-and-gradients computation once (cached per
    model and example shape), then replays it over the stacked batch — one
    batched pass through the recorded forward *and* backward, covering every
    traceable architecture (``Dense`` and ``Conv2D`` alike).

    Returns ``(stack, losses)`` with ``losses`` of shape ``(B,)`` — the
    individual cross-entropy of every example (callers needing the batch mean
    take ``losses.sum() / B``; see :func:`per_example_gradients`).
    """
    features = np.asarray(features, dtype=np.float64)
    batch = features.shape[0]
    trace = _per_example_trace(model, features.shape[1:])
    onehot = np.zeros((batch, trace.num_classes), dtype=np.float64)
    onehot[np.arange(batch), np.asarray(labels).reshape(-1)] = 1.0
    outputs = trace.graph.replay(
        {"features": features[:, None], "targets": onehot[:, None]}
    )
    stack = outputs[:-1]
    losses = outputs[-1].reshape(batch)
    return stack, losses


def per_example_gradients(
    model: Sequential, features: np.ndarray, labels: np.ndarray
) -> Tuple[List[np.ndarray], float]:
    """Stacked per-example cross-entropy gradients for a batch.

    Returns ``(stack, mean_loss)`` where ``stack`` holds one
    ``(B, *param_shape)`` array per entry of ``model.parameters()``.  Uses the
    batched-graph fast path when :func:`is_traceable` holds, the
    looped reference otherwise.
    """
    if not is_traceable(model):
        return per_example_gradients_looped(model, features, labels)
    features = np.asarray(features, dtype=np.float64)
    batch = features.shape[0]
    stack, losses = per_example_gradients_batched(model, features, labels)
    return stack, float(np.sum(losses)) / max(batch, 1)


def per_example_gradients_looped(
    model: Sequential, features: np.ndarray, labels: np.ndarray
) -> Tuple[List[np.ndarray], float]:
    """Reference implementation: one forward/backward pass per example.

    Semantically identical to :func:`per_example_gradients` (same stacked
    return format); kept as the fallback for models the batched engine does
    not cover and as the ground truth the fast path is regression-tested against.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    params = model.parameters()
    per_example: List[List[np.ndarray]] = []
    total_loss = 0.0
    for index in range(features.shape[0]):
        logits = model(Tensor(features[index : index + 1]))
        loss = F.cross_entropy_with_logits(logits, labels[index : index + 1], reduction="mean")
        gradients = grad(loss, params)
        per_example.append([g.numpy() for g in gradients])
        total_loss += float(loss.item())
    mean_loss = total_loss / max(features.shape[0], 1)
    stack = [
        np.stack([example[layer_index] for example in per_example])
        for layer_index in range(len(params))
    ]
    return stack, mean_loss


def stack_to_example_lists(stack: List[np.ndarray]) -> List[List[np.ndarray]]:
    """Unstack ``[(B, *shape), ...]`` into the legacy list-of-lists layout
    (one per-layer gradient list per example)."""
    batch = stack[0].shape[0] if stack else 0
    return [[layer[b] for layer in stack] for b in range(batch)]
