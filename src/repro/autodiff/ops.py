"""Primitive differentiable operations for the autodiff engine.

Every operation returns a new :class:`~repro.autodiff.tensor.Tensor` and
records a backward function.  Backward functions are themselves written in
terms of these primitive operations, which is what makes second-order
differentiation (``create_graph=True``) possible: differentiating a gradient
simply walks the graph that the first backward pass built.

The operation set is the minimum needed by :mod:`repro.nn` (dense and
convolutional networks with softmax cross-entropy) plus the gradient-matching
loss used by the reconstruction attack.

Two properties of this module exist for the batched-graph transform of
:mod:`repro.autodiff.batched`:

* every primitive records its static arguments (axes, shapes, paddings,
  index arrays) via ``op_args``, and declares in :data:`BATCH_RULES` how it
  maps over a *leading batch axis* — elementwise ops trivially, ``matmul``
  as a batched GEMM, reductions and shape ops with their axes shifted by
  one.  Replaying a recorded graph with these rules turns one traced
  forward/backward into a vectorized per-example computation;
* data-dependent constants that used to be baked into backward closures
  (the relu mask, the abs sign, the clip mask, the logsumexp shift) are
  expressed as the *non-differentiable primitives* :func:`relu_mask`,
  :func:`sign_of`, :func:`range_mask` and :func:`detached_max`, so a replay
  recomputes them from the batched values instead of replaying a stale
  single-example constant.

Backward functions also skip the gradient of any parent with
``requires_grad=False`` (returning ``None`` in its slot) — the driver in
:mod:`repro.autodiff.grad` discards those gradients anyway, and not
computing them removes entire GEMMs and scatter-adds from conv backward
passes.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .tensor import ArrayLike, Tensor, as_tensor

__all__ = [
    "add",
    "sub",
    "neg",
    "mul",
    "div",
    "pow_scalar",
    "matmul",
    "tsum",
    "mean",
    "broadcast_to",
    "reshape",
    "transpose",
    "exp",
    "log",
    "sqrt",
    "tanh",
    "sigmoid",
    "relu",
    "relu_mask",
    "abs_",
    "sign_of",
    "clip_values",
    "range_mask",
    "detached_max",
    "pad2d",
    "crop2d",
    "index_select_last",
    "index_add_last",
    "logsumexp",
    "softmax",
    "BATCH_RULES",
]


# ----------------------------------------------------------------------
# Broadcasting helpers
# ----------------------------------------------------------------------
def _unbroadcast(grad: Tensor, shape: Tuple[int, ...]) -> Tensor:
    """Reduce ``grad`` so that it has ``shape``.

    Numpy broadcasting may have expanded an operand along leading axes or
    along axes of size one; the gradient of a broadcast is the sum over the
    broadcast axes.  The reduction is expressed with differentiable ops so
    that it composes under double backprop.
    """
    if grad.shape == shape:
        return grad
    g = grad
    while g.ndim > len(shape):
        g = tsum(g, axis=0)
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = tsum(g, axis=axes, keepdims=True)
    if g.shape != shape:
        g = reshape(g, shape)
    return g


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
def add(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise addition with numpy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)

    def backward(g: Tensor):
        grad_a = _unbroadcast(g, a.shape) if a.requires_grad else None
        grad_b = _unbroadcast(g, b.shape) if b.requires_grad else None
        return grad_a, grad_b

    return Tensor._from_op(a.data + b.data, (a, b), backward, "add")


def sub(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise subtraction with numpy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)

    def backward(g: Tensor):
        grad_a = _unbroadcast(g, a.shape) if a.requires_grad else None
        grad_b = _unbroadcast(neg(g), b.shape) if b.requires_grad else None
        return grad_a, grad_b

    return Tensor._from_op(a.data - b.data, (a, b), backward, "sub")


def neg(a: ArrayLike) -> Tensor:
    """Elementwise negation."""
    a = as_tensor(a)

    def backward(g: Tensor):
        return (neg(g),)

    return Tensor._from_op(-a.data, (a,), backward, "neg")


def mul(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise multiplication with numpy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)

    def backward(g: Tensor):
        grad_a = _unbroadcast(mul(g, b), a.shape) if a.requires_grad else None
        grad_b = _unbroadcast(mul(g, a), b.shape) if b.requires_grad else None
        return grad_a, grad_b

    return Tensor._from_op(a.data * b.data, (a, b), backward, "mul")


def div(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise division with numpy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)

    def backward(g: Tensor):
        grad_a = _unbroadcast(div(g, b), a.shape) if a.requires_grad else None
        grad_b = (
            _unbroadcast(neg(div(mul(g, a), mul(b, b))), b.shape) if b.requires_grad else None
        )
        return grad_a, grad_b

    return Tensor._from_op(a.data / b.data, (a, b), backward, "div")


def pow_scalar(a: ArrayLike, exponent: float) -> Tensor:
    """Raise ``a`` elementwise to a constant scalar power."""
    a = as_tensor(a)
    exponent = float(exponent)

    def backward(g: Tensor):
        return (mul(g, mul(Tensor(exponent), pow_scalar(a, exponent - 1.0))),)

    return Tensor._from_op(a.data ** exponent, (a,), backward, "pow", op_args=(exponent,))


def matmul(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Matrix product of two 2-D tensors."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(
            f"matmul expects 2-D tensors, got shapes {a.shape} and {b.shape}; "
            "reshape/transpose higher-rank tensors explicitly"
        )

    def backward(g: Tensor):
        grad_a = matmul(g, transpose(b, (1, 0))) if a.requires_grad else None
        grad_b = matmul(transpose(a, (1, 0)), g) if b.requires_grad else None
        return grad_a, grad_b

    return Tensor._from_op(a.data @ b.data, (a, b), backward, "matmul")


# ----------------------------------------------------------------------
# Reductions and shape manipulation
# ----------------------------------------------------------------------
def tsum(
    a: ArrayLike,
    axis: Optional[Union[int, Tuple[int, ...]]] = None,
    keepdims: bool = False,
) -> Tensor:
    """Sum of tensor elements over the given axes."""
    a = as_tensor(a)
    if isinstance(axis, int):
        axis = (axis,)
    if axis is not None:
        axis = tuple(ax % a.ndim for ax in axis)

    def backward(g: Tensor):
        if axis is None:
            grad = broadcast_to(reshape(g, (1,) * a.ndim), a.shape)
        else:
            if keepdims:
                expanded = g
            else:
                kept_shape = list(a.shape)
                for ax in axis:
                    kept_shape[ax] = 1
                expanded = reshape(g, tuple(kept_shape))
            grad = broadcast_to(expanded, a.shape)
        return (grad,)

    return Tensor._from_op(
        np.sum(a.data, axis=axis, keepdims=keepdims), (a,), backward, "sum",
        op_args=(axis, keepdims),
    )


def mean(
    a: ArrayLike,
    axis: Optional[Union[int, Tuple[int, ...]]] = None,
    keepdims: bool = False,
) -> Tensor:
    """Arithmetic mean over the given axes (implemented via :func:`tsum`)."""
    a = as_tensor(a)
    if axis is None:
        count = a.size
    else:
        axes = (axis,) if isinstance(axis, int) else axis
        count = 1
        for ax in axes:
            count *= a.shape[ax % a.ndim]
    return div(tsum(a, axis=axis, keepdims=keepdims), Tensor(float(count)))


def broadcast_to(a: ArrayLike, shape: Tuple[int, ...]) -> Tensor:
    """Broadcast ``a`` to ``shape``; gradient sums over broadcast axes."""
    a = as_tensor(a)
    shape = tuple(int(s) for s in shape)

    def backward(g: Tensor):
        return (_unbroadcast(g, a.shape),)

    return Tensor._from_op(
        np.broadcast_to(a.data, shape).copy(), (a,), backward, "broadcast_to", op_args=(shape,)
    )


def reshape(a: ArrayLike, shape: Tuple[int, ...]) -> Tensor:
    """Reshape without changing data; gradient reshapes back."""
    a = as_tensor(a)
    shape = tuple(int(s) for s in shape) if not isinstance(shape, int) else (int(shape),)

    def backward(g: Tensor):
        return (reshape(g, a.shape),)

    data = a.data.reshape(shape)
    # the *concrete* output shape is recorded (the requested one may hold -1)
    return Tensor._from_op(data, (a,), backward, "reshape", op_args=(data.shape,))


def transpose(a: ArrayLike, axes: Optional[Sequence[int]] = None) -> Tensor:
    """Permute tensor axes; gradient applies the inverse permutation."""
    a = as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(int(ax) % a.ndim for ax in axes)
    inverse = tuple(int(i) for i in np.argsort(axes))

    def backward(g: Tensor):
        return (transpose(g, inverse),)

    return Tensor._from_op(np.transpose(a.data, axes), (a,), backward, "transpose", op_args=(axes,))


# ----------------------------------------------------------------------
# Elementwise nonlinearities
# ----------------------------------------------------------------------
def exp(a: ArrayLike) -> Tensor:
    """Elementwise exponential."""
    a = as_tensor(a)

    def backward(g: Tensor):
        # Recompute exp(a) with a differentiable op so second-order gradients
        # see the dependence on ``a`` (capturing the raw output array would
        # freeze it into a constant).
        return (mul(g, exp(a)),)

    return Tensor._from_op(np.exp(a.data), (a,), backward, "exp")


def log(a: ArrayLike) -> Tensor:
    """Elementwise natural logarithm."""
    a = as_tensor(a)

    def backward(g: Tensor):
        return (div(g, a),)

    return Tensor._from_op(np.log(a.data), (a,), backward, "log")


def sqrt(a: ArrayLike) -> Tensor:
    """Elementwise square root."""
    a = as_tensor(a)

    def backward(g: Tensor):
        return (mul(g, mul(Tensor(0.5), pow_scalar(a, -0.5))),)

    return Tensor._from_op(np.sqrt(a.data), (a,), backward, "sqrt")


def tanh(a: ArrayLike) -> Tensor:
    """Elementwise hyperbolic tangent."""
    a = as_tensor(a)

    def backward(g: Tensor):
        t = tanh(a)
        return (mul(g, sub(Tensor(1.0), mul(t, t))),)

    return Tensor._from_op(np.tanh(a.data), (a,), backward, "tanh")


def _sigmoid_data(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))


def sigmoid(a: ArrayLike) -> Tensor:
    """Elementwise logistic sigmoid, computed in a numerically stable way."""
    a = as_tensor(a)

    def backward(g: Tensor):
        s = sigmoid(a)
        return (mul(g, mul(s, sub(Tensor(1.0), s))),)

    return Tensor._from_op(_sigmoid_data(a.data), (a,), backward, "sigmoid")


def relu_mask(a: ArrayLike) -> Tensor:
    """The 0/1 activation mask of :func:`relu`, as a non-differentiable op.

    Recomputed from ``a`` rather than baked into the relu backward closure so
    a batched replay derives the mask from the batched pre-activations.
    """
    a = as_tensor(a)
    return Tensor._from_op(
        (a.data > 0).astype(a.data.dtype), (a,), None, "relu_mask", differentiable=False
    )


def relu(a: ArrayLike) -> Tensor:
    """Elementwise rectified linear unit."""
    a = as_tensor(a)
    mask = (a.data > 0).astype(a.data.dtype)

    def backward(g: Tensor):
        return (mul(g, relu_mask(a)),)

    return Tensor._from_op(a.data * mask, (a,), backward, "relu")


def sign_of(a: ArrayLike) -> Tensor:
    """``sign(a)`` as a non-differentiable op (the subgradient of ``|a|``)."""
    a = as_tensor(a)
    return Tensor._from_op(np.sign(a.data), (a,), None, "sign", differentiable=False)


def abs_(a: ArrayLike) -> Tensor:
    """Elementwise absolute value (subgradient 0 at the origin)."""
    a = as_tensor(a)

    def backward(g: Tensor):
        return (mul(g, sign_of(a)),)

    return Tensor._from_op(np.abs(a.data), (a,), backward, "abs")


def range_mask(a: ArrayLike, low: float, high: float) -> Tensor:
    """Indicator of ``low <= a <= high`` (the :func:`clip_values` pass mask)."""
    a = as_tensor(a)
    low, high = float(low), float(high)
    return Tensor._from_op(
        ((a.data >= low) & (a.data <= high)).astype(a.data.dtype),
        (a,),
        None,
        "range_mask",
        op_args=(low, high),
        differentiable=False,
    )


def clip_values(a: ArrayLike, low: float, high: float) -> Tensor:
    """Clamp values into ``[low, high]``; gradient passes only inside the range."""
    a = as_tensor(a)
    low, high = float(low), float(high)

    def backward(g: Tensor):
        return (mul(g, range_mask(a, low, high)),)

    return Tensor._from_op(np.clip(a.data, low, high), (a,), backward, "clip", op_args=(low, high))


def detached_max(a: ArrayLike, axis: int = -1, keepdims: bool = True) -> Tensor:
    """Maximum along ``axis``, treated as a constant by differentiation.

    This is the numerically-required shift of :func:`logsumexp`: the result is
    mathematically independent of it, so blocking its gradient is exact — but
    a batched replay must recompute it per batch row for the shifted
    exponentials to stay in range.
    """
    a = as_tensor(a)
    axis = int(axis) % a.ndim
    keepdims = bool(keepdims)
    return Tensor._from_op(
        np.max(a.data, axis=axis, keepdims=keepdims),
        (a,),
        None,
        "detached_max",
        op_args=(axis, keepdims),
        differentiable=False,
    )


# ----------------------------------------------------------------------
# Spatial / indexing operations (used by the Conv2D layer)
# ----------------------------------------------------------------------
def pad2d(a: ArrayLike, padding: int) -> Tensor:
    """Zero-pad the two trailing spatial axes of an ``(N, C, H, W)`` tensor."""
    a = as_tensor(a)
    padding = int(padding)
    if padding == 0:
        return reshape(a, a.shape)
    pad_width = ((0, 0),) * (a.ndim - 2) + ((padding, padding), (padding, padding))

    def backward(g: Tensor):
        return (crop2d(g, padding),)

    return Tensor._from_op(np.pad(a.data, pad_width), (a,), backward, "pad2d", op_args=(padding,))


def crop2d(a: ArrayLike, padding: int) -> Tensor:
    """Inverse of :func:`pad2d`: remove ``padding`` pixels from each spatial edge."""
    a = as_tensor(a)
    padding = int(padding)
    if padding == 0:
        return reshape(a, a.shape)
    sl = (slice(None),) * (a.ndim - 2) + (slice(padding, -padding), slice(padding, -padding))

    def backward(g: Tensor):
        return (pad2d(g, padding),)

    return Tensor._from_op(a.data[sl].copy(), (a,), backward, "crop2d", op_args=(padding,))


def index_select_last(a: ArrayLike, indices: np.ndarray) -> Tensor:
    """Gather along the last axis of a 2-D tensor: ``out[n, k] = a[n, idx[k]]``.

    The adjoint is :func:`index_add_last` (scatter-add with the same index
    array), which in turn has this gather as its own adjoint — making the pair
    closed under repeated differentiation.  This is the building block for the
    im2col-based convolution in :mod:`repro.nn.functional`.
    """
    a = as_tensor(a)
    if a.ndim != 2:
        raise ValueError(f"index_select_last expects a 2-D tensor, got shape {a.shape}")
    indices = np.asarray(indices, dtype=np.int64)
    in_size = a.shape[1]

    def backward(g: Tensor):
        return (index_add_last(g, indices, in_size),)

    return Tensor._from_op(
        a.data[:, indices], (a,), backward, "index_select_last", op_args=(indices,)
    )


# ``np.add.at`` disables ufunc buffering and dominates the convolution
# backward pass.  Because the scatter index array is reused across calls (the
# im2col cache returns the same object for a given geometry), we precompute a
# gather plan per index array: a ``(kmax, size)`` table whose column ``j``
# lists the source positions scattering into target ``j`` (in stable source
# order, padded with a sentinel pointing at an appended zero column).  The
# scatter then becomes one contiguous ``np.take`` of ``kmax`` planes plus
# ``kmax - 1`` whole-plane adds — C-speed, buffered operations, unlike a
# sort + ``reduceat`` whose segment loop dominates for many rows.  Entries
# hold a strong reference to the index array, so an ``id`` can never be
# recycled while its plan is cached.
_SCATTER_PLAN_CACHE: dict = {}
_SCATTER_PLAN_CACHE_MAX = 64

#: numpy's pairwise summation sums runs of up to this many terms with eight
#: interleaved accumulators and splits longer runs in two
_PAIRWISE_BLOCK = 128


def _scatter_plan(indices: np.ndarray, size: int) -> np.ndarray:
    """Return the padded gather table ``plan`` of shape ``(kmax, size)``.

    ``plan[:, j]`` holds the positions ``k`` with ``indices[k] == j`` in
    ascending ``k`` order, padded with ``len(indices)`` — the index of the
    zero column the caller appends.  The table fixes the order each target's
    terms are summed in, independent of the batch rows.
    """
    key = (id(indices), size)
    entry = _SCATTER_PLAN_CACHE.get(key)
    if entry is not None and entry[0] is indices:
        return entry[1]
    length = indices.shape[0]
    counts = np.bincount(indices, minlength=size)
    kmax = int(counts.max()) if length else 1
    order = np.argsort(indices, kind="stable")
    sorted_indices = indices[order]
    segment_starts = np.concatenate(([0], np.cumsum(counts)))
    ranks = np.arange(length) - segment_starts[sorted_indices]
    plan = np.full((max(kmax, 1), size), length, dtype=np.int64)
    plan[ranks, sorted_indices] = order
    if len(_SCATTER_PLAN_CACHE) >= _SCATTER_PLAN_CACHE_MAX:
        _SCATTER_PLAN_CACHE.clear()
    _SCATTER_PLAN_CACHE[key] = (indices, plan)
    return plan


def _pairwise_plane_sum(terms: np.ndarray, start: int, count: int) -> np.ndarray:
    """Sum of the planes ``terms[:, start:start + count]`` in numpy's pairwise order.

    This is the order numpy's ``add.reduce`` sums a *contiguous* run of
    ``count`` terms in (``pairwise_sum`` in its loops; a reduction over a
    strided axis, such as ``terms.sum(axis=1)``, runs in plain sequence
    instead): fewer than 8 terms
    one after another; up to :data:`_PAIRWISE_BLOCK` terms into eight
    accumulators ``r[j] = t[j] + t[j + 8] + ...``, combined as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, with the terms
    past the last multiple of 8 added one after another; longer runs split
    at a multiple of 8 near the middle.  Here each term is a whole plane
    ``terms[:, k]``, so every addition is one vectorised pass.
    """
    if count < 8:
        total = terms[:, start].copy()
        for k in range(start + 1, start + count):
            total += terms[:, k]
        return total
    if count <= _PAIRWISE_BLOCK:
        blocked = start + count - count % 8
        accumulators = terms[:, start : start + 8]
        for k in range(start + 8, blocked, 8):
            accumulators = accumulators + terms[:, k : k + 8]
        pairs = accumulators[:, 0::2] + accumulators[:, 1::2]
        total = pairs[:, 0] + pairs[:, 1]
        total += pairs[:, 2] + pairs[:, 3]
        for k in range(blocked, start + count):
            total += terms[:, k]
        return total
    half = count // 2
    half -= half % 8
    return _pairwise_plane_sum(terms, start, half) + _pairwise_plane_sum(
        terms, start + half, count - half
    )


def _scatter_add_2d(data: np.ndarray, indices: np.ndarray, size: int) -> np.ndarray:
    """Row-wise scatter-add of a 2-D array via the cached gather plan.

    Bit for bit ``np.take(extended, plan.T, axis=1).sum(axis=2)``: each
    target sums its terms (plus exact-zero padding) in numpy's pairwise
    order over one fixed term order that does not depend on the other rows,
    so a row's result is the same in any batch.  For ``kmax >= 8`` that can
    differ from a row-wise ``np.add.at`` in the last bits (a 3x3 conv has
    ``kmax = 9``).
    """
    plan = _scatter_plan(indices, size)
    rows, length = data.shape
    extended = np.empty((rows, length + 1), dtype=data.dtype)
    extended[:, :length] = data
    extended[:, length] = 0.0
    # (rows, kmax, size): term k of every target is one contiguous plane
    terms = np.take(extended, plan, axis=1)
    total = _pairwise_plane_sum(terms, 0, plan.shape[0])
    # numpy's reduction starts from the identity +0.0, which turns an
    # all-(-0.0) sum into +0.0 and leaves every other sum as it is
    total += 0.0
    return total


def index_add_last(a: ArrayLike, indices: np.ndarray, size: int) -> Tensor:
    """Scatter-add along the last axis: ``out[n, idx[k]] += a[n, k]``."""
    a = as_tensor(a)
    if a.ndim != 2:
        raise ValueError(f"index_add_last expects a 2-D tensor, got shape {a.shape}")
    indices = np.asarray(indices, dtype=np.int64)
    size = int(size)
    out_data = _scatter_add_2d(a.data, indices, size)

    def backward(g: Tensor):
        return (index_select_last(g, indices),)

    return Tensor._from_op(
        out_data, (a,), backward, "index_add_last", op_args=(indices, size)
    )


# ----------------------------------------------------------------------
# Composite numerical helpers
# ----------------------------------------------------------------------
def logsumexp(a: ArrayLike, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Numerically stable ``log(sum(exp(a)))`` along ``axis``.

    The row-wise maximum is a :func:`detached_max` — a constant shift as far
    as differentiation is concerned (it does not change the derivative), but
    a recorded graph node, so a batched replay recomputes it per row.
    """
    a = as_tensor(a)
    axis = axis % a.ndim
    shift = detached_max(a, axis=axis, keepdims=True)
    shifted = sub(a, shift)
    out = add(log(tsum(exp(shifted), axis=axis, keepdims=True)), shift)
    if not keepdims:
        new_shape = tuple(s for i, s in enumerate(a.shape) if i != axis)
        out = reshape(out, new_shape if new_shape else (1,))
    return out


def softmax(a: ArrayLike, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` computed from differentiable primitives."""
    a = as_tensor(a)
    axis = axis % a.ndim
    lse = logsumexp(a, axis=axis, keepdims=True)
    return exp(sub(a, lse))


# ----------------------------------------------------------------------
# Batch rules: how each primitive maps over a leading batch axis
# ----------------------------------------------------------------------
# A rule computes the replayed value of one recorded node.  ``inputs`` holds
# one ``(array, is_batched)`` pair per recorded parent: a *batched* array has
# an extra leading ``B`` axis prepended to the recorded shape, an unbatched
# array has exactly the recorded shape.  ``args`` is the node's recorded
# ``op_args`` and ``out_shape`` its recorded (single-example) output shape.
# The replay engine marks the result batched iff any input was batched.
_BatchRule = Callable[[tuple, tuple, Tuple[int, ...]], np.ndarray]

BATCH_RULES: Dict[str, _BatchRule] = {}


def _batch_rule(name: str):
    def register(fn: _BatchRule) -> _BatchRule:
        BATCH_RULES[name] = fn
        return fn

    return register


def _align_batched(x: np.ndarray, is_batched: bool, out_ndim: int) -> np.ndarray:
    """Insert middle axes so a batched operand broadcasts against the output.

    A batched ``(B, *s)`` operand whose recorded shape ``s`` has fewer axes
    than the recorded output must become ``(B, 1, ..., *s)`` — numpy's
    right-alignment would otherwise line the batch axis up against a data
    axis.  Unbatched operands right-align exactly as they did at record time.
    """
    if is_batched and x.ndim - 1 < out_ndim:
        return x.reshape((x.shape[0],) + (1,) * (out_ndim - (x.ndim - 1)) + x.shape[1:])
    return x


def _elementwise_binary(fn):
    def rule(args, inputs, out_shape):
        (a, a_batched), (b, b_batched) = inputs
        nd = len(out_shape)
        return fn(_align_batched(a, a_batched, nd), _align_batched(b, b_batched, nd))

    return rule


def _elementwise_unary(fn):
    def rule(args, inputs, out_shape):
        return fn(inputs[0][0])

    return rule


BATCH_RULES["add"] = _elementwise_binary(np.add)
BATCH_RULES["sub"] = _elementwise_binary(np.subtract)
BATCH_RULES["mul"] = _elementwise_binary(np.multiply)
BATCH_RULES["div"] = _elementwise_binary(np.divide)
BATCH_RULES["neg"] = _elementwise_unary(np.negative)
BATCH_RULES["exp"] = _elementwise_unary(np.exp)
BATCH_RULES["log"] = _elementwise_unary(np.log)
BATCH_RULES["sqrt"] = _elementwise_unary(np.sqrt)
BATCH_RULES["tanh"] = _elementwise_unary(np.tanh)
BATCH_RULES["sigmoid"] = _elementwise_unary(_sigmoid_data)
BATCH_RULES["abs"] = _elementwise_unary(np.abs)
BATCH_RULES["sign"] = _elementwise_unary(np.sign)
BATCH_RULES["relu"] = _elementwise_unary(lambda x: x * (x > 0).astype(x.dtype))
BATCH_RULES["relu_mask"] = _elementwise_unary(lambda x: (x > 0).astype(x.dtype))


@_batch_rule("pow")
def _pow_rule(args, inputs, out_shape):
    return inputs[0][0] ** args[0]


@_batch_rule("clip")
def _clip_rule(args, inputs, out_shape):
    return np.clip(inputs[0][0], args[0], args[1])


@_batch_rule("range_mask")
def _range_mask_rule(args, inputs, out_shape):
    x = inputs[0][0]
    low, high = args
    return ((x >= low) & (x <= high)).astype(x.dtype)


def _gemm_friendly(x: np.ndarray) -> np.ndarray:
    """Return ``x`` with every batch slice in a BLAS-compatible layout.

    A 3-D operand is fine as long as each ``(rows, cols)`` slice is plain or
    transposed contiguous (dgemm handles both); only when the *batch* stride
    is the smallest — slices interleaved element-by-element — does numpy fall
    back to a slow buffered loop, and one bulk copy is cheaper.
    """
    if x.ndim != 3:
        return x
    strides = x.strides
    if strides[0] >= strides[1] or strides[0] >= strides[2]:
        return x
    return np.ascontiguousarray(x)


@_batch_rule("matmul")
def _matmul_rule(args, inputs, out_shape):
    (a, a_batched), (b, b_batched) = inputs
    if a_batched and not b_batched:
        # (B, N, K) @ (K, M): fold the batch axis into the row axis so the
        # replay issues one large (B·N, K) @ (K, M) GEMM instead of B small
        # strided products.  For recorded shape (1, K) this is bit-for-bit
        # the (B, K) @ (K, M) GEMM an explicitly batched forward would issue.
        batch, rows, inner = a.shape
        if not a.flags.c_contiguous:
            a = np.ascontiguousarray(a)
        return np.matmul(a.reshape(batch * rows, inner), b).reshape(batch, rows, b.shape[1])
    if a_batched and b_batched and a.shape[2] == 1:
        # (B, N, 1) @ (B, 1, M): the per-example weight gradient of a dense
        # layer is an outer product — each output element is one multiply
        # added to a zeroed output, which is what dgemm computes.  An einsum
        # that sums over no index computes exactly ``0.0 + a * b`` (the
        # broadcast product ``a * b`` agrees except that it keeps a -0.0
        # product, which dgemm's zeroed output turns into +0.0), with an
        # inner loop over the M-wide rows instead of per-row ufunc dispatch,
        # and it skips numpy's per-slice batched-GEMM dispatch entirely.
        return np.einsum("bn,bm->bnm", a[:, :, 0], b[:, 0, :])
    # np.matmul handles the remaining cases natively — (N, K) @ (K, M),
    # (N, K) @ (B, K, M) and the genuinely batched (B, N, K) @ (B, K, M) —
    # *provided* each batch slice is a BLAS-compatible 2-D matrix.  An operand
    # whose batch axis carries the smallest stride (slices interleaved in
    # memory) would knock every slice off the dgemm fast path, so straighten
    # it with one bulk copy first.
    return np.matmul(_gemm_friendly(a), _gemm_friendly(b))


@_batch_rule("sum")
def _sum_rule(args, inputs, out_shape):
    x, batched = inputs[0]
    axis, keepdims = args
    if not batched:
        return np.sum(x, axis=axis, keepdims=keepdims)
    if axis is None:
        axis = tuple(range(1, x.ndim))
    else:
        axis = tuple(ax + 1 for ax in axis)
    return np.sum(x, axis=axis, keepdims=keepdims)


@_batch_rule("detached_max")
def _detached_max_rule(args, inputs, out_shape):
    x, batched = inputs[0]
    axis, keepdims = args
    return np.max(x, axis=axis + 1 if batched else axis, keepdims=keepdims)


@_batch_rule("broadcast_to")
def _broadcast_to_rule(args, inputs, out_shape):
    x, batched = inputs[0]
    (shape,) = args
    if not batched:
        return np.broadcast_to(x, shape)
    x = _align_batched(x, True, len(shape))
    return np.broadcast_to(x, (x.shape[0],) + shape)


@_batch_rule("reshape")
def _reshape_rule(args, inputs, out_shape):
    x, batched = inputs[0]
    (shape,) = args
    if not batched:
        return np.reshape(x, shape)
    return np.reshape(x, (x.shape[0],) + shape)


@_batch_rule("transpose")
def _transpose_rule(args, inputs, out_shape):
    x, batched = inputs[0]
    (axes,) = args
    if not batched:
        return np.transpose(x, axes)
    return np.transpose(x, (0,) + tuple(ax + 1 for ax in axes))


@_batch_rule("pad2d")
def _pad2d_rule(args, inputs, out_shape):
    x = inputs[0][0]
    padding = args[0]
    # the pad width is ndim-relative, so the same expression covers both the
    # recorded (N, C, H, W) layout and the batched (B, N, C, H, W) one
    pad_width = ((0, 0),) * (x.ndim - 2) + ((padding, padding), (padding, padding))
    return np.pad(x, pad_width)


@_batch_rule("crop2d")
def _crop2d_rule(args, inputs, out_shape):
    x = inputs[0][0]
    padding = args[0]
    sl = (slice(None),) * (x.ndim - 2) + (slice(padding, -padding), slice(padding, -padding))
    return x[sl]


@_batch_rule("index_select_last")
def _index_select_last_rule(args, inputs, out_shape):
    x = inputs[0][0]
    (indices,) = args
    # np.take (unlike ``x[..., indices]``, which lays the advanced axis
    # outermost in the result buffer) returns a C-contiguous gather — the
    # layout every downstream GEMM needs to stay on the BLAS fast path.
    return np.take(x, indices, axis=-1)


@_batch_rule("index_add_last")
def _index_add_last_rule(args, inputs, out_shape):
    x, batched = inputs[0]
    indices, size = args
    if not batched:
        return _scatter_add_2d(x, indices, size)
    batch, rows, cols = x.shape
    flat = _scatter_add_2d(np.ascontiguousarray(x).reshape(batch * rows, cols), indices, size)
    return flat.reshape(batch, rows, size)


# ----------------------------------------------------------------------
# Operator overloading on Tensor
# ----------------------------------------------------------------------
def _bind_operators() -> None:
    Tensor.__add__ = lambda self, other: add(self, other)
    Tensor.__radd__ = lambda self, other: add(other, self)
    Tensor.__sub__ = lambda self, other: sub(self, other)
    Tensor.__rsub__ = lambda self, other: sub(other, self)
    Tensor.__mul__ = lambda self, other: mul(self, other)
    Tensor.__rmul__ = lambda self, other: mul(other, self)
    Tensor.__truediv__ = lambda self, other: div(self, other)
    Tensor.__rtruediv__ = lambda self, other: div(other, self)
    Tensor.__neg__ = lambda self: neg(self)
    Tensor.__pow__ = lambda self, exponent: pow_scalar(self, exponent)
    Tensor.__matmul__ = lambda self, other: matmul(self, other)
    Tensor.sum = lambda self, axis=None, keepdims=False: tsum(self, axis=axis, keepdims=keepdims)
    Tensor.mean = lambda self, axis=None, keepdims=False: mean(self, axis=axis, keepdims=keepdims)
    Tensor.reshape = lambda self, *shape: reshape(
        self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape
    )
    Tensor.transpose = lambda self, axes=None: transpose(self, axes)
    Tensor.exp = lambda self: exp(self)
    Tensor.log = lambda self: log(self)
    Tensor.sqrt = lambda self: sqrt(self)
    Tensor.tanh = lambda self: tanh(self)
    Tensor.relu = lambda self: relu(self)
    Tensor.abs = lambda self: abs_(self)


_bind_operators()
