"""Core ``Tensor`` type for the reverse-mode automatic differentiation engine.

The federated learning algorithms in this repository (Fed-CDP, Fed-SDP and the
gradient-leakage attacks they defend against) all operate on gradients of a
differentiable model.  The original paper relies on TensorFlow for this; in
this offline reproduction we implement the substrate ourselves on top of
numpy.

The engine is deliberately small but supports *higher-order* differentiation:
every primitive operation records a backward function that is itself written
in terms of ``Tensor`` operations, so gradients of gradients can be taken.
Second-order gradients are required by the gradient-inversion attack
(:mod:`repro.attacks.multistart`), which differentiates a gradient-matching
loss with respect to the *input image*.

Only the pieces of a tensor library that the reproduction needs are provided;
the design goal is correctness (verified with numerical gradient checks in
``tests/autodiff``) rather than completeness.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Tensor",
    "as_tensor",
    "zeros",
    "ones",
    "zeros_like",
    "ones_like",
    "no_grad",
    "is_grad_enabled",
    "tracing",
    "is_tracing",
]


ArrayLike = Union["Tensor", np.ndarray, float, int, Sequence]

_DEFAULT_DTYPE = np.float64


class _GradMode(threading.local):
    """Thread-local flags controlling whether operations record a graph."""

    def __init__(self) -> None:
        self.enabled = True
        self.tracing = False


_grad_mode = _GradMode()


def is_grad_enabled() -> bool:
    """Return ``True`` when operations currently record the autodiff graph."""
    return _grad_mode.enabled


def is_tracing() -> bool:
    """Return ``True`` inside a :func:`tracing` block (batched-graph capture)."""
    return _grad_mode.tracing


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording.

    Used for evaluation passes and for the internals of
    :func:`repro.autodiff.grad.grad` when ``create_graph=False``, so that the
    backward pass does not itself allocate graph nodes.
    """
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


@contextlib.contextmanager
def tracing():
    """Context manager enabling batched-graph capture.

    While active, every primitive op records its parents, name and static
    arguments on the result tensor *even when no parent requires grad*, so the
    full forward computation (including chains hanging off non-differentiated
    inputs, e.g. the im2col gather of a conv input) can later be replayed over
    a leading batch axis by :mod:`repro.autodiff.batched`.  Differentiation
    semantics are unchanged — only the recorded metadata grows.
    """
    previous = _grad_mode.tracing
    _grad_mode.tracing = True
    try:
        yield
    finally:
        _grad_mode.tracing = previous


class Tensor:
    """A numpy-backed array that participates in the autodiff graph.

    Parameters
    ----------
    data:
        Array-like payload.  It is converted to a ``float64`` numpy array.
    requires_grad:
        When ``True`` the tensor is a differentiation target: gradients can be
        requested for it via :func:`repro.autodiff.grad.grad` or accumulated
        into :attr:`grad` by :meth:`backward`.
    name:
        Optional human-readable label used in ``repr`` and error messages.
    """

    __slots__ = (
        "data",
        "requires_grad",
        "grad",
        "name",
        "_parents",
        "_backward_fn",
        "_op_name",
        "_op_args",
    )

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[Tensor] = None
        self.name = name
        self._parents: Tuple[Tensor, ...] = ()
        self._backward_fn: Optional[Callable[[Tensor], Tuple[Optional[Tensor], ...]]] = None
        self._op_name: Optional[str] = None
        self._op_args: Tuple = ()

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def _from_op(
        cls,
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward_fn: Optional[Callable[["Tensor"], Tuple[Optional["Tensor"], ...]]],
        op_name: str,
        op_args: Tuple = (),
        differentiable: bool = True,
    ) -> "Tensor":
        """Create the result tensor of a primitive operation.

        The resulting tensor requires grad (and records the graph edge) only
        when grad mode is enabled and at least one parent requires grad.
        Inside a :func:`tracing` block the edge (parents, op name and the op's
        static ``op_args``) is recorded unconditionally so the computation can
        be replayed over a batch axis; ``differentiable=False`` marks ops that
        block gradient flow (data-dependent masks and shifts) while still
        being replayable.
        """
        requires = differentiable and is_grad_enabled() and any(p.requires_grad for p in parents)
        out = cls(data, requires_grad=requires)
        if requires or _grad_mode.tracing:
            out._parents = parents
            out._backward_fn = backward_fn if differentiable else None
            out._op_name = op_name
            out._op_args = op_args
        return out

    @property
    def is_leaf(self) -> bool:
        """A leaf tensor has no recorded parents (it was created by the user)."""
        return self._backward_fn is None

    # ------------------------------------------------------------------
    # Basic numpy-like properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a scalar tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False, name=self.name)

    def clone(self) -> "Tensor":
        """Return a copy of this tensor detached from the graph."""
        return Tensor(self.data.copy(), requires_grad=self.requires_grad, name=self.name)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def accumulate_grad(self, value: "Tensor") -> None:
        """Add ``value`` into :attr:`grad` (allocating it on first use)."""
        if self.grad is None:
            self.grad = Tensor(np.array(value.data, copy=True))
        else:
            self.grad = Tensor(self.grad.data + value.data)

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" name={self.name!r}" if self.name else ""
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad}{label}, op={self._op_name})"

    def __len__(self) -> int:
        return len(self.data)

    # Arithmetic dunders are attached by :mod:`repro.autodiff.ops` at import
    # time to keep this module free of operation implementations.

    def backward(self, grad_output: Optional["Tensor"] = None) -> None:
        """Accumulate gradients of this tensor into every reachable leaf.

        Equivalent to ``torch.Tensor.backward``: gradients end up in the
        ``grad`` attribute of leaf tensors with ``requires_grad=True``.
        """
        from .grad import backward as _backward

        _backward(self, grad_output=grad_output)


def as_tensor(value: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already a tensor)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


def zeros(shape: Union[int, Tuple[int, ...]], requires_grad: bool = False) -> Tensor:
    """Return a tensor of zeros with the given shape."""
    return Tensor(np.zeros(shape, dtype=_DEFAULT_DTYPE), requires_grad=requires_grad)


def ones(shape: Union[int, Tuple[int, ...]], requires_grad: bool = False) -> Tensor:
    """Return a tensor of ones with the given shape."""
    return Tensor(np.ones(shape, dtype=_DEFAULT_DTYPE), requires_grad=requires_grad)


def zeros_like(t: Union[Tensor, np.ndarray], requires_grad: bool = False) -> Tensor:
    """Return a zero tensor with the same shape as ``t``."""
    data = t.data if isinstance(t, Tensor) else np.asarray(t)
    return Tensor(np.zeros_like(data, dtype=_DEFAULT_DTYPE), requires_grad=requires_grad)


def ones_like(t: Union[Tensor, np.ndarray], requires_grad: bool = False) -> Tensor:
    """Return a ones tensor with the same shape as ``t``."""
    data = t.data if isinstance(t, Tensor) else np.asarray(t)
    return Tensor(np.ones_like(data, dtype=_DEFAULT_DTYPE), requires_grad=requires_grad)
