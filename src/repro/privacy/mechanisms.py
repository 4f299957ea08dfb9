"""Noise mechanisms for differential privacy.

Implements the Gaussian mechanism of Definition 2 and its calibration rule
(Lemma 1): noise with standard deviation ``sigma * S`` added to a function of
L2-sensitivity ``S`` yields ``(epsilon, delta)``-DP when
``sigma^2 > 2 log(1.25 / delta) / epsilon^2``.

Large per-example noise draws (Fed-CDP's ``(B, P)`` stack) can run on one
worker thread, in row blocks, while the caller computes what the noise is
added to; see :meth:`GaussianMechanism.start_stack_noise`.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["GaussianMechanism", "calibrate_sigma", "epsilon_for_sigma"]

#: Smallest stacked noise draw (``B * P`` normals, 1 MiB of float64) that
#: :meth:`GaussianMechanism.start_stack_noise` hands to the worker thread,
#: and the least a row block of such a draw holds.  Below it the thread
#: handoff and the GIL reacquisition cost more than the draw they hide.
OFFLOAD_MIN_DRAWS = 1 << 17

_noise_worker: Optional[ThreadPoolExecutor] = None


def _noise_executor() -> ThreadPoolExecutor:
    """The process's single noise-drawing thread, started on first use."""
    global _noise_worker
    if _noise_worker is None:
        _noise_worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-noise")
    return _noise_worker


def _forget_noise_executor() -> None:
    # A forked child inherits the executor's idle-thread bookkeeping but not
    # its thread, so a submit there would queue work nobody runs.
    global _noise_worker
    _noise_worker = None


if hasattr(os, "register_at_fork"):  # absent where processes cannot fork
    os.register_at_fork(after_in_child=_forget_noise_executor)


class StackNoise:
    """A ``(B, P)`` noise draw delivered in row blocks, in stream order.

    Each block holds ``ceil(OFFLOAD_MIN_DRAWS / P)`` rows (the last may hold
    fewer).  Iterating yields the blocks in order: an offloaded draw's blocks
    were all submitted, in order, to the single noise thread, which runs them
    first in, first out, so consuming ``rng`` exactly as one ``(B, P)`` draw
    does; iteration waits for each.  Otherwise each block is drawn on the
    calling thread when it is reached.  Until every block is drawn nothing
    else may use ``rng``; a caller abandoning the step calls :meth:`wait`.
    """

    def __init__(
        self,
        mechanism: "GaussianMechanism",
        shape: Tuple[int, int],
        rng: np.random.Generator,
        offload: bool,
    ) -> None:
        self.mechanism = mechanism
        self.shape = shape
        batch, width = shape
        rows = max(1, -(-OFFLOAD_MIN_DRAWS // max(width, 1)))
        self.row_bounds = [(start, min(start + rows, batch)) for start in range(0, batch, rows)]
        self._rng = rng
        self._pending: Optional[List["Future[np.ndarray]"]] = None
        if offload:
            # Allocated here, on the calling thread: a buffer allocated on
            # the worker would live in that thread's own malloc arena.
            buffer = np.empty(shape, dtype=np.float64)
            worker = _noise_executor()
            self._pending = [
                worker.submit(mechanism.fill_noise, buffer[start:stop], rng)
                for start, stop in self.row_bounds
            ]

    def __iter__(self) -> Iterator[np.ndarray]:
        if self._pending is not None:
            for block in self._pending:
                yield block.result()
            return
        for start, stop in self.row_bounds:
            block = np.empty((stop - start, self.shape[1]), dtype=np.float64)
            yield self.mechanism.fill_noise(block, self._rng)

    def wait(self) -> None:
        """Wait until no block of an offloaded draw is still using ``rng``."""
        for block in self._pending or ():
            block.exception()


def calibrate_sigma(epsilon: float, delta: float) -> float:
    """Smallest noise multiplier ``sigma`` satisfying Lemma 1 for one release.

    ``sigma^2 > 2 ln(1.25/delta) / epsilon^2`` (valid for ``0 < epsilon < 1``).
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


def epsilon_for_sigma(sigma: float, delta: float) -> float:
    """Inverse of :func:`calibrate_sigma`: epsilon guaranteed by a noise multiplier."""
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return math.sqrt(2.0 * math.log(1.25 / delta)) / sigma


@dataclass
class GaussianMechanism:
    """Additive Gaussian noise calibrated to an L2 sensitivity.

    Parameters
    ----------
    noise_scale:
        The noise multiplier ``sigma`` (the paper's default is 6).
    sensitivity:
        The L2 sensitivity ``S``; the paper estimates it with the clipping
        bound ``C`` (default 4), so the injected noise is ``N(0, sigma^2 C^2)``.
    """

    noise_scale: float
    sensitivity: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.noise_scale) and self.noise_scale >= 0):
            raise ValueError(
                f"noise_scale must be non-negative and finite, got {self.noise_scale}"
            )
        if not (math.isfinite(self.sensitivity) and self.sensitivity >= 0):
            raise ValueError(
                f"sensitivity must be non-negative and finite, got {self.sensitivity}"
            )

    @property
    def stddev(self) -> float:
        """Standard deviation ``sigma * S`` of the injected noise."""
        return self.noise_scale * self.sensitivity

    def add_noise(self, value: np.ndarray, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Return ``value`` plus iid Gaussian noise of standard deviation :attr:`stddev`."""
        rng = rng if rng is not None else np.random.default_rng()
        value = np.asarray(value, dtype=np.float64)
        if self.stddev == 0.0:
            return np.array(value, copy=True)
        return value + rng.normal(0.0, self.stddev, size=value.shape)

    def add_noise_to_list(
        self, values: Sequence[np.ndarray], rng: Optional[np.random.Generator] = None
    ) -> List[np.ndarray]:
        """Apply :meth:`add_noise` independently to each array in a list.

        This is the layer-wise form used by both Fed-SDP (Algorithm 1, line
        13) and Fed-CDP (Algorithm 2, line 14), where the model update is a
        list of per-layer arrays.
        """
        rng = rng if rng is not None else np.random.default_rng()
        return [self.add_noise(value, rng=rng) for value in values]

    def fill_noise(self, out: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Overwrite the float64 array ``out`` with noise and return it.

        Bit for bit (sign included) what ``rng.normal(0.0, self.stddev,
        out.shape)`` returns, and it leaves ``rng`` in the same state: numpy
        computes that as ``0.0 + stddev * z`` over the same standard normals.
        """
        rng.standard_normal(out=out)
        out *= self.stddev
        return out

    def start_stack_noise(
        self, shape: Tuple[int, int], rng: np.random.Generator
    ) -> Optional[StackNoise]:
        """Start drawing a ``(B, P)`` stack's noise in row blocks; see :class:`StackNoise`.

        When the draw has at least :data:`OFFLOAD_MIN_DRAWS` normals, its
        blocks are filled by :meth:`fill_noise` on the process's noise thread
        (numpy's bulk fill releases the GIL) while the caller computes what
        they are added to; a smaller draw is one block, drawn on the calling
        thread when it is consumed.  Returns ``None`` when the noise is zero.
        """
        if self.stddev == 0.0:
            return None
        offload = shape[0] * shape[1] >= OFFLOAD_MIN_DRAWS
        return StackNoise(self, shape, rng, offload)

    def add_noise_to_stack(
        self,
        stack: Sequence[np.ndarray],
        rng: Optional[np.random.Generator] = None,
        noise: Optional[np.ndarray] = None,
    ) -> List[np.ndarray]:
        """Noise a stacked per-example representation in a single RNG call.

        ``stack`` holds one ``(B, *param_shape)`` array per layer (the output
        of :func:`repro.nn.perexample.per_example_gradients`).  All
        ``B * sum(param sizes)`` Gaussian draws happen in one flat
        ``(B, total)`` request that is then sliced per layer, so the consumed
        RNG stream is **identical** to looping over examples and calling
        :meth:`add_noise_to_list` on each example's per-layer gradients —
        a fixed seed yields a bitwise-identical sanitized update on either
        path.

        ``noise`` is that ``(B, total)`` draw already made (a block of a
        :class:`StackNoise`); it is used instead of drawing from ``rng``.
        The returned arrays are views of the noise buffer, into which
        ``stack`` has been added in place.
        """
        if self.stddev == 0.0:
            return [np.array(value, dtype=np.float64, copy=True) for value in stack]
        if not stack:
            return []
        batch = stack[0].shape[0]
        sizes = [math.prod(value.shape[1:]) for value in stack]
        shape = (batch, int(sum(sizes)))
        if noise is None:
            rng = rng if rng is not None else np.random.default_rng()
            flat_noise = self.fill_noise(np.empty(shape, dtype=np.float64), rng)
        elif noise.shape != shape:
            raise ValueError(f"noise has shape {noise.shape}; the stack needs {shape}")
        else:
            flat_noise = noise
        noised: List[np.ndarray] = []
        offset = 0
        for value, size in zip(stack, sizes):
            layer_noise = flat_noise[:, offset : offset + size].reshape(value.shape)
            layer_noise += value
            noised.append(layer_noise)
            offset += size
        return noised

    def epsilon(self, delta: float) -> float:
        """Single-release epsilon implied by this mechanism's noise multiplier."""
        return epsilon_for_sigma(self.noise_scale, delta)

    def with_sensitivity(self, sensitivity: float) -> "GaussianMechanism":
        """A copy of this mechanism with a different sensitivity (e.g. a decayed C)."""
        return GaussianMechanism(self.noise_scale, sensitivity)
