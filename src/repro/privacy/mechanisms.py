"""Noise mechanisms for differential privacy.

Implements the Gaussian mechanism of Definition 2 and its calibration rule
(Lemma 1): noise with standard deviation ``sigma * S`` added to a function of
L2-sensitivity ``S`` yields ``(epsilon, delta)``-DP when
``sigma^2 > 2 log(1.25 / delta) / epsilon^2``.

A Fed-CDP client's per-example noise, and the batch indices drawn between
it, can be drawn ahead on one worker thread, in row blocks, while the caller
computes what the noise is added to; see :class:`LocalStream`.
"""

from __future__ import annotations

import math
import os
import queue
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = ["GaussianMechanism", "LocalStream", "StepNoise", "calibrate_sigma", "epsilon_for_sigma"]

#: Smallest client noise stream (``L * B * P`` normals, 1 MiB of float64)
#: that a :class:`LocalStream` hands to the worker thread, and the least a
#: row block of a step's draw holds.  Below it the thread handoff and the
#: GIL reacquisitions cost more than the draws they hide.
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


class StepNoise(NamedTuple):
    """One local step's ``(B, P)`` noise draw, as the row blocks of a :class:`LocalStream`."""

    mechanism: "GaussianMechanism"
    #: the step's blocks in row order; a block is valid until the next is taken
    blocks: Iterator[np.ndarray]


class LocalStream:
    """The whole random stream of one client's local loop, in stream order.

    Each of ``steps`` steps draws its batch indices, ``draw_indices(rng)``
    (none when ``draw_indices`` is ``None``), and then, when ``mechanism``
    adds noise, its ``(batch, width)`` per-example noise by
    :meth:`GaussianMechanism.fill_noise`, in row blocks of
    ``ceil(OFFLOAD_MIN_DRAWS / width)`` rows (a step's last block may hold
    fewer).  Iterating yields ``(indices, noise)`` per step, ``noise`` a
    :class:`StepNoise` or ``None``; a step's blocks are taken before the next
    step is.

    When the whole stream holds at least :data:`OFFLOAD_MIN_DRAWS` normals,
    one task on the process's noise thread draws all of it ahead, into a
    ring of row blocks allocated on the calling thread: a used block's slot
    is refilled with a later block, and a step waits only for what is not
    drawn yet.  The ring holds whole steps: one, or as many as
    ``2 * OFFLOAD_MIN_DRAWS`` normals fill, so that the draws of small steps
    stay more than a step ahead (see :meth:`_release_step`).  A smaller stream is
    drawn on the calling thread, each draw when it is reached.  Either way
    ``rng`` is consumed in the same order, so every value is the same.
    Nothing else may use ``rng`` until :meth:`close` (or leaving the
    ``with`` block) has returned.  The noise thread runs one stream at a
    time: close a stream before iterating another.
    """

    def __init__(
        self,
        mechanism: Optional["GaussianMechanism"],
        rng: np.random.Generator,
        steps: int,
        batch: int,
        width: int,
        draw_indices: Optional[Callable[[np.random.Generator], np.ndarray]] = None,
    ) -> None:
        self.mechanism = mechanism if mechanism is not None and mechanism.stddev > 0 else None
        self.steps, self.width = steps, width
        rows = max(1, -(-OFFLOAD_MIN_DRAWS // max(width, 1)))
        self.row_bounds = [(start, min(start + rows, batch)) for start in range(0, batch, rows)]
        self._rng = rng
        self._draw_indices = draw_indices
        self._task: Optional["Future[None]"] = None
        draws = steps * batch * width if self.mechanism is not None else 0
        if draws and draws >= OFFLOAD_MIN_DRAWS:
            self._start()

    def _start(self) -> None:
        per_step = len(self.row_bounds)
        batch = self.row_bounds[-1][1]
        # max(one step, 2 * OFFLOAD_MIN_DRAWS normals in whole blocks) is a
        # whole number of steps: a step splits into blocks only when one
        # block already holds OFFLOAD_MIN_DRAWS normals
        blocks = max(per_step, -(-2 * OFFLOAD_MIN_DRAWS // (self.row_bounds[0][1] * self.width)))
        depth = min(blocks // per_step, self.steps)
        # Allocated here, on the calling thread: a buffer allocated on the
        # worker would live in that thread's own malloc arena.
        self._ring = np.empty((depth, batch, self.width))
        # each ``_free`` token is one block's slot the task may fill;
        # ``_drawn`` holds what it drew, in stream order (``None`` after an error)
        self._free: "queue.SimpleQueue[None]" = queue.SimpleQueue()
        for _ in range(depth * per_step):
            self._free.put(None)
        self._drawn: "queue.SimpleQueue[Optional[np.ndarray]]" = queue.SimpleQueue()
        self._cancelled = False
        # a ring of two or more steps frees a step's slots only when the next
        # step starts (see _release_step); ``_held`` counts the slots kept
        self._defer_frees = depth >= 2
        self._held = 0
        self._task = _noise_executor().submit(self._produce)

    # -- the noise thread ----------------------------------------------
    def _produce(self) -> None:
        rng, ring, free, drawn = self._rng, self._ring, self._free, self._drawn
        try:
            for step in range(self.steps):
                rows = ring[step % len(ring)]
                for block, (start, stop) in enumerate(self.row_bounds):
                    free.get()
                    if self._cancelled:
                        return
                    if block == 0 and self._draw_indices is not None:
                        drawn.put(self._draw_indices(rng))
                    # only the GIL-free fill: scaling too would release the GIL once more
                    drawn.put(rng.standard_normal(out=rows[start:stop]))
        except BaseException:
            drawn.put(None)  # wakes the consumer, which raises this error
            raise

    # -- the calling thread --------------------------------------------
    def __iter__(self) -> Iterator[Tuple[Optional[np.ndarray], Optional[StepNoise]]]:
        streamed = self._task is not None
        for _ in range(self.steps):
            if streamed and self._defer_frees:
                self._release_step()
            indices = None
            if self._draw_indices is not None:
                indices = self._next() if streamed else self._draw_indices(self._rng)
            if self.mechanism is None:
                yield indices, None
            else:
                blocks = self._streamed_blocks() if streamed else self._inline_blocks()
                yield indices, StepNoise(self.mechanism, blocks)

    def _release_step(self) -> None:
        """Free the last step's slots, now that the next step starts.

        A small step's replay holds the GIL nearly throughout.  A task woken
        in its middle by a freed slot would take the GIL at the replay's
        next release and this thread would sleep until it is handed back,
        so a small step's slots are freed only here, between steps.
        """
        for _ in range(self._held):
            self._free.put(None)
        self._held = len(self.row_bounds)

    def _next(self) -> np.ndarray:
        item = self._drawn.get()
        if item is None:
            self._task.result()  # raises the noise thread's error
        return item

    def _streamed_blocks(self) -> Iterator[np.ndarray]:
        for _ in self.row_bounds:
            block = self._next()
            block *= self.mechanism.stddev  # completes fill_noise
            yield block
            if not self._defer_frees:
                self._free.put(None)  # the block is used up: its slot may be refilled

    def _inline_blocks(self) -> Iterator[np.ndarray]:
        for start, stop in self.row_bounds:
            block = np.empty((stop - start, self.width), dtype=np.float64)
            yield self.mechanism.fill_noise(block, self._rng)

    def close(self) -> None:
        """Stop the noise thread's task, wait for it, and free the ring.

        ``rng`` is the caller's again once this returns.  An error of the
        task is raised here; leaving a ``with`` block on an error only waits.
        """
        task = self._stop()
        if task is not None:
            task.result()

    def _stop(self) -> Optional["Future[None]"]:
        task, self._task = self._task, None
        if task is not None:
            self._cancelled = True
            self._free.put(None)  # a task waiting for a free slot wakes and stops
            task.exception()  # waits
            self._ring = self._drawn = None
        return task

    def __enter__(self) -> "LocalStream":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc_type is None:
            self.close()
        else:
            self._stop()


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

    def add_noise(self, value: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Return ``value`` plus iid Gaussian noise of standard deviation :attr:`stddev`."""
        value = np.asarray(value, dtype=np.float64)
        if self.stddev == 0.0:
            return np.array(value, copy=True)
        return value + rng.normal(0.0, self.stddev, size=value.shape)

    def add_noise_to_list(
        self, values: Sequence[np.ndarray], rng: np.random.Generator
    ) -> List[np.ndarray]:
        """Apply :meth:`add_noise` independently to each array in a list.

        This is the layer-wise form used by both Fed-SDP (Algorithm 1, line
        13) and Fed-CDP (Algorithm 2, line 14), where the model update is a
        list of per-layer arrays.
        """
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

    def add_noise_to_stack(
        self,
        stack: Sequence[np.ndarray],
        rng: Optional[np.random.Generator],
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
        :class:`LocalStream`); it is used instead of drawing from ``rng``,
        which may then be ``None``.  Without ``noise``, ``rng`` is required.
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
            if rng is None:
                raise ValueError("add_noise_to_stack needs an rng or a noise draw")
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
