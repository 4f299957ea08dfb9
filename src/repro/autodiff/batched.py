"""Batched-graph transform: replay a recorded graph over a leading batch axis.

This is a vmap-style program transform for the autodiff engine.  A
computation is *traced once* on a single example inside a
:func:`~repro.autodiff.tensor.tracing` block — including its backward pass,
when the trace calls :func:`~repro.autodiff.grad.grad` with
``create_graph=True``, because backward functions are themselves built from
recorded primitives.  The resulting graph is compiled into a flat list of
numpy-only steps, and :meth:`BatchedGraph.replay` executes those steps with a
stacked ``(B, ...)`` leading axis on the designated inputs, using the per-op
batch rules declared in :data:`repro.autodiff.ops.BATCH_RULES`.

Because every rule maps the batch axis independently (elementwise ops
trivially, ``matmul`` as a batched GEMM, reductions per-slice), slice ``b`` of
every replayed value is exactly what the recorded computation would produce
for example ``b`` alone — which turns one trace of "loss and parameter
gradients of a single example" into per-example gradients for a whole batch
in a single pass.  Two consumers build on this:

* :func:`repro.nn.perexample.per_example_gradients_batched` — the Fed-CDP
  per-example clipping hot path for dense *and* conv models;
* :mod:`repro.attacks.multistart` — gradient inversion (offline and
  in-loop, one or several restarts) as one batched L-BFGS objective, for
  every supported model and objective.

Leaves of the recorded graph are classified at compile time:

* **batched inputs** — named leaves fed with a ``(B, *recorded_shape)`` array
  on every replay (the example/dummy and its one-hot target);
* **parameters** — leaves whose ``.data`` is re-read live on every replay, so
  a graph traced once stays valid across weight updates
  (:meth:`repro.nn.module.Module.set_weights` mutates parameter data in
  place on stable ``Tensor`` objects);
* **constants** — everything else is baked by reference (scalar counts,
  gradient seeds, attack target gradients).

Data-dependent values inside backward closures (relu masks, clip masks, abs
signs, the logsumexp shift) are recorded as non-differentiable primitives and
therefore *recomputed from the batched values* during replay — see the module
docstring of :mod:`repro.autodiff.ops`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .ops import BATCH_RULES
from .tensor import Tensor, tracing  # noqa: F401  (tracing re-exported for consumers)

__all__ = ["BatchedGraph", "tracing"]


def _full_topological_order(outputs: Sequence[Tensor]) -> List[Tensor]:
    """All tensors reachable from ``outputs`` through recorded parents,
    parents before children.

    Unlike :func:`repro.autodiff.grad.topological_order` this walks *every*
    recorded edge, not only those participating in differentiation — a trace
    records parents for non-differentiated chains too (e.g. the im2col gather
    of a conv input that never requires grad).
    """
    order: List[Tensor] = []
    visited: set = set()
    stack: List[tuple] = [(out, False) for out in reversed(outputs)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


# step kinds, dispatched on in the replay loop
_OP, _BATCHED, _PARAM, _CONST = 0, 1, 2, 3


class BatchedGraph:
    """A compiled recorded graph, replayable over a leading batch axis.

    Parameters
    ----------
    outputs:
        The recorded tensors whose replayed values are wanted (e.g. one
        gradient node per model parameter, plus the per-example loss).
    batched_inputs:
        Mapping of feed name to the recorded *leaf* tensor that will receive
        a ``(B, *recorded_shape)`` array on every replay.
    params:
        Leaf tensors whose ``.data`` is read live on each replay (model
        parameters).  Everything else reachable is baked as a constant.
    """

    def __init__(
        self,
        outputs: Sequence[Tensor],
        batched_inputs: Mapping[str, Tensor],
        params: Sequence[Tensor] = (),
    ) -> None:
        outputs = list(outputs)
        if not outputs:
            raise ValueError("a batched graph needs at least one output")
        if not batched_inputs:
            raise ValueError("a batched graph needs at least one batched input")
        for name, leaf in batched_inputs.items():
            if leaf._parents:
                raise ValueError(f"batched input {name!r} is not a leaf tensor")

        nodes = _full_topological_order(outputs)
        slot_of: Dict[int, int] = {id(node): i for i, node in enumerate(nodes)}
        batched_ids = {id(leaf): name for name, leaf in batched_inputs.items()}
        param_ids = {id(p) for p in params}

        self._steps: List[tuple] = []
        self._batched_flags: List[bool] = []
        #: recorded single-example shape of each batched feed, for validation
        self.input_shapes: Dict[str, Tuple[int, ...]] = {
            name: tuple(leaf.shape) for name, leaf in batched_inputs.items()
        }

        for node in nodes:
            if node._parents:
                rule = BATCH_RULES.get(node._op_name)
                if rule is None:
                    raise ValueError(
                        f"op {node._op_name!r} declares no batch rule; it cannot "
                        "be replayed over a batch axis"
                    )
                parent_slots = tuple(slot_of[id(p)] for p in node._parents)
                batched = any(self._batched_flags[s] for s in parent_slots)
                self._steps.append((_OP, rule, node._op_args, parent_slots, tuple(node.shape)))
            elif id(node) in batched_ids:
                batched = True
                self._steps.append((_BATCHED, batched_ids[id(node)]))
            elif id(node) in param_ids:
                batched = False
                self._steps.append((_PARAM, node))
            else:
                batched = False
                self._steps.append((_CONST, node.data))
            self._batched_flags.append(batched)

        self._output_slots = [slot_of[id(out)] for out in outputs]
        # Liveness: a replay pass drops each value right after its last
        # reader runs, so it holds only the live intermediates; outputs are
        # kept.  The graph is walked back from the outputs, so every other
        # slot has a reader, and only op steps read: each op step carries the
        # slots that die once it has run.
        last_reader: Dict[int, int] = {}
        for slot, step in enumerate(self._steps):
            if step[0] == _OP:
                for parent in step[3]:
                    last_reader[parent] = slot
        for slot in self._output_slots:
            last_reader.pop(slot, None)
        dead_after: Dict[int, List[int]] = {}
        for slot, reader in last_reader.items():
            dead_after.setdefault(reader, []).append(slot)
        self._steps = [
            step + (tuple(dead_after.get(slot, ())),) if step[0] == _OP else step
            for slot, step in enumerate(self._steps)
        ]

        #: whether each output carries the batch axis (static property of the
        #: graph: an output is batched iff a batched input reaches it)
        self.output_batched: List[bool] = [self._batched_flags[s] for s in self._output_slots]
        #: bytes of batched intermediates produced per example — drives the
        #: cache-friendly auto-chunking of :meth:`replay`
        self.bytes_per_example: int = sum(
            int(np.prod(step[4])) * 8
            for step, batched in zip(self._steps, self._batched_flags)
            if batched and step[0] == _OP
        )

    # A full-batch replay streams every intermediate through memory once; when
    # the working set overflows the cache the whole pass turns DRAM-bound.
    # Replaying in batch chunks sized to keep the intermediates cache-resident
    # is substantially faster (slices are independent, so it is also exact).
    _CHUNK_TARGET_BYTES = 64 * 1024 * 1024
    _CHUNK_MIN = 8

    def _auto_chunk(self, batch: int) -> int:
        if self.bytes_per_example <= 0:
            return batch
        chunk = self._CHUNK_TARGET_BYTES // self.bytes_per_example
        return max(self._CHUNK_MIN, min(batch, int(chunk)))

    def replay(self, feeds: Mapping[str, np.ndarray], chunk: int = 0) -> List[np.ndarray]:
        """Execute the compiled graph with batched feeds.

        Each feed must have shape ``(B, *recorded_shape)`` for its input (the
        same ``B`` across feeds).  Returns one array per output: shape
        ``(B, *recorded_shape)`` where :attr:`output_batched` holds, the
        recorded shape otherwise.

        ``chunk`` bounds how many examples run per pass (0 picks a
        cache-friendly size automatically; pass ``batch`` to force a single
        full-width pass).  Chunking never changes values — batch slices are
        computed independently by construction.
        """
        batch = None
        for name, expected in self.input_shapes.items():
            value = feeds[name]
            if value.shape[1:] != expected:
                raise ValueError(
                    f"feed {name!r} has shape {value.shape}; expected "
                    f"(B, {', '.join(map(str, expected))})"
                )
            if batch is None:
                batch = value.shape[0]
            elif value.shape[0] != batch:
                raise ValueError("all batched feeds must share the same leading batch size")

        chunk = self._auto_chunk(batch) if chunk <= 0 else min(chunk, batch)
        if chunk >= batch:
            return self._replay_pass(feeds)
        parts = [
            self._replay_pass({name: value[s : s + chunk] for name, value in feeds.items()})
            for s in range(0, batch, chunk)
        ]
        return [
            np.concatenate([p[i] for p in parts]) if is_batched else parts[0][i]
            for i, is_batched in enumerate(self.output_batched)
        ]

    def _replay_pass(self, feeds: Mapping[str, np.ndarray]) -> List[np.ndarray]:
        flags = self._batched_flags
        values: List[np.ndarray] = [None] * len(self._steps)  # type: ignore[list-item]
        for slot, step in enumerate(self._steps):
            kind = step[0]
            if kind == _OP:
                _, rule, op_args, parent_slots, out_shape, dead = step
                inputs = tuple((values[s], flags[s]) for s in parent_slots)
                values[slot] = rule(op_args, inputs, out_shape)
                for s in dead:
                    values[s] = None
            elif kind == _BATCHED:
                values[slot] = np.asarray(feeds[step[1]], dtype=np.float64)
            elif kind == _PARAM:
                values[slot] = step[1].data
            else:
                values[slot] = step[1]
        return [values[s] for s in self._output_slots]
