"""Property and unit tests for the batched-graph transform.

The invariant under test is the vmap contract of
:class:`repro.autodiff.batched.BatchedGraph`: for *any* recorded graph built
from ops with batch rules, slice ``b`` of every replayed output equals what
the recorded computation produces when run directly on example ``b`` alone —
including the backward pass recorded under ``create_graph=True``.  Hypothesis
drives randomly composed op pipelines through trace/replay; deterministic
tests pin down the edge cases (batch of one, changing batch sizes between
replays, chunked replay, non-batched outputs, and the compile-time
validation errors).  The compile passes (common-subexpression elimination
and constant folding) are checked against a replay of the step list as
traced, bit for bit, and by the op-step counts of the repository's traces.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import (
    BatchedGraph,
    Tensor,
    abs_,
    add,
    clip_values,
    exp,
    grad,
    logsumexp,
    matmul,
    mul,
    relu,
    sigmoid,
    softmax,
    sqrt,
    tanh,
    tracing,
    tsum,
)
from repro.attacks.multistart import MultiRestartReconstruction
from repro.attacks.reconstruction import AttackConfig
from repro.autodiff import batched as batched_module
from repro.autodiff.ops import BATCH_RULES
from repro.data.registry import get_dataset_spec
from repro.nn import build_model_for_dataset
from repro.nn.perexample import _per_example_trace

ATOL = 1e-10
#: replayed GEMMs may reassociate float ops vs the per-row reference, so
#: comparisons on randomly composed pipelines (where repeated `square` ops
#: push magnitudes to 1e6+) need a relative term on top of the absolute one
RTOL = 1e-9

#: op pool for the random pipelines: name -> (needs_weight, apply(x, weight))
_PIPELINE_OPS = {
    "relu": (False, lambda x, w: relu(x)),
    "tanh": (False, lambda x, w: tanh(x)),
    "sigmoid": (False, lambda x, w: sigmoid(x)),
    "abs": (False, lambda x, w: abs_(x)),
    "clip": (False, lambda x, w: clip_values(x, -0.5, 0.5)),
    "square": (False, lambda x, w: mul(x, x)),
    "softmax": (False, lambda x, w: softmax(x, axis=-1)),
    "logsumexp": (False, lambda x, w: logsumexp(x, axis=-1).reshape((1, 1))),
    "matmul": (True, lambda x, w: matmul(x, w)),
    "affine": (True, lambda x, w: matmul(x, w) + Tensor(0.25)),
}


def _build_program(op_names, width, rng):
    """Materialise a random pipeline: per-op weights plus an apply function."""
    weights = []
    current = width
    plan = []
    for name in op_names:
        needs_weight, fn = _PIPELINE_OPS[name]
        if needs_weight:
            out_width = int(rng.integers(2, 5))
            weight = Tensor(
                rng.normal(scale=0.7, size=(current, out_width)), requires_grad=True
            )
            weights.append(weight)
            plan.append((fn, weight))
            current = out_width
        else:
            plan.append((fn, None))
            if name == "logsumexp":
                current = 1

    def apply(x: Tensor) -> Tensor:
        for fn, weight in plan:
            x = fn(x, weight)
        # squared sum keeps the parameter gradients non-trivial
        return tsum(mul(x, x))

    return apply, weights


def _trace(apply, weights, width):
    x = Tensor(np.zeros((1, width)))
    with tracing():
        loss = apply(x)
        outputs = list(grad(loss, weights, create_graph=True)) if weights else []
        outputs.append(loss)
    return BatchedGraph(outputs, {"x": x}, params=weights), outputs


@settings(max_examples=30, deadline=None)
@given(
    op_names=st.lists(st.sampled_from(sorted(_PIPELINE_OPS)), min_size=1, max_size=5),
    width=st.integers(2, 5),
    batch=st.integers(1, 6),
    seed=st.integers(0, 2**31 - 1),
)
def test_random_graphs_replay_rowwise(op_names, width, batch, seed):
    """Replay over B rows == the recorded computation run per row (loss,
    parameter gradients and all), for randomly composed op pipelines."""
    rng = np.random.default_rng(seed)
    apply, weights = _build_program(op_names, width, rng)
    graph, _ = _trace(apply, weights, width)

    feeds = rng.normal(size=(batch, 1, width))
    outs = graph.replay({"x": feeds})

    assert outs[-1].shape == (batch,)
    for index in range(batch):
        example = Tensor(feeds[index])
        loss = apply(example)
        assert outs[-1][index] == pytest.approx(float(loss.item()), abs=ATOL, rel=RTOL)
        if weights:
            reference = grad(loss, weights)
            for out, ref, weight in zip(outs, reference, weights):
                assert out.shape == (batch,) + weight.shape
                np.testing.assert_allclose(out[index], ref.numpy(), atol=ATOL, rtol=RTOL)


@settings(max_examples=15, deadline=None)
@given(
    op_names=st.lists(st.sampled_from(sorted(_PIPELINE_OPS)), min_size=1, max_size=4),
    width=st.integers(2, 4),
    seed=st.integers(0, 2**31 - 1),
)
def test_batch_of_one_equals_direct_evaluation(op_names, width, seed):
    rng = np.random.default_rng(seed)
    apply, weights = _build_program(op_names, width, rng)
    graph, _ = _trace(apply, weights, width)
    feed = rng.normal(size=(1, 1, width))
    outs = graph.replay({"x": feed})
    assert outs[-1].shape == (1,)
    assert outs[-1][0] == pytest.approx(float(apply(Tensor(feed[0])).item()), abs=ATOL, rel=RTOL)


@settings(max_examples=10, deadline=None)
@given(
    op_names=st.lists(st.sampled_from(sorted(_PIPELINE_OPS)), min_size=1, max_size=4),
    width=st.integers(2, 4),
    seed=st.integers(0, 2**31 - 1),
    sizes=st.lists(st.integers(1, 7), min_size=2, max_size=3),
)
def test_ragged_batch_sizes_reuse_one_compiled_graph(op_names, width, seed, sizes):
    """One compiled graph replays correctly across different batch sizes, and
    each row's result is independent of the batch it rode in with."""
    rng = np.random.default_rng(seed)
    apply, weights = _build_program(op_names, width, rng)
    graph, _ = _trace(apply, weights, width)

    pool = rng.normal(size=(max(sizes), 1, width))
    reference = graph.replay({"x": pool})[-1]
    for size in sizes:
        outs = graph.replay({"x": pool[:size]})
        assert outs[-1].shape == (size,)
        np.testing.assert_allclose(outs[-1], reference[:size], atol=ATOL, rtol=RTOL)


def test_chunked_replay_matches_full_width():
    rng = np.random.default_rng(5)
    apply, weights = _build_program(["matmul", "relu", "affine"], 4, rng)
    graph, _ = _trace(apply, weights, 4)
    feeds = rng.normal(size=(11, 1, 4))
    full = graph.replay({"x": feeds}, chunk=11)
    for chunk in (1, 2, 3, 8):
        chunked = graph.replay({"x": feeds}, chunk=chunk)
        for a, b in zip(full, chunked):
            np.testing.assert_allclose(a, b, atol=1e-12, rtol=0)


def test_auto_chunk_is_bounded_and_disabled_for_tiny_traces():
    rng = np.random.default_rng(6)
    apply, weights = _build_program(["matmul"], 3, rng)
    graph, _ = _trace(apply, weights, 3)
    # a couple of float64 intermediates per example: far below the 64MB
    # target, so the auto chunk must be the full batch (single exact pass)
    assert graph.bytes_per_example > 0
    assert graph._auto_chunk(32) == 32
    huge = graph._CHUNK_TARGET_BYTES // graph.bytes_per_example + 1000
    assert graph._auto_chunk(huge) < huge
    assert graph._auto_chunk(huge) >= graph._CHUNK_MIN


def test_outputs_not_reached_by_batched_inputs_stay_unbatched():
    weight = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    x = Tensor(np.zeros((1, 2)))
    with tracing():
        batched_out = tsum(matmul(x, weight))
        const_out = tsum(mul(weight, weight))
    graph = BatchedGraph([batched_out, const_out], {"x": x}, params=[weight])
    assert graph.output_batched == [True, False]
    outs = graph.replay({"x": np.ones((4, 1, 2))})
    assert outs[0].shape == (4,)
    # the unbatched output is the plain recorded value, computed once
    assert outs[1].shape == ()
    assert outs[1] == pytest.approx(float(np.sum(np.arange(6.0) ** 2)))


def test_param_values_are_read_live_at_replay_time():
    weight = Tensor(np.ones((3, 2)), requires_grad=True)
    x = Tensor(np.zeros((1, 3)))
    with tracing():
        out = tsum(matmul(x, weight))
    graph = BatchedGraph([out], {"x": x}, params=[weight])
    feed = np.ones((2, 1, 3))
    before = graph.replay({"x": feed})[0]
    weight.data = weight.data * 2.0
    after = graph.replay({"x": feed})[0]
    np.testing.assert_allclose(after, 2.0 * before)


def test_compile_and_replay_validation_errors():
    weight = Tensor(np.ones((2, 2)), requires_grad=True)
    x = Tensor(np.zeros((1, 2)))
    with tracing():
        out = tsum(matmul(x, weight))

    with pytest.raises(ValueError, match="at least one output"):
        BatchedGraph([], {"x": x})
    with pytest.raises(ValueError, match="at least one batched input"):
        BatchedGraph([out], {})
    with pytest.raises(ValueError, match="not a leaf"):
        BatchedGraph([out], {"mid": out})

    graph = BatchedGraph([out], {"x": x}, params=[weight])
    with pytest.raises(ValueError, match="expected"):
        graph.replay({"x": np.zeros((4, 1, 3))})  # wrong trailing shape
    with pytest.raises(KeyError):
        graph.replay({})

    y = Tensor(np.zeros((1, 2)))
    with tracing():
        both = tsum(mul(x, y))
    two_inputs = BatchedGraph([both], {"x": x, "y": y})
    with pytest.raises(ValueError, match="same leading batch size"):
        two_inputs.replay({"x": np.zeros((3, 1, 2)), "y": np.zeros((4, 1, 2))})


def test_missing_batch_rule_is_a_compile_time_error(monkeypatch):
    from repro.autodiff import ops as ops_module

    weight = Tensor(np.ones((2, 2)), requires_grad=True)
    x = Tensor(np.zeros((1, 2)))
    with tracing():
        out = tsum(matmul(x, weight))
    monkeypatch.delitem(ops_module.BATCH_RULES, "matmul")
    with pytest.raises(ValueError, match="declares no batch rule"):
        BatchedGraph([out], {"x": x}, params=[weight])


# ----------------------------------------------------------------------
# Compile passes: common-subexpression elimination and constant folding
# ----------------------------------------------------------------------
#: pipeline ops built to leave work for the compile passes: repeated
#: subexpressions and constant-only chains, next to same-op same-input pairs
#: whose args differ (by value, or by the sign of a zero), which must not
#: be merged
_REDUNDANT_OPS = {
    "twice_tanh": (False, lambda x, w: add(tanh(x), tanh(x))),
    "twice_matmul": (True, lambda x, w: add(matmul(x, w), matmul(x, w))),
    "const_scale": (False, lambda x, w: mul(x, sqrt(add(Tensor(0.5), exp(Tensor(-0.25)))))),
    "signed_zero_clips": (
        False,
        lambda x, w: add(clip_values(x, -0.0, 0.5), mul(clip_values(x, 0.0, 0.5), Tensor(3.0))),
    ),
    "two_clips": (False, lambda x, w: add(clip_values(x, -0.5, 0.5), clip_values(x, -0.25, 0.25))),
    "two_sums": (
        False,
        lambda x, w: add(tsum(x, axis=1, keepdims=True), tsum(x, axis=0, keepdims=True)),
    ),
    "relu": _PIPELINE_OPS["relu"],
    "sigmoid": _PIPELINE_OPS["sigmoid"],
    "softmax": _PIPELINE_OPS["softmax"],
    "square": _PIPELINE_OPS["square"],
}


def _traced_steps(outputs, batched_inputs, params):
    """The step list as traced, before any compile pass: one step per node."""
    nodes = batched_module._full_topological_order(outputs)
    slot_of = {id(node): slot for slot, node in enumerate(nodes)}
    names = {id(leaf): name for name, leaf in batched_inputs.items()}
    param_ids = {id(p) for p in params}
    steps = []
    for node in nodes:
        if node._parents:
            parents = tuple(slot_of[id(p)] for p in node._parents)
            steps.append(("op", BATCH_RULES[node._op_name], node._op_args, parents, tuple(node.shape)))
        elif id(node) in names:
            steps.append(("batched", names[id(node)]))
        elif id(node) in param_ids:
            steps.append(("param", node))
        else:
            steps.append(("const", node.data))
    return steps, [slot_of[id(out)] for out in outputs]


def _replay_traced(steps, output_slots, feeds):
    """Replay every traced step, in order, with no rewrite."""
    values, flags = [], []
    for step in steps:
        if step[0] == "op":
            _, rule, op_args, parents, out_shape = step
            values.append(rule(op_args, tuple((values[p], flags[p]) for p in parents), out_shape))
            flags.append(any(flags[p] for p in parents))
        elif step[0] == "batched":
            values.append(np.asarray(feeds[step[1]], dtype=np.float64))
            flags.append(True)
        elif step[0] == "param":
            values.append(step[1].data)
            flags.append(False)
        else:
            values.append(step[1])
            flags.append(False)
    return [values[s] for s in output_slots]


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _op_steps(graph):
    return [step for step in graph._steps if step[0] == batched_module._OP]


def _assert_fully_compiled(graph):
    """No two op steps share a CSE key, and none reads only constants."""
    keys = set()
    for step in _op_steps(graph):
        _, rule, op_args, parents, _, _ = step
        key = (rule, batched_module._arg_key(op_args), parents)
        assert key not in keys
        keys.add(key)
        assert not all(graph._steps[p][0] == batched_module._CONST for p in parents)


@settings(max_examples=40, deadline=None)
@given(
    op_names=st.lists(st.sampled_from(sorted(_REDUNDANT_OPS)), min_size=1, max_size=5),
    width=st.integers(2, 5),
    batch=st.integers(1, 6),
    seed=st.integers(0, 2**31 - 1),
)
def test_compiled_replay_is_bit_identical_to_the_traced_steps(op_names, width, batch, seed):
    """The rewritten step list gives the same bits as the step list as
    traced, replayed op by op — signed zeros included."""
    rng = np.random.default_rng(seed)
    weights, plan, current = [], [], width
    for name in op_names:
        needs_weight, fn = _REDUNDANT_OPS[name]
        weight = None
        if needs_weight:
            weight = Tensor(rng.normal(scale=0.7, size=(current, current)), requires_grad=True)
            weights.append(weight)
        plan.append((fn, weight))

    x = Tensor(np.zeros((1, width)))
    with tracing():
        h = x
        for fn, weight in plan:
            h = fn(h, weight)
        loss = tsum(mul(h, h))
        outputs = list(grad(loss, weights, create_graph=True)) if weights else []
        outputs.append(loss)
    graph = BatchedGraph(outputs, {"x": x}, params=weights)
    _assert_fully_compiled(graph)
    steps, output_slots = _traced_steps(outputs, {"x": x}, weights)
    assert len(_op_steps(graph)) <= sum(step[0] == "op" for step in steps)

    feeds = rng.normal(size=(batch, 1, width))
    feeds[rng.random(feeds.shape) < 0.2] = 0.0
    feeds[rng.random(feeds.shape) < 0.2] = -0.0
    compiled = graph.replay({"x": feeds}, chunk=batch)
    reference = _replay_traced(steps, output_slots, {"x": feeds})
    for got, want in zip(compiled, reference):
        assert _same_bits(got, want)


def test_repeated_subexpressions_and_constant_chains_are_compiled_away():
    x = Tensor(np.zeros((1, 3)))
    with tracing():
        scale = sqrt(add(Tensor(0.5), Tensor(0.25)))  # constants only: folded
        out = tsum(mul(add(tanh(x), tanh(x)), scale))  # second tanh: an alias
    graph = BatchedGraph([out], {"x": x})
    names = {id(rule): name for name, rule in BATCH_RULES.items()}
    assert [names[id(step[1])] for step in _op_steps(graph)] == ["tanh", "add", "mul", "sum"]
    _assert_fully_compiled(graph)
    feeds = np.random.default_rng(0).normal(size=(4, 1, 3))
    expected = np.sum(2.0 * np.tanh(feeds) * np.sqrt(0.75), axis=(1, 2))
    np.testing.assert_allclose(graph.replay({"x": feeds})[0], expected, rtol=1e-15)


def test_op_args_keys_keep_apart_what_is_not_interchangeable():
    key = batched_module._arg_key
    assert key((0.0,)) != key((-0.0,))
    assert key((1,)) != key((1.0,)) != key((True,))
    assert key(((0, 1), False)) == key(((0, 1), False))
    assert key((float("nan"),)) == key((float("nan"),))
    first, second = np.arange(3), np.arange(3)
    assert key((first,)) == key((first,))
    assert key((first,)) != key((second,))


def test_parameters_are_never_folded():
    weight = Tensor(np.ones((2, 2)), requires_grad=True)
    x = Tensor(np.zeros((1, 2)))
    with tracing():
        out = tsum(matmul(x, mul(weight, Tensor(2.0))))
    graph = BatchedGraph([out], {"x": x}, params=[weight])
    feed = np.ones((3, 1, 2))
    before = graph.replay({"x": feed})[0]
    weight.data = weight.data * 3.0
    np.testing.assert_array_equal(graph.replay({"x": feed})[0], 3.0 * before)


def test_auto_chunk_counts_the_traced_steps():
    """``bytes_per_example`` (and so the auto chunk) is summed over the steps
    as traced: the chunk sets conv GEMM blocking, so the passes must not
    move it."""
    x = Tensor(np.zeros((1, 4)))
    with tracing():
        out = tsum(add(tanh(x), tanh(x)))
    graph = BatchedGraph([out], {"x": x})
    steps, _ = _traced_steps([out], {"x": x}, [])
    traced_ops = [step for step in steps if step[0] == "op"]
    assert graph.bytes_per_example == sum(int(np.prod(step[4])) * 8 for step in traced_ops)
    assert len(_op_steps(graph)) == len(traced_ops) - 1


def _mnist_cnn():
    return build_model_for_dataset(get_dataset_spec("mnist"), seed=0, scale=0.5)


#: op steps after the compile passes for the traces the benchmark workloads
#: replay (254, 91 and 47 as traced); counts, not timings, so they do not
#: depend on the machine
_OP_STEP_CEILINGS = {"attack objective": 213, "per-example CNN": 82, "per-example MLP": 40}


@pytest.mark.parametrize("trace", sorted(_OP_STEP_CEILINGS))
def test_op_step_counts_of_the_workload_traces(trace):
    if trace == "attack objective":
        model = _mnist_cnn()
        targets = [np.ones(p.shape) for p in model.parameters()]
        attack = MultiRestartReconstruction(model, AttackConfig(max_iterations=12, value_range=(0.0, 1.0)))
        graph, _ = attack._restart_trace((1, 1, 28, 28), targets)
    elif trace == "per-example CNN":
        graph = _per_example_trace(_mnist_cnn(), (1, 28, 28)).graph
    else:
        spec = get_dataset_spec("adult")
        model = build_model_for_dataset(spec, seed=0, scale=1.0)
        graph = _per_example_trace(model, tuple(spec.input_shape)).graph
    _assert_fully_compiled(graph)
    assert len(_op_steps(graph)) <= _OP_STEP_CEILINGS[trace]
