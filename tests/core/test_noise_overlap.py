"""Fed-CDP's client stream drawn ahead: same RNG stream as the inline draws.

A Fed-CDP client's whole random stream (each step's batch indices, then its
``(B, P)`` per-example noise in row blocks) is drawn ahead on the noise thread
into a ring of row blocks when it holds at least ``OFFLOAD_MIN_DRAWS``
normals, and each block is clipped, noised and averaged as it lands
(``LocalStream``, ``clip_noise_mean``).  Nothing else draws from the client
``rng`` meanwhile, so the streamed path must be bit-identical to the inline
one; these tests force each path by patching ``OFFLOAD_MIN_DRAWS`` to 0
(always stream, in 1-row blocks) or beyond any draw (never), and pick the
values in between that shape the ring.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.attacks.threat import GradientLeakageThreat
from repro.core import FedCDPTrainer
from repro.data import generate_dataset, get_dataset_spec
from repro.experiments.harness import quick_config
from repro.federated import FederatedSimulation
from repro.nn import build_image_cnn, build_model_for_dataset, build_tabular_mlp, per_example_gradients
from repro.privacy import GaussianMechanism, mechanisms
from repro.privacy.clipping import clip_noise_mean, clip_per_example_stack, per_example_layer_norms
from repro.privacy.mechanisms import LocalStream

NEVER = sys.maxsize


@pytest.fixture
def mnist_setup():
    spec = get_dataset_spec("mnist")
    config = quick_config("mnist", "fed_cdp", local_iterations=2, seed=0)
    dataset = generate_dataset(spec, 24, seed=0)
    weights = build_model_for_dataset(spec, seed=0).get_weights()
    return spec, config, dataset, weights


def _trainer(spec, config):
    return FedCDPTrainer(build_model_for_dataset(spec, seed=0), config)


@pytest.mark.parametrize("threshold", [0, NEVER])
def test_fill_noise_is_bitwise_rng_normal(threshold, monkeypatch):
    # the threshold must not matter to the fill itself
    monkeypatch.setattr(mechanisms, "OFFLOAD_MIN_DRAWS", threshold)
    mechanism = GaussianMechanism(noise_scale=6.0, sensitivity=4.0)
    filled_rng, reference_rng = np.random.default_rng(3), np.random.default_rng(3)
    for shape in [(16, 4099), (3, 8930), (1, 7)]:
        filled = mechanism.fill_noise(np.empty(shape), filled_rng)
        reference = reference_rng.normal(0.0, mechanism.stddev, size=shape)
        np.testing.assert_array_equal(filled, reference)
        np.testing.assert_array_equal(np.signbit(filled), np.signbit(reference))
    assert filled_rng.bit_generator.state == reference_rng.bit_generator.state


def _draw_indices(generator):
    return generator.integers(0, 10, size=3)


def test_stream_offloads_only_large_clients():
    mechanism = GaussianMechanism(noise_scale=1.0, sensitivity=1.0)
    threshold = mechanisms.OFFLOAD_MIN_DRAWS
    with LocalStream(GaussianMechanism(0.0, 1.0), np.random.default_rng(0), 4, 16, 1 << 20) as silent:
        assert silent._task is None
        assert [noise for _, noise in silent] == [None] * 4
    # the client's whole draw decides, not one step's: 2 steps of (3, width)
    width = -(-threshold // 6)  # one step is half the threshold
    small, large = (2, 3, width - 1), (2, 3, width)
    split = (2, 5, threshold // 2)  # blocks of 2, 2 and 1 rows
    cases = [(small, False, [(0, 3)]), (large, True, [(0, 3)]), (split, True, [(0, 2), (2, 4), (4, 5)])]
    for (steps, batch, width), streamed, bounds in cases:
        rng = np.random.default_rng(0)
        with LocalStream(mechanism, rng, steps, batch, width, _draw_indices) as stream:
            assert stream.row_bounds == bounds
            assert (stream._task is not None) is streamed
            drawn = []
            for indices, noise in stream:
                # a ring slot is refilled once the next block is taken
                blocks = [block.copy() for block in noise.blocks]
                assert [len(block) for block in blocks] == [stop - start for start, stop in bounds]
                drawn.append((indices, np.concatenate(blocks)))
        reference = np.random.default_rng(0)
        for indices, noise in drawn:
            np.testing.assert_array_equal(indices, reference.integers(0, 10, size=3))
            np.testing.assert_array_equal(noise, reference.normal(0.0, 1.0, size=(batch, width)))
        assert rng.bit_generator.state == reference.bit_generator.state


def test_stream_first_taken_after_its_ring_fills(monkeypatch):
    """A caller that waits before its first step finds the ring full and
    the task waiting for a slot; the stream must still run to the end."""
    steps, batch, width = 6, 3, 1000
    monkeypatch.setattr(mechanisms, "OFFLOAD_MIN_DRAWS", 2 * batch * width)  # a ring of 4 steps
    mechanism = GaussianMechanism(noise_scale=1.0, sensitivity=1.0)
    rng = np.random.default_rng(0)
    drawn, streams = [], []

    def consume():
        with LocalStream(mechanism, rng, steps, batch, width, _draw_indices) as stream:
            streams.append(stream)
            assert stream._ring.shape == (4, batch, width)
            time.sleep(0.05)
            for indices, noise in stream:
                drawn.append((indices, np.concatenate([block.copy() for block in noise.blocks])))

    consumer = threading.Thread(target=consume, daemon=True)
    consumer.start()
    consumer.join(timeout=30)
    if consumer.is_alive():
        streams[0]._stop()  # free the noise thread for the tests that follow
        pytest.fail("the stream stalled")
    assert len(drawn) == steps
    reference = np.random.default_rng(0)
    for indices, noise in drawn:
        np.testing.assert_array_equal(indices, reference.integers(0, 10, size=3))
        np.testing.assert_array_equal(noise, reference.normal(0.0, 1.0, size=(batch, width)))
    assert rng.bit_generator.state == reference.bit_generator.state


def test_add_noise_to_stack_rejects_mismatched_noise_block():
    mechanism = GaussianMechanism(noise_scale=1.0, sensitivity=1.0)
    stack = [np.zeros((2, 3)), np.zeros((2, 3))]
    with pytest.raises(ValueError, match="noise has shape"):
        mechanism.add_noise_to_stack(stack, rng=None, noise=np.zeros((2, 5)))
    with pytest.raises(ValueError, match="needs an rng or a noise draw"):
        mechanism.add_noise_to_stack(stack, rng=None)


def test_clip_noise_mean_rejects_a_draw_short_of_the_stack():
    mechanism = GaussianMechanism(noise_scale=1.0, sensitivity=1.0)
    stack = [np.ones((4, 3)), np.ones((4, 2))]
    with LocalStream(mechanism, np.random.default_rng(0), 1, 3, 5) as stream:
        _, noise = next(iter(stream))
        with pytest.raises(ValueError, match="covers 3 rows"):
            clip_noise_mean(stack, per_example_layer_norms(stack), 1.0, noise)


def _uneven(width):
    """An ``OFFLOAD_MIN_DRAWS`` giving 3-row blocks at ``width`` draws per row."""
    return 2 * width + 1


@pytest.mark.parametrize("layout", ["inline", "one_row", "uneven"])
@pytest.mark.parametrize("sigma", [0.0, 1.5])
@pytest.mark.parametrize("batch", [1, 3, 4, 16, 17])
@pytest.mark.parametrize("family", ["mlp", "cnn"])
def test_clip_noise_mean_is_bitwise_clip_then_noise_then_mean(family, batch, sigma, layout, monkeypatch):
    if family == "mlp":
        model = build_tabular_mlp(12, 4, hidden_sizes=(16, 8), seed=3)
        shape = (batch, 12)
    else:
        model = build_image_cnn((1, 8, 8), 3, conv_channels=(3, 5), seed=4)
        shape = (batch, 1, 8, 8)
    data = np.random.default_rng(batch)
    stack, _ = per_example_gradients(model, data.normal(size=shape), data.integers(0, 3, size=batch))
    width = sum(int(np.prod(layer.shape[1:])) for layer in stack)
    threshold = {"inline": NEVER, "one_row": 0, "uneven": _uneven(width)}[layout]
    monkeypatch.setattr(mechanisms, "OFFLOAD_MIN_DRAWS", threshold)
    bound = 0.05  # small enough that clipping is active
    mechanism = GaussianMechanism(sigma, bound)

    reference_rng = np.random.default_rng(9)
    clipped, layer_norms = clip_per_example_stack(stack, bound)
    noised = mechanism.add_noise_to_stack(clipped, rng=reference_rng)
    reference = [layer.mean(axis=0) for layer in noised]

    rng = np.random.default_rng(9)
    with LocalStream(mechanism, rng, 1, batch, width) as stream:
        if sigma > 0 and layout == "uneven":
            assert {stop - start for start, stop in stream.row_bounds} <= {3, batch % 3 or 3}
        _, noise = next(iter(stream))
        fused = clip_noise_mean(stack, layer_norms, bound, noise)
    for got, want in zip(fused, reference):
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@pytest.mark.parametrize("layout", ["inline", "one_row", "uneven"])
def test_step_leaves_rng_after_one_full_draw(mnist_setup, monkeypatch, layout):
    spec, config, dataset, _ = mnist_setup
    trainer = _trainer(spec, config)
    num_params = sum(w.size for w in trainer.model.get_weights())
    threshold = {"inline": NEVER, "one_row": 0, "uneven": _uneven(num_params)}[layout]
    monkeypatch.setattr(mechanisms, "OFFLOAD_MIN_DRAWS", threshold)
    features, labels = dataset.features[:16], dataset.labels[:16]
    rng = np.random.default_rng(11)
    trainer.sanitized_mean(features, labels, 0, rng)
    reference = np.random.default_rng(11)
    reference.standard_normal((len(features), num_params))
    assert rng.bit_generator.state == reference.bit_generator.state


def test_client_step_overlapped_matches_inline(mnist_setup, monkeypatch):
    spec, config, dataset, weights = mnist_setup
    updates, rng_states = {}, {}
    for threshold in (0, NEVER):
        monkeypatch.setattr(mechanisms, "OFFLOAD_MIN_DRAWS", threshold)
        rng = np.random.default_rng(42)
        updates[threshold] = _trainer(spec, config).train_client(dataset, weights, 0, rng)
        rng_states[threshold] = rng.bit_generator.state
    overlapped, inline = updates[0], updates[NEVER]
    assert overlapped.mean_loss == inline.mean_loss
    assert overlapped.mean_gradient_norm == inline.mean_gradient_norm
    assert rng_states[0] == rng_states[NEVER]
    for a, b in zip(overlapped.delta, inline.delta):
        np.testing.assert_array_equal(a, b)


# ----------------------------------------------------------------------
# One whole client, streamed against inline
# ----------------------------------------------------------------------
_BATCH, _STEPS = 4, 6


@pytest.fixture
def adult_setup():
    spec = get_dataset_spec("adult")
    config = quick_config(
        "adult", "fed_cdp", batch_size=_BATCH, local_iterations=_STEPS, clipping_bound=0.05, seed=0
    )
    dataset = generate_dataset(spec, 40, seed=1)
    model = build_model_for_dataset(spec, seed=0)
    return spec, config, dataset, model.get_weights()


def _record_client(trainer, dataset, weights, monkeypatch):
    """Train one client; return its update, each step's loss and raw norm,
    the final ``rng`` state, and the ring shape of a streamed client."""
    steps, rings = [], []
    original_step = trainer._sanitized_batch_gradient

    def recording_step(*args):
        result = original_step(*args)
        steps.append(result[1:])
        return result

    original_produce = LocalStream._produce

    def recording_produce(stream):
        rings.append((stream._ring.shape, len(stream.row_bounds)))
        return original_produce(stream)

    monkeypatch.setattr(trainer, "_sanitized_batch_gradient", recording_step)
    monkeypatch.setattr(LocalStream, "_produce", recording_produce)
    rng = np.random.default_rng(42)
    update = trainer.train_client(dataset, weights, 0, rng)
    return update, steps, rng.bit_generator.state, rings


#: layout -> (OFFLOAD_MIN_DRAWS as a function of the parameter count P,
#: sigma, the ring's (steps held, blocks per step) or None for the inline path)
_CLIENT_LAYOUTS = {
    # one step per ring, in 1-row blocks: every step is split
    "depth1_row_blocks": (lambda p: 1, 0.5, (1, _BATCH)),
    # one step per ring, split into blocks of 3 and 1 rows
    "depth1_uneven_blocks": (lambda p: 2 * p + 1, 0.5, (1, 2)),
    # four steps per ring, one block each
    "depth4": (lambda p: 2 * _BATCH * p, 0.5, (4, 1)),
    # the whole client's draw exactly reaches the threshold: one ring for it all
    "at_threshold": (lambda p: _STEPS * _BATCH * p, 0.5, (_STEPS, 1)),
    # one normal short of it: the inline path
    "below_threshold": (lambda p: _STEPS * _BATCH * p + 1, 0.5, None),
    # no noise: only the batch indices, inline, whatever the threshold
    "sigma0": (lambda p: 0, 0.0, None),
}


@pytest.mark.parametrize("layout", sorted(_CLIENT_LAYOUTS))
def test_streamed_client_is_bitwise_inline(adult_setup, monkeypatch, layout):
    spec, config, dataset, weights = adult_setup
    threshold_for, sigma, ring = _CLIENT_LAYOUTS[layout]
    config = config.with_overrides(noise_scale=sigma)
    num_params = sum(w.size for w in weights)
    runs = {}
    for threshold in (threshold_for(num_params), NEVER):
        monkeypatch.setattr(mechanisms, "OFFLOAD_MIN_DRAWS", threshold)
        trainer = FedCDPTrainer(build_model_for_dataset(spec, seed=0), config)
        runs[threshold] = _record_client(trainer, dataset, weights, monkeypatch)
        monkeypatch.undo()
    (update, steps, state, rings), (inline, inline_steps, inline_state, inline_rings) = runs.values()
    assert inline_rings == []
    if ring is None:
        assert rings == []
    else:
        depth, blocks = ring
        assert rings == [((depth, _BATCH, num_params), blocks)]
    assert len(steps) == _STEPS
    assert steps == inline_steps  # every step's loss and raw norm
    assert update.mean_loss == inline.mean_loss
    assert update.mean_gradient_norm == inline.mean_gradient_norm
    assert state == inline_state
    for a, b in zip(update.local_weights, inline.local_weights):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("layout", ["depth1_row_blocks", "depth4"])
def test_streamed_client_survives_frequent_thread_switches(adult_setup, monkeypatch, layout):
    """Switching threads every few bytecodes reorders every hand-over
    between the step and the noise thread; no order may change a value
    or stall the client."""
    spec, config, dataset, weights = adult_setup
    num_params = sum(w.size for w in weights)
    results = {}
    interval = sys.getswitchinterval()
    try:
        for threshold in (_CLIENT_LAYOUTS[layout][0](num_params), NEVER):
            monkeypatch.setattr(mechanisms, "OFFLOAD_MIN_DRAWS", threshold)
            sys.setswitchinterval(1e-6 if threshold != NEVER else interval)
            trainer = FedCDPTrainer(build_model_for_dataset(spec, seed=0), config)
            runs = []
            for seed in range(8):
                rng = np.random.default_rng(seed)
                update = trainer.train_client(dataset, weights, 0, rng)
                runs.append((update.local_weights, update.mean_loss, rng.bit_generator.state))
            results[threshold] = runs
    finally:
        sys.setswitchinterval(interval)
    streamed, inline = results.values()
    for (weights_a, loss_a, state_a), (weights_b, loss_b, state_b) in zip(streamed, inline):
        assert loss_a == loss_b and state_a == state_b
        for a, b in zip(weights_a, weights_b):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("failing_step", [0, 3])
@pytest.mark.parametrize("layout", ["depth1_row_blocks", "depth4"])
def test_failed_replay_stops_the_stream(adult_setup, monkeypatch, layout, failing_step):
    """A replay raising at step k propagates; the noise thread's task is done
    by then, and ``rng`` no longer moves once ``train_client`` has raised."""
    spec, config, dataset, weights = adult_setup
    num_params = sum(w.size for w in weights)
    monkeypatch.setattr(mechanisms, "OFFLOAD_MIN_DRAWS", _CLIENT_LAYOUTS[layout][0](num_params))
    tasks = []
    executor = mechanisms._noise_executor()

    class RecordingExecutor:
        def submit(self, fn, *args):
            tasks.append(executor.submit(fn, *args))
            return tasks[-1]

    monkeypatch.setattr(mechanisms, "_noise_executor", RecordingExecutor)
    trainer = FedCDPTrainer(build_model_for_dataset(spec, seed=0), config)
    replay = trainer.compute_per_example_gradient_stack
    calls = []

    def failing_replay(features, labels):
        calls.append(len(features))
        if len(calls) > failing_step:
            raise RuntimeError("replay failed")
        return replay(features, labels)

    monkeypatch.setattr(trainer, "compute_per_example_gradient_stack", failing_replay)
    rng = np.random.default_rng(11)
    with pytest.raises(RuntimeError, match="replay failed"):
        trainer.train_client(dataset, weights, 0, rng)
    state = rng.bit_generator.state
    assert len(tasks) == 1
    assert tasks[0].result(timeout=10) is None
    time.sleep(0.05)
    assert rng.bit_generator.state == state
    # the stream had moved past the failing step's own indices
    assert state != np.random.default_rng(11).bit_generator.state


def test_noise_thread_error_reaches_the_step(monkeypatch):
    monkeypatch.setattr(mechanisms, "OFFLOAD_MIN_DRAWS", 0)
    mechanism = GaussianMechanism(noise_scale=1.0, sensitivity=1.0)
    draws = []

    def failing_indices(generator):
        draws.append(None)
        if len(draws) == 3:
            raise RuntimeError("index draw failed")
        return generator.integers(0, 10, size=2)

    rng = np.random.default_rng(0)
    taken = 0
    with pytest.raises(RuntimeError, match="index draw failed"):
        with LocalStream(mechanism, rng, 5, 2, 7, failing_indices) as stream:
            for _, noise in stream:
                for _ in noise.blocks:
                    pass
                taken += 1
    assert taken == 2
    assert stream._task is None


@pytest.mark.parametrize("leakage_type", ["type0", "type1"])
def test_transit_observation_overlapped_matches_inline(mnist_setup, monkeypatch, leakage_type):
    spec, config, dataset, weights = mnist_setup
    observed = {}
    for threshold in (0, NEVER):
        monkeypatch.setattr(mechanisms, "OFFLOAD_MIN_DRAWS", threshold)
        threat = GradientLeakageThreat(_trainer(spec, config))
        observed[threshold] = threat.observe(
            leakage_type, weights, dataset.features[:4], dataset.labels[:4],
            rng=np.random.default_rng(7),
        ).gradients
    for a, b in zip(observed[0], observed[NEVER]):
        np.testing.assert_array_equal(a, b)


def test_simulation_overlapped_matches_inline(monkeypatch):
    config = quick_config("mnist", "fed_cdp", partition="iid", rounds=3, eval_every=1, seed=5)
    runs = {}
    for threshold in (0, NEVER):
        monkeypatch.setattr(mechanisms, "OFFLOAD_MIN_DRAWS", threshold)
        simulation = FederatedSimulation(config)
        runs[threshold] = (simulation.run(), simulation.global_weights())
    (overlapped, overlapped_weights), (inline, inline_weights) = runs[0], runs[NEVER]
    assert overlapped.accuracy_by_round == inline.accuracy_by_round
    assert list(overlapped.gradient_norm_series) == list(inline.gradient_norm_series)
    assert [r.mean_loss for r in overlapped.rounds] == [r.mean_loss for r in inline.rounds]
    for a, b in zip(overlapped_weights, inline_weights):
        np.testing.assert_array_equal(a, b)


_FORK_SCRIPT = textwrap.dedent(
    """
    import multiprocessing
    import os
    import tempfile

    import numpy as np
    from repro.experiments.harness import quick_config
    from repro.federated import FederatedSimulation
    from repro.federated.executor import MultiprocessingClientExecutor
    from repro.privacy import mechanisms

    marks = tempfile.mkdtemp()

    def mark_child():
        # runs after mechanisms' own after-fork hook, registered first
        with open(os.path.join(marks, str(os.getpid())), "w") as handle:
            handle.write(str(mechanisms._noise_worker is None))

    os.register_at_fork(after_in_child=mark_child)
    mechanisms.OFFLOAD_MIN_DRAWS = 0
    config = quick_config("mnist", "fed_cdp", partition="iid", rounds=2, eval_every=2, seed=3)
    serial = FederatedSimulation(config)  # its rounds start the noise thread here
    serial.run()
    assert mechanisms._noise_worker is not None
    with FederatedSimulation(config) as forked:
        forked.executor = MultiprocessingClientExecutor(
            config, num_workers=2, start_method="fork"
        )
        forked.run()
        # the rounds ran on the forked pool, not on the serial executor
        assert len(multiprocessing.active_children()) == 2
    for a, b in zip(serial.global_weights(), forked.global_weights()):
        np.testing.assert_array_equal(a, b)
    seen = [open(os.path.join(marks, name)).read() for name in os.listdir(marks)]
    # every forked worker forgot the parent's noise thread
    assert len(seen) >= 2 and set(seen) == {"True"}, seen
    print("fork-ok")
    """
)


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="needs fork")
def test_forked_workers_after_overlapped_steps_match_serial():
    """A forked worker must start its own noise thread, not wait on the parent's."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    process = subprocess.Popen(
        [sys.executable, "-c", _FORK_SCRIPT],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)  # the pool workers too
        process.communicate()
        pytest.fail("forked workers hung after the parent ran overlapped noise draws")
    assert process.returncode == 0, stderr
    assert "fork-ok" in stdout
