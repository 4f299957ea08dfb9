"""Fed-CDP's overlapped noise draw: same RNG stream as the inline draw.

A large ``(B, P)`` per-example noise draw runs on the noise thread, in row
blocks, while the per-example replay runs, and each block is clipped, noised
and averaged as it lands (``GaussianMechanism.start_stack_noise``,
``clip_noise_mean``).  Nothing in between draws from the client ``rng``, so
the overlapped path must be bit-identical to the inline one; these tests
force each path by patching ``OFFLOAD_MIN_DRAWS`` to 0 (always overlap, in
1-row blocks) or beyond any draw (never).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
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


def _drawn_on_the_thread(noise, rng):
    """Whether ``noise`` was drawn on the noise thread: an inline draw has
    not touched ``rng`` before it is iterated."""
    state = rng.bit_generator.state
    noise.wait()
    return rng.bit_generator.state != state


def test_start_stack_noise_offloads_only_large_draws():
    mechanism = GaussianMechanism(noise_scale=1.0, sensitivity=1.0)
    assert GaussianMechanism(0.0, 1.0).start_stack_noise((16, 1 << 20), np.random.default_rng(0)) is None
    small = (4, mechanisms.OFFLOAD_MIN_DRAWS // 4 - 1)
    large = (5, mechanisms.OFFLOAD_MIN_DRAWS // 2)  # blocks of 2, 2 and 1 rows
    for shape, offloaded, bounds in [(small, False, [(0, 4)]), (large, True, [(0, 2), (2, 4), (4, 5)])]:
        rng = np.random.default_rng(0)
        noise = mechanism.start_stack_noise(shape, rng)
        assert noise.row_bounds == bounds
        assert _drawn_on_the_thread(noise, rng) is offloaded
        blocks = list(noise)
        assert [len(block) for block in blocks] == [stop - start for start, stop in bounds]
        np.testing.assert_array_equal(
            np.concatenate(blocks), np.random.default_rng(0).normal(0.0, 1.0, size=shape)
        )


def test_add_noise_to_stack_rejects_mismatched_noise_block():
    mechanism = GaussianMechanism(noise_scale=1.0, sensitivity=1.0)
    with pytest.raises(ValueError, match="noise has shape"):
        mechanism.add_noise_to_stack([np.zeros((2, 3)), np.zeros((2, 3))], noise=np.zeros((2, 5)))


def test_clip_noise_mean_rejects_a_draw_short_of_the_stack():
    mechanism = GaussianMechanism(noise_scale=1.0, sensitivity=1.0)
    stack = [np.ones((4, 3)), np.ones((4, 2))]
    noise = mechanism.start_stack_noise((3, 5), np.random.default_rng(0))
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
    noise = mechanism.start_stack_noise((batch, width), rng)
    if sigma > 0 and layout == "uneven":
        assert {stop - start for start, stop in noise.row_bounds} <= {3, batch % 3 or 3}
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
    trainer.sanitized_stack_mean(features, labels, 0, rng)
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


def test_failed_replay_waits_for_the_draw(mnist_setup, monkeypatch):
    """A raising replay leaves ``rng`` exactly where the full draw leaves it."""
    spec, config, dataset, _ = mnist_setup
    monkeypatch.setattr(mechanisms, "OFFLOAD_MIN_DRAWS", 0)
    trainer = _trainer(spec, config)

    def failing_replay(features, labels):
        raise RuntimeError("replay failed")

    monkeypatch.setattr(trainer, "compute_per_example_gradient_stack", failing_replay)
    # 16 x 126,698 normals: a draw still running when the replay raises
    features, labels = dataset.features[:16], dataset.labels[:16]
    rng = np.random.default_rng(11)
    with pytest.raises(RuntimeError, match="replay failed"):
        trainer.sanitized_stack_mean(features, labels, 0, rng)
    state = rng.bit_generator.state
    num_params = sum(w.size for w in trainer.model.get_weights())
    reference = np.random.default_rng(11)
    reference.standard_normal((len(features), num_params))
    assert state == reference.bit_generator.state


_FORK_SCRIPT = textwrap.dedent(
    """
    import multiprocessing

    import numpy as np
    from repro.experiments.harness import quick_config
    from repro.federated import FederatedSimulation
    from repro.federated.executor import MultiprocessingClientExecutor
    from repro.privacy import mechanisms

    mechanisms.OFFLOAD_MIN_DRAWS = 0
    config = quick_config("mnist", "fed_cdp", partition="iid", rounds=2, eval_every=2, seed=3)
    serial = FederatedSimulation(config)  # its rounds start the noise thread here
    serial.run()
    with FederatedSimulation(config) as forked:
        forked.executor = MultiprocessingClientExecutor(
            config, num_workers=2, start_method="fork"
        )
        forked.run()
        # the rounds ran on the forked pool, not on the serial executor
        assert len(multiprocessing.active_children()) == 2
    for a, b in zip(serial.global_weights(), forked.global_weights()):
        np.testing.assert_array_equal(a, b)
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
