"""Fed-CDP's overlapped noise draw: same RNG stream as the inline draw.

A large ``(B, P)`` per-example noise draw runs on the noise thread while the
per-example replay and the clip run (``GaussianMechanism.start_stack_noise``).
Nothing in between draws from the client ``rng``, so the overlapped path must
be bit-identical to the inline one; these tests force each path by patching
``OFFLOAD_MIN_DRAWS`` to 0 (always overlap) or beyond any draw (never).
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
from repro.nn import build_model_for_dataset
from repro.privacy import GaussianMechanism, mechanisms

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


def test_start_stack_noise_offloads_only_large_draws():
    mechanism = GaussianMechanism(noise_scale=1.0, sensitivity=1.0)
    rng = np.random.default_rng(0)
    assert mechanism.start_stack_noise((4, mechanisms.OFFLOAD_MIN_DRAWS // 4 - 1), rng) is None
    assert GaussianMechanism(0.0, 1.0).start_stack_noise((16, 1 << 20), rng) is None
    pending = mechanism.start_stack_noise((2, mechanisms.OFFLOAD_MIN_DRAWS // 2), rng)
    assert pending is not None
    np.testing.assert_array_equal(
        pending.result(),
        np.random.default_rng(0).normal(0.0, 1.0, size=(2, mechanisms.OFFLOAD_MIN_DRAWS // 2)),
    )


def test_add_noise_to_stack_rejects_mismatched_pending_draw(monkeypatch):
    monkeypatch.setattr(mechanisms, "OFFLOAD_MIN_DRAWS", 0)
    mechanism = GaussianMechanism(noise_scale=1.0, sensitivity=1.0)
    pending = mechanism.start_stack_noise((2, 5), np.random.default_rng(0))
    with pytest.raises(ValueError, match="pending noise"):
        mechanism.add_noise_to_stack([np.zeros((2, 3)), np.zeros((2, 3))], pending=pending)


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
