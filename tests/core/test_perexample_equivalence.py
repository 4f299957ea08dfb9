"""Fed-CDP / threat-harness equivalence: vectorized engine vs. looped reference.

Under a fixed seed the vectorized per-example pipeline must reproduce the
looped reference end-to-end: identical sanitized local updates from
``train_client`` (same RNG stream, same clipping), identical adversarial
observations for all three leakage types, and an identical reconstruction
attack outcome.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.reconstruction import AttackConfig
from repro.attacks.threat import LEAKAGE_TYPES, GradientLeakageThreat
from repro.core import FedCDPDecayTrainer, FedCDPTrainer
from repro.data import generate_dataset, get_dataset_spec
from repro.experiments.harness import quick_config
from repro.federated import FederatedSimulation
from repro.nn import build_model_for_dataset

ATOL = 1e-8


@pytest.fixture
def adult_setup():
    spec = get_dataset_spec("adult")
    config = quick_config("adult", "fed_cdp", rounds=3, local_iterations=3, seed=0)
    dataset = generate_dataset(spec, 30, seed=0)
    return spec, config, dataset


def _make_trainer(cls, spec, config, mode):
    trainer = cls(build_model_for_dataset(spec, seed=0, scale=0.3), config)
    trainer.per_example_mode = mode
    return trainer


@pytest.mark.parametrize("cls", [FedCDPTrainer, FedCDPDecayTrainer])
def test_train_client_identical_to_looped_reference(adult_setup, cls):
    spec, config, dataset = adult_setup
    weights = build_model_for_dataset(spec, seed=0, scale=0.3).get_weights()

    updates = {}
    for mode in ("auto", "looped"):
        trainer = _make_trainer(cls, spec, config, mode)
        updates[mode] = trainer.train_client(dataset, weights, 0, np.random.default_rng(42))

    fast, ref = updates["auto"], updates["looped"]
    assert fast.mean_loss == pytest.approx(ref.mean_loss, abs=ATOL)
    assert fast.mean_gradient_norm == pytest.approx(ref.mean_gradient_norm, abs=ATOL)
    for fast_layer, ref_layer in zip(fast.delta, ref.delta):
        np.testing.assert_allclose(fast_layer, ref_layer, atol=ATOL, rtol=0)


def test_observations_identical_for_all_leakage_types(adult_setup):
    spec, config, dataset = adult_setup
    weights = build_model_for_dataset(spec, seed=0, scale=0.3).get_weights()
    features, labels = dataset.features[:3], dataset.labels[:3]

    for leakage_type in LEAKAGE_TYPES:
        observations = {}
        for mode in ("auto", "looped"):
            threat = GradientLeakageThreat(_make_trainer(FedCDPTrainer, spec, config, mode))
            observations[mode] = threat.observe(
                leakage_type, weights, features, labels, rng=np.random.default_rng(7)
            )
        for fast_layer, ref_layer in zip(
            observations["auto"].gradients, observations["looped"].gradients
        ):
            np.testing.assert_allclose(fast_layer, ref_layer, atol=ATOL, rtol=0)


def test_reconstruction_attack_identical_to_looped_reference(adult_setup):
    spec, config, dataset = adult_setup
    weights = build_model_for_dataset(spec, seed=0, scale=0.3).get_weights()
    attack_config = AttackConfig(max_iterations=10, value_range=(-3.0, 3.0))

    results = {}
    for mode in ("auto", "looped"):
        threat = GradientLeakageThreat(
            _make_trainer(FedCDPTrainer, spec, config, mode), attack_config=attack_config
        )
        results[mode] = threat.attack(
            "type2", weights, dataset.features[:1], dataset.labels[:1],
            rng=np.random.default_rng(5),
        )

    fast, ref = results["auto"], results["looped"]
    assert fast.succeeded == ref.succeeded
    assert fast.num_iterations == ref.num_iterations
    assert fast.reconstruction_distance == pytest.approx(ref.reconstruction_distance, abs=ATOL)
    np.testing.assert_allclose(fast.reconstruction, ref.reconstruction, atol=ATOL, rtol=0)


@pytest.mark.parametrize("dataset_name", ["cancer", "mnist"])
@pytest.mark.parametrize("method", ["fed_cdp", "fed_cdp_decay"])
def test_simulation_identical_to_looped_reference(method, dataset_name):
    """A whole serial Fed-CDP run (MLP or CNN, fixed or decaying clipping)
    under the batched engine reproduces the looped reference round by round."""
    config = quick_config(dataset_name, method, rounds=2, eval_every=1, seed=24)
    histories = {}
    for mode in ("auto", "looped"):
        with FederatedSimulation(config) as simulation:
            simulation.trainer.per_example_mode = mode
            histories[mode] = simulation.run()
    fast, ref = histories["auto"], histories["looped"]
    np.testing.assert_allclose(
        [r.mean_loss for r in fast.rounds], [r.mean_loss for r in ref.rounds], atol=ATOL, rtol=0
    )
    np.testing.assert_allclose(
        fast.gradient_norm_series, ref.gradient_norm_series, atol=ATOL, rtol=0
    )
    assert fast.accuracy_by_round.keys() == ref.accuracy_by_round.keys()
    np.testing.assert_allclose(
        list(fast.accuracy_by_round.values()), list(ref.accuracy_by_round.values()), atol=ATOL, rtol=0
    )


@pytest.mark.parametrize("mode", ["rules", "batched"])
def test_unknown_per_example_mode_raises_on_the_next_step(adult_setup, mode):
    spec, config, dataset = adult_setup
    weights = build_model_for_dataset(spec, seed=0, scale=0.3).get_weights()
    trainer = _make_trainer(FedCDPTrainer, spec, config, mode)
    with pytest.raises(ValueError, match="expected 'auto' or 'looped'"):
        trainer.train_client(dataset, weights, 0, np.random.default_rng(0))
