"""Integration tests: the reconstruction attack against each defense.

These tests reproduce, at tiny scale, the central empirical claims of the
paper's Section VII-C: non-private FL leaks training data to all three attack
types, Fed-SDP resists type-0/1 but not type-2, and Fed-CDP resists all three.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.attacks import (
    AttackConfig,
    GradientLeakageThreat,
    MultiRestartReconstruction,
    infer_label_from_gradients,
)
from repro.autodiff import Tensor, grad
from repro.core import make_trainer
from repro.data import generate_dataset, get_dataset_spec
from repro.experiments.harness import quick_config
from repro.nn import CrossEntropyLoss, build_model_for_dataset, build_tabular_mlp


@pytest.fixture(scope="module")
def mnist_setup():
    spec = get_dataset_spec("mnist")
    model = build_model_for_dataset(spec, seed=0, scale=0.25)
    data = generate_dataset(spec, 8, seed=0)
    config = quick_config("mnist", "fed_cdp")
    return spec, model, data, config


def _attack_config(iterations=60):
    return AttackConfig(max_iterations=iterations, success_loss_threshold=1e-4)


def test_attack_config_validation():
    with pytest.raises(ValueError):
        AttackConfig(max_iterations=0)
    with pytest.raises(ValueError):
        AttackConfig(success_loss_threshold=0.0)
    with pytest.raises(ValueError):
        AttackConfig(success_relative_threshold=-1.0)
    with pytest.raises(ValueError):
        AttackConfig(value_range=(1.0, 0.0))


def test_label_inference_from_last_layer_gradient(mnist_setup):
    _, model, data, _ = mnist_setup
    loss_fn = CrossEntropyLoss()
    for index in range(3):
        x = data.features[index : index + 1]
        y = data.labels[index : index + 1]
        gradients = [g.numpy() for g in grad(loss_fn(model(Tensor(x)), y), model.parameters())]
        assert infer_label_from_gradients(gradients) == int(y[0])


def test_type2_attack_succeeds_against_nonprivate(mnist_setup):
    _, model, data, config = mnist_setup
    trainer = make_trainer("nonprivate", model, config.with_overrides(method="nonprivate"))
    threat = GradientLeakageThreat(trainer, _attack_config())
    result = threat.attack(
        "type2", model.get_weights(), data.features[:3], data.labels[:3], rng=np.random.default_rng(0)
    )
    assert result.succeeded
    assert result.reconstruction_distance < 0.1
    assert result.num_iterations <= 60
    assert result.reconstruction.shape == data.features[0].shape


def test_type2_attack_fails_against_fed_cdp(mnist_setup):
    _, model, data, config = mnist_setup
    trainer = make_trainer("fed_cdp", model, config.with_overrides(method="fed_cdp", noise_scale=2.0))
    threat = GradientLeakageThreat(trainer, _attack_config())
    result = threat.attack(
        "type2", model.get_weights(), data.features[:3], data.labels[:3], rng=np.random.default_rng(0)
    )
    assert not result.succeeded
    assert result.reconstruction_distance > 0.2


def test_type1_attack_fails_against_fed_sdp_but_type2_succeeds(mnist_setup):
    """The paper's key observation motivating Fed-CDP."""
    _, model, data, config = mnist_setup
    trainer = make_trainer("fed_sdp", model, config.with_overrides(method="fed_sdp", noise_scale=2.0))
    threat = GradientLeakageThreat(trainer, _attack_config())
    weights = model.get_weights()
    rng = np.random.default_rng(0)
    type1 = threat.attack("type1", weights, data.features[:2], data.labels[:2], rng=rng)
    type2 = threat.attack("type2", weights, data.features[:2], data.labels[:2], rng=rng)
    assert not type1.succeeded
    assert type2.succeeded
    assert type2.reconstruction_distance < type1.reconstruction_distance


def test_fed_sdp_server_side_still_leaks_type1(mnist_setup):
    """When noise is added at the server, the client-side (type-1) view is exact."""
    _, model, data, config = mnist_setup
    trainer = make_trainer(
        "fed_sdp", model, config.with_overrides(method="fed_sdp", sdp_server_side=True, noise_scale=2.0)
    )
    threat = GradientLeakageThreat(trainer, _attack_config())
    weights = model.get_weights()
    rng = np.random.default_rng(0)
    observation_client = threat.observe("type1", weights, data.features[:2], data.labels[:2], rng=rng)
    observation_server = threat.observe("type0", weights, data.features[:2], data.labels[:2], rng=rng)
    # type-1 (client) observation equals the exact batch gradient; the type-0
    # (server) observation has noise added and therefore differs from it
    exact, _ = trainer.compute_batch_gradient(data.features[:2], data.labels[:2])
    for observed, reference in zip(observation_client.gradients, exact):
        np.testing.assert_allclose(observed, reference, atol=1e-10)
    assert any(
        not np.allclose(a, b) for a, b in zip(observation_server.gradients, observation_client.gradients)
    )


def test_tabular_reconstruction_attack():
    """The attack also applies to attribute data (Adult/Cancer models)."""
    model = build_tabular_mlp(20, 2, hidden_sizes=(16, 8), seed=0)
    rng = np.random.default_rng(0)
    x_true = rng.uniform(0, 1, size=(1, 20))
    y_true = np.array([1])
    loss_fn = CrossEntropyLoss()
    target = [g.numpy() for g in grad(loss_fn(model(Tensor(x_true)), y_true), model.parameters())]
    attack = MultiRestartReconstruction(model, AttackConfig(max_iterations=80))
    result = attack.run(target, (20,), [rng], ground_truth=x_true[0], labels=y_true)
    assert result.succeeded
    assert result.reconstruction_distance < 0.05


def test_attack_with_unknown_label_uses_inference(mnist_setup):
    _, model, data, _ = mnist_setup
    loss_fn = CrossEntropyLoss()
    x = data.features[:1]
    y = data.labels[:1]
    target = [g.numpy() for g in grad(loss_fn(model(Tensor(x)), y), model.parameters())]
    attack = MultiRestartReconstruction(model, AttackConfig(max_iterations=40, label_known=False))
    result = attack.run(target, x.shape[1:], [np.random.default_rng(0)], ground_truth=x[0])
    assert result.labels_used is not None
    assert int(result.labels_used[0]) == int(y[0])


def test_threat_validation_and_observation_metadata(mnist_setup):
    _, model, data, config = mnist_setup
    trainer = make_trainer("nonprivate", model, config.with_overrides(method="nonprivate"))
    threat = GradientLeakageThreat(trainer, _attack_config())
    with pytest.raises(ValueError):
        threat.observe("type9", model.get_weights(), data.features[:1], data.labels[:1])
    with pytest.raises(ValueError):
        threat.observe("type2", model.get_weights(), data.features[:0], data.labels[:0])
    observation = threat.observe("type2", model.get_weights(), data.features[:2], data.labels[:2])
    assert observation.batch_size == 1
    assert observation.ground_truth.shape == data.features[0].shape
    observation_batch = threat.observe("type0", model.get_weights(), data.features[:3], data.labels[:3])
    assert observation_batch.batch_size == 3


def test_attack_label_count_mismatch_raises(mnist_setup):
    _, model, data, _ = mnist_setup
    loss_fn = CrossEntropyLoss()
    x, y = data.features[:1], data.labels[:1]
    target = [g.numpy() for g in grad(loss_fn(model(Tensor(x)), y), model.parameters())]
    attack = MultiRestartReconstruction(model, AttackConfig(max_iterations=5))
    with pytest.raises(ValueError):
        attack.run(target, x.shape[1:], [np.random.default_rng(0)], labels=np.array([0, 1]), batch_size=1)


def test_compression_makes_attack_harder(mnist_setup):
    """Pruned (communication-efficient) gradients reduce reconstruction quality."""
    _, model, data, config = mnist_setup
    trainer = make_trainer("nonprivate", model, config.with_overrides(method="nonprivate"))
    rng = np.random.default_rng(0)
    plain = GradientLeakageThreat(trainer, _attack_config(40)).attack(
        "type2", model.get_weights(), data.features[:1], data.labels[:1], rng=rng
    )
    pruned = GradientLeakageThreat(trainer, _attack_config(40), compression_ratio=0.9).attack(
        "type2", model.get_weights(), data.features[:1], data.labels[:1], rng=rng
    )
    assert pruned.reconstruction_distance >= plain.reconstruction_distance


@pytest.mark.parametrize(
    "dataset, leakage_type, final_loss, num_iterations, digest",
    [
        (
            "mnist",
            "type1",
            0.09716303452413529,
            20,
            "b3bfc80e80537f664a56a385c1152dbf6b8f301756cfb19500bc82f0711acd97",
        ),
        (
            "adult",
            "type2",
            0.8771463320453942,
            20,
            "f4ff3c12db208148d5b573bf44948bd8367769d15fbc3779abe00454c2de10c7",
        ),
    ],
    ids=["mnist-type01-batch3", "adult-type2"],
)
def test_offline_attack_results_are_pinned(dataset, leakage_type, final_loss, num_iterations, digest):
    """The harness's attack reproduces recorded results bit for bit.

    The values were recorded from the eager single-restart attack that the
    batched engine replaced; the type-0/1 case reconstructs a batch of 3.
    """
    spec = get_dataset_spec(dataset)
    model = build_model_for_dataset(spec, seed=0, scale=0.25)
    data = generate_dataset(spec, 8, seed=0)
    trainer = make_trainer("nonprivate", model, quick_config(dataset, "nonprivate"))
    threat = GradientLeakageThreat(trainer, AttackConfig(max_iterations=20, success_loss_threshold=1e-3))
    result = threat.attack(
        leakage_type, model.get_weights(), data.features[:3], data.labels[:3], rng=np.random.default_rng(0)
    )
    assert result.final_loss == final_loss
    assert result.num_iterations == num_iterations
    assert hashlib.sha256(np.ascontiguousarray(result.reconstruction).tobytes()).hexdigest() == digest
