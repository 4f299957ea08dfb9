"""Tests for the local trainers: non-private, Fed-SDP, Fed-CDP, decay, DSSGD."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    DSSGDTrainer,
    FedCDPDecayTrainer,
    FedCDPTrainer,
    FedSDPTrainer,
    NonPrivateTrainer,
    make_trainer,
    select_top_fraction,
)
from repro.data import generate_dataset, get_dataset_spec
from repro.experiments.harness import quick_config
from repro.nn import build_model_for_dataset
from repro.nn.perexample import stack_to_example_lists
from repro.privacy import MomentsAccountant, l2_norm
from repro.privacy.ledger import AccountingContext
from repro.privacy.clipping import LinearDecayClipping


@pytest.fixture
def small_setup():
    """A small adult-dataset setup shared by the trainer tests (MLP = fast)."""
    spec = get_dataset_spec("adult")
    config = quick_config("adult", "fed_cdp", rounds=3, local_iterations=3, seed=0)
    model = build_model_for_dataset(spec, seed=0, scale=0.3)
    dataset = generate_dataset(spec, 30, seed=0)
    return spec, config, model, dataset


def test_factory_creates_all_methods(small_setup):
    _, config, model, _ = small_setup
    for method, cls in [
        ("nonprivate", NonPrivateTrainer),
        ("fed_sdp", FedSDPTrainer),
        ("fed_cdp", FedCDPTrainer),
        ("fed_cdp_decay", FedCDPDecayTrainer),
        ("dssgd", DSSGDTrainer),
    ]:
        trainer = make_trainer(method, model, config.with_overrides(method=method))
        assert isinstance(trainer, cls)
        assert trainer.name == method
    with pytest.raises(ValueError):
        make_trainer("unknown", model, config)


def test_per_example_gradients_average_to_batch_gradient(small_setup):
    _, config, model, dataset = small_setup
    trainer = NonPrivateTrainer(model, config)
    features, labels = dataset.features[:4], dataset.labels[:4]
    batch_gradients, _ = trainer.compute_batch_gradient(features, labels)
    stack, _ = trainer.compute_per_example_gradient_stack(features, labels)
    per_example = stack_to_example_lists(stack)
    for layer_index, batch_layer in enumerate(batch_gradients):
        averaged = np.mean([example[layer_index] for example in per_example], axis=0)
        np.testing.assert_allclose(averaged, batch_layer, atol=1e-10)


def test_train_client_returns_consistent_update(small_setup):
    _, config, model, dataset = small_setup
    trainer = NonPrivateTrainer(model, config)
    weights = model.get_weights()
    update = trainer.train_client(dataset, weights, round_index=0, rng=np.random.default_rng(0))
    assert len(update.delta) == len(weights)
    assert update.num_examples == len(dataset)
    assert update.time_per_iteration_ms > 0
    assert np.isfinite(update.mean_loss)
    assert update.mean_gradient_norm > 0
    # local_weights = global + delta
    for local, global_, delta in zip(update.local_weights, weights, update.delta):
        np.testing.assert_allclose(local, global_ + delta, atol=1e-12)
    # the update is non-trivial
    assert any(np.linalg.norm(d) > 0 for d in update.delta)


def test_local_iterations_capped_by_shard_size(small_setup):
    _, config, model, dataset = small_setup
    trainer = NonPrivateTrainer(model, config.with_overrides(local_iterations=1000, batch_size=3))
    assert trainer._local_iterations(dataset) == int(np.ceil(len(dataset) / 3))


def test_fed_sdp_update_is_sanitized(small_setup):
    _, config, model, dataset = small_setup
    config = config.with_overrides(method="fed_sdp", clipping_bound=0.5, noise_scale=2.0)
    trainer = FedSDPTrainer(model, config)
    weights = model.get_weights()
    rng = np.random.default_rng(0)
    update = trainer.train_client(dataset, weights, round_index=0, rng=rng)
    assert update.metadata["clipping_bound"] == 0.5
    assert update.metadata["sanitized_at_server"] == 0.0
    # the shared delta carries Gaussian noise of std sigma*C = 1.0, so its norm
    # is far larger than the clipping bound alone would allow
    total_entries = sum(d.size for d in update.delta)
    total_norm = np.sqrt(sum(np.sum(d ** 2) for d in update.delta))
    assert total_norm > 0.5 * np.sqrt(total_entries) * 0.5


def test_fed_sdp_server_side_leaves_client_update_exact(small_setup):
    _, config, model, dataset = small_setup
    config = config.with_overrides(method="fed_sdp", sdp_server_side=True, noise_scale=5.0)
    trainer = FedSDPTrainer(model, config)
    weights = model.get_weights()
    rng = np.random.default_rng(0)

    noisy_free = trainer.train_client(dataset, weights, 0, np.random.default_rng(1))
    baseline = NonPrivateTrainer(model, config).train_client(dataset, weights, 0, np.random.default_rng(1))
    for a, b in zip(noisy_free.delta, baseline.delta):
        np.testing.assert_allclose(a, b, atol=1e-12)
    # but the explicit server-side sanitiser does change it
    sanitized = trainer.sanitize_update([d.copy() for d in noisy_free.delta], 0, rng)
    assert any(not np.allclose(s, d) for s, d in zip(sanitized, noisy_free.delta))


def test_fed_cdp_per_example_sanitisation_clips_and_noises(small_setup):
    _, config, model, dataset = small_setup
    config = config.with_overrides(method="fed_cdp", clipping_bound=0.1, noise_scale=0.0)
    trainer = FedCDPTrainer(model, config)
    stack, _ = trainer.compute_per_example_gradient_stack(dataset.features[:2], dataset.labels[:2])
    per_example = stack_to_example_lists(stack)
    sanitized = trainer.sanitize_per_example_gradient(per_example[0], 0, np.random.default_rng(0))
    # with zero noise, sanitisation is exactly per-layer clipping
    for layer in sanitized:
        assert l2_norm(layer) <= 0.1 + 1e-9

    noisy_trainer = FedCDPTrainer(model, config.with_overrides(noise_scale=3.0))
    noisy = noisy_trainer.sanitize_per_example_gradient(per_example[0], 0, np.random.default_rng(0))
    assert any(not np.allclose(a, b) for a, b in zip(noisy, sanitized))


#: a few float64 ULP: the stack path's einsum layer norms and the looped
#: path's ``l2_norm`` sum the squares in different orders, so the clip
#: divisors (and hence the observation) may differ in the last bits
_ULP_TOLERANCE = 8 * np.finfo(np.float64).eps


@pytest.mark.parametrize("noise_scale", [0.0, 1.5])
@pytest.mark.parametrize("dataset", ["adult", "mnist"], ids=["mlp", "cnn"])
@pytest.mark.parametrize("method", ["fed_cdp", "fed_cdp_decay"])
def test_type2_observation_is_the_stack_path_at_batch_one(method, dataset, noise_scale):
    """Fed-CDP's type-2 observation runs the training path at B = 1: it
    leaves the generator where the looped per-example sanitiser does, and
    its values agree with it to a few ULP."""
    spec = get_dataset_spec(dataset)
    model = build_model_for_dataset(spec, seed=0, scale=0.25)
    data = generate_dataset(spec, 2, seed=0)
    config = quick_config(dataset, method, noise_scale=noise_scale, clipping_bound=0.5)
    trainer = make_trainer(method, model, config)
    x, y = data.features[:1], data.labels[:1]
    stack, _ = trainer.compute_per_example_gradient_stack(x, y)
    reference_rng = np.random.default_rng(5)
    reference = trainer.sanitize_per_example_gradient([layer[0] for layer in stack], 3, reference_rng)

    rng = np.random.default_rng(5)
    observed = trainer.observed_per_example_gradient(model.get_weights(), x, y, round_index=3, rng=rng)
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    for got, want in zip(observed, reference):
        assert got.shape == want.shape
        np.testing.assert_allclose(
            got, want, rtol=_ULP_TOLERANCE, atol=_ULP_TOLERANCE * np.abs(want).max()
        )


def test_fed_cdp_observed_gradient_differs_from_clean(small_setup):
    _, config, model, dataset = small_setup
    weights = model.get_weights()
    clean = NonPrivateTrainer(model, config).observed_per_example_gradient(
        weights, dataset.features[:1], dataset.labels[:1], rng=np.random.default_rng(0)
    )
    protected = FedCDPTrainer(model, config.with_overrides(noise_scale=2.0)).observed_per_example_gradient(
        weights, dataset.features[:1], dataset.labels[:1], rng=np.random.default_rng(0)
    )
    assert any(not np.allclose(a, b) for a, b in zip(clean, protected))


def test_fed_cdp_decay_uses_decaying_bound(small_setup):
    _, config, model, _ = small_setup
    config = config.with_overrides(method="fed_cdp_decay", decay_clipping=(6.0, 2.0), rounds=10)
    trainer = FedCDPDecayTrainer(model, config)
    assert isinstance(trainer.clipping, LinearDecayClipping)
    assert trainer.clipping.bound_for_round(0) == pytest.approx(6.0)
    assert trainer.clipping.bound_for_round(9) == pytest.approx(2.0)
    first = trainer.clipping.bound_for_round(0)
    later = trainer.clipping.bound_for_round(5)
    assert later < first


def test_privacy_accounting_fed_cdp_vs_fed_sdp(small_setup):
    _, config, model, _ = small_setup
    config = config.with_overrides(num_clients=100, participation_fraction=0.1, num_train_examples=10000,
                                   local_iterations=10, noise_scale=6.0)
    cdp = FedCDPTrainer(model, config.with_overrides(method="fed_cdp"))
    sdp = FedSDPTrainer(model, config.with_overrides(method="fed_sdp"))
    nonprivate = NonPrivateTrainer(model, config.with_overrides(method="nonprivate"))

    context = AccountingContext.from_config(config, [config.effective_data_per_client] * config.num_clients)

    def charged(trainer):
        accountant = MomentsAccountant()
        accountant.bind_context(context)
        charge = trainer.round_privacy_charge(0)
        if charge is not None:
            accountant.charge_round(charge, participants=[0])
        return accountant

    acc_cdp, acc_sdp, acc_none = charged(cdp), charged(sdp), charged(nonprivate)
    assert acc_cdp.steps == config.effective_local_iterations
    assert acc_sdp.steps == 1
    assert acc_none.steps == 0
    assert cdp.supports_instance_level_privacy()
    assert not sdp.supports_instance_level_privacy()
    assert not nonprivate.supports_instance_level_privacy()


def test_dssgd_shares_only_a_fraction(small_setup):
    _, config, model, dataset = small_setup
    config = config.with_overrides(method="dssgd", dssgd_share_fraction=0.1)
    trainer = DSSGDTrainer(model, config)
    weights = model.get_weights()
    update = trainer.train_client(dataset, weights, 0, np.random.default_rng(0))
    total = sum(d.size for d in update.delta)
    nonzero = sum(int(np.sum(d != 0)) for d in update.delta)
    assert nonzero <= int(np.ceil(0.1 * total)) + len(update.delta)
    assert update.metadata["share_fraction"] == 0.1


def test_select_top_fraction_properties(rng):
    update = [rng.normal(size=(10, 10)), rng.normal(size=30)]
    selected = select_top_fraction(update, 0.2)
    kept = sum(int(np.sum(s != 0)) for s in selected)
    assert 0 < kept <= int(np.ceil(0.2 * 130)) + 2
    full = select_top_fraction(update, 1.0)
    for a, b in zip(full, update):
        np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError):
        select_top_fraction(update, 0.0)


def test_cnn_per_example_gradients_shapes():
    """Per-example gradients also work for the convolutional architecture."""
    spec = get_dataset_spec("mnist")
    config = quick_config("mnist", "fed_cdp")
    model = build_model_for_dataset(spec, seed=0, scale=0.25)
    trainer = FedCDPTrainer(model, config)
    data = generate_dataset(spec, 3, seed=0)
    stack, loss = trainer.compute_per_example_gradient_stack(data.features[:2], data.labels[:2])
    per_example = stack_to_example_lists(stack)
    assert len(per_example) == 2
    assert [g.shape for g in per_example[0]] == [p.shape for p in model.parameters()]
    assert np.isfinite(loss)
