"""Tests for the federated configuration and the end-to-end simulation."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.experiments.harness import quick_config
from repro.federated import FederatedConfig, FederatedSimulation
from repro.federated.config import ALWAYS_SERIALISED_FIELDS, FIELD_TYPES
from repro.federated.client import FederatedClient
from repro.data import Dataset


def test_config_defaults_and_derived_quantities():
    config = FederatedConfig(dataset="mnist", method="fed_cdp", num_clients=100,
                             participation_fraction=0.1, num_train_examples=50000)
    assert config.clients_per_round == 10
    assert config.effective_batch_size == 5  # Table I MNIST
    assert config.effective_local_iterations == 100
    assert config.effective_data_per_client == 500
    assert config.client_sampling_rate == pytest.approx(0.1)
    assert config.instance_sampling_rate == pytest.approx(5 * 10 / 50000)
    assert config.spec.name == "mnist"


def test_config_override_helpers():
    config = quick_config("mnist", "fed_cdp")
    other = config.with_overrides(method="fed_sdp", noise_scale=1.0)
    assert other.method == "fed_sdp"
    assert other.noise_scale == 1.0
    assert config.method == "fed_cdp"  # original untouched


@pytest.mark.parametrize(
    "kwargs",
    [
        {"method": "bogus"},
        {"num_clients": 0},
        {"participation_fraction": 0.0},
        {"participation_fraction": 1.5},
        {"rounds": 0},
        {"learning_rate": -0.1},
        {"clipping_bound": 0.0},
        {"noise_scale": -1.0},
        {"delta": 1.5},
        {"compression_ratio": 1.0},
        {"dssgd_share_fraction": 0.0},
        {"aggregation": "bogus"},
        {"client_sampling": "bogus"},
        {"eval_every": 0},
        {"dataset": "unknown-dataset"},
        {"accountant": "bogus"},
        {"epsilon_budget": 0.0},
        {"epsilon_budget": -1.0},
    ],
)
def test_config_validation_rejects_bad_values(kwargs):
    base = dict(dataset="mnist", method="fed_cdp")
    base.update(kwargs)
    with pytest.raises((ValueError, KeyError)):
        FederatedConfig(**base)


@pytest.mark.parametrize("field", ["learning_rate", "clipping_bound", "noise_scale",
                                   "epsilon_budget", "dirichlet_alpha",
                                   "quantity_skew_exponent", "straggler_deadline",
                                   "byzantine_scale", "secure_mask_scale"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_config_validation_rejects_non_finite_privacy_inputs(field, value):
    with pytest.raises(ValueError, match=field):
        FederatedConfig(dataset="mnist", method="fed_cdp", **{field: value})


@pytest.mark.parametrize("classes", [(1.0, float("nan")), (float("inf"),), (2.0, float("-inf"))])
def test_config_validation_rejects_non_finite_device_classes(classes):
    with pytest.raises(ValueError, match="device_classes"):
        FederatedConfig(dataset="mnist", method="fed_cdp", device_classes=classes)


#: every scalar integer field; pinned here so a field that silently loses its
#: integer check (or a new one that lacks it) shows up as a diff
INTEGER_FIELDS = (
    "num_clients", "rounds", "batch_size", "local_iterations", "num_train_examples",
    "num_val_examples", "data_per_client", "availability_period", "attack_seeds",
    "attack_iterations", "num_workers", "worker_chunk_size", "seed", "eval_every",
)


def test_integer_fields_are_the_int_annotated_fields():
    annotated = {name for name, (element, sequence) in FIELD_TYPES.items()
                 if element is int and not sequence}
    assert annotated == set(INTEGER_FIELDS)


@pytest.mark.parametrize("field", INTEGER_FIELDS)
@pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
def test_integer_fields_reject_non_integers(field, value):
    # config files are outside input: {"rounds": 2.5} used to crash only in
    # range() after set-up, and {"num_clients": true} ran silently
    with pytest.raises(ValueError, match=field):
        FederatedConfig(dataset="mnist", method="fed_cdp", attack="leakage", **{field: value})


@pytest.mark.parametrize("field", INTEGER_FIELDS)
def test_integer_fields_accept_any_integral_as_int(field):
    config = FederatedConfig(dataset="mnist", method="fed_cdp", attack="leakage",
                             **{field: np.int64(3)})
    assert getattr(config, field) == 3
    assert type(getattr(config, field)) is int


@pytest.mark.parametrize("field", ["learning_rate", "dropout_rate", "straggler_deadline"])
@pytest.mark.parametrize("value", ["0.5", True])
def test_float_fields_reject_non_numbers(field, value):
    with pytest.raises(ValueError, match=field):
        FederatedConfig(dataset="mnist", method="fed_cdp", **{field: value})


def _non_default_value(config_field):
    """A valid value different from the field's default, derived from its type."""
    element, sequence = FIELD_TYPES[config_field.name]
    choices = config_field.metadata.get("choices")
    if choices is not None:
        return next(choice for choice in choices if choice != config_field.default)
    if sequence:
        return (element(1),)
    if element is bool:
        return not config_field.default
    if config_field.default is None:
        return element(1) if element is int else 0.5
    return config_field.default + 1 if element is int else config_field.default * 2


#: fields that are only valid together with another non-default field
_COMPANIONS = {
    "attack_": {"attack": "leakage"},
    "byzantine_": {"byzantine_mode": "scale", "byzantine_clients": (0,)},
}


@pytest.mark.parametrize(
    "config_field",
    [f for f in dataclasses.fields(FederatedConfig) if f.name not in ALWAYS_SERIALISED_FIELDS],
    ids=lambda f: f.name,
)
def test_to_dict_omits_exactly_the_default_optional_fields(config_field):
    name = config_field.name
    assert name not in FederatedConfig(dataset="mnist").to_dict()
    overrides = {}
    for prefix, companions in _COMPANIONS.items():
        if name.startswith(prefix):
            overrides.update(companions)
    overrides[name] = _non_default_value(config_field)
    config = FederatedConfig(dataset="mnist", **overrides)
    payload = config.to_dict()
    assert set(overrides) <= set(payload)
    assert FederatedConfig.from_dict(payload) == config


def test_to_dict_always_writes_the_v1_fields():
    payload = FederatedConfig().to_dict()
    assert len(ALWAYS_SERIALISED_FIELDS) == 30
    assert set(payload) == ALWAYS_SERIALISED_FIELDS


@pytest.mark.parametrize(
    "bounds",
    [
        (float("nan"), 1.0),
        (float("inf"), 1.0),
        (6.0, float("-inf")),
        (-1.0, 2.0),
        (6.0, 0.0),
        (3.0,),
        (6.0, 4.0, 2.0),
        (),
        None,
        "ab",
    ],
)
def test_config_validation_rejects_bad_decay_clipping(bounds):
    # unchecked, (-1, 2) and (3,) fail only later in make_decay_policy, and a
    # NaN start trains on NaN clipping bounds
    with pytest.raises(ValueError, match="decay_clipping"):
        FederatedConfig(dataset="mnist", method="fed_cdp_decay", decay_clipping=bounds)


def test_config_normalises_decay_clipping_to_float_pair():
    config = FederatedConfig(dataset="mnist", method="fed_cdp_decay", decay_clipping=[6, 2])
    assert config.decay_clipping == (6.0, 2.0)
    assert all(type(bound) is float for bound in config.decay_clipping)
    assert FederatedConfig.from_dict(config.to_dict()).decay_clipping == (6.0, 2.0)


def test_client_validation(rng):
    data = Dataset(rng.normal(size=(10, 4)), rng.integers(0, 2, size=10), num_classes=2)
    client = FederatedClient(0, data, trainer=None)
    assert client.num_examples == 10
    with pytest.raises(ValueError):
        FederatedClient(1, data.subset([]), trainer=None)


def test_simulation_smoke_nonprivate_learns():
    # seed pinned to a configuration that learns well at the tiny quick scale;
    # repinned when the per-client SeedSequence streams replaced the single
    # threaded RNG (the quick profile is a seed lottery either way).
    config = quick_config("mnist", "nonprivate", rounds=6, eval_every=6, seed=1)
    simulation = FederatedSimulation(config)
    history = simulation.run()
    assert history.final_accuracy > 0.3  # well above 10-class chance
    assert len(history.rounds) == 6
    assert history.final_epsilon == 0.0
    assert history.mean_time_per_iteration_ms > 0
    assert len(history.gradient_norm_series) == 6


def test_simulation_private_methods_track_epsilon():
    config = quick_config("cancer", "fed_cdp", rounds=3, eval_every=3, seed=0)
    history = FederatedSimulation(config).run()
    assert history.final_epsilon > 0
    epsilons = [history.epsilon_by_round[r] for r in sorted(history.epsilon_by_round)]
    assert all(b >= a for a, b in zip(epsilons, epsilons[1:]))  # monotone accumulation


def test_simulation_is_deterministic_given_seed():
    config = quick_config("adult", "fed_sdp", rounds=2, eval_every=2, seed=11)
    first = FederatedSimulation(config).run()
    second = FederatedSimulation(config).run()
    assert first.final_accuracy == pytest.approx(second.final_accuracy)
    for a, b in zip(first.rounds, second.rounds):
        assert a.selected_clients == b.selected_clients
        assert a.mean_loss == pytest.approx(b.mean_loss, nan_ok=True)


def test_simulation_fedavg_matches_fedsgd():
    base = quick_config("adult", "nonprivate", rounds=2, eval_every=2, seed=5)
    sgd_history = FederatedSimulation(base).run()
    avg_history = FederatedSimulation(base.with_overrides(aggregation="fedavg")).run()
    assert sgd_history.final_accuracy == pytest.approx(avg_history.final_accuracy)


def test_simulation_with_compression_runs():
    config = quick_config("adult", "nonprivate", rounds=2, eval_every=2, compression_ratio=0.5, seed=2)
    history = FederatedSimulation(config).run()
    assert 0.0 <= history.final_accuracy <= 1.0


def test_simulation_server_side_fed_sdp():
    config = quick_config("adult", "fed_sdp", rounds=2, eval_every=2, sdp_server_side=True, seed=2)
    simulation = FederatedSimulation(config)
    assert simulation.server.update_sanitizer is not None
    history = simulation.run()
    assert history.final_epsilon > 0


def test_history_empty_defaults():
    from repro.federated.simulation import SimulationHistory

    history = SimulationHistory(config=quick_config("mnist", "nonprivate"))
    assert np.isnan(history.final_accuracy)
    assert history.final_epsilon == 0.0
    assert history.mean_time_per_iteration_ms == 0.0
