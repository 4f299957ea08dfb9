"""Tests for aggregation rules, client sampling and update compression."""

from __future__ import annotations

import numpy as np
import pytest

from repro.federated import (
    average_weight_lists,
    compression_savings,
    fedavg_aggregate,
    fedsgd_aggregate,
    prune_update,
    sample_clients_fixed,
    sample_clients_poisson,
)


def _updates(rng, clients=3, shapes=((2, 2), (3,))):
    return [[rng.normal(size=s) for s in shapes] for _ in range(clients)]


def test_average_weight_lists_uniform(rng):
    updates = _updates(rng)
    averaged = average_weight_lists(updates)
    for layer_index in range(2):
        expected = np.mean([u[layer_index] for u in updates], axis=0)
        np.testing.assert_allclose(averaged[layer_index], expected)


def test_average_weight_lists_weighted(rng):
    updates = _updates(rng, clients=2)
    averaged = average_weight_lists(updates, weights=[3.0, 1.0])
    expected = 0.75 * updates[0][0] + 0.25 * updates[1][0]
    np.testing.assert_allclose(averaged[0], expected)


def test_average_weight_lists_validation(rng):
    updates = _updates(rng, clients=2)
    with pytest.raises(ValueError):
        average_weight_lists([])
    with pytest.raises(ValueError):
        average_weight_lists(updates, weights=[1.0])
    with pytest.raises(ValueError):
        average_weight_lists(updates, weights=[0.0, 0.0])
    bad = [updates[0], [updates[1][0]]]
    with pytest.raises(ValueError):
        average_weight_lists(bad)
    mismatched = [updates[0], [np.zeros((5, 5)), np.zeros(3)]]
    with pytest.raises(ValueError):
        average_weight_lists(mismatched)


def test_fedsgd_and_fedavg_are_equivalent(rng):
    """The paper treats FedSGD and FedAveraging as mathematically equivalent."""
    global_weights = [rng.normal(size=(2, 2)), rng.normal(size=3)]
    updates = _updates(rng, clients=4)
    via_fedsgd = fedsgd_aggregate(global_weights, updates)
    local_models = [[g + d for g, d in zip(global_weights, update)] for update in updates]
    via_fedavg = fedavg_aggregate(local_models)
    for a, b in zip(via_fedsgd, via_fedavg):
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_fedsgd_layer_count_validation(rng):
    with pytest.raises(ValueError):
        fedsgd_aggregate([np.zeros((2, 2))], _updates(rng, clients=2))


def test_sample_clients_fixed_properties(rng):
    chosen = sample_clients_fixed(100, 10, rng=rng)
    assert len(chosen) == 10
    assert len(set(chosen)) == 10
    assert all(0 <= c < 100 for c in chosen)
    assert chosen == sorted(chosen)
    with pytest.raises(ValueError):
        sample_clients_fixed(0, 1, rng=rng)
    with pytest.raises(ValueError):
        sample_clients_fixed(10, 0, rng=rng)
    with pytest.raises(ValueError):
        sample_clients_fixed(10, 11, rng=rng)


def test_sample_clients_fixed_is_deterministic_with_seed():
    a = sample_clients_fixed(50, 5, rng=np.random.default_rng(3))
    b = sample_clients_fixed(50, 5, rng=np.random.default_rng(3))
    assert a == b


def test_sample_clients_poisson(rng):
    chosen = sample_clients_poisson(1000, 0.1, rng=rng)
    assert 50 <= len(chosen) <= 200  # loose binomial bounds
    assert len(set(chosen)) == len(chosen)
    with pytest.raises(ValueError):
        sample_clients_poisson(0, 0.1, rng=rng)
    with pytest.raises(ValueError):
        sample_clients_poisson(10, 0.0, rng=rng)


def test_sample_clients_poisson_may_return_empty_and_is_deterministic():
    # exact Binomial(K, q) subsampling that never enumerates the population:
    # the cohort size is one binomial draw and the member ids are then drawn
    # without replacement, so the cost is O(cohort) even for K in the millions.
    # The draw may legitimately come up empty — the simulation skips such rounds
    empty = sample_clients_poisson(5, 1e-9, rng=np.random.default_rng(0))
    assert empty == []
    # same seed => same selection
    a = sample_clients_poisson(100, 0.2, rng=np.random.default_rng(42))
    b = sample_clients_poisson(100, 0.2, rng=np.random.default_rng(42))
    assert a == b
    assert a == sorted(set(a))


def test_sample_clients_poisson_dense_draws_and_scale():
    # the complement path (q > 1/2) returns sorted distinct ids as well
    dense = sample_clients_poisson(100, 0.95, rng=np.random.default_rng(7))
    assert dense == sorted(set(dense))
    assert 80 <= len(dense) <= 100
    # q = 1 deterministically selects everyone
    assert sample_clients_poisson(10, 1.0, rng=np.random.default_rng(0)) == list(range(10))
    # a million-client draw at q = 1e-5 touches only the tiny cohort
    huge = sample_clients_poisson(1_000_000, 1e-5, rng=np.random.default_rng(1))
    assert len(huge) < 100
    assert huge == sorted(set(huge))
    assert all(0 <= client < 1_000_000 for client in huge)


def test_prune_update_sparsity_and_magnitude_ordering(rng):
    update = [rng.normal(size=(20, 20)), rng.normal(size=50)]
    pruned = prune_update(update, 0.7)
    sparsity = compression_savings(pruned)
    assert 0.6 <= sparsity <= 0.8
    # every surviving entry is at least as large as every pruned one
    kept = np.concatenate([p[p != 0] for p in pruned]) if sparsity < 1 else np.array([])
    dropped_mask = [(p == 0) & (u != 0) for p, u in zip(pruned, update)]
    dropped = np.concatenate([np.abs(u[m]) for u, m in zip(update, dropped_mask)])
    if kept.size and dropped.size:
        assert np.abs(kept).min() >= dropped.max() - 1e-12


def test_prune_update_zero_ratio_is_identity(rng):
    update = [rng.normal(size=(3, 3))]
    pruned = prune_update(update, 0.0)
    np.testing.assert_array_equal(pruned[0], update[0])
    with pytest.raises(ValueError):
        prune_update(update, 1.0)
    with pytest.raises(ValueError):
        prune_update(update, -0.1)


def test_compression_savings_empty_and_full():
    assert compression_savings([]) == 0.0
    assert compression_savings([np.zeros((2, 2))]) == 1.0
    assert compression_savings([np.ones(4)]) == 0.0
