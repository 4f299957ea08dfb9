"""Property-based tests for the data substrate (hypothesis)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    Dataset,
    LazyClientPopulation,
    dirichlet_partition_indices,
    generate_tabular_dataset,
    get_dataset_spec,
    iid_partition_indices,
    quantity_skew_partition_indices,
)
from repro.data.dataset import batch_indices


@settings(max_examples=25, deadline=None)
@given(
    num_examples=st.integers(min_value=20, max_value=120),
    num_features=st.integers(min_value=2, max_value=20),
    num_classes=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_tabular_generator_invariants(num_examples, num_features, num_classes, seed):
    data = generate_tabular_dataset(num_examples, num_features, num_classes, seed=seed)
    assert len(data) == num_examples
    assert data.features.shape == (num_examples, num_features)
    assert data.labels.min() >= 0 and data.labels.max() < num_classes
    assert np.all(np.isfinite(data.features))
    # determinism: regenerating with the same seed gives the same data
    again = generate_tabular_dataset(num_examples, num_features, num_classes, seed=seed)
    np.testing.assert_array_equal(data.features, again.features)
    np.testing.assert_array_equal(data.labels, again.labels)


@settings(max_examples=25, deadline=None)
@given(
    num_clients=st.integers(min_value=1, max_value=12),
    data_per_client=st.integers(min_value=4, max_value=40),
    classes_per_client=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=100),
)
def test_shard_partition_invariants(num_clients, data_per_client, classes_per_client, seed):
    rng = np.random.default_rng(seed)
    base = generate_tabular_dataset(150, 4, 5, seed=seed)
    spec = replace(get_dataset_spec("mnist"), classes_per_client=classes_per_client)
    shards = list(
        LazyClientPopulation(base, spec, num_clients, rng=rng, data_per_client=data_per_client)
    )
    assert len(shards) == num_clients
    for shard in shards:
        # exact shard size, labels drawn from at most the requested class count
        assert len(shard) == data_per_client
        assert len(shard.classes_present()) <= classes_per_client
        assert shard.num_classes == base.num_classes
        # every shard example exists in the base dataset's label set
        assert set(shard.labels.tolist()) <= set(base.labels.tolist())


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=5, max_value=60),
    batch_size=st.integers(min_value=1, max_value=10),
    num_batches=st.integers(min_value=1, max_value=20),
    seed=st.integers(min_value=0, max_value=100),
)
def test_batch_sampling_invariants(n, batch_size, num_batches, seed):
    rng = np.random.default_rng(seed)
    for _ in range(num_batches):
        indices = batch_indices(rng, n, min(batch_size, n))
        assert indices.shape == (min(batch_size, n),)
        # every index names one of the population's examples
        assert set(indices.tolist()) <= set(range(n))


# ----------------------------------------------------------------------
# Scenario-engine partitioner invariants: every disjoint strategy must
# cover all indices exactly once, leave no client empty, and be a pure
# function of (inputs, seed).
# ----------------------------------------------------------------------
def _assert_disjoint_partition_invariants(parts, num_examples, num_clients):
    assert len(parts) == num_clients
    assert all(part.size >= 1 for part in parts)  # non-empty clients
    flat = np.concatenate(parts)
    assert flat.size == num_examples  # disjoint (no index twice) ...
    np.testing.assert_array_equal(np.sort(flat), np.arange(num_examples))  # ... and full coverage


@settings(max_examples=25, deadline=None)
@given(
    num_examples=st.integers(min_value=12, max_value=200),
    num_clients=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_iid_partition_invariants(num_examples, num_clients, seed):
    parts = iid_partition_indices(num_examples, num_clients, rng=np.random.default_rng(seed))
    _assert_disjoint_partition_invariants(parts, num_examples, num_clients)
    again = iid_partition_indices(num_examples, num_clients, rng=np.random.default_rng(seed))
    for a, b in zip(parts, again):
        np.testing.assert_array_equal(a, b)  # seed-stability


@settings(max_examples=25, deadline=None)
@given(
    num_examples=st.integers(min_value=15, max_value=200),
    num_clients=st.integers(min_value=1, max_value=10),
    num_classes=st.integers(min_value=2, max_value=6),
    alpha=st.floats(min_value=0.05, max_value=50.0),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_dirichlet_partition_invariants(num_examples, num_clients, num_classes, alpha, seed):
    labels = np.random.default_rng(seed).integers(0, num_classes, size=num_examples)
    parts = dirichlet_partition_indices(
        labels, num_clients, alpha, rng=np.random.default_rng(seed)
    )
    _assert_disjoint_partition_invariants(parts, num_examples, num_clients)
    again = dirichlet_partition_indices(
        labels, num_clients, alpha, rng=np.random.default_rng(seed)
    )
    for a, b in zip(parts, again):
        np.testing.assert_array_equal(a, b)  # seed-stability


@settings(max_examples=25, deadline=None)
@given(
    num_examples=st.integers(min_value=12, max_value=300),
    num_clients=st.integers(min_value=1, max_value=10),
    exponent=st.floats(min_value=0.0, max_value=3.0),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_quantity_skew_partition_invariants(num_examples, num_clients, exponent, seed):
    parts = quantity_skew_partition_indices(
        num_examples, num_clients, exponent, rng=np.random.default_rng(seed)
    )
    _assert_disjoint_partition_invariants(parts, num_examples, num_clients)
    again = quantity_skew_partition_indices(
        num_examples, num_clients, exponent, rng=np.random.default_rng(seed)
    )
    for a, b in zip(parts, again):
        np.testing.assert_array_equal(a, b)  # seed-stability


@settings(max_examples=15, deadline=None)
@given(
    num_clients=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=200),
)
def test_dirichlet_alpha_orders_concentration(num_clients, seed):
    """Label-marginal concentration is monotone in alpha across random setups."""
    labels = np.random.default_rng(seed).integers(0, 8, size=400)

    def concentration(alpha):
        parts = dirichlet_partition_indices(
            labels, num_clients, alpha, rng=np.random.default_rng(seed)
        )
        marginals = [
            np.bincount(labels[part], minlength=8) / part.size for part in parts
        ]
        return float(np.mean([np.sum(m**2) for m in marginals]))

    # widely separated alphas so the ordering is statistically safe per-seed
    assert concentration(0.05) > concentration(100.0)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=10, max_value=80),
    fraction=st.floats(min_value=0.1, max_value=0.9),
    seed=st.integers(min_value=0, max_value=100),
)
def test_split_partitions_every_example_once(n, fraction, seed):
    rng = np.random.default_rng(seed)
    data = Dataset(np.arange(n, dtype=float).reshape(n, 1), np.zeros(n), num_classes=2)
    left, right = data.split(fraction, rng=rng)
    assert len(left) + len(right) == n
    combined = np.sort(np.concatenate([left.features.reshape(-1), right.features.reshape(-1)]))
    np.testing.assert_array_equal(combined, np.arange(n, dtype=float))
