"""Lazy client population: derivation and scale properties.

Every run builds its client shards through :class:`LazyClientPopulation`
(docs/cross_device_scale.md).  This suite pins what on-demand derivation
guarantees: each shard matches an up-front partition built from the same
generator state, the population consumes the main RNG exactly as the index
cores it calls, O(cohort) access cost independent of the population size, and
derivation order independence.
"""

from __future__ import annotations

import numpy as np
import pytest
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
from repro.data.partition import ClassShardPlan, draw_partition_seed
from repro.data.synthetic import generate_dataset

STRATEGIES = ("shards", "iid", "dirichlet", "quantity_skew")


def _population(strategy, num_clients, seed, data_per_client=12, spec_name="mnist"):
    spec = get_dataset_spec(spec_name)
    base = generate_dataset(spec, 240, seed=seed)
    return LazyClientPopulation(
        base,
        spec,
        num_clients,
        rng=np.random.default_rng(seed),
        data_per_client=data_per_client,
        strategy=strategy,
        dirichlet_alpha=0.3,
        quantity_skew_exponent=1.5,
    )


def _eager_partition(base, spec, strategy, num_clients, rng, data_per_client=12):
    """Every shard built up front, each by gathering the examples the
    strategy's index core (or class-shard plan) assigns to the client."""
    if strategy == "shards":
        plan = ClassShardPlan.from_dataset(
            base, data_per_client, spec.classes_per_client, draw_partition_seed(rng)
        )
        parts = [plan.indices_for(k) for k in range(num_clients)]
    elif strategy == "iid":
        parts = iid_partition_indices(len(base), num_clients, rng=rng)
    elif strategy == "dirichlet":
        parts = dirichlet_partition_indices(base.labels, num_clients, 0.3, rng=rng)
    else:
        parts = quantity_skew_partition_indices(len(base), num_clients, 1.5, rng=rng)
    return [Dataset(base.features[idx], base.labels[idx], base.num_classes) for idx in parts]


@settings(max_examples=20, deadline=None)
@given(
    strategy=st.sampled_from(STRATEGIES),
    num_clients=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=500),
)
def test_lazy_population_matches_eager_partition(strategy, num_clients, seed):
    """Client k's on-demand shard holds the same examples, in the same
    order, as an up-front partition from a generator in the same state:
    the population hands each strategy its own parameters and index core."""
    population = _population(strategy, num_clients, seed)
    spec = get_dataset_spec("mnist")
    eager = _eager_partition(
        population.dataset, spec, strategy, num_clients, np.random.default_rng(seed)
    )
    assert len(population) == len(eager) == num_clients
    for client_id, shard in enumerate(eager):
        lazy = population[client_id]
        np.testing.assert_array_equal(lazy.features, shard.features)
        np.testing.assert_array_equal(lazy.labels, shard.labels)
        assert lazy.num_classes == shard.num_classes


@settings(max_examples=20, deadline=None)
@given(
    strategy=st.sampled_from(STRATEGIES),
    num_clients=st.integers(min_value=2, max_value=10),
    seed=st.integers(min_value=0, max_value=500),
)
def test_population_rng_consumption_matches_index_cores(strategy, num_clients, seed):
    """Construction draws from the caller's generator exactly what the
    strategy's index core (or the one partition-seed draw of ``shards``)
    draws, so the main RNG a simulation goes on to use after building its
    population is the same whatever the strategy's internals do later."""
    spec = get_dataset_spec("mnist")
    base = generate_dataset(spec, 240, seed=seed)
    rng_core = np.random.default_rng(seed)
    rng_population = np.random.default_rng(seed)
    if strategy == "shards":
        draw_partition_seed(rng_core)
    elif strategy == "iid":
        iid_partition_indices(len(base), num_clients, rng=rng_core)
    elif strategy == "dirichlet":
        dirichlet_partition_indices(base.labels, num_clients, 0.3, rng=rng_core)
    else:
        quantity_skew_partition_indices(len(base), num_clients, 1.5, rng=rng_core)
    LazyClientPopulation(
        base, spec, num_clients, rng=rng_population, data_per_client=12,
        strategy=strategy, dirichlet_alpha=0.3, quantity_skew_exponent=1.5,
    )
    assert rng_core.bit_generator.state == rng_population.bit_generator.state


def test_full_copy_spec_matches_eager():
    """A full-copy spec (Cancer) hands every client the whole training set,
    in order, as an eager copy per client would."""
    spec = get_dataset_spec("cancer")
    assert spec.full_copy_per_client
    base = generate_dataset(spec, 120, seed=5)
    population = LazyClientPopulation(base, spec, 3, rng=np.random.default_rng(5))
    for client_id in range(3):
        np.testing.assert_array_equal(population[client_id].features, base.features)
        np.testing.assert_array_equal(population[client_id].labels, base.labels)
        assert population[client_id].num_classes == base.num_classes
    assert [int(s) for s in population.shard_sizes()] == [len(base)] * 3


def test_shards_derivation_is_population_size_independent():
    """Client k's shard must not depend on how many other clients exist —
    the property that lets a 1M-client population serve a 10-client cohort
    without ever touching the other 999 990 clients."""
    small = _population("shards", 4, seed=11)
    large = _population("shards", 5000, seed=11)
    for client_id in range(4):
        np.testing.assert_array_equal(
            small[client_id].features, large[client_id].features
        )
        np.testing.assert_array_equal(small[client_id].labels, large[client_id].labels)


def test_access_order_does_not_change_derivation():
    population = _population("shards", 6, seed=23)
    first = [population[client_id] for client_id in range(6)]
    # read clients back-to-front, twice; every access re-derives identically
    for _ in range(2):
        for client_id in reversed(range(6)):
            np.testing.assert_array_equal(
                population[client_id].features, first[client_id].features
            )


def test_indices_and_sizes_and_slices():
    population = _population("iid", 5, seed=3)
    parts = iid_partition_indices(len(population.dataset), 5, rng=np.random.default_rng(3))
    sizes = population.shard_sizes()
    assert sizes.shape == (5,)
    assert [int(s) for s in sizes] == [len(part) for part in parts]
    indices = np.asarray(population.indices_for(2))
    np.testing.assert_array_equal(indices, parts[2])
    np.testing.assert_array_equal(population[2].features, population.dataset.features[indices])
    assert len(population[1:3]) == 2
    np.testing.assert_array_equal(
        population[-1].features, population.dataset.features[parts[-1]]
    )


def test_out_of_range_and_bad_strategy():
    population = _population("shards", 3, seed=0)
    with pytest.raises(IndexError):
        population[3]
    with pytest.raises(IndexError):
        population[-4]
    spec = get_dataset_spec("mnist")
    base = generate_tabular_dataset(50, 4, 3, seed=0)
    with pytest.raises(ValueError):
        LazyClientPopulation(base, spec, 3, rng=np.random.default_rng(0), strategy="bogus")
    with pytest.raises(ValueError):
        LazyClientPopulation(base, spec, 0, rng=np.random.default_rng(0))
