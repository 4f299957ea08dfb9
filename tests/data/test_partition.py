"""Tests for the non-IID shard partitioning.

Shards are built the one way a run builds them: through
:class:`~repro.data.population.LazyClientPopulation`, or through the
``*_partition_indices`` cores it calls.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.data import (
    Dataset,
    LazyClientPopulation,
    dirichlet_partition_indices,
    generate_image_dataset,
    get_dataset_spec,
    iid_partition_indices,
    quantity_skew_partition_indices,
)


def _toy_dataset(n=200, classes=10, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(n, 4)), rng.integers(0, classes, size=n), num_classes=classes)


def _class_shards(data, num_clients, data_per_client, classes_per_client, rng):
    """The ``shards`` strategy's clients, ``classes_per_client`` classes each."""
    spec = replace(get_dataset_spec("mnist"), classes_per_client=classes_per_client)
    population = LazyClientPopulation(
        data, spec, num_clients, rng=rng, data_per_client=data_per_client
    )
    return list(population)


def _shards(data, num_clients, rng, strategy, **kwargs):
    """Every client's shard under ``strategy`` (a disjoint split of ``data``)."""
    population = LazyClientPopulation(
        data, get_dataset_spec("mnist"), num_clients, rng=rng, strategy=strategy, **kwargs
    )
    return list(population)


def test_shard_partition_sizes_and_class_skew(rng):
    data = _toy_dataset()
    shards = _class_shards(data, num_clients=8, data_per_client=50, classes_per_client=2, rng=rng)
    assert len(shards) == 8
    for shard in shards:
        assert len(shard) == 50
        assert shard.num_classes == data.num_classes
        assert len(shard.classes_present()) <= 2


def test_shard_partition_covers_many_classes_overall(rng):
    data = _toy_dataset()
    shards = _class_shards(data, num_clients=20, data_per_client=20, classes_per_client=2, rng=rng)
    covered = set()
    for shard in shards:
        covered.update(shard.classes_present().tolist())
    assert len(covered) >= 8  # nearly all 10 classes are assigned to someone


def test_shard_partition_handles_more_requested_than_available(rng):
    data = _toy_dataset(n=30, classes=3)
    shards = _class_shards(data, num_clients=5, data_per_client=40, classes_per_client=2, rng=rng)
    assert all(len(shard) == 40 for shard in shards)


def test_shard_partition_validation(rng):
    data = _toy_dataset()
    with pytest.raises(ValueError):
        _class_shards(data, 0, 10, 2, rng=rng)
    with pytest.raises(ValueError):
        _class_shards(data, 2, 0, 2, rng=rng)
    with pytest.raises(ValueError):
        _class_shards(data, 2, 10, 0, rng=rng)
    with pytest.raises(ValueError):
        _class_shards(data, 2, 10, 99, rng=rng)


def test_full_copy_partition():
    data = _toy_dataset(n=40)
    cancer_spec = get_dataset_spec("cancer")
    shards = list(LazyClientPopulation(data, cancer_spec, 3, rng=np.random.default_rng(0)))
    assert len(shards) == 3
    for shard in shards:
        assert len(shard) == 40
        np.testing.assert_array_equal(shard.labels, data.labels)
    with pytest.raises(ValueError):
        LazyClientPopulation(data, cancer_spec, 0, rng=np.random.default_rng(0))


def test_partition_dataset_respects_spec(rng):
    mnist_spec = get_dataset_spec("mnist")
    data = generate_image_dataset(300, mnist_spec.image_shape, mnist_spec.num_classes, seed=0)
    shards = list(LazyClientPopulation(data, mnist_spec, 4, rng=rng, data_per_client=30))
    assert len(shards) == 4
    assert all(len(s) == 30 for s in shards)
    assert all(len(s.classes_present()) <= mnist_spec.classes_per_client for s in shards)

    cancer_spec = get_dataset_spec("cancer")
    tab = _toy_dataset(n=25, classes=2)
    copies = list(LazyClientPopulation(tab, cancer_spec, 3, rng=rng))
    assert all(len(c) == 25 for c in copies)


def test_partition_is_reproducible_with_seeded_rng():
    data = _toy_dataset()
    a = _class_shards(data, 5, 20, 2, rng=np.random.default_rng(7))
    b = _class_shards(data, 5, 20, 2, rng=np.random.default_rng(7))
    for left, right in zip(a, b):
        np.testing.assert_array_equal(left.labels, right.labels)
        np.testing.assert_array_equal(left.features, right.features)


# ----------------------------------------------------------------------
# Scenario-engine partitioners (IID / Dirichlet / quantity skew)
# ----------------------------------------------------------------------
def _assert_disjoint_cover(parts, num_examples):
    flat = np.concatenate(parts)
    assert flat.size == num_examples  # full coverage, nothing duplicated
    np.testing.assert_array_equal(np.sort(flat), np.arange(num_examples))
    assert all(part.size > 0 for part in parts)  # no client left empty


def test_iid_partition_indices_disjoint_cover(rng):
    parts = iid_partition_indices(103, 8, rng=rng)
    assert len(parts) == 8
    _assert_disjoint_cover(parts, 103)
    sizes = [p.size for p in parts]
    assert max(sizes) - min(sizes) <= 1  # near-equal split


def test_dirichlet_partition_indices_disjoint_cover(rng):
    data = _toy_dataset(n=211)
    parts = dirichlet_partition_indices(data.labels, 7, alpha=0.3, rng=rng)
    assert len(parts) == 7
    _assert_disjoint_cover(parts, 211)


def test_quantity_skew_partition_indices_disjoint_cover_and_skew(rng):
    parts = quantity_skew_partition_indices(200, 6, exponent=2.0, rng=rng)
    _assert_disjoint_cover(parts, 200)
    sizes = sorted(p.size for p in parts)
    assert sizes[-1] > 3 * sizes[0]  # heavy-tailed: the largest dwarfs the smallest
    flat = quantity_skew_partition_indices(60, 6, exponent=0.0, rng=np.random.default_rng(0))
    assert all(p.size == 10 for p in flat)  # exponent 0 = equal split


def _mean_label_concentration(shards):
    """Mean Herfindahl index of the per-client label marginals."""
    return float(np.mean([np.sum(s.class_distribution() ** 2) for s in shards]))


def test_dirichlet_concentration_monotone_in_alpha():
    # The acceptance criterion: the Dirichlet partitioner spans IID (large
    # alpha, flat label marginals) to pathological (small alpha, each client
    # concentrated on few classes).  Concentration must increase as alpha
    # decreases, for several seeds.
    data = _toy_dataset(n=600, classes=10)
    alphas = [100.0, 5.0, 0.5, 0.05]
    for seed in range(3):
        concentrations = [
            _mean_label_concentration(
                _shards(data, 6, np.random.default_rng(seed), "dirichlet", dirichlet_alpha=alpha)
            )
            for alpha in alphas
        ]
        assert all(
            later > earlier for earlier, later in zip(concentrations, concentrations[1:])
        ), f"seed {seed}: concentration {concentrations} not monotone over alphas {alphas}"
    # the extremes genuinely span IID -> pathological
    iid_like = _mean_label_concentration(
        _shards(data, 6, np.random.default_rng(0), "dirichlet", dirichlet_alpha=100.0)
    )
    pathological = _mean_label_concentration(
        _shards(data, 6, np.random.default_rng(0), "dirichlet", dirichlet_alpha=0.05)
    )
    assert iid_like < 0.2  # ~uniform over 10 classes (0.1 ideal)
    assert pathological > 0.5  # dominated by one or two classes


def test_scenario_partitioners_are_seed_stable():
    data = _toy_dataset(n=150)
    for build in (
        lambda r: _shards(data, 5, r, "iid"),
        lambda r: _shards(data, 5, r, "dirichlet", dirichlet_alpha=0.2),
        lambda r: _shards(data, 5, r, "quantity_skew", quantity_skew_exponent=1.5),
    ):
        a = build(np.random.default_rng(13))
        b = build(np.random.default_rng(13))
        for left, right in zip(a, b):
            np.testing.assert_array_equal(left.labels, right.labels)
            np.testing.assert_array_equal(left.features, right.features)


def test_scenario_partitioners_validation(rng):
    data = _toy_dataset(n=20)
    with pytest.raises(ValueError):
        iid_partition_indices(5, 6, rng=rng)  # more clients than examples
    with pytest.raises(ValueError):
        dirichlet_partition_indices(data.labels, 3, alpha=0.0, rng=rng)
    with pytest.raises(ValueError):
        dirichlet_partition_indices(data.labels, 3, alpha=0.5, min_per_client=0, rng=rng)
    with pytest.raises(ValueError):
        quantity_skew_partition_indices(20, 3, exponent=-1.0, rng=rng)
    with pytest.raises(ValueError):
        quantity_skew_partition_indices(20, 3, exponent=1.0, min_per_client=10, rng=rng)


def test_partition_dataset_strategy_dispatch(rng):
    spec = get_dataset_spec("mnist")
    data = _toy_dataset(n=120, classes=10)
    iid = LazyClientPopulation(data, spec, 4, rng=rng, strategy="iid")
    assert sum(len(s) for s in iid) == 120
    dirichlet = LazyClientPopulation(data, spec, 4, rng=rng, strategy="dirichlet", dirichlet_alpha=0.1)
    assert sum(len(s) for s in dirichlet) == 120
    skew = LazyClientPopulation(data, spec, 4, rng=rng, strategy="quantity_skew")
    assert sum(len(s) for s in skew) == 120
    with pytest.raises(ValueError):
        LazyClientPopulation(data, spec, 4, rng=rng, strategy="bogus")
