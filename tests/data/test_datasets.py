"""Tests for the dataset registry, containers and synthetic generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import (
    Dataset,
    generate_dataset,
    generate_image_dataset,
    generate_tabular_dataset,
    generate_train_val,
    get_dataset_spec,
    list_datasets,
)
from repro.data.dataset import batch_indices


def test_registry_contains_the_five_benchmarks():
    assert set(list_datasets()) == {"mnist", "cifar10", "lfw", "adult", "cancer"}


def test_registry_matches_table1_parameters():
    mnist = get_dataset_spec("MNIST")
    assert mnist.image_shape == (1, 28, 28)
    assert mnist.num_classes == 10
    assert mnist.batch_size == 5
    assert mnist.local_iterations == 100
    assert mnist.rounds == 100
    assert mnist.data_per_client == 500

    lfw = get_dataset_spec("lfw")
    assert lfw.num_classes == 62
    assert lfw.batch_size == 3
    assert lfw.rounds == 60

    adult = get_dataset_spec("adult")
    assert not adult.is_image
    assert adult.num_features == 105
    assert adult.input_shape == (105,)

    cancer = get_dataset_spec("cancer")
    assert cancer.full_copy_per_client
    assert cancer.rounds == 3


def test_registry_unknown_dataset_raises():
    with pytest.raises(KeyError):
        get_dataset_spec("imagenet")


def test_dataset_container_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(4), num_classes=2)
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(3), num_classes=0)


def test_dataset_subset_and_class_distribution():
    data = Dataset(np.arange(12).reshape(6, 2), np.array([0, 0, 1, 1, 1, 2]), num_classes=4)
    assert len(data) == 6
    assert data.input_shape == (2,)
    sub = data.subset([0, 5])
    assert len(sub) == 2
    np.testing.assert_array_equal(sub.labels, [0, 2])
    dist = data.class_distribution()
    assert dist.shape == (4,)
    assert dist[3] == 0
    assert dist.sum() == pytest.approx(1.0)
    np.testing.assert_array_equal(data.classes_present(), [0, 1, 2])


def test_batch_indices_with_replacement(rng):
    batches = [batch_indices(rng, 20, 5) for _ in range(7)]
    assert all(idx.shape == (5,) and idx.min() >= 0 and idx.max() < 20 for idx in batches)
    # with replacement: a batch as large as the population repeats an index
    assert any(len(np.unique(batch_indices(rng, 6, 6))) < 6 for _ in range(20))


def test_dataset_split(rng):
    data = Dataset(rng.normal(size=(50, 2)), rng.integers(0, 3, size=50), num_classes=3)
    left, right = data.split(0.8, rng=rng)
    assert len(left) == 40 and len(right) == 10
    with pytest.raises(ValueError):
        data.split(1.5, rng=rng)


def test_image_generator_shapes_and_determinism():
    a = generate_image_dataset(30, (1, 28, 28), 10, seed=3)
    b = generate_image_dataset(30, (1, 28, 28), 10, seed=3)
    assert a.features.shape == (30, 1, 28, 28)
    assert a.features.min() >= 0.0 and a.features.max() <= 1.0
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    different = generate_image_dataset(30, (1, 28, 28), 10, seed=4)
    assert not np.array_equal(a.features, different.features)


def test_image_generator_class_probabilities():
    data = generate_image_dataset(
        200, (1, 8, 8), 4, seed=0, class_probabilities=np.array([1.0, 0.0, 0.0, 0.0])
    )
    assert np.all(data.labels == 0)


def test_tabular_generator_is_learnable_structure():
    data = generate_tabular_dataset(400, 30, 2, seed=1, class_separation=3.0, noise_level=1.0)
    assert data.features.shape == (400, 30)
    # A nearest-class-mean rule should already beat chance by a wide margin,
    # which is what makes the synthetic task trainable.
    means = [data.features[data.labels == c].mean(axis=0) for c in range(2)]
    distances = np.stack([np.linalg.norm(data.features - m, axis=1) for m in means], axis=1)
    predictions = np.argmin(distances, axis=1)
    assert np.mean(predictions == data.labels) > 0.85


def test_generate_dataset_dispatches_on_spec():
    image = generate_dataset("mnist", 10, seed=0)
    assert image.features.shape == (10, 1, 28, 28)
    tabular = generate_dataset("adult", 10, seed=0)
    assert tabular.features.shape == (10, 105)
    with pytest.raises(ValueError):
        generate_dataset("mnist", 0)


def test_generate_train_val_are_distinct():
    train, val = generate_train_val("cancer", 50, 20, seed=0)
    assert len(train) == 50 and len(val) == 20
    assert train.features.shape[1] == 30
    assert not np.array_equal(train.features[:20], val.features)
