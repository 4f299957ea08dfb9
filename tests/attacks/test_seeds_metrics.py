"""Tests for attack seeds and attack-effectiveness metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import (
    SEED_KINDS,
    attack_success_rate,
    constant_seed,
    make_seed,
    mean_attack_iterations,
    patterned_random_seed,
    psnr,
    reconstruction_distance,
    uniform_random_seed,
)
from repro.attacks.reconstruction import AttackResult


def test_patterned_seed_is_tiled(rng):
    seed = patterned_random_seed((1, 8, 8), rng=rng, patch_size=4)
    assert seed.shape == (1, 8, 8)
    np.testing.assert_allclose(seed[:, :4, :4], seed[:, 4:, :4])
    np.testing.assert_allclose(seed[:, :4, :4], seed[:, :4, 4:])
    assert seed.min() >= 0.0 and seed.max() <= 1.0


def test_patterned_seed_flat_shape(rng):
    seed = patterned_random_seed((10,), rng=rng, patch_size=4)
    assert seed.shape == (10,)
    np.testing.assert_allclose(seed[:4], seed[4:8])


def test_patterned_seed_non_divisible_size(rng):
    seed = patterned_random_seed((1, 7, 9), rng=rng, patch_size=4)
    assert seed.shape == (1, 7, 9)


def test_uniform_and_constant_seeds(rng):
    uniform = uniform_random_seed((2, 3), rng=rng)
    assert uniform.shape == (2, 3)
    assert np.all((uniform >= 0) & (uniform <= 1))
    constant = constant_seed((4,), value=0.25)
    np.testing.assert_array_equal(constant, np.full(4, 0.25))


def test_make_seed_dispatch(rng):
    for kind in SEED_KINDS:
        seed = make_seed(kind, (1, 4, 4), rng=rng)
        assert seed.shape == (1, 4, 4)
    np.testing.assert_array_equal(make_seed("zeros", (3,), rng=rng), np.zeros(3))
    with pytest.raises(ValueError):
        make_seed("bogus", (3,), rng=rng)


def test_seeds_are_deterministic_with_generator():
    a = patterned_random_seed((1, 8, 8), rng=np.random.default_rng(1))
    b = patterned_random_seed((1, 8, 8), rng=np.random.default_rng(1))
    np.testing.assert_array_equal(a, b)


def test_reconstruction_distance_matches_definition(rng):
    truth = rng.uniform(size=(1, 5, 5))
    noisy = truth + 0.1
    assert reconstruction_distance(noisy, truth) == pytest.approx(0.1)
    assert reconstruction_distance(truth, truth) == 0.0
    with pytest.raises(ValueError):
        reconstruction_distance(truth, truth[:, :3, :3])


def test_psnr_behaviour(rng):
    truth = rng.uniform(size=(4, 4))
    assert psnr(truth, truth) == float("inf")
    assert psnr(truth + 0.1, truth) == pytest.approx(20.0)


def _result(succeeded, iterations):
    return AttackResult(
        succeeded=succeeded,
        num_iterations=iterations,
        final_loss=0.0,
        reconstruction_distance=0.0,
        reconstruction=np.zeros(1),
    )


def test_aggregate_attack_metrics():
    results = [_result(True, 10), _result(False, 300), _result(True, 20)]
    assert attack_success_rate(results) == pytest.approx(2 / 3)
    assert mean_attack_iterations(results) == pytest.approx(110.0)
    assert attack_success_rate([]) == 0.0
    assert mean_attack_iterations([]) == 0.0
