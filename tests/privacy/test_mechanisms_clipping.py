"""Tests for the Gaussian mechanism and the clipping operation/policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.privacy import (
    ConstantClipping,
    ExponentialDecayClipping,
    GaussianMechanism,
    LinearDecayClipping,
    MedianNormClipping,
    calibrate_sigma,
    clip_by_l2_norm,
    clip_gradients_per_layer,
    clip_noise_mean,
    clip_per_example_stack,
    epsilon_for_sigma,
    global_l2_norm,
    l2_norm,
    per_example_layer_norms,
)


def test_calibrate_sigma_and_inverse_roundtrip():
    sigma = calibrate_sigma(0.5, 1e-5)
    assert sigma > 1.0
    assert epsilon_for_sigma(sigma, 1e-5) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        calibrate_sigma(-1.0, 1e-5)
    with pytest.raises(ValueError):
        calibrate_sigma(0.5, 2.0)
    with pytest.raises(ValueError):
        epsilon_for_sigma(0.0, 1e-5)


def test_gaussian_mechanism_noise_statistics(rng):
    mechanism = GaussianMechanism(noise_scale=2.0, sensitivity=3.0)
    assert mechanism.stddev == 6.0
    clean = np.zeros(20000)
    noisy = mechanism.add_noise(clean, rng=rng)
    assert abs(np.std(noisy) - 6.0) < 0.15
    assert abs(np.mean(noisy)) < 0.15


def test_gaussian_mechanism_zero_noise_is_identity(rng):
    mechanism = GaussianMechanism(noise_scale=0.0, sensitivity=4.0)
    value = rng.normal(size=(5, 5))
    np.testing.assert_array_equal(mechanism.add_noise(value, rng=rng), value)


def test_gaussian_mechanism_list_and_validation(rng):
    mechanism = GaussianMechanism(noise_scale=1.0, sensitivity=1.0)
    noisy = mechanism.add_noise_to_list([np.zeros(3), np.zeros((2, 2))], rng=rng)
    assert len(noisy) == 2 and noisy[1].shape == (2, 2)
    assert mechanism.epsilon(1e-5) > 0
    derived = mechanism.with_sensitivity(5.0)
    assert derived.stddev == 5.0
    with pytest.raises(ValueError):
        GaussianMechanism(noise_scale=-1.0, sensitivity=1.0)
    with pytest.raises(ValueError):
        GaussianMechanism(noise_scale=1.0, sensitivity=-1.0)


def test_clip_by_l2_norm_behaviour(rng):
    small = np.array([0.1, 0.2])
    np.testing.assert_array_equal(clip_by_l2_norm(small, 4.0), small)
    big = rng.normal(size=100) * 50
    clipped = clip_by_l2_norm(big, 4.0)
    assert l2_norm(clipped) == pytest.approx(4.0)
    # direction is preserved
    cosine = np.dot(big, clipped) / (np.linalg.norm(big) * np.linalg.norm(clipped))
    assert cosine == pytest.approx(1.0)
    with pytest.raises(ValueError):
        clip_by_l2_norm(big, 0.0)


def test_clip_gradients_per_layer(rng):
    layers = [rng.normal(size=(10, 10)) * 10, rng.normal(size=5) * 0.01]
    clipped = clip_gradients_per_layer(layers, 1.0)
    assert l2_norm(clipped[0]) == pytest.approx(1.0)
    np.testing.assert_array_equal(clipped[1], layers[1])


def test_global_l2_norm_matches_concatenation(rng):
    arrays = [rng.normal(size=(3, 3)), rng.normal(size=7)]
    expected = np.linalg.norm(np.concatenate([a.reshape(-1) for a in arrays]))
    assert global_l2_norm(arrays) == pytest.approx(expected)


def test_constant_clipping_policy():
    policy = ConstantClipping(4.0)
    assert policy.bound_for_round(0) == 4.0
    assert policy.bound_for_round(1000) == 4.0
    assert "4" in policy.describe()
    with pytest.raises(ValueError):
        ConstantClipping(0.0)


def test_linear_decay_policy_matches_paper_schedule():
    """The paper decays C linearly from 6 to 2 over 100 rounds."""
    policy = LinearDecayClipping(start=6.0, end=2.0, total_rounds=100)
    assert policy.bound_for_round(0) == pytest.approx(6.0)
    assert policy.bound_for_round(99) == pytest.approx(2.0)
    assert policy.bound_for_round(200) == pytest.approx(2.0)  # clamps after horizon
    mid = policy.bound_for_round(49)
    assert 3.5 < mid < 4.5
    # monotone non-increasing
    values = [policy.bound_for_round(t) for t in range(100)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        policy.bound_for_round(-1)
    with pytest.raises(ValueError):
        LinearDecayClipping(start=-1.0)
    with pytest.raises(ValueError):
        LinearDecayClipping(total_rounds=0)


def test_exponential_decay_policy():
    policy = ExponentialDecayClipping(start=6.0, decay_rate=0.9, minimum=1.0)
    assert policy.bound_for_round(0) == pytest.approx(6.0)
    assert policy.bound_for_round(1) == pytest.approx(5.4)
    assert policy.bound_for_round(1000) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ExponentialDecayClipping(decay_rate=1.5)
    with pytest.raises(ValueError):
        policy.bound_for_round(-3)


def test_median_norm_policy(rng):
    policy = MedianNormClipping(fallback=4.0, window=5)
    assert policy.bound_for_round(0) == 4.0
    for norm in [1.0, 2.0, 3.0, 10.0, 11.0, 12.0]:
        policy.observe(norm)
    # window keeps the last 5 observations: 2, 3, 10, 11, 12 -> median 10
    assert policy.bound_for_round(1) == pytest.approx(10.0)
    policy.observe_gradients([np.array([3.0, 4.0])])  # norm 5
    assert policy.bound_for_round(2) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        policy.observe(-1.0)
    with pytest.raises(ValueError):
        MedianNormClipping(fallback=0.0)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("bound", NON_FINITE)
def test_both_clipping_paths_reject_non_finite_bounds(rng, bound):
    # unchecked, a NaN bound leaves the looped path unclipped and turns the
    # stacked path all-NaN, and an infinite one never clips
    with pytest.raises(ValueError, match="clipping bound"):
        clip_by_l2_norm(rng.normal(size=5), bound)
    with pytest.raises(ValueError, match="clipping bound"):
        clip_per_example_stack([rng.normal(size=(3, 5))], bound)


@pytest.mark.parametrize("bound", NON_FINITE)
def test_fused_clip_noise_mean_rejects_non_finite_bounds(rng, bound):
    stack = [rng.normal(size=(3, 5))]
    with pytest.raises(ValueError, match="clipping bound"):
        clip_noise_mean(stack, per_example_layer_norms(stack), bound)


@pytest.mark.parametrize("bound", NON_FINITE)
@pytest.mark.parametrize(
    "make_policy",
    [
        lambda b: ConstantClipping(b),
        lambda b: LinearDecayClipping(start=b, end=2.0),
        lambda b: LinearDecayClipping(start=6.0, end=b),
        lambda b: ExponentialDecayClipping(start=b),
        lambda b: ExponentialDecayClipping(minimum=b),
        lambda b: MedianNormClipping(fallback=b),
    ],
    ids=["constant", "linear-start", "linear-end", "exp-start", "exp-minimum", "median-fallback"],
)
def test_clipping_policies_reject_non_finite_bounds(make_policy, bound):
    with pytest.raises(ValueError, match="bound"):
        make_policy(bound)


@pytest.mark.parametrize("value", NON_FINITE)
def test_noise_parameters_reject_non_finite_values(value):
    with pytest.raises(ValueError, match="noise_scale"):
        GaussianMechanism(noise_scale=value, sensitivity=1.0)
    with pytest.raises(ValueError, match="sensitivity"):
        GaussianMechanism(noise_scale=1.0, sensitivity=value)
    with pytest.raises(ValueError, match="sigma"):
        epsilon_for_sigma(value, 1e-5)
    with pytest.raises(ValueError, match="epsilon"):
        calibrate_sigma(value, 1e-5)
