"""Tests for the moments accountant and classical composition results."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.privacy import (
    DEFAULT_RDP_ORDERS,
    AccountingContext,
    HeterogeneousAccountant,
    MomentsAccountant,
    RoundCharge,
    abadi_asymptotic_epsilon,
    advanced_composition,
    amplify_by_subsampling,
    basic_composition,
    compute_dp_sgd_epsilon,
    compute_rdp_subsampled_gaussian,
    rdp_to_epsilon,
)
from repro.privacy import accountant as accountant_module


def test_accountant_reproduces_paper_table6_values():
    """Table VI: q=0.01, sigma=6, delta=1e-5 for the paper's round/iteration counts."""
    expected = {
        100: 0.0845,     # MNIST/CIFAR-10, L=1
        10000: 0.8227,   # MNIST/CIFAR-10, L=100
        6000: 0.6356,    # LFW, L=100
        1000: 0.2761,    # Adult, L=100
        300: 0.1469,     # Cancer, L=100
    }
    for steps, paper_epsilon in expected.items():
        epsilon = compute_dp_sgd_epsilon(0.01, 6.0, steps, 1e-5)
        assert epsilon == pytest.approx(paper_epsilon, rel=0.02), (steps, epsilon)


def test_rdp_subsampling_reduces_to_gaussian_at_q1():
    orders = (2.0, 4.0, 8.0)
    rdp = compute_rdp_subsampled_gaussian(1.0, 2.0, orders)
    np.testing.assert_allclose(rdp, [alpha / (2 * 4.0) for alpha in orders])


def test_rdp_monotone_in_noise_and_sampling_rate():
    orders = DEFAULT_RDP_ORDERS
    low_noise = compute_rdp_subsampled_gaussian(0.01, 1.0, orders)
    high_noise = compute_rdp_subsampled_gaussian(0.01, 6.0, orders)
    assert np.all(high_noise <= low_noise + 1e-12)
    small_q = compute_rdp_subsampled_gaussian(0.001, 6.0, orders)
    large_q = compute_rdp_subsampled_gaussian(0.1, 6.0, orders)
    assert np.all(small_q <= large_q + 1e-12)


def test_rdp_validation():
    with pytest.raises(ValueError):
        compute_rdp_subsampled_gaussian(0.0, 1.0)
    with pytest.raises(ValueError):
        compute_rdp_subsampled_gaussian(0.5, 0.0)
    with pytest.raises(ValueError):
        compute_rdp_subsampled_gaussian(0.5, 1.0, orders=(0.5,))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="sampling rate"):
            compute_rdp_subsampled_gaussian(bad, 1.0)
        with pytest.raises(ValueError, match="noise multiplier"):
            compute_rdp_subsampled_gaussian(0.5, bad)
        with pytest.raises(ValueError, match="orders"):
            compute_rdp_subsampled_gaussian(0.5, 1.0, orders=(2.0, bad))
    with pytest.raises(ValueError):
        rdp_to_epsilon((2.0,), (0.1, 0.2), 1e-5)
    with pytest.raises(ValueError):
        rdp_to_epsilon((2.0,), (0.1,), 2.0)


def test_epsilon_grows_with_steps_and_sampling_rate():
    eps_few = compute_dp_sgd_epsilon(0.01, 6.0, 100, 1e-5)
    eps_many = compute_dp_sgd_epsilon(0.01, 6.0, 10000, 1e-5)
    assert eps_many > eps_few
    eps_small_q = compute_dp_sgd_epsilon(0.005, 6.0, 1000, 1e-5)
    eps_large_q = compute_dp_sgd_epsilon(0.05, 6.0, 1000, 1e-5)
    assert eps_large_q > eps_small_q
    assert compute_dp_sgd_epsilon(0.01, 6.0, 0, 1e-5) == 0.0
    with pytest.raises(ValueError):
        compute_dp_sgd_epsilon(0.01, 6.0, -1, 1e-5)


def test_moments_accountant_stateful_accumulation_matches_oneshot():
    accountant = MomentsAccountant()
    assert accountant.get_epsilon(1e-5) == 0.0
    for _ in range(10):
        accountant.accumulate(0.01, 6.0, steps=100)
    assert accountant.steps == 1000
    oneshot = compute_dp_sgd_epsilon(0.01, 6.0, 1000, 1e-5)
    assert accountant.get_epsilon(1e-5) == pytest.approx(oneshot, rel=1e-9)
    rdp = 1000 * compute_rdp_subsampled_gaussian(0.01, 6.0, accountant.orders)
    epsilon, order = rdp_to_epsilon(accountant.orders, rdp, 1e-5)
    assert epsilon == pytest.approx(oneshot)
    assert order in DEFAULT_RDP_ORDERS
    accountant.reset()
    assert accountant.steps == 0 and accountant.get_epsilon(1e-5) == 0.0


def test_moments_accountant_sampling_condition():
    # q < 1/(16 sigma): the paper keeps sigma=6 so q must stay below ~0.0104
    assert MomentsAccountant.check_sampling_condition(0.01, 6.0)
    assert not MomentsAccountant.check_sampling_condition(0.02, 6.0)
    with pytest.raises(ValueError):
        MomentsAccountant.check_sampling_condition(0.01, 0.0)


def test_moments_accountant_is_tighter_than_advanced_composition():
    """The motivation for the moments accountant: orders-of-magnitude tighter bounds."""
    q, sigma, steps, delta = 0.01, 6.0, 10000, 1e-5
    moments_epsilon = compute_dp_sgd_epsilon(q, sigma, steps, delta)
    per_step_epsilon, per_step_delta = amplify_by_subsampling(
        math.sqrt(2 * math.log(1.25 / delta)) / sigma, delta / (2 * steps), q
    )
    advanced_epsilon, _ = advanced_composition(per_step_epsilon, per_step_delta, steps, delta / 2)
    assert moments_epsilon < advanced_epsilon


def test_abadi_asymptotic_bound_scaling():
    base = abadi_asymptotic_epsilon(0.01, 6.0, 100, 1e-5)
    quadrupled_steps = abadi_asymptotic_epsilon(0.01, 6.0, 400, 1e-5)
    assert quadrupled_steps == pytest.approx(2 * base)
    doubled_noise = abadi_asymptotic_epsilon(0.01, 12.0, 100, 1e-5)
    assert doubled_noise == pytest.approx(base / 2)
    with pytest.raises(ValueError):
        abadi_asymptotic_epsilon(0.0, 6.0, 100, 1e-5)
    with pytest.raises(ValueError):
        abadi_asymptotic_epsilon(0.01, -6.0, 100, 1e-5)
    with pytest.raises(ValueError):
        abadi_asymptotic_epsilon(0.01, 6.0, -5, 1e-5)


def test_amplification_and_basic_composition():
    epsilon, delta = amplify_by_subsampling(1.0, 1e-5, 0.1)
    assert epsilon < 1.0
    assert delta == pytest.approx(1e-6)
    total = basic_composition([(0.1, 1e-6)] * 5)
    assert total[0] == pytest.approx(0.5)
    assert total[1] == pytest.approx(5e-6)
    with pytest.raises(ValueError):
        amplify_by_subsampling(-1.0, 1e-5, 0.1)
    with pytest.raises(ValueError):
        amplify_by_subsampling(1.0, 1e-5, 0.0)
    with pytest.raises(ValueError):
        basic_composition([(-0.1, 0.0)])


def test_advanced_composition_validation_and_zero_case():
    assert advanced_composition(0.1, 1e-6, 0, 1e-6) == (0.0, 0.0)
    with pytest.raises(ValueError):
        advanced_composition(-0.1, 1e-6, 10, 1e-6)
    with pytest.raises(ValueError):
        advanced_composition(0.1, 1e-6, -1, 1e-6)
    with pytest.raises(ValueError):
        advanced_composition(0.1, 1e-6, 10, 0.0)


# ----------------------------------------------------------------------
# Memoised RDP curves
# ----------------------------------------------------------------------
def _count_binomial_evaluations(monkeypatch):
    """Record the ``(q, sigma)`` of every per-order binomial-sum evaluation."""
    calls = []
    evaluate = accountant_module._rdp_subsampled_gaussian_int

    def counting(q, sigma, alpha):
        calls.append((q, sigma))
        return evaluate(q, sigma, alpha)

    monkeypatch.setattr(accountant_module, "_rdp_subsampled_gaussian_int", counting)
    return calls


def test_rdp_curve_is_evaluated_once_per_rate_and_noise(monkeypatch):
    accountant_module._rdp_curve.cache_clear()
    calls = _count_binomial_evaluations(monkeypatch)
    sizes = (9, 12, 12, 17, 25, 131)  # quantity skew: five distinct B / n_k, all < 1
    context = AccountingContext(
        shard_sizes=sizes, batch_size=4, instance_sampling_rate=0.05, client_sampling_rate=0.5
    )
    charge = RoundCharge(level="instance", noise_multiplier=0.8, steps=4)
    moments = MomentsAccountant()
    moments.bind_context(context)
    ledger = HeterogeneousAccountant()
    ledger.bind_context(context)
    for round_index in range(20):
        moments.charge_round(charge, [0])
        ledger.charge_round(charge, [round_index % 6, (round_index + 3) % 6])
    # the equal-shard rate is shared by the moments accountant and the ledger's
    # embedded copy; the ledger adds one curve per distinct shard size
    expected = {(0.05, 0.8)} | {(4 / size, 0.8) for size in sizes}
    assert set(calls) == expected
    assert len(calls) == len(expected) * len(DEFAULT_RDP_ORDERS)


def test_rdp_curves_are_read_only():
    accountant_module._rdp_curve.cache_clear()
    curve = compute_rdp_subsampled_gaussian(0.01, 6.0)
    assert not curve.flags.writeable
    with pytest.raises(ValueError):
        curve *= 2
    # the refused update left the cached curve intact
    accountant_module._rdp_curve.cache_clear()
    assert np.array_equal(curve, compute_rdp_subsampled_gaussian(0.01, 6.0))


@settings(max_examples=30, deadline=None)
@given(
    q=st.floats(min_value=1e-4, max_value=1.0),
    sigma=st.floats(min_value=0.3, max_value=20.0),
    orders=st.lists(
        st.sampled_from((1.5, 2.0, 3.0, 4.5, 8.0, 17.25, 32.0, 64.0)), min_size=1, max_size=4
    ),
)
def test_memoised_rdp_curve_is_bitwise_a_fresh_evaluation(q, sigma, orders):
    accountant_module._rdp_curve.cache_clear()
    memoised = compute_rdp_subsampled_gaussian(q, sigma, orders)
    assert compute_rdp_subsampled_gaussian(q, sigma, tuple(orders)) is memoised
    accountant_module._rdp_curve.cache_clear()
    fresh = compute_rdp_subsampled_gaussian(q, sigma, orders)
    assert fresh is not memoised
    assert np.array_equal(memoised, fresh)
