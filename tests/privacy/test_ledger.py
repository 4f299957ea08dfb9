"""Tests for the pluggable accounting subsystem and the per-client RDP ledger.

Covers the ISSUE-4 acceptance semantics: per-client epsilon monotonicity,
worst-case >= equal-shard under quantity skew with equality (<= 1e-9) under
equal shards and full participation, checkpoint/resume round-trips, and
zero-participation rounds staying uncharged.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.experiments.harness import quick_config
from repro.federated.simulation import FederatedSimulation
from repro.privacy import (
    ACCOUNTANT_NAMES,
    AccountingContext,
    HeterogeneousAccountant,
    MomentsAccountant,
    RoundCharge,
    compute_rdp_subsampled_gaussian,
    make_accountant,
)

DELTA = 1e-5


def _context(shard_sizes, batch_size=4, clients_per_round=None):
    sizes = tuple(shard_sizes)
    clients_per_round = clients_per_round if clients_per_round is not None else len(sizes)
    total = sum(sizes)
    return AccountingContext(
        shard_sizes=sizes,
        batch_size=batch_size,
        instance_sampling_rate=min(1.0, batch_size * clients_per_round / total),
        client_sampling_rate=clients_per_round / len(sizes),
    )


def _charge(steps=4, sigma=0.8, level="instance"):
    return RoundCharge(level=level, noise_multiplier=sigma, steps=steps)


# ----------------------------------------------------------------------
# Registry and charge validation
# ----------------------------------------------------------------------
def test_registry_resolves_both_accountants():
    assert set(ACCOUNTANT_NAMES) == {"moments", "heterogeneous"}
    context = _context([40] * 4)
    assert isinstance(make_accountant("moments", context), MomentsAccountant)
    assert isinstance(make_accountant("heterogeneous", context), HeterogeneousAccountant)
    with pytest.raises(ValueError, match="unknown accountant"):
        make_accountant("bayesian")


def test_round_charge_validation():
    with pytest.raises(ValueError, match="level"):
        RoundCharge(level="galaxy", noise_multiplier=1.0, steps=1)
    with pytest.raises(ValueError, match="noise_multiplier"):
        RoundCharge(level="instance", noise_multiplier=0.0, steps=1)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="noise_multiplier"):
            RoundCharge(level="instance", noise_multiplier=bad, steps=1)
    with pytest.raises(ValueError, match="steps"):
        RoundCharge(level="instance", noise_multiplier=1.0, steps=0)
    with pytest.raises(ValueError, match="shard_sizes"):
        AccountingContext(shard_sizes=(), batch_size=4,
                          instance_sampling_rate=0.1, client_sampling_rate=0.5)


def _bare_context(shard_sizes):
    return AccountingContext(shard_sizes=shard_sizes, batch_size=4,
                             instance_sampling_rate=0.1, client_sampling_rate=0.5)


def test_context_stores_shard_sizes_as_read_only_int64_array():
    for given in ((40, 20, 7), [40, 20, 7], np.array([40, 20, 7], dtype=np.int32),
                  np.array([40.0, 20.0, 7.0])):
        sizes = _bare_context(given).shard_sizes
        assert isinstance(sizes, np.ndarray)
        assert sizes.dtype == np.int64 and sizes.ndim == 1
        assert not sizes.flags.writeable
        np.testing.assert_array_equal(sizes, [40, 20, 7])


def test_context_is_isolated_from_the_callers_writeable_array():
    given = np.array([40, 20, 7], dtype=np.int64)
    context = _bare_context(given)
    given[0] = 1
    np.testing.assert_array_equal(context.shard_sizes, [40, 20, 7])
    assert given.flags.writeable  # the caller's array is left alone


def test_context_keeps_a_read_only_int64_array_without_copying():
    given = np.broadcast_to(np.int64(8), (1_000_000,))
    sizes = _bare_context(given).shard_sizes
    assert sizes is given
    assert sizes.strides == (0,)


@pytest.mark.parametrize(
    "bad",
    [(2.7, 3), (40, math.nan), (40, math.inf), (True, True), ("40", "20"),
     [[40, 20]], (40, 0), (40, -3)],
)
def test_context_rejects_invalid_shard_sizes(bad):
    # a non-integral size must not be silently truncated (2.7 -> 2)
    with pytest.raises(ValueError, match="shard_sizes"):
        _bare_context(bad)


def test_unbound_accountants_refuse_to_charge():
    with pytest.raises(RuntimeError, match="unbound"):
        HeterogeneousAccountant().charge_round(_charge(), [0])
    with pytest.raises(RuntimeError, match="unbound"):
        MomentsAccountant().charge_round(_charge(), [0])


# ----------------------------------------------------------------------
# Moments accountant: charge_round reproduces accumulate exactly
# ----------------------------------------------------------------------
def test_moments_charge_round_matches_accumulate():
    context = _context([40] * 6, clients_per_round=3)
    charged = make_accountant("moments", context)
    manual = MomentsAccountant()
    for _ in range(3):
        charged.charge_round(_charge(), [0, 1, 2])
        manual.accumulate(context.instance_sampling_rate, 0.8, steps=4)
    assert charged.get_epsilon(DELTA) == manual.get_epsilon(DELTA)
    # client-level charges use the client sampling rate
    charged.reset()
    manual.reset()
    charged.charge_round(_charge(steps=1, level="client"), [4])
    manual.accumulate(context.client_sampling_rate, 0.8, steps=1)
    assert charged.get_epsilon(DELTA) == manual.get_epsilon(DELTA)


def test_moments_projection_matches_charging():
    context = _context([40] * 6, clients_per_round=3)
    accountant = make_accountant("moments", context)
    accountant.charge_round(_charge(), [0, 1, 2])
    projected = accountant.projected_epsilon(_charge(), DELTA)
    accountant.charge_round(_charge(), [0, 1, 2])
    assert projected == pytest.approx(accountant.get_epsilon(DELTA), abs=1e-12)


# ----------------------------------------------------------------------
# Heterogeneous ledger semantics
# ----------------------------------------------------------------------
def test_ledger_charges_only_participants_and_is_monotone():
    accountant = make_accountant("heterogeneous", _context([10, 20, 40, 80]))
    previous = np.zeros(4)
    for round_index in range(5):
        participants = [0, 1] if round_index % 2 == 0 else [0, 2]
        accountant.charge_round(_charge(), participants)
        current = accountant.epsilon_per_client(DELTA)
        assert np.all(current >= previous - 1e-12), "per-client epsilon must be monotone"
        previous = current
    # client 3 never participated: nothing was released about its data
    assert previous[3] == 0.0
    # client 0 participated every round, client 1 and 2 less often; smaller
    # shards pay a higher rate, so client 0 (n=10, 5 rounds) dominates
    assert previous[0] == accountant.get_epsilon(DELTA)
    assert accountant.participation_counts.tolist() == [5, 3, 2, 0]


def test_ledger_smaller_shards_pay_more_per_round():
    accountant = make_accountant("heterogeneous", _context([8, 16, 32, 64]))
    accountant.charge_round(_charge(steps=1), [0, 1, 2, 3])
    epsilons = accountant.epsilon_per_client(DELTA)
    assert np.all(np.diff(epsilons) < 0), f"expected strictly decreasing, got {epsilons}"


def test_ledger_zero_participation_rounds_stay_uncharged():
    accountant = make_accountant("heterogeneous", _context([10, 20]))
    accountant.charge_round(_charge(), [])
    assert accountant.rounds_charged == 0
    assert accountant.get_epsilon(DELTA) == 0.0
    assert accountant.equal_shard_epsilon(DELTA) == 0.0
    accountant.charge_round(_charge(), [1])
    assert accountant.rounds_charged == 1
    assert accountant.get_epsilon(DELTA) > 0.0


def test_ledger_equal_shards_full_participation_matches_moments():
    """q_k = B/n equals the equal-shard q = B*Kt/N when Kt = K and n_k = N/K."""
    sizes = [40] * 6
    context = _context(sizes)  # clients_per_round == num_clients
    ledger = make_accountant("heterogeneous", context)
    moments = make_accountant("moments", context)
    for _ in range(4):
        ledger.charge_round(_charge(), list(range(6)))
        moments.charge_round(_charge(), list(range(6)))
    assert ledger.get_epsilon(DELTA) == pytest.approx(moments.get_epsilon(DELTA), abs=1e-9)
    assert ledger.equal_shard_epsilon(DELTA) == pytest.approx(
        moments.get_epsilon(DELTA), abs=1e-9
    )
    # all clients identical => degenerate epsilon distribution
    distribution = ledger.epsilon_per_client(DELTA)
    assert np.ptp(distribution) == 0.0


def test_ledger_quantity_skew_worst_case_strictly_exceeds_equal_shard():
    sizes = [9, 12, 17, 25, 46, 131]  # realised power-law shard sizes
    context = _context(sizes)
    ledger = make_accountant("heterogeneous", context)
    for _ in range(3):
        ledger.charge_round(_charge(), list(range(len(sizes))))
    worst = ledger.get_epsilon(DELTA)
    equal_shard = ledger.equal_shard_epsilon(DELTA)
    assert worst > equal_shard + 1e-6
    # the worst-off client is the one on the smallest shard
    distribution = ledger.epsilon_per_client(DELTA)
    assert int(np.argmax(distribution)) == 0


def test_ledger_caps_rate_and_steps_for_tiny_shards():
    # n=2 < B=4: the inclusion probability saturates at 1 and the realised
    # local iteration count collapses to 1 (ceil(2/4) -> 1)
    accountant = make_accountant("heterogeneous", _context([2, 400], batch_size=4))
    accountant.charge_round(_charge(steps=8), [0, 1])
    tiny, large = accountant.epsilon_per_client(DELTA)
    assert tiny > large
    # q=1, 1 step: exactly the plain Gaussian mechanism's epsilon
    solo = make_accountant("heterogeneous", _context([2], batch_size=4))
    solo.charge_round(_charge(steps=8), [0])
    assert solo.get_epsilon(DELTA) == pytest.approx(tiny, abs=1e-12)


def test_ledger_client_level_charges_are_shard_size_independent():
    accountant = make_accountant("heterogeneous", _context([10, 1000]))
    accountant.charge_round(_charge(steps=1, sigma=6.0, level="client"), [0, 1])
    epsilons = accountant.epsilon_per_client(DELTA)
    assert epsilons[0] == pytest.approx(epsilons[1], abs=1e-12)


def test_ledger_projection_is_conservative_upper_bound():
    accountant = make_accountant("heterogeneous", _context([10, 20, 40]))
    projected = accountant.projected_epsilon(_charge(), DELTA)
    # charging a partial cohort can only stay at or below the full-cohort projection
    accountant.charge_round(_charge(), [1, 2])
    assert accountant.get_epsilon(DELTA) <= projected + 1e-12
    # charging everyone reaches the projection exactly
    accountant.reset()
    accountant.charge_round(_charge(), [0, 1, 2])
    assert accountant.get_epsilon(DELTA) == pytest.approx(projected, abs=1e-12)


@pytest.mark.parametrize(
    "charge", [_charge(steps=8, sigma=0.8), _charge(steps=1, sigma=6.0, level="client")],
    ids=["instance", "client"],
)
def test_ledger_vectorised_charges_equal_the_per_client_loop(charge):
    """Charging and projecting are bitwise the per-client ``row + steps * curve`` loop."""
    sizes = (2, 9, 12, 12, 17, 25, 46, 131)  # quantity skew, one shard smaller than B
    context = _context(sizes)
    accountant = make_accountant("heterogeneous", context)

    def looped(ledger, clients):
        ledger = ledger.copy()
        for client in clients:
            size = sizes[client]
            if charge.level == "client":
                rate, steps = 1.0, charge.steps
            else:
                rate = min(1.0, context.batch_size / size)
                steps = max(1, min(charge.steps, math.ceil(size / context.batch_size)))
            ledger[client] += steps * compute_rdp_subsampled_gaussian(
                rate, charge.noise_multiplier, accountant.orders
            )
        return ledger

    reference = np.zeros((len(sizes), len(accountant.orders)))
    for cohort in ([0, 3, 4], [1, 2, 7], [0, 5, 6, 3]):
        accountant.charge_round(charge, cohort)
        reference = looped(reference, cohort)
    assert np.array_equal(np.asarray(accountant.state_dict()["ledger"]), reference)

    # the projection is the epsilon of the looped ledger with everyone charged once more
    projected = make_accountant("heterogeneous", context)
    projected.load_state_dict({
        **accountant.state_dict(),
        "ledger": looped(reference, range(len(sizes))).tolist(),
        "participation": [1] * len(sizes),
    })
    assert accountant.projected_epsilon(charge, DELTA) == projected.get_epsilon(DELTA)


def test_ledger_rejects_unknown_participants_without_partial_charging():
    accountant = make_accountant("heterogeneous", _context([10, 20]))
    with pytest.raises(ValueError, match="outside the client population"):
        accountant.charge_round(_charge(), [0, 1, 99])
    # the rejected round must not have charged anyone (no partial mutation)
    assert accountant.rounds_charged == 0
    assert accountant.get_epsilon(DELTA) == 0.0
    assert accountant.equal_shard_epsilon(DELTA) == 0.0
    assert accountant.participation_counts.tolist() == [0, 0]


def test_ledger_state_dict_json_round_trip():
    accountant = make_accountant("heterogeneous", _context([10, 20, 40]))
    accountant.charge_round(_charge(), [0, 2])
    accountant.charge_round(_charge(), [1])
    state = json.loads(json.dumps(accountant.state_dict()))
    restored = make_accountant("heterogeneous", _context([10, 20, 40]))
    restored.load_state_dict(state)
    np.testing.assert_array_equal(
        restored.epsilon_per_client(DELTA), accountant.epsilon_per_client(DELTA)
    )
    assert restored.rounds_charged == accountant.rounds_charged
    assert restored.equal_shard_epsilon(DELTA) == accountant.equal_shard_epsilon(DELTA)
    assert restored.projected_epsilon(_charge(), DELTA) == pytest.approx(
        accountant.projected_epsilon(_charge(), DELTA), abs=1e-12
    )


def test_ledger_state_dict_rejects_mismatches():
    accountant = make_accountant("heterogeneous", _context([10, 20]))
    accountant.charge_round(_charge(), [0])
    state = accountant.state_dict()
    with pytest.raises(ValueError, match="accountant"):
        make_accountant("heterogeneous", _context([10, 20])).load_state_dict(
            {**state, "accountant": "moments"}
        )
    with pytest.raises(ValueError, match="population"):
        make_accountant("heterogeneous", _context([10, 20, 30])).load_state_dict(state)


# ----------------------------------------------------------------------
# End-to-end simulation semantics (quick profile, tiny dataset)
# ----------------------------------------------------------------------
def _sim_config(partition, accountant, **overrides):
    base = dict(rounds=2, eval_every=2, seed=7, participation_fraction=1.0)
    base.update(overrides)
    return quick_config("cancer", "fed_cdp", partition=partition,
                        accountant=accountant, **base)


def test_simulation_iid_full_participation_epsilons_coincide():
    hetero = FederatedSimulation(_sim_config("iid", "heterogeneous"))
    moments = FederatedSimulation(_sim_config("iid", "moments"))
    hetero_history = hetero.run()
    moments_history = moments.run()
    assert hetero_history.final_epsilon == pytest.approx(
        moments_history.final_epsilon, abs=1e-9
    )
    for round_index, epsilon in moments_history.epsilon_by_round.items():
        assert hetero_history.epsilon_by_round[round_index] == pytest.approx(
            epsilon, abs=1e-9
        )


def test_simulation_quantity_skew_worst_case_strictly_greater():
    hetero = FederatedSimulation(_sim_config("quantity_skew", "heterogeneous"))
    moments = FederatedSimulation(_sim_config("quantity_skew", "moments"))
    hetero_history = hetero.run()
    moments_history = moments.run()
    assert hetero_history.final_epsilon > moments_history.final_epsilon + 1e-6
    # the embedded equal-shard baseline reproduces the moments run exactly
    assert hetero.accountant.equal_shard_epsilon(
        hetero.config.delta
    ) == pytest.approx(moments_history.final_epsilon, abs=1e-12)


def test_simulation_training_is_identical_under_both_accountants():
    """The accountant observes the run; it must never perturb the numerics."""
    hetero = FederatedSimulation(_sim_config("quantity_skew", "heterogeneous")).run()
    moments = FederatedSimulation(_sim_config("quantity_skew", "moments")).run()
    assert hetero.final_accuracy == moments.final_accuracy
    for ours, theirs in zip(hetero.rounds, moments.rounds):
        assert ours.selected_clients == theirs.selected_clients
        assert ours.mean_loss == theirs.mean_loss


def test_simulation_zero_participation_rounds_uncharged_in_ledger():
    config = _sim_config("quantity_skew", "heterogeneous", dropout_rate=1.0, rounds=3,
                         eval_every=3)
    simulation = FederatedSimulation(config)
    history = simulation.run()
    assert history.skipped_rounds == 3
    assert all(epsilon == 0.0 for epsilon in history.epsilon_by_round.values())
    assert simulation.accountant.rounds_charged == 0


def test_simulation_heterogeneous_checkpoint_resume_round_trip(tmp_path):
    config = _sim_config("quantity_skew", "heterogeneous", rounds=3, eval_every=3)
    checkpoint = str(tmp_path / "ledger.ck.json")
    straight = FederatedSimulation(config).run()

    interrupted = FederatedSimulation(config)
    interrupted.run(rounds=2, checkpoint_path=checkpoint)
    resumed_sim = FederatedSimulation.from_checkpoint(checkpoint)
    resumed = resumed_sim.run(checkpoint_path=checkpoint)

    assert resumed.final_epsilon == straight.final_epsilon
    assert resumed.epsilon_by_round == straight.epsilon_by_round
    # the per-client distribution survives the JSON round-trip bit-exactly
    fresh = FederatedSimulation(config)
    fresh.run()
    np.testing.assert_array_equal(
        resumed_sim.accountant.epsilon_per_client(config.delta),
        fresh.accountant.epsilon_per_client(config.delta),
    )


def test_simulation_budget_stops_before_exceeding_round(tmp_path):
    probe = FederatedSimulation(_sim_config("quantity_skew", "heterogeneous", rounds=4,
                                            eval_every=4))
    probe_history = probe.run()
    # budget between rounds 1 and 2: the run must stop after two rounds
    budget = (probe_history.epsilon_by_round[1] + probe_history.epsilon_by_round[2]) / 2.0
    config = _sim_config("quantity_skew", "heterogeneous", rounds=4, eval_every=4,
                         epsilon_budget=budget)
    checkpoint = str(tmp_path / "budget.ck.json")
    simulation = FederatedSimulation(config)
    history = simulation.run(checkpoint_path=checkpoint)
    assert history.budget_stop_round == 2
    assert simulation.completed_rounds == 2
    assert history.final_epsilon <= budget
    # the stop round is evaluated even though it is off the eval_every grid
    assert 1 in history.accuracy_by_round

    # resuming reaches the identical stopping decision and runs no more rounds
    resumed_sim = FederatedSimulation.from_checkpoint(checkpoint)
    resumed = resumed_sim.run(checkpoint_path=checkpoint)
    assert resumed_sim.completed_rounds == 2
    assert resumed.budget_stop_round == 2
    assert resumed.epsilon_by_round == history.epsilon_by_round
    assert resumed.accuracy_by_round == history.accuracy_by_round


def test_simulation_budget_works_with_moments_accountant_too():
    probe = FederatedSimulation(_sim_config("iid", "moments", rounds=3, eval_every=3))
    probe_history = probe.run()
    budget = (probe_history.epsilon_by_round[0] + probe_history.epsilon_by_round[1]) / 2.0
    history = FederatedSimulation(
        _sim_config("iid", "moments", rounds=3, eval_every=3, epsilon_budget=budget)
    ).run()
    assert history.budget_stop_round == 1
    assert history.final_epsilon <= budget


def test_simulation_budget_ignored_for_nonprivate_methods():
    config = quick_config("cancer", "nonprivate", rounds=2, eval_every=2, seed=7,
                          epsilon_budget=0.001)
    history = FederatedSimulation(config).run()
    assert history.budget_stop_round is None
    assert len(history.rounds) == 2
