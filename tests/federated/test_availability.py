"""Tests for the client-availability layer (dropout / straggler dynamics)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.harness import quick_config
from repro.federated import (
    AvailabilityModel,
    ChurnSchedule,
    DiurnalCycle,
    DriftModel,
    FederatedSimulation,
)
from repro.federated.availability import (
    _AVAILABILITY_DOMAIN,
    _CHURN_DOMAIN,
    _CYCLE_DOMAIN,
    _CYCLE_PHASE_DOMAIN,
    _DEVICE_CLASS_DOMAIN,
    _DRIFT_DOMAIN,
)
from repro.federated.executor import _CLIENT_ID_STREAM_DOMAIN, _CLIENT_STREAM_DOMAIN


# ----------------------------------------------------------------------
# The model itself
# ----------------------------------------------------------------------
def test_inactive_model_passes_everyone_through():
    model = AvailabilityModel(seed=0)
    assert not model.active
    draw = model.draw([4, 7, 9], round_index=3)
    assert draw.participating == [4, 7, 9]
    assert draw.participating_slots == [0, 1, 2]
    assert draw.dropped == [] and draw.stragglers == []
    assert not draw.is_empty


def test_draws_are_deterministic_and_round_dependent():
    model = AvailabilityModel(seed=5, dropout_rate=0.5)
    first = model.draw(list(range(20)), round_index=0)
    again = model.draw(list(range(20)), round_index=0)
    assert first == again  # same (seed, round) => identical classification
    other_round = model.draw(list(range(20)), round_index=1)
    assert (first.participating, first.dropped) != (
        other_round.participating,
        other_round.dropped,
    )


def test_draws_depend_on_slot_not_on_cohort_size():
    # slot i's fate is decided by its own spawned stream, so a cohort prefix
    # keeps its classification when more clients are appended
    def classify(draw):
        out = {}
        for status in ("participating", "dropped", "stragglers"):
            for client in getattr(draw, status):
                out[client] = status
        return out

    model = AvailabilityModel(seed=9, dropout_rate=0.4, straggler_deadline=2.0)
    small = classify(model.draw([3, 1, 4], round_index=2))
    large = classify(model.draw([3, 1, 4, 0, 5], round_index=2))
    for client in (3, 1, 4):
        assert small[client] == large[client]


def test_enabling_stragglers_does_not_perturb_dropout_pattern():
    cohort = list(range(50))
    base = AvailabilityModel(seed=2, dropout_rate=0.3).draw(cohort, 0)
    with_deadline = AvailabilityModel(seed=2, dropout_rate=0.3, straggler_deadline=1.0).draw(
        cohort, 0
    )
    assert base.dropped == with_deadline.dropped
    # stragglers are carved out of the previously-participating set only
    assert set(with_deadline.stragglers) <= set(base.participating)


def test_extreme_rates():
    everyone_drops = AvailabilityModel(seed=0, dropout_rate=1.0).draw([0, 1, 2], 0)
    assert everyone_drops.is_empty
    assert everyone_drops.dropped == [0, 1, 2]
    tight_deadline = AvailabilityModel(seed=0, straggler_deadline=1e-9).draw([0, 1, 2], 0)
    assert tight_deadline.is_empty
    assert tight_deadline.stragglers == [0, 1, 2]


def test_straggler_rate_matches_lognormal_deadline_probability():
    # deadline d over lognormal(0,1) durations excludes with p = 1 - Phi(ln d)
    from scipy.stats import norm

    deadline = 2.0
    cohort = list(range(400))
    model = AvailabilityModel(seed=7, straggler_deadline=deadline)
    stragglers = sum(len(model.draw(cohort, r).stragglers) for r in range(5))
    expected = (1.0 - norm.cdf(np.log(deadline))) * len(cohort) * 5
    assert 0.7 * expected < stragglers < 1.3 * expected


def test_model_validation():
    with pytest.raises(ValueError):
        AvailabilityModel(seed=0, dropout_rate=-0.1)
    with pytest.raises(ValueError):
        AvailabilityModel(seed=0, dropout_rate=1.5)
    with pytest.raises(ValueError):
        AvailabilityModel(seed=0, straggler_deadline=0.0)


def test_availability_domain_is_separated_from_client_streams():
    domains = (
        _AVAILABILITY_DOMAIN,
        _CYCLE_PHASE_DOMAIN,
        _CYCLE_DOMAIN,
        _CHURN_DOMAIN,
        _DEVICE_CLASS_DOMAIN,
        _DRIFT_DOMAIN,
        _CLIENT_STREAM_DOMAIN,
        _CLIENT_ID_STREAM_DOMAIN,
    )
    assert len(set(domains)) == len(domains)


# ----------------------------------------------------------------------
# Temporal dynamics: diurnal cycles, churn, device classes, drift
# ----------------------------------------------------------------------
def test_diurnal_cycle_phases_are_deterministic_per_client():
    cycle = DiurnalCycle(seed=11, amplitude=1.0, period=4)
    phases = [cycle.phase(c) for c in range(50)]
    assert phases == [cycle.phase(c) for c in range(50)]
    assert all(0.0 <= p < 1.0 for p in phases)
    assert len(set(phases)) > 40  # genuinely per-client, not one shared phase


def test_diurnal_cycle_probability_is_periodic_and_bounded():
    cycle = DiurnalCycle(seed=3, amplitude=0.8, period=6)
    for client in range(5):
        for t in range(12):
            p = cycle.offline_probability(client, t)
            assert 0.0 <= p <= 0.8 + 1e-12
            assert cycle.offline_probability(client, t + 6) == pytest.approx(p)


def test_diurnal_cycle_thins_and_recovers_cohorts():
    # at amplitude 1 every client hits its own "night" (near-certain offline)
    # and its own "day" (near-certain availability) within each period
    cycle = DiurnalCycle(seed=0, amplitude=1.0, period=4)
    for client in range(20):
        probabilities = [cycle.offline_probability(client, t) for t in range(4)]
        assert max(probabilities) > 0.8
        assert min(probabilities) < 0.2
    # same (round, client) coin is reproducible
    assert cycle.offline(7, 3) == cycle.offline(7, 3)
    # uniform phases: about half a large population is offline at any instant
    offline_now = sum(cycle.offline(c, 0) for c in range(200))
    assert 60 < offline_now < 140


def test_churn_windows_are_deterministic_and_horizon_independent():
    schedule = ChurnSchedule(seed=21, churn_rate=0.25)
    windows = [schedule.window(c) for c in range(100)]
    assert windows == [ChurnSchedule(seed=21, churn_rate=0.25).window(c) for c in range(100)]
    for client, (join, depart) in enumerate(windows):
        assert depart > join
        assert schedule.lifetime(client) == depart - join
        for t in (join - 1, join, depart - 1, depart):
            assert schedule.alive(client, t) == (join <= t < depart)


def test_churn_lifetimes_match_geometric_mean():
    schedule = ChurnSchedule(seed=5, churn_rate=0.2)
    lifetimes = [schedule.lifetime(c) for c in range(2000)]
    assert all(lt >= 1 for lt in lifetimes)
    mean = sum(lifetimes) / len(lifetimes)
    assert 0.85 / 0.2 < mean < 1.15 / 0.2  # mean lifetime ~ 1 / churn_rate


def test_churn_dead_clients_are_marked_offline():
    model = AvailabilityModel(seed=13, churn_rate=0.4)
    assert model.active
    cohort = list(range(40))
    draw = model.draw(cohort, round_index=5)
    assert sorted(draw.participating + draw.offline) == cohort
    assert draw.offline  # at rate 0.4 some of 40 clients are certainly dead
    for client in draw.offline:
        assert not model.churn.alive(client, 5)
    for client in draw.participating:
        assert model.churn.alive(client, 5)


def test_temporal_exclusions_do_not_perturb_dropout_streams():
    # an offline client never consumes a per-round stream, and the streams
    # are per-slot: live clients keep their exact dropout/straggler fate
    # whether or not their peers went offline
    cohort = list(range(60))
    base = AvailabilityModel(seed=4, dropout_rate=0.3, straggler_deadline=2.0)
    with_churn = AvailabilityModel(
        seed=4, dropout_rate=0.3, straggler_deadline=2.0, churn_rate=0.3
    )
    plain = base.draw(cohort, round_index=2)
    churned = with_churn.draw(cohort, round_index=2)
    live = set(cohort) - set(churned.offline)
    assert set(churned.dropped) == set(plain.dropped) & live
    assert set(churned.stragglers) == set(plain.stragglers) & live
    assert set(churned.participating) == set(plain.participating) & live


def test_device_classes_are_fixed_per_client_and_slow_classes_straggle_more():
    classes = (0.25, 4.0)
    model = AvailabilityModel(seed=8, straggler_deadline=2.0, device_classes=classes)
    multipliers = [model.device_multiplier(c) for c in range(300)]
    assert multipliers == [model.device_multiplier(c) for c in range(300)]
    assert set(multipliers) == set(classes)
    # slow devices miss the deadline far more often than fast ones
    straggled = set()
    for t in range(8):
        straggled.update(model.draw(list(range(300)), t).stragglers)
    slow = [c for c in range(300) if multipliers[c] == 4.0]
    fast = [c for c in range(300) if multipliers[c] == 0.25]
    slow_rate = len(straggled & set(slow)) / len(slow)
    fast_rate = len(straggled & set(fast)) / len(fast)
    assert slow_rate > fast_rate


def test_device_multiplier_is_one_when_classes_disabled():
    model = AvailabilityModel(seed=8, straggler_deadline=2.0)
    assert all(model.device_multiplier(c) == 1.0 for c in range(10))


def test_drift_is_monotone_and_round_zero_is_undrifted():
    from repro.data.dataset import Dataset

    rng = np.random.default_rng(0)
    shard = Dataset(rng.normal(size=(40, 3)), rng.integers(0, 4, size=40), num_classes=4)
    drift = DriftModel(seed=9, drift_rate=0.25)
    assert drift.apply(5, shard, 0) is shard  # round 0: the true shard
    previous = shard.labels
    for t in range(1, 6):
        drifted = drift.apply(5, shard, t)
        np.testing.assert_array_equal(drifted.features, shard.features)
        changed = np.nonzero(drifted.labels != shard.labels)[0]
        expected_fraction = min(1.0, 0.25 * t)
        assert len(changed) <= int(expected_fraction * 40)
        # monotone: positions drifted earlier keep their same wrong label
        previously_changed = np.nonzero(previous != shard.labels)[0]
        np.testing.assert_array_equal(
            drifted.labels[previously_changed], previous[previously_changed]
        )
        previous = drifted.labels
    # by round 4 the full shard (fraction 1.0) carries resampled labels
    saturated = drift.apply(5, shard, 4)
    np.testing.assert_array_equal(saturated.labels, drift.apply(5, shard, 9).labels)


def test_drift_is_deterministic_per_client_and_differs_across_clients():
    from repro.data.dataset import Dataset

    rng = np.random.default_rng(1)
    shard = Dataset(rng.normal(size=(30, 2)), rng.integers(0, 3, size=30), num_classes=3)
    drift = DriftModel(seed=2, drift_rate=0.5)
    np.testing.assert_array_equal(
        drift.apply(0, shard, 1).labels, DriftModel(seed=2, drift_rate=0.5).apply(0, shard, 1).labels
    )
    assert any(
        not np.array_equal(drift.apply(0, shard, 1).labels, drift.apply(c, shard, 1).labels)
        for c in range(1, 5)
    )


def test_dynamics_validation():
    with pytest.raises(ValueError):
        DiurnalCycle(seed=0, amplitude=0.0, period=4)
    with pytest.raises(ValueError):
        DiurnalCycle(seed=0, amplitude=1.5, period=4)
    with pytest.raises(ValueError):
        DiurnalCycle(seed=0, amplitude=0.5, period=0)
    with pytest.raises(ValueError):
        ChurnSchedule(seed=0, churn_rate=0.0)
    with pytest.raises(ValueError):
        ChurnSchedule(seed=0, churn_rate=1.0)
    with pytest.raises(ValueError):
        DriftModel(seed=0, drift_rate=0.0)
    with pytest.raises(ValueError):
        DriftModel(seed=0, drift_rate=1.5)
    with pytest.raises(ValueError):
        AvailabilityModel(seed=0, device_classes=())
    with pytest.raises(ValueError):
        AvailabilityModel(seed=0, device_classes=(1.0, -0.5))


# ----------------------------------------------------------------------
# Simulation-level semantics
# ----------------------------------------------------------------------
def test_dropout_rounds_record_participation_bookkeeping():
    config = quick_config("cancer", "nonprivate", rounds=4, eval_every=1, seed=4, dropout_rate=0.4)
    history = FederatedSimulation(config).run()
    for result in history.rounds:
        assert sorted(
            result.participating_clients + result.dropped_clients + result.straggler_clients
        ) == sorted(result.selected_clients)
    assert history.total_dropped > 0
    assert history.total_stragglers == 0
    assert len(history.participation_series) == 4


def test_all_dropout_run_skips_every_round_deterministically():
    # dropout_rate=1.0: every round is skipped — weights never move, accuracy
    # is flat, the accountant never accumulates, and nothing crashes
    config = quick_config("cancer", "fed_cdp", rounds=3, eval_every=1, seed=0, dropout_rate=1.0)
    simulation = FederatedSimulation(config)
    initial_weights = simulation.global_weights()
    history = simulation.run()
    assert history.skipped_rounds == 3
    assert all(r.skipped for r in history.rounds)
    for before, after in zip(initial_weights, simulation.global_weights()):
        np.testing.assert_array_equal(before, after)
    accuracies = list(history.accuracy_by_round.values())
    assert all(a == accuracies[0] for a in accuracies)
    # skipped rounds release nothing, so no privacy is spent (epsilon recorded flat)
    assert history.final_epsilon == 0.0
    assert sorted(history.epsilon_by_round) == [0, 1, 2]
    assert all(np.isnan(r.mean_loss) for r in history.rounds)
    # skipped-round NaN losses serialise as null (strict RFC-8259 JSON, no
    # bare NaN tokens in checkpoints / --output files) and round-trip back
    import json

    from repro.federated import SimulationHistory

    payload = history.to_dict()
    text = json.dumps(payload, allow_nan=False)  # raises on any NaN leak
    rebuilt = SimulationHistory.from_dict(json.loads(text))
    assert all(np.isnan(r.mean_loss) for r in rebuilt.rounds)
    assert [r.participating_clients for r in rebuilt.rounds] == [
        r.participating_clients for r in history.rounds
    ]


def test_poisson_sampling_runs_and_skips_empty_draws():
    # tiny participation probability: most rounds select nobody; the run must
    # complete with deterministic bookkeeping rather than crash
    config = quick_config(
        "cancer",
        "nonprivate",
        rounds=5,
        eval_every=1,
        seed=3,
        client_sampling="poisson",
        participation_fraction=0.17,  # ~1 of 6 clients per round in expectation
    )
    first = FederatedSimulation(config).run()
    second = FederatedSimulation(config).run()
    assert [r.selected_clients for r in first.rounds] == [
        r.selected_clients for r in second.rounds
    ]
    assert first.final_accuracy == second.final_accuracy
    sizes = {len(r.selected_clients) for r in first.rounds}
    assert len(sizes) > 1  # Poisson cohort sizes genuinely vary
    if first.skipped_rounds:
        skipped = next(r for r in first.rounds if r.skipped)
        assert np.isnan(skipped.mean_loss)


def test_empty_poisson_round_keeps_weights(monkeypatch):
    # force an empty selection to pin the skip semantics independent of seeds
    config = quick_config("cancer", "nonprivate", rounds=1, eval_every=1, seed=0,
                          client_sampling="poisson")
    simulation = FederatedSimulation(config)
    monkeypatch.setattr(simulation.server, "select_clients", lambda *a, **k: [])
    before = simulation.global_weights()
    history = simulation.run()
    assert history.rounds[0].skipped
    assert history.rounds[0].selected_clients == []
    for w_before, w_after in zip(before, simulation.global_weights()):
        np.testing.assert_array_equal(w_before, w_after)


def test_private_methods_spend_less_privacy_under_heavy_dropout():
    base = quick_config("cancer", "fed_sdp", rounds=4, eval_every=4, seed=6)
    reliable = FederatedSimulation(base).run()
    flaky = FederatedSimulation(base.with_overrides(dropout_rate=1.0)).run()
    assert flaky.final_epsilon == 0.0
    assert reliable.final_epsilon > flaky.final_epsilon


def test_default_configs_have_no_availability_dynamics():
    config = quick_config("cancer", "nonprivate")
    simulation = FederatedSimulation(config)
    assert not simulation.server.availability.active
    assert simulation.server.availability.cycle is None
    assert simulation.server.availability.churn is None
    assert simulation.server.availability.device_classes is None
    assert simulation.clients.drift is None
    history = simulation.run()
    for result in history.rounds:
        assert result.participating_clients == result.selected_clients
        assert not result.dropped_clients and not result.straggler_clients
        assert not result.offline_clients
    assert history.total_offline == 0
    assert history.epsilon_by_lifetime is None


def test_population_dynamics_rounds_record_offline_bookkeeping():
    config = quick_config(
        "cancer",
        "nonprivate",
        rounds=5,
        eval_every=1,
        seed=14,
        availability_cycle=0.7,
        availability_period=3,
        churn_rate=0.3,
        straggler_deadline=2.0,
        device_classes=(0.5, 1.0, 2.0),
        drift_rate=0.2,
    )
    history = FederatedSimulation(config).run()
    for result in history.rounds:
        accounted = (
            result.participating_clients
            + result.dropped_clients
            + result.straggler_clients
            + result.offline_clients
        )
        assert sorted(accounted) == sorted(result.selected_clients)
    assert history.total_offline > 0
    # the full dynamics payload is strict RFC-8259 JSON and round-trips
    import json

    from repro.federated import SimulationHistory

    text = json.dumps(history.to_dict(), allow_nan=False)
    rebuilt = SimulationHistory.from_dict(json.loads(text))
    assert [r.offline_clients for r in rebuilt.rounds] == [
        r.offline_clients for r in history.rounds
    ]


def test_drift_perturbs_training_but_not_round_zero():
    base = quick_config("cancer", "nonprivate", rounds=3, eval_every=1, seed=7)
    clean = FederatedSimulation(base).run()
    drifted = FederatedSimulation(base.with_overrides(drift_rate=0.4)).run()
    # same sampling stream: identical cohorts round for round
    assert [r.selected_clients for r in drifted.rounds] == [
        r.selected_clients for r in clean.rounds
    ]
    # round 0 trains on undrifted shards — bit-identical to the clean run
    assert drifted.rounds[0].mean_loss == clean.rounds[0].mean_loss
    assert drifted.rounds[0].mean_gradient_norm == clean.rounds[0].mean_gradient_norm
    # later rounds see noisy labels and genuinely diverge
    assert any(
        d.mean_loss != c.mean_loss for d, c in zip(drifted.rounds[1:], clean.rounds[1:])
    )


def test_churn_schedule_is_identical_when_horizon_is_extended():
    # churn windows are per-client constants: a longer run replays the same
    # live-population schedule over the shared prefix
    base = quick_config("cancer", "nonprivate", rounds=3, eval_every=1, seed=10, churn_rate=0.3)
    short = FederatedSimulation(base).run()
    long_run = FederatedSimulation(base.with_overrides(rounds=6)).run()
    for short_round, long_round in zip(short.rounds, long_run.rounds):
        assert short_round.selected_clients == long_round.selected_clients
        assert short_round.offline_clients == long_round.offline_clients
        assert short_round.participating_clients == long_round.participating_clients


def test_heterogeneous_ledger_splits_epsilon_by_churn_lifetime():
    # under churn, long-lived clients are selected (and release) more often,
    # so the per-client ledger must report a strictly higher worst-case
    # epsilon for the long-lived half of the population
    config = quick_config(
        "cancer",
        "fed_cdp",
        rounds=10,
        eval_every=10,
        seed=1,
        num_clients=8,
        participation_fraction=1.0,
        client_sampling="fixed",
        churn_rate=0.25,
        accountant="heterogeneous",
    )
    history = FederatedSimulation(config).run()
    split = history.epsilon_by_lifetime
    assert split is not None
    assert split["short_lived_clients"] + split["long_lived_clients"] >= 2
    assert split["long_lived_worst_epsilon"] > split["short_lived_worst_epsilon"]
    # the split is part of the serialised history and round-trips
    import json

    from repro.federated import SimulationHistory

    rebuilt = SimulationHistory.from_dict(json.loads(json.dumps(history.to_dict())))
    assert rebuilt.epsilon_by_lifetime == split


def test_lifetime_split_absent_without_churn_or_per_client_ledger():
    # no churn: nothing to split on
    uniform = quick_config(
        "cancer", "fed_cdp", rounds=2, eval_every=2, seed=0, accountant="heterogeneous"
    )
    assert FederatedSimulation(uniform).run().epsilon_by_lifetime is None
    # churn but a population-level accountant: no per-client ledger to read
    churned = quick_config("cancer", "fed_cdp", rounds=2, eval_every=2, seed=0, churn_rate=0.3)
    assert FederatedSimulation(churned).run().epsilon_by_lifetime is None
