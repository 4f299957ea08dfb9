"""Executor equivalence and checkpoint/resume regression tests.

The contract under test (same discipline as PR 1's looped-vs-vectorized
equivalence): for a fixed config seed, the ``serial`` and ``multiprocessing``
backends produce *identical* :class:`~repro.federated.simulation.
SimulationHistory` metrics — accuracy, epsilon and gradient-norm trajectories
— because both consume the same ``SeedSequence``-spawned per-client RNG
streams and aggregate in the same order.  Likewise, a run interrupted by a
checkpoint and resumed must be bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.data import Dataset
from repro.experiments.harness import quick_config
from repro.federated import FederatedConfig, FederatedSimulation
from repro.federated.client import FederatedClient
from repro.federated.executor import (
    MultiprocessingClientExecutor,
    SerialClientExecutor,
    default_num_workers,
    domain_seed_sequence,
    make_executor,
    spawn_client_seeds,
)

#: tolerance demanded by the acceptance criteria; the backends are in fact
#: bit-identical, so the assertions below use exact comparison where possible
TOL = 1e-8


def _run(config):
    with FederatedSimulation(config) as simulation:
        return simulation.run()


def _assert_histories_equal(first, second, tol=TOL):
    assert sorted(first.accuracy_by_round) == sorted(second.accuracy_by_round)
    for round_index, accuracy in first.accuracy_by_round.items():
        assert accuracy == pytest.approx(second.accuracy_by_round[round_index], abs=tol)
    assert sorted(first.epsilon_by_round) == sorted(second.epsilon_by_round)
    for round_index, epsilon in first.epsilon_by_round.items():
        assert epsilon == pytest.approx(second.epsilon_by_round[round_index], abs=tol)
    np.testing.assert_allclose(first.gradient_norm_series, second.gradient_norm_series, atol=tol)
    assert len(first.rounds) == len(second.rounds)
    for a, b in zip(first.rounds, second.rounds):
        assert a.selected_clients == b.selected_clients
        assert a.mean_loss == pytest.approx(b.mean_loss, abs=tol, nan_ok=True)


# ----------------------------------------------------------------------
# Seed-stream discipline
# ----------------------------------------------------------------------
def test_spawn_client_seeds_is_deterministic_and_distinct():
    first = spawn_client_seeds(seed=3, round_index=2, count=4)
    second = spawn_client_seeds(seed=3, round_index=2, count=4)
    assert len(first) == 4
    draws_first = [np.random.default_rng(s).integers(0, 2**31) for s in first]
    draws_second = [np.random.default_rng(s).integers(0, 2**31) for s in second]
    assert draws_first == draws_second  # deterministic
    assert len(set(draws_first)) == len(draws_first)  # streams differ per slot
    other_round = spawn_client_seeds(seed=3, round_index=3, count=4)
    assert [np.random.default_rng(s).integers(0, 2**31) for s in other_round] != draws_first


def test_spawn_client_seeds_independent_of_history():
    # the stream for round 5 does not depend on whether rounds 0-4 were run
    # (this is the invariant behind exact checkpoint resume)
    late = spawn_client_seeds(seed=0, round_index=5, count=2)
    again = spawn_client_seeds(seed=0, round_index=5, count=2)
    for a, b in zip(late, again):
        assert np.random.default_rng(a).normal() == np.random.default_rng(b).normal()


def test_spawn_client_seeds_rejects_negative_count():
    with pytest.raises(ValueError):
        spawn_client_seeds(0, 0, -1)


def test_domain_seed_sequence_is_the_shared_stream_root():
    # spawn_client_seeds derives from the same keyed root every subsystem
    # (availability, in-loop attacks) uses, so the streams coincide exactly
    from repro.federated.executor import _CLIENT_STREAM_DOMAIN

    root = domain_seed_sequence(9, _CLIENT_STREAM_DOMAIN, 4)
    via_helper = [np.random.default_rng(s).normal() for s in root.spawn(3)]
    via_spawn = [np.random.default_rng(s).normal() for s in spawn_client_seeds(9, 4, 3)]
    assert via_helper == via_spawn
    # distinct domains and keys give unrelated streams
    a = np.random.default_rng(domain_seed_sequence(9, 1, 4)).integers(0, 2**31)
    b = np.random.default_rng(domain_seed_sequence(9, 2, 4)).integers(0, 2**31)
    c = np.random.default_rng(domain_seed_sequence(9, 1, 5)).integers(0, 2**31)
    assert len({int(a), int(b), int(c)}) == 3


def test_default_num_workers_bounds():
    assert default_num_workers(1) == 1
    assert 1 <= default_num_workers(1000) <= 1000


# ----------------------------------------------------------------------
# Executor construction
# ----------------------------------------------------------------------
def test_make_executor_selects_backend():
    serial_config = quick_config("cancer", "nonprivate")
    mp_config = serial_config.with_overrides(executor="multiprocessing", num_workers=2)
    simulation = FederatedSimulation(serial_config)
    assert isinstance(
        make_executor(serial_config, simulation.clients, train_dataset=simulation.train_dataset),
        SerialClientExecutor,
    )
    executor = make_executor(mp_config, simulation.clients, train_dataset=simulation.train_dataset)
    assert isinstance(executor, MultiprocessingClientExecutor)
    assert executor.num_workers == 2
    executor.close()  # no pool was started; close must be a no-op


def test_config_rejects_unknown_executor_and_bad_workers(tmp_path):
    with pytest.raises(ValueError):
        quick_config("cancer", "nonprivate", executor="threads")
    with pytest.raises(ValueError):
        quick_config("cancer", "nonprivate", num_workers=0)
    # a removed backend fails loudly, from a config mapping and from a checkpoint
    expected = r"executor 'fused'; expected one of \('serial', 'multiprocessing'\)"
    config = quick_config("cancer", "nonprivate", rounds=1)
    with pytest.raises(ValueError, match=expected):
        FederatedConfig.from_dict(dict(config.to_dict(), executor="fused"))
    checkpoint = tmp_path / "ck.json"
    FederatedSimulation(config).run(checkpoint_path=str(checkpoint))
    state = json.loads(checkpoint.read_text())
    state["config"]["executor"] = "fused"
    checkpoint.write_text(json.dumps(state))
    with pytest.raises(ValueError, match=expected):
        FederatedSimulation.from_checkpoint(str(checkpoint))


def test_executors_require_enough_seeds():
    config = quick_config("cancer", "nonprivate")
    simulation = FederatedSimulation(config)
    executor = SerialClientExecutor(simulation.clients)
    with pytest.raises(ValueError):
        executor.run_clients([0, 1], simulation.server.global_weights, 0, client_seeds=[])


# ----------------------------------------------------------------------
# Serial vs multiprocessing equivalence (the tentpole guarantee)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("method", ["nonprivate", "fed_cdp"])
def test_serial_and_multiprocessing_histories_identical(method):
    config = quick_config("cancer", method, rounds=3, eval_every=1, seed=7)
    serial_history = _run(config)
    parallel_history = _run(config.with_overrides(executor="multiprocessing", num_workers=2))
    _assert_histories_equal(serial_history, parallel_history)
    # the two backends consume identical RNG streams, so beyond the <=1e-8
    # criterion the per-round losses are literally bit-identical
    assert [r.mean_loss for r in serial_history.rounds] == [
        r.mean_loss for r in parallel_history.rounds
    ]


def test_multiprocessing_final_weights_match_serial():
    config = quick_config("cancer", "fed_sdp", rounds=2, eval_every=2, seed=11)
    serial_sim = FederatedSimulation(config)
    serial_sim.run()
    with FederatedSimulation(
        config.with_overrides(executor="multiprocessing", num_workers=2)
    ) as parallel_sim:
        parallel_sim.run()
    for w_serial, w_parallel in zip(serial_sim.global_weights(), parallel_sim.global_weights()):
        np.testing.assert_array_equal(w_serial, w_parallel)


# ----------------------------------------------------------------------
# Conv-model attacked cell: the batched-graph engine drives both Fed-CDP's
# per-example clipping and the in-loop attack, and neither breaks the
# serial / multiprocessing / resume bit-identity contract
# ----------------------------------------------------------------------
def _mnist_attacked_config(**overrides):
    """The golden ``fed_cdp_mnist_attacked`` scenario (CNN + in-loop attack)."""
    config = quick_config(
        "mnist",
        "fed_cdp",
        partition="iid",
        rounds=2,
        eval_every=1,
        seed=1234,
        attack="leakage",
        attack_rounds=(0, 1),
        attack_seeds=2,
        attack_iterations=10,
    )
    return config.with_overrides(**overrides) if overrides else config


def _attack_metrics(history):
    return [
        [(a.client_id, a.mse, a.final_loss, a.best_restart, a.success) for a in r.attacks]
        for r in history.rounds
    ]


def test_cnn_attacked_serial_and_multiprocessing_bit_identical():
    config = _mnist_attacked_config()
    serial = _run(config)
    parallel = _run(config.with_overrides(executor="multiprocessing", num_workers=2))
    _assert_histories_equal(serial, parallel)
    assert [r.mean_loss for r in serial.rounds] == [r.mean_loss for r in parallel.rounds]
    assert list(serial.gradient_norm_series) == list(parallel.gradient_norm_series)
    assert _attack_metrics(serial) == _attack_metrics(parallel)


def test_cnn_attacked_checkpoint_resume_bit_identical(tmp_path):
    checkpoint = str(tmp_path / "ck.json")
    config = _mnist_attacked_config()
    uninterrupted = _run(config)

    FederatedSimulation(config).run(rounds=1, checkpoint_path=checkpoint)
    resumed = FederatedSimulation.from_checkpoint(checkpoint).run()

    _assert_histories_equal(uninterrupted, resumed)
    assert [r.mean_loss for r in uninterrupted.rounds] == [r.mean_loss for r in resumed.rounds]
    assert _attack_metrics(uninterrupted) == _attack_metrics(resumed)


# ----------------------------------------------------------------------
# Adversary-catalogue cells: byzantine behaviours and the in-loop
# membership audit must keep the serial / multiprocessing / resume contract
# ----------------------------------------------------------------------
def _byzantine_config(**overrides):
    """Label flipping: the one byzantine mode that rewrites client *shards*,
    so it exercises the worker-side dataset path of every backend."""
    config = quick_config(
        "cancer",
        "fed_cdp",
        partition="iid",
        rounds=3,
        eval_every=1,
        seed=1234,
        byzantine_clients=(0, 3),
        byzantine_mode="label_flip",
    )
    return config.with_overrides(**overrides) if overrides else config


def _mia_config(**overrides):
    """The golden ``fed_cdp_iid_mia`` scenario (in-loop membership audit)."""
    config = quick_config(
        "cancer",
        "fed_cdp",
        partition="iid",
        rounds=3,
        eval_every=1,
        seed=1234,
        attack="membership",
        attack_rounds=(0, 2),
    )
    return config.with_overrides(**overrides) if overrides else config


def _mia_metrics(history):
    return [
        [(m.client_id, m.auc, m.advantage, m.mean_member_loss, m.mean_nonmember_loss) for m in r.mia]
        for r in history.rounds
    ]


def test_byzantine_label_flip_serial_and_multiprocessing_bit_identical():
    config = _byzantine_config()
    serial = _run(config)
    parallel = _run(config.with_overrides(executor="multiprocessing", num_workers=2))
    _assert_histories_equal(serial, parallel)
    assert [r.mean_loss for r in serial.rounds] == [r.mean_loss for r in parallel.rounds]
    assert list(serial.gradient_norm_series) == list(parallel.gradient_norm_series)


def test_byzantine_label_flip_lazy_matches_eager():
    """The roster's on-demand label flipping trains exactly like clients
    built once up front, with the designated shards flipped by hand
    (``y -> C - 1 - y``) and held for the whole run."""
    config = _byzantine_config()
    lazy = _run(config)
    with FederatedSimulation(config) as simulation:
        population = simulation.clients.population
        eager_clients = []
        for client_id in range(len(population)):
            shard = population[client_id]
            if client_id in config.byzantine_clients:
                labels = np.asarray(shard.labels, dtype=np.int64)
                shard = Dataset(shard.features, shard.num_classes - 1 - labels, shard.num_classes)
            eager_clients.append(FederatedClient(client_id, shard, simulation.trainer))
        assert not np.array_equal(eager_clients[0].dataset.labels, population[0].labels)
        simulation.executor = SerialClientExecutor(eager_clients)
        eager = simulation.run()
    _assert_histories_equal(eager, lazy)
    assert [r.mean_loss for r in eager.rounds] == [r.mean_loss for r in lazy.rounds]


def test_byzantine_checkpoint_resume_bit_identical(tmp_path):
    checkpoint = str(tmp_path / "ck.json")
    config = _byzantine_config()
    uninterrupted = _run(config)

    FederatedSimulation(config).run(rounds=1, checkpoint_path=checkpoint)
    resumed = FederatedSimulation.from_checkpoint(checkpoint).run()

    _assert_histories_equal(uninterrupted, resumed)
    assert [r.mean_loss for r in uninterrupted.rounds] == [r.mean_loss for r in resumed.rounds]


def test_mia_serial_and_multiprocessing_bit_identical():
    config = _mia_config()
    serial = _run(config)
    parallel = _run(config.with_overrides(executor="multiprocessing", num_workers=2))
    _assert_histories_equal(serial, parallel)
    assert _mia_metrics(serial) == _mia_metrics(parallel)


def test_mia_checkpoint_resume_bit_identical(tmp_path):
    checkpoint = str(tmp_path / "ck.json")
    config = _mia_config()
    uninterrupted = _run(config)

    FederatedSimulation(config).run(rounds=1, checkpoint_path=checkpoint)
    resumed = FederatedSimulation.from_checkpoint(checkpoint).run()

    _assert_histories_equal(uninterrupted, resumed)
    assert _mia_metrics(uninterrupted) == _mia_metrics(resumed)


def test_secure_aggregation_serial_and_multiprocessing_bit_identical():
    config = quick_config(
        "cancer", "fed_cdp", rounds=3, eval_every=1, seed=1234, secure_aggregation=True
    )
    serial = _run(config)
    parallel = _run(config.with_overrides(executor="multiprocessing", num_workers=2))
    _assert_histories_equal(serial, parallel)
    assert [r.mean_loss for r in serial.rounds] == [r.mean_loss for r in parallel.rounds]


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
def test_checkpoint_resume_round_trip(tmp_path):
    checkpoint = str(tmp_path / "ck.json")
    config = quick_config("cancer", "fed_cdp", rounds=4, eval_every=1, seed=5)

    uninterrupted = _run(config)

    simulation = FederatedSimulation(config)
    simulation.run(rounds=2, checkpoint_path=checkpoint)
    assert simulation.completed_rounds == 2

    resumed_sim = FederatedSimulation.from_checkpoint(checkpoint)
    assert resumed_sim.completed_rounds == 2
    resumed = resumed_sim.run()

    _assert_histories_equal(uninterrupted, resumed)
    assert uninterrupted.final_accuracy == resumed.final_accuracy  # bit-identical
    for w_a, w_b in zip(simulation.global_weights(), resumed_sim.global_weights()):
        assert w_a.shape == w_b.shape


def test_checkpoint_resume_across_backends(tmp_path):
    # run the first half serially, resume on the multiprocessing backend
    checkpoint = str(tmp_path / "ck.json")
    config = quick_config("cancer", "nonprivate", rounds=3, eval_every=1, seed=9)
    uninterrupted = _run(config)

    FederatedSimulation(config).run(rounds=1, checkpoint_path=checkpoint)
    with FederatedSimulation.from_checkpoint(
        checkpoint, executor="multiprocessing", num_workers=2
    ) as resumed_sim:
        resumed = resumed_sim.run()
    _assert_histories_equal(uninterrupted, resumed)


def test_checkpoint_resume_exact_with_sparse_evaluation(tmp_path):
    # eval_every > 1: interrupting must not leave extra accuracy entries in
    # the resumed history (the forced evaluation belongs to the experiment's
    # final round, not to the interruption point)
    checkpoint = str(tmp_path / "ck.json")
    config = quick_config("cancer", "nonprivate", rounds=4, eval_every=3, seed=2)
    uninterrupted = _run(config)

    FederatedSimulation(config).run(rounds=2, checkpoint_path=checkpoint)
    resumed = FederatedSimulation.from_checkpoint(checkpoint).run()

    assert sorted(uninterrupted.accuracy_by_round) == sorted(resumed.accuracy_by_round)
    _assert_histories_equal(uninterrupted, resumed)


def test_checkpoint_extend_rounds_respans_decay_schedule(tmp_path):
    checkpoint = str(tmp_path / "ck.json")
    config = quick_config("cancer", "fed_cdp_decay", rounds=2, eval_every=1, seed=4)
    FederatedSimulation(config).run(checkpoint_path=checkpoint)

    extended = FederatedSimulation.from_checkpoint(checkpoint, rounds=6)
    assert extended.config.rounds == 6
    assert extended.completed_rounds == 2
    # the rebuilt trainer's decay schedule spans the extended horizon, i.e.
    # the remaining rounds clip exactly like a fresh 6-round run would
    fresh = FederatedSimulation(config.with_overrides(rounds=6))
    for round_index in range(2, 6):
        assert extended.trainer.clipping.bound_for_round(round_index) == (
            fresh.trainer.clipping.bound_for_round(round_index)
        )
    history = extended.run()
    assert len(history.rounds) == 6

    with pytest.raises(ValueError):
        FederatedSimulation.from_checkpoint(checkpoint, rounds=1)  # shrinking is rejected


def test_from_checkpoint_rejects_overriding_a_pinned_field(tmp_path):
    checkpoint = str(tmp_path / "ck.json")
    FederatedSimulation(quick_config("cancer", "nonprivate", rounds=1)).run(checkpoint_path=checkpoint)
    with pytest.raises(ValueError, match="seed"):
        FederatedSimulation.from_checkpoint(checkpoint, seed=3)
    with pytest.raises(ValueError, match="noise_scale"):
        FederatedSimulation.from_checkpoint(checkpoint, executor="serial", noise_scale=1.0)
    # the resume-mutable fields stay free, and None keeps the checkpoint's value
    with FederatedSimulation.from_checkpoint(
        checkpoint, rounds=2, executor=None, num_workers=None, worker_chunk_size=1
    ) as resumed:
        assert resumed.config.rounds == 2
        assert resumed.config.executor == "serial"


def test_checkpoint_with_retired_client_state_key_resumes_exactly(tmp_path):
    # checkpoints written while the eager/lazy client-construction switch
    # existed carry its value in their config; it never changed numerics
    checkpoint = tmp_path / "ck.json"
    config = quick_config("cancer", "fed_cdp", rounds=3, eval_every=1, seed=5)
    uninterrupted = _run(config)
    FederatedSimulation(config).run(rounds=1, checkpoint_path=str(checkpoint))
    state = json.loads(checkpoint.read_text())
    state["config"]["client_state"] = "lazy"
    state["history"]["config"]["client_state"] = "lazy"
    checkpoint.write_text(json.dumps(state))
    resumed = FederatedSimulation.from_checkpoint(str(checkpoint)).run()
    _assert_histories_equal(uninterrupted, resumed)
    assert [r.mean_loss for r in uninterrupted.rounds] == [r.mean_loss for r in resumed.rounds]
    # any other unknown field still fails loudly, naming the field
    state["config"]["client_mode"] = "lazy"
    checkpoint.write_text(json.dumps(state))
    with pytest.raises(ValueError, match="client_mode"):
        FederatedSimulation.from_checkpoint(str(checkpoint))


def test_simulation_rejects_custom_trainer_with_multiprocessing():
    config = quick_config("cancer", "nonprivate", executor="multiprocessing", num_workers=2)
    serial = FederatedSimulation(quick_config("cancer", "nonprivate"))
    with pytest.raises(ValueError):
        FederatedSimulation(config, trainer=serial.trainer)
    with pytest.raises(ValueError):
        FederatedSimulation(config, model=serial.model)


def test_checkpoint_rejects_mismatched_config(tmp_path):
    checkpoint = str(tmp_path / "ck.json")
    config = quick_config("cancer", "nonprivate", rounds=2, eval_every=1, seed=1)
    simulation = FederatedSimulation(config)
    simulation.run(rounds=1, checkpoint_path=checkpoint)

    other = FederatedSimulation(config.with_overrides(seed=2))
    import json

    with open(checkpoint) as handle:
        state = json.load(handle)
    with pytest.raises(ValueError):
        other.load_state_dict(state)

    state["format"] = 999
    with pytest.raises(ValueError):
        simulation.load_state_dict(state)


def test_checkpoint_every_validation():
    config = quick_config("cancer", "nonprivate", rounds=1)
    with pytest.raises(ValueError):
        FederatedSimulation(config).run(checkpoint_every=0)


# ----------------------------------------------------------------------
# Scenario determinism: heterogeneity + availability dynamics must keep
# the serial/multiprocessing equivalence and exact checkpoint resume
# ----------------------------------------------------------------------
def _scenario_config():
    return quick_config(
        "cancer",
        "fed_cdp",
        rounds=4,
        eval_every=1,
        seed=21,
        partition="dirichlet",
        dirichlet_alpha=0.3,
        dropout_rate=0.3,
        straggler_deadline=2.0,
    )


def _assert_participation_equal(first, second):
    for a, b in zip(first.rounds, second.rounds):
        assert a.participating_clients == b.participating_clients
        assert a.dropped_clients == b.dropped_clients
        assert a.straggler_clients == b.straggler_clients


def test_dropout_straggler_run_identical_serial_vs_multiprocessing():
    config = _scenario_config()
    serial = _run(config)
    parallel = _run(config.with_overrides(executor="multiprocessing", num_workers=2))
    _assert_histories_equal(serial, parallel)
    _assert_participation_equal(serial, parallel)
    # the scenario genuinely exercised the availability layer
    assert serial.total_dropped > 0
    assert serial.total_stragglers > 0
    assert [r.mean_loss for r in serial.rounds] == [r.mean_loss for r in parallel.rounds]


def test_dropout_straggler_checkpoint_resume_is_exact(tmp_path):
    checkpoint = str(tmp_path / "ck.json")
    config = _scenario_config()
    uninterrupted = _run(config)

    FederatedSimulation(config).run(rounds=2, checkpoint_path=checkpoint)
    resumed_sim = FederatedSimulation.from_checkpoint(checkpoint)
    resumed = resumed_sim.run()

    _assert_histories_equal(uninterrupted, resumed)
    _assert_participation_equal(uninterrupted, resumed)
    assert uninterrupted.final_accuracy == resumed.final_accuracy  # bit-identical


def test_dropout_checkpoint_resume_across_backends(tmp_path):
    checkpoint = str(tmp_path / "ck.json")
    config = _scenario_config()
    uninterrupted = _run(config)

    FederatedSimulation(config).run(rounds=1, checkpoint_path=checkpoint)
    with FederatedSimulation.from_checkpoint(
        checkpoint, executor="multiprocessing", num_workers=2
    ) as resumed_sim:
        resumed = resumed_sim.run()
    _assert_histories_equal(uninterrupted, resumed)
    _assert_participation_equal(uninterrupted, resumed)


def test_surviving_clients_keep_their_training_streams_under_dropout():
    # a client that participates in round r trains identically whether or not
    # other clients dropped out that round: its stream is keyed on its
    # selection slot, and the availability draws live in their own RNG domain
    base = quick_config("cancer", "nonprivate", rounds=1, eval_every=1, seed=21)
    clean = _run(base)
    flaky = _run(base.with_overrides(dropout_rate=0.3))
    clean_round, flaky_round = clean.rounds[0], flaky.rounds[0]
    assert clean_round.selected_clients == flaky_round.selected_clients
    assert set(flaky_round.participating_clients) < set(clean_round.selected_clients)


def test_history_round_trips_through_dict():
    config = quick_config("cancer", "fed_cdp", rounds=2, eval_every=1, seed=3)
    history = _run(config)
    rebuilt = type(history).from_dict(history.to_dict())
    _assert_histories_equal(history, rebuilt, tol=0.0)
    assert rebuilt.config == config
