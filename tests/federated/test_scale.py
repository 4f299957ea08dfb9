"""Cross-device scale regression suite (docs/cross_device_scale.md).

Three guarantees of the lazy client-state architecture are locked in here:

* **Numerics-neutrality** — the streamed history spool and the execution
  backend change *where* state lives, never *what* is computed: trajectories
  are bit-identical to in-RAM runs, across backends, and across
  checkpoint/resume.
* **Bounded memory** — a million-client population with a q = 0.1% Poisson
  cohort runs in a laptop-sized memory envelope: construction cost is
  O(dataset + cohort), not O(K), and a spooled history keeps only its tail
  window in RAM no matter the horizon.
* **Sub-population independence** — per-round work touches only the sampled
  cohort (the seeds, shards and availability draws of undrawn clients are
  never computed).
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.experiments.harness import quick_config
from repro.federated.executor import SerialClientExecutor
from repro.federated.history import RoundSpool
from repro.federated.simulation import FederatedSimulation, SimulationHistory


def _scrub_timings(payload: dict) -> dict:
    """Drop the wall-clock fields (the only legitimately nondeterministic ones)."""
    payload = json.loads(json.dumps(payload))
    payload.pop("mean_time_per_iteration_ms", None)
    payload.pop("wall_clock_seconds", None)
    for entry in payload["rounds"]:
        entry.pop("mean_time_per_iteration_ms", None)
    return payload


def _run_history_dict(config, **sim_kwargs) -> dict:
    with FederatedSimulation(config, **sim_kwargs) as simulation:
        history = simulation.run()
    payload = history.to_dict()
    # normalise the fields that legitimately differ between the variants
    for key in ("executor", "num_workers", "worker_chunk_size"):
        payload["config"].pop(key, None)
    return _scrub_timings(payload)


def _rss_mb() -> float:
    """Current resident set size in MB (Linux), robust to prior test noise.

    ``ru_maxrss`` is a high-water mark polluted by whatever ran earlier in
    the session; ``/proc/self/statm`` gives the *current* RSS, so a
    before/after delta isolates this test's own allocations.
    """
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 1e6


BASE = dict(
    rounds=3,
    eval_every=1,
    seed=77,
    client_sampling="poisson",
    local_iterations=2,
    data_per_client=8,
)


# ----------------------------------------------------------------------
# Numerics-neutrality
# ----------------------------------------------------------------------
def test_lazy_poisson_serial_matches_multiprocessing():
    config = quick_config("adult", "nonprivate", **BASE)
    serial = _run_history_dict(config)
    parallel = _run_history_dict(
        config.with_overrides(executor="multiprocessing", num_workers=2)
    )
    assert serial == parallel
    chunked = _run_history_dict(
        config.with_overrides(
            executor="multiprocessing", num_workers=2, worker_chunk_size=1
        )
    )
    assert serial == chunked


# ----------------------------------------------------------------------
# Streamed history: spool equivalence and checkpoint/resume round trips
# ----------------------------------------------------------------------
def test_spooled_history_matches_in_memory_history(tmp_path):
    config = quick_config("adult", "nonprivate", **BASE)
    plain = _run_history_dict(config)
    spool_path = str(tmp_path / "rounds.jsonl")
    spooled = _run_history_dict(config, history_spool=spool_path, history_tail=1)
    assert plain == spooled
    # the spool file itself carries one checkpoint-identical JSON line per round
    with open(spool_path) as handle:
        lines = [json.loads(line) for line in handle]
    assert [_scrub_timings({"rounds": [line]})["rounds"][0] for line in lines] == plain["rounds"]


def test_spool_round_trip_preserves_round_results(tmp_path):
    config = quick_config("adult", "nonprivate", dropout_rate=0.3, **BASE)
    with FederatedSimulation(config) as simulation:
        history = simulation.run()
    spool = RoundSpool(str(tmp_path / "spool.jsonl"), tail_window=2)
    spool.extend(history.rounds)
    assert len(spool) == len(history.rounds)
    assert spool.in_memory_rounds() <= 2
    for original, restored in zip(history.rounds, spool):
        left = SimulationHistory(config=config, rounds=[original]).to_dict()["rounds"]
        right = SimulationHistory(config=config, rounds=[restored]).to_dict()["rounds"]
        assert left == right
    spool.close()


def test_spooled_checkpoint_resume_is_exact(tmp_path):
    config = quick_config("adult", "nonprivate", **BASE)
    reference = _run_history_dict(config)

    checkpoint = str(tmp_path / "ck.json")
    with FederatedSimulation(
        config, history_spool=str(tmp_path / "a.jsonl"), history_tail=1
    ) as simulation:
        simulation.run(rounds=2, checkpoint_path=checkpoint)

    resumed = FederatedSimulation.from_checkpoint(
        checkpoint, history_spool=str(tmp_path / "b.jsonl"), history_tail=1
    )
    with resumed:
        history = resumed.run()
    payload = history.to_dict()
    for key in ("executor", "num_workers", "worker_chunk_size"):
        payload["config"].pop(key, None)
    assert _scrub_timings(payload) == reference
    assert history.rounds.in_memory_rounds() <= 1


def test_resume_onto_same_spool_path_does_not_truncate(tmp_path):
    """Regression: resuming with ``history_spool=`` pointing at the *same*
    path the interrupted run used must rebuild the full spool, not race two
    truncating write handles on one file (the constructor used to open its
    own spool before ``load_state_dict`` opened the real one)."""
    config = quick_config("adult", "nonprivate", **BASE)
    reference = _run_history_dict(config)

    spool_path = str(tmp_path / "rounds.jsonl")
    checkpoint = str(tmp_path / "ck.json")
    with FederatedSimulation(config, history_spool=spool_path, history_tail=1) as simulation:
        simulation.run(rounds=2, checkpoint_path=checkpoint)

    resumed = FederatedSimulation.from_checkpoint(
        checkpoint, history_spool=spool_path, history_tail=1
    )
    with resumed:
        history = resumed.run()
    payload = history.to_dict()
    for key in ("executor", "num_workers", "worker_chunk_size"):
        payload["config"].pop(key, None)
    assert _scrub_timings(payload) == reference
    # the rebuilt spool carries the complete run: restored prefix + new rounds
    with open(spool_path) as handle:
        lines = [json.loads(line) for line in handle]
    assert len(lines) == config.rounds
    assert [line["round_index"] for line in lines] == list(range(config.rounds))


def test_failed_restore_leaves_existing_spool_intact(tmp_path):
    """Regression: a malformed checkpoint must not destroy a previous run's
    spool file — the restore must fail *before* any spool is (re)opened."""
    import pytest

    config = quick_config("adult", "nonprivate", **BASE)
    spool_path = str(tmp_path / "rounds.jsonl")
    checkpoint = str(tmp_path / "ck.json")
    with FederatedSimulation(config, history_spool=spool_path, history_tail=1) as simulation:
        simulation.run(checkpoint_path=checkpoint)
    with open(spool_path) as handle:
        original_spool = handle.read()
    assert original_spool  # the completed run left a non-empty spool

    with open(checkpoint) as handle:
        state = json.load(handle)

    # corruption 1: unsupported format marker
    bad_format = dict(state, format="not-a-real-format")
    bad_path = str(tmp_path / "bad.json")
    with open(bad_path, "w") as handle:
        json.dump(bad_format, handle)
    with pytest.raises(ValueError, match="unsupported checkpoint format"):
        FederatedSimulation.from_checkpoint(bad_path, history_spool=spool_path)
    with open(spool_path) as handle:
        assert handle.read() == original_spool

    # corruption 2: a mangled history payload (missing required round fields)
    bad_history = json.loads(json.dumps(state))
    bad_history["history"]["rounds"][0] = {"round_index": 0}
    with open(bad_path, "w") as handle:
        json.dump(bad_history, handle)
    with pytest.raises(Exception):
        FederatedSimulation.from_checkpoint(bad_path, history_spool=spool_path)
    with open(spool_path) as handle:
        assert handle.read() == original_spool


# ----------------------------------------------------------------------
# Population dynamics: numerics-neutrality across backends and resume
# ----------------------------------------------------------------------
DYNAMICS = dict(
    availability_cycle=0.6,
    availability_period=3,
    churn_rate=0.3,
    straggler_deadline=2.0,
    device_classes=(0.5, 1.0, 2.0),
    drift_rate=0.2,
)


def test_population_dynamics_eager_matches_lazy():
    """Clients rebuilt from the roster for every cohort train exactly like
    the same clients built once before the run and reused every round: under
    churn, stragglers and drift no client carries state between rounds."""
    # five rounds, so one client trains in several rounds at different drift
    config = quick_config("adult", "fed_cdp", **{**BASE, "rounds": 5}, **DYNAMICS)
    lazy = _run_history_dict(config)
    with FederatedSimulation(config) as simulation:
        eager_clients = list(simulation.clients)
        simulation.executor = SerialClientExecutor(eager_clients)
        history = simulation.run()
    payload = history.to_dict()
    for key in ("executor", "num_workers", "worker_chunk_size"):
        payload["config"].pop(key, None)
    eager = _scrub_timings(payload)
    assert eager == lazy
    assert sum(len(r.get("offline_clients", [])) for r in eager["rounds"]) > 0
    trained = [k for r in eager["rounds"] for k in r["participating_clients"]]
    assert len(trained) > len(set(trained))


def test_population_dynamics_serial_matches_multiprocessing_and_resume(tmp_path):
    config = quick_config("adult", "fed_cdp", **BASE, **DYNAMICS)
    serial = _run_history_dict(config)
    parallel = _run_history_dict(
        config.with_overrides(executor="multiprocessing", num_workers=2)
    )
    assert serial == parallel

    checkpoint = str(tmp_path / "ck.json")
    with FederatedSimulation(config) as simulation:
        simulation.run(rounds=2, checkpoint_path=checkpoint)
    resumed = FederatedSimulation.from_checkpoint(checkpoint)
    with resumed:
        history = resumed.run()
    payload = history.to_dict()
    for key in ("executor", "num_workers", "worker_chunk_size"):
        payload["config"].pop(key, None)
    assert _scrub_timings(payload) == serial


# ----------------------------------------------------------------------
# Bounded memory at cross-device scale
# ----------------------------------------------------------------------
def test_million_client_run_is_memory_bounded(tmp_path):
    """1M clients, q = 0.1% Poisson: the run must never materialise the
    population — peak RSS stays laptop-sized and history RAM stays flat."""
    config = quick_config(
        "adult",
        "nonprivate",
        num_clients=1_000_000,
        participation_fraction=0.001,  # ~1000-client cohorts
        rounds=2,
        eval_every=2,
        seed=5,
        client_sampling="poisson",
        local_iterations=1,
        data_per_client=8,
    )
    before = _rss_mb()
    with FederatedSimulation(
        config, history_spool=str(tmp_path / "spool.jsonl"), history_tail=4
    ) as simulation:
        history = simulation.run()
    delta = _rss_mb() - before
    # materialising every shard would need >= K * data_per_client * 8 bytes
    # of float64 features (~450 MB for adult's 6 features at 8 rows); the lazy
    # path allocates O(dataset + cohort + accounting) instead
    assert delta < 300, f"1M-client run grew RSS by {delta:.0f} MB"
    assert len(history.rounds) == 2
    assert history.rounds.in_memory_rounds() <= 4
    assert all(len(r.selected_clients) > 0 for r in history.rounds)
    cohort_sizes = [len(r.selected_clients) for r in history.rounds]
    # Binomial(1e6, 1e-3) concentrates tightly around 1000
    assert all(700 <= size <= 1300 for size in cohort_sizes)


def test_population_construction_cost_is_population_size_independent():
    """Building a simulation over 200k clients must cost O(dataset), not O(K):
    the lazy path derives shards on demand, so construction allocates no
    per-client object."""
    config = quick_config(
        "adult",
        "nonprivate",
        num_clients=200_000,
        participation_fraction=0.00005,
        rounds=1,
        eval_every=1,
        seed=9,
        client_sampling="poisson",
        local_iterations=1,
        data_per_client=8,
    )
    before = _rss_mb()
    simulation = FederatedSimulation(config)
    delta = _rss_mb() - before
    assert delta < 80, f"200k-client construction grew RSS by {delta:.0f} MB"
    # only the sampled cohort is ever instantiated
    history = simulation.run()
    assert len(history.rounds) == 1
    simulation.close()


def test_lazy_uniform_population_binds_a_zero_stride_context():
    """Equal shards reach the accountant as one broadcast view: building a
    1M-client simulation allocates no per-client shard-size entry."""
    config = quick_config(
        "adult",
        "nonprivate",
        num_clients=1_000_000,
        participation_fraction=0.00001,
        rounds=1,
        eval_every=1,
        seed=9,
        client_sampling="poisson",
        local_iterations=1,
        data_per_client=8,
    )
    with FederatedSimulation(config) as simulation:
        sizes = simulation.accountant._context.shard_sizes
        assert sizes.shape == (1_000_000,) and sizes.strides == (0,)
        assert sizes.dtype == np.int64 and not sizes.flags.writeable
        assert int(sizes[0]) == 8
