"""Golden-trajectory regression suite.

PR 2 made fixed-seed simulations bit-identical across execution backends and
checkpoint resume; this suite locks the actual *values* of those trajectories
in as committed JSON fixtures, so any future change to the data substrate,
partitioning, trainers, aggregation, privacy accounting or RNG discipline
that shifts the numerics is caught immediately.

One fixture per scenario lives in ``tests/federated/golden/`` and records the
seed-1234 quick-profile trajectory (per-round losses, gradient norms,
accuracy, epsilon and participation bookkeeping — everything deterministic;
wall-clock timings are excluded).  Metrics must match to ``<= 1e-8``.

Regenerating after an *intentional* numerics change::

    PYTHONPATH=src python -m pytest tests/federated/test_golden_trajectories.py --update-golden

On an unchanged tree the command rewrites byte-identical files (verified by
:func:`test_update_golden_is_noop_on_unchanged_tree`).  Review regenerated
fixtures like any other diff — they *are* the experiment's results.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict

import pytest

from repro.experiments.harness import quick_config
from repro.federated import FederatedConfig, FederatedSimulation

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: tolerance demanded by the acceptance criteria (the trajectories are in
#: fact written at full float64 repr precision)
TOL = 1e-8


def golden_configs() -> Dict[str, FederatedConfig]:
    """The committed scenario grid: method x partition (+ one flaky-network cell).

    Uses the tiny ``cancer`` dataset so the whole suite stays a few seconds;
    the trajectories still exercise partitioning, sampling, clipping, noise,
    aggregation and accounting end to end.
    """
    base = dict(rounds=3, eval_every=1, seed=1234)
    configs: Dict[str, FederatedConfig] = {}
    for method in ("nonprivate", "fed_sdp", "fed_cdp"):
        configs[f"{method}_iid"] = quick_config("cancer", method, partition="iid", **base)
        configs[f"{method}_dirichlet"] = quick_config(
            "cancer", method, partition="dirichlet", dirichlet_alpha=0.3, **base
        )
    configs["fed_cdp_dirichlet_flaky"] = quick_config(
        "cancer",
        "fed_cdp",
        partition="dirichlet",
        dirichlet_alpha=0.3,
        dropout_rate=0.25,
        straggler_deadline=2.0,
        **base,
    )
    # in-loop adversary cells: per-round attack MSE/PSNR locked to <= 1e-8,
    # and (asserted separately) a training trajectory identical to the
    # unattacked fixture of the same method — the adversary is observational
    attack = dict(attack="leakage", attack_rounds=(0, 2), attack_seeds=2, attack_iterations=15)
    for method in ("nonprivate", "fed_cdp"):
        configs[f"{method}_iid_attacked"] = quick_config(
            "cancer", method, partition="iid", **base, **attack
        )
    # adversary-catalogue cells: one byzantine behaviour (genuinely perturbs
    # training — the perturbed trajectory itself is what the fixture locks)
    # and one in-loop membership audit (observational, like leakage)
    configs["fed_cdp_iid_byzantine"] = quick_config(
        "cancer",
        "fed_cdp",
        partition="iid",
        byzantine_clients=(0,),
        byzantine_mode="scale",
        byzantine_scale=5.0,
        **base,
    )
    configs["fed_cdp_iid_mia"] = quick_config(
        "cancer", "fed_cdp", partition="iid", attack="membership", attack_rounds=(0, 2), **base
    )
    # conv-model cell: Fed-CDP per-example clipping AND the in-loop attack
    # both run through the batched-graph engine on a CNN (mnist quick scale);
    # its serial / multiprocessing / resume bit-identity is asserted in
    # tests/federated/test_executor.py
    configs["fed_cdp_mnist_attacked"] = quick_config(
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
    # population-dynamics cell: diurnal availability, churn, device classes
    # and label drift all active at once, on top of dropout-free straggler
    # detection — locks the temporal availability engine's trajectory
    configs["fed_cdp_iid_dynamics"] = quick_config(
        "cancer",
        "fed_cdp",
        partition="iid",
        availability_cycle=0.5,
        availability_period=3,
        churn_rate=0.3,
        straggler_deadline=2.0,
        device_classes=(0.5, 1.0, 2.0),
        drift_rate=0.2,
        **base,
    )
    # server-path cells: each round option the grid above leaves at its
    # default — Poisson sampling, FedAvg with pruning, Fed-SDP's server-side
    # sanitiser and secure aggregation — run once.  The dropout rates are
    # chosen so that some round genuinely loses a client (asserted below)
    configs["fed_cdp_iid_poisson_dropout"] = quick_config(
        "cancer", "fed_cdp", partition="iid", client_sampling="poisson", dropout_rate=0.3, **base
    )
    configs["fed_cdp_iid_fedavg_compressed"] = quick_config(
        "cancer", "fed_cdp", partition="iid", aggregation="fedavg", compression_ratio=0.5, **base
    )
    configs["fed_sdp_iid_server_side"] = quick_config(
        "cancer", "fed_sdp", partition="iid", sdp_server_side=True, **base
    )
    configs["fed_cdp_iid_secure_dropout"] = quick_config(
        "cancer", "fed_cdp", partition="iid", secure_aggregation=True, dropout_rate=0.5, **base
    )
    # shard-derivation cells: the default ``shards`` partition on a dataset
    # with class-skewed shards (``ClassShardPlan``), with label-flipping
    # clients so the byzantine shard transform is locked too, and Cancer's
    # default full-copy partition
    configs["fed_cdp_adult_shards_label_flip"] = quick_config(
        "adult",
        "fed_cdp",
        byzantine_clients=(0, 1),
        byzantine_mode="label_flip",
        **base,
    )
    configs["fed_cdp_full_copy"] = quick_config("cancer", "fed_cdp", **base)
    return configs


def _round_trip_float(value: float):
    """NaN (skipped rounds) is encoded as ``None`` to keep fixtures strict JSON."""
    return None if math.isnan(value) else float(value)


def trajectory_payload(history) -> dict:
    """The deterministic subset of a history (no wall-clock timings)."""
    rounds = []
    for r in history.rounds:
        entry = {
            "round_index": r.round_index,
            "selected_clients": list(r.selected_clients),
            "participating_clients": list(r.participating_clients),
            "dropped_clients": list(r.dropped_clients),
            "straggler_clients": list(r.straggler_clients),
            "mean_loss": _round_trip_float(r.mean_loss),
            "mean_gradient_norm": float(r.mean_gradient_norm),
        }
        if r.offline_clients:
            # the key is omitted when no client was offline, keeping every
            # pre-dynamics fixture byte-identical
            entry["offline_clients"] = list(r.offline_clients)
        if r.attacks:
            # the key is omitted on unattacked rounds, keeping every
            # pre-existing fixture byte-identical
            entry["attacks"] = [
                {
                    "client_id": a.client_id,
                    "mse": float(a.mse),
                    "psnr": _round_trip_float(a.psnr) if math.isfinite(a.psnr) else None,
                    "success": bool(a.success),
                    "iterations": int(a.iterations),
                    "final_loss": float(a.final_loss),
                    "best_restart": int(a.best_restart),
                    "restarts": int(a.restarts),
                }
                for a in r.attacks
            ]
        if r.mia:
            # same convention: the key only exists on audited rounds
            entry["mia"] = [
                {
                    "client_id": m.client_id,
                    "auc": float(m.auc),
                    "advantage": float(m.advantage),
                    "accuracy": float(m.accuracy),
                    "mean_member_loss": float(m.mean_member_loss),
                    "mean_nonmember_loss": float(m.mean_nonmember_loss),
                    "members": int(m.members),
                    "nonmembers": int(m.nonmembers),
                }
                for m in r.mia
            ]
        rounds.append(entry)
    return {
        "config": history.config.to_dict(),
        "accuracy_by_round": {str(k): float(v) for k, v in sorted(history.accuracy_by_round.items())},
        "epsilon_by_round": {str(k): float(v) for k, v in sorted(history.epsilon_by_round.items())},
        "rounds": rounds,
    }


def _render(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _assert_close(expected, actual, path=""):
    """Recursive comparison with ``TOL`` on floats and exactness elsewhere."""
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        assert actual == pytest.approx(expected, abs=TOL), f"{path}: {actual} != {expected}"
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and sorted(actual) == sorted(expected), (
            f"{path}: keys {sorted(actual)} != {sorted(expected)}"
        )
        for key in expected:
            _assert_close(expected[key], actual[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), (
            f"{path}: length {len(actual)} != {len(expected)}"
        )
        for index, (e, a) in enumerate(zip(expected, actual)):
            _assert_close(e, a, f"{path}[{index}]")
    else:
        assert actual == expected, f"{path}: {actual!r} != {expected!r}"


def _run_scenario(config: FederatedConfig) -> dict:
    with FederatedSimulation(config) as simulation:
        history = simulation.run()
    # normalise through JSON (tuples become lists, exactly as in the fixture;
    # float64 repr round-trips losslessly so no precision is shed)
    return json.loads(_render(trajectory_payload(history)))


@pytest.mark.parametrize("name", sorted(golden_configs()))
def test_golden_trajectory(name, update_golden):
    config = golden_configs()[name]
    payload = _run_scenario(config)
    path = os.path.join(GOLDEN_DIR, f"{name}.json")
    if update_golden:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(_render(payload))
        return
    assert os.path.exists(path), (
        f"missing golden fixture {path}; generate it with "
        "`python -m pytest tests/federated/test_golden_trajectories.py --update-golden`"
    )
    with open(path) as handle:
        expected = json.load(handle)
    _assert_close(expected, payload, path=name)


def test_no_stale_golden_fixtures():
    """Every committed fixture corresponds to a scenario in the grid."""
    committed = {name[: -len(".json")] for name in os.listdir(GOLDEN_DIR) if name.endswith(".json")}
    assert committed == set(golden_configs())


def test_update_golden_is_noop_on_unchanged_tree():
    """The documented regeneration command rewrites byte-identical files."""
    name = "nonprivate_iid"
    payload = _run_scenario(golden_configs()[name])
    with open(os.path.join(GOLDEN_DIR, f"{name}.json")) as handle:
        committed = handle.read()
    assert _render(payload) == committed


def test_attacked_fixtures_record_attacks_without_perturbing_training():
    """The attacked cells carry per-round attack metrics, the adversary is
    observational (training trajectory identical to the unattacked fixture),
    and the fixtures lock in the paper's resilience ordering."""
    mse = {}
    for method in ("nonprivate", "fed_cdp"):
        with open(os.path.join(GOLDEN_DIR, f"{method}_iid_attacked.json")) as handle:
            attacked = json.load(handle)
        with open(os.path.join(GOLDEN_DIR, f"{method}_iid.json")) as handle:
            unattacked = json.load(handle)
        attacked_rounds = [r for r in attacked["rounds"] if "attacks" in r]
        assert [r["round_index"] for r in attacked_rounds] == [0, 2]
        assert attacked["accuracy_by_round"] == unattacked["accuracy_by_round"]
        for with_attack, without in zip(attacked["rounds"], unattacked["rounds"]):
            assert with_attack["mean_loss"] == without["mean_loss"]
            assert with_attack["mean_gradient_norm"] == without["mean_gradient_norm"]
        mse[method] = {
            r["round_index"]: sum(a["mse"] for a in r["attacks"]) / len(r["attacks"])
            for r in attacked_rounds
        }
    for round_index, nonprivate_mse in mse["nonprivate"].items():
        assert mse["fed_cdp"][round_index] > nonprivate_mse


def test_mia_fixture_records_audits_without_perturbing_training():
    """The membership audit reads released weights; it never touches training."""
    with open(os.path.join(GOLDEN_DIR, "fed_cdp_iid_mia.json")) as handle:
        audited = json.load(handle)
    with open(os.path.join(GOLDEN_DIR, "fed_cdp_iid.json")) as handle:
        unaudited = json.load(handle)
    assert audited["accuracy_by_round"] == unaudited["accuracy_by_round"]
    for with_audit, without in zip(audited["rounds"], unaudited["rounds"]):
        assert with_audit["mean_loss"] == without["mean_loss"]
        assert with_audit["mean_gradient_norm"] == without["mean_gradient_norm"]
    audited_rounds = [r for r in audited["rounds"] if "mia" in r]
    assert [r["round_index"] for r in audited_rounds] == [0, 2]
    for entry in audited_rounds:
        for record in entry["mia"]:
            assert 0.0 <= record["auc"] <= 1.0
            assert record["members"] > 0 and record["nonmembers"] > 0


def test_byzantine_fixture_genuinely_perturbs_training():
    """Unlike the observational adversaries, a byzantine client shifts the
    aggregate — the fixture must differ from the benign cell of the method."""
    with open(os.path.join(GOLDEN_DIR, "fed_cdp_iid_byzantine.json")) as handle:
        byzantine = json.load(handle)
    with open(os.path.join(GOLDEN_DIR, "fed_cdp_iid.json")) as handle:
        benign = json.load(handle)
    assert byzantine["config"]["byzantine_clients"] == [0]
    assert byzantine["config"]["byzantine_mode"] == "scale"
    # the same clients train on the same shards ...
    for corrupt, honest in zip(byzantine["rounds"], benign["rounds"]):
        assert corrupt["selected_clients"] == honest["selected_clients"]
    # ... but the corrupted uploads move the global model
    assert any(
        corrupt["mean_loss"] != honest["mean_loss"]
        for corrupt, honest in zip(byzantine["rounds"][1:], benign["rounds"][1:])
    )


def test_label_flip_fixture_trains_flipped_shards():
    """A label-flipping client takes part in the shards cell, so its fixture
    locks the byzantine shard transform along with the shard derivation."""
    with open(os.path.join(GOLDEN_DIR, "fed_cdp_adult_shards_label_flip.json")) as handle:
        payload = json.load(handle)
    assert payload["config"]["partition"] == "shards"
    assert payload["config"]["byzantine_mode"] == "label_flip"
    flipped = set(payload["config"]["byzantine_clients"])
    assert any(flipped & set(r["participating_clients"]) for r in payload["rounds"])


@pytest.mark.parametrize(
    "name", ["fed_cdp_dirichlet_flaky", "fed_cdp_iid_poisson_dropout", "fed_cdp_iid_secure_dropout"]
)
def test_flaky_fixture_exercises_availability(name):
    """The flaky-network, Poisson-dropout and secure-dropout cells must each
    lose a selected client in some round, so their fixtures lock a cohort
    smaller than the selection."""
    with open(os.path.join(GOLDEN_DIR, f"{name}.json")) as handle:
        payload = json.load(handle)
    dropped = sum(len(r["dropped_clients"]) for r in payload["rounds"])
    stragglers = sum(len(r["straggler_clients"]) for r in payload["rounds"])
    assert dropped + stragglers > 0


def test_dynamics_fixture_exercises_population_dynamics():
    """The dynamics cell must contain genuine churn/diurnal offline events and
    every selected client must be accounted for exactly once per round."""
    with open(os.path.join(GOLDEN_DIR, "fed_cdp_iid_dynamics.json")) as handle:
        payload = json.load(handle)
    assert payload["config"]["availability_cycle"] == 0.5
    assert payload["config"]["churn_rate"] == 0.3
    assert payload["config"]["drift_rate"] == 0.2
    offline = sum(len(r.get("offline_clients", [])) for r in payload["rounds"])
    assert offline > 0
    for entry in payload["rounds"]:
        accounted = (
            entry["participating_clients"]
            + entry["dropped_clients"]
            + entry["straggler_clients"]
            + entry.get("offline_clients", [])
        )
        assert sorted(accounted) == sorted(entry["selected_clients"])
