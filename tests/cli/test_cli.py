"""End-to-end tests for the ``python -m repro`` command-line runner."""

from __future__ import annotations

import argparse
import json

import pytest

from repro.cli import build_parser, load_config_file, main
from repro.experiments.harness import quick_config
from repro.federated import FederatedSimulation


def _run_args(tmp_path, *extra):
    return [
        "run",
        "--profile", "quick",
        "--dataset", "cancer",
        "--method", "fed_cdp",
        "--seed", "5",
        "--output", str(tmp_path / "history.json"),
        *extra,
    ]


def test_run_writes_history_json(tmp_path, capsys):
    assert main(_run_args(tmp_path, "--rounds", "2")) == 0
    out = capsys.readouterr().out
    assert "final accuracy=" in out
    payload = json.loads((tmp_path / "history.json").read_text())
    assert payload["config"]["dataset"] == "cancer"
    assert payload["config"]["rounds"] == 2
    assert 0.0 <= payload["final_accuracy"] <= 1.0
    assert payload["final_epsilon"] > 0
    assert payload["wall_clock_seconds"] > 0
    assert len(payload["rounds"]) == 2


def test_run_checkpoint_then_resume_matches_straight_run(tmp_path):
    checkpoint = str(tmp_path / "ck.json")
    assert main(_run_args(tmp_path, "--rounds", "2", "--checkpoint", checkpoint)) == 0
    assert main(_run_args(tmp_path, "--rounds", "4", "--checkpoint", checkpoint, "--resume")) == 0
    resumed = json.loads((tmp_path / "history.json").read_text())
    assert len(resumed["rounds"]) == 4

    straight = FederatedSimulation(
        quick_config("cancer", "fed_cdp", rounds=4, seed=5)
    ).run()
    assert resumed["final_accuracy"] == straight.final_accuracy
    assert resumed["final_epsilon"] == pytest.approx(straight.final_epsilon, abs=1e-8)


def test_run_resume_requires_existing_checkpoint(tmp_path):
    with pytest.raises(SystemExit):
        main(_run_args(tmp_path, "--resume"))
    with pytest.raises(SystemExit):
        main(_run_args(tmp_path, "--resume", "--checkpoint", str(tmp_path / "missing.json")))


def test_resume_keeps_checkpointed_executor_unless_overridden(tmp_path):
    checkpoint = str(tmp_path / "ck.json")
    assert main(
        _run_args(
            tmp_path, "--rounds", "2", "--checkpoint", checkpoint,
            "--executor", "multiprocessing", "--workers", "2",
        )
    ) == 0
    # no --executor flag on resume: the checkpointed backend must survive
    assert main(_run_args(tmp_path, "--rounds", "3", "--checkpoint", checkpoint, "--resume")) == 0
    payload = json.loads((tmp_path / "history.json").read_text())
    assert payload["config"]["executor"] == "multiprocessing"
    assert payload["config"]["num_workers"] == 2
    # resumed-and-extended runs report the extended round count in the config
    assert payload["config"]["rounds"] == 3
    assert len(payload["rounds"]) == 3
    # an explicit flag does override
    assert main(
        _run_args(
            tmp_path, "--rounds", "4", "--checkpoint", checkpoint, "--resume",
            "--executor", "serial",
        )
    ) == 0
    payload = json.loads((tmp_path / "history.json").read_text())
    assert payload["config"]["executor"] == "serial"


def test_resume_rejects_conflicting_numerics_flags(tmp_path):
    checkpoint = str(tmp_path / "ck.json")
    assert main(_run_args(tmp_path, "--rounds", "2", "--checkpoint", checkpoint)) == 0
    # same flags + --resume works (exercised elsewhere); a changed numerics
    # flag must fail loudly instead of being silently ignored
    with pytest.raises(SystemExit, match="noise"):
        main(
            _run_args(
                tmp_path, "--rounds", "3", "--checkpoint", checkpoint, "--resume",
                "--noise-scale", "1.0",
            )
        )
    with pytest.raises(SystemExit, match="seed"):
        main(["run", "--seed", "9", "--dataset", "cancer", "--method", "fed_cdp",
              "--checkpoint", checkpoint, "--resume"])
    # shrinking the run is also rejected
    with pytest.raises(SystemExit, match="rounds"):
        main(_run_args(tmp_path, "--rounds", "1", "--checkpoint", checkpoint, "--resume"))


def test_profile_flag_beats_config_file_profile(tmp_path):
    config_path = tmp_path / "p.json"
    config_path.write_text(
        json.dumps({"profile": "bench", "dataset": "cancer", "method": "nonprivate", "rounds": 1})
    )
    assert main(
        [
            "run", "--config", str(config_path), "--profile", "quick",
            "--output", str(tmp_path / "history.json"),
        ]
    ) == 0
    payload = json.loads((tmp_path / "history.json").read_text())
    # the quick profile's client population (6), not bench's (10)
    assert payload["config"]["num_clients"] == 6


def test_run_with_multiprocessing_executor(tmp_path):
    assert main(
        _run_args(tmp_path, "--rounds", "2", "--executor", "multiprocessing", "--workers", "2")
    ) == 0
    payload = json.loads((tmp_path / "history.json").read_text())
    assert payload["config"]["executor"] == "multiprocessing"
    assert payload["config"]["num_workers"] == 2


def test_run_with_yaml_config_file(tmp_path):
    yaml = pytest.importorskip("yaml")
    config_path = tmp_path / "experiment.yaml"
    config_path.write_text(
        yaml.safe_dump(
            {"profile": "quick", "dataset": "cancer", "method": "nonprivate", "rounds": 2, "seed": 3}
        )
    )
    assert main(
        ["run", "--config", str(config_path), "--output", str(tmp_path / "history.json")]
    ) == 0
    payload = json.loads((tmp_path / "history.json").read_text())
    assert payload["config"]["method"] == "nonprivate"
    assert payload["config"]["rounds"] == 2
    assert payload["config"]["seed"] == 3


def test_cli_flags_override_config_file(tmp_path):
    config_path = tmp_path / "experiment.json"
    config_path.write_text(json.dumps({"dataset": "cancer", "method": "nonprivate", "rounds": 2}))
    assert main(
        [
            "run", "--config", str(config_path), "--rounds", "3",
            "--output", str(tmp_path / "history.json"),
        ]
    ) == 0
    payload = json.loads((tmp_path / "history.json").read_text())
    assert payload["config"]["rounds"] == 3  # CLI flag wins over the file


def test_load_config_file_rejects_unknown_keys(tmp_path):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"datasett": "cancer"}))
    with pytest.raises(SystemExit):
        load_config_file(str(config_path))
    config_path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(SystemExit):
        load_config_file(str(config_path))


def test_unknown_profile_is_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["run", "--profile", "quick", "--dataset", "cancer", "--config", "/nonexistent.yaml"])
    config_path = tmp_path / "p.json"
    config_path.write_text(json.dumps({"profile": "galactic"}))
    with pytest.raises(SystemExit):
        main(["run", "--config", str(config_path)])


def test_run_with_scenario_flags(tmp_path):
    assert main(
        _run_args(
            tmp_path, "--rounds", "3",
            "--partition", "dirichlet", "--dirichlet-alpha", "0.2",
            "--dropout", "0.4", "--straggler-deadline", "2.0",
        )
    ) == 0
    payload = json.loads((tmp_path / "history.json").read_text())
    assert payload["config"]["partition"] == "dirichlet"
    assert payload["config"]["dirichlet_alpha"] == 0.2
    assert payload["config"]["dropout_rate"] == 0.4
    assert payload["config"]["straggler_deadline"] == 2.0
    availability_events = sum(
        len(r["dropped_clients"]) + len(r["straggler_clients"]) for r in payload["rounds"]
    )
    assert availability_events > 0
    for r in payload["rounds"]:
        assert sorted(
            r["participating_clients"] + r["dropped_clients"] + r["straggler_clients"]
        ) == sorted(r["selected_clients"])


def test_run_with_population_dynamics_flags(tmp_path, capsys):
    assert main(
        [
            "run",
            "--profile", "quick",
            "--dataset", "cancer",
            "--method", "fed_cdp",
            "--seed", "1",
            "--clients", "8",
            "--participation", "1.0",
            "--rounds", "10",
            "--eval-every", "10",
            "--churn-rate", "0.25",
            "--availability-cycle", "0.5",
            "--availability-period", "3",
            "--device-classes", "0.5", "1", "2",
            "--straggler-deadline", "2.0",
            "--drift", "0.2",
            "--accountant", "heterogeneous",
            "--output", str(tmp_path / "history.json"),
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "churn lifetime split" in out
    payload = json.loads((tmp_path / "history.json").read_text())
    assert payload["config"]["churn_rate"] == 0.25
    assert payload["config"]["availability_cycle"] == 0.5
    assert payload["config"]["availability_period"] == 3
    assert payload["config"]["device_classes"] == [0.5, 1, 2]
    assert payload["config"]["drift_rate"] == 0.2
    assert sum(len(r.get("offline_clients", [])) for r in payload["rounds"]) > 0
    split = payload["epsilon_by_lifetime"]
    assert split["short_lived_clients"] >= 1 and split["long_lived_clients"] >= 1


def test_dynamics_fields_omitted_from_serialized_config_at_defaults(tmp_path):
    assert main(_run_args(tmp_path, "--rounds", "1")) == 0
    payload = json.loads((tmp_path / "history.json").read_text())
    for key in (
        "availability_cycle",
        "availability_period",
        "churn_rate",
        "device_classes",
        "drift_rate",
    ):
        assert key not in payload["config"]


def test_run_with_scenario_config_file(tmp_path):
    config_path = tmp_path / "scenario.json"
    config_path.write_text(
        json.dumps(
            {
                "profile": "quick",
                "dataset": "cancer",
                "method": "nonprivate",
                "rounds": 2,
                "partition": "quantity_skew",
                "client_sampling": "poisson",
            }
        )
    )
    assert main(
        [
            "run", "--config", str(config_path), "--quantity-skew-exponent", "2.0",
            "--output", str(tmp_path / "history.json"),
        ]
    ) == 0
    payload = json.loads((tmp_path / "history.json").read_text())
    assert payload["config"]["partition"] == "quantity_skew"
    assert payload["config"]["quantity_skew_exponent"] == 2.0
    assert payload["config"]["client_sampling"] == "poisson"


def test_resume_rejects_conflicting_scenario_flags(tmp_path):
    checkpoint = str(tmp_path / "ck.json")
    assert main(_run_args(tmp_path, "--rounds", "2", "--checkpoint", checkpoint)) == 0
    with pytest.raises(SystemExit, match="dropout"):
        main(
            _run_args(
                tmp_path, "--rounds", "3", "--checkpoint", checkpoint, "--resume",
                "--dropout", "0.5",
            )
        )


def test_run_with_heterogeneous_accountant_and_budget(tmp_path, capsys):
    checkpoint = str(tmp_path / "budget.ck.json")
    args = _run_args(
        tmp_path, "--rounds", "6", "--participation", "1.0",
        "--partition", "quantity_skew",
        "--accountant", "heterogeneous", "--epsilon-budget", "30",
        "--checkpoint", checkpoint,
    )
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "epsilon budget 30.0 reached" in out
    assert "worst-case epsilon" in out and "equal-shard epsilon" in out
    payload = json.loads((tmp_path / "history.json").read_text())
    assert payload["config"]["accountant"] == "heterogeneous"
    assert payload["config"]["epsilon_budget"] == 30.0
    assert payload["budget_stop_round"] == len(payload["rounds"])
    assert len(payload["rounds"]) < 6
    assert payload["final_epsilon"] <= 30.0

    # resuming replays the identical stopping decision (no further rounds)
    assert main([*args, "--resume"]) == 0
    resumed = json.loads((tmp_path / "history.json").read_text())
    assert resumed["rounds"] == payload["rounds"]
    assert resumed["epsilon_by_round"] == payload["epsilon_by_round"]
    assert resumed["budget_stop_round"] == payload["budget_stop_round"]


def test_default_accountant_fields_omitted_from_serialized_config(tmp_path):
    """Default runs keep the pre-subsystem config payload (checkpoint compat)."""
    assert main(_run_args(tmp_path, "--rounds", "2")) == 0
    payload = json.loads((tmp_path / "history.json").read_text())
    assert "accountant" not in payload["config"]
    assert "epsilon_budget" not in payload["config"]
    assert "budget_stop_round" not in payload


def test_resume_allows_explicit_default_accountant_flag(tmp_path):
    """--accountant moments on resume of a default run is not a conflict."""
    checkpoint = str(tmp_path / "ck.json")
    assert main(_run_args(tmp_path, "--rounds", "2", "--checkpoint", checkpoint)) == 0
    assert main(
        _run_args(
            tmp_path, "--rounds", "3", "--checkpoint", checkpoint, "--resume",
            "--accountant", "moments",
        )
    ) == 0
    with pytest.raises(SystemExit, match="accountant"):
        main(
            _run_args(
                tmp_path, "--rounds", "4", "--checkpoint", checkpoint, "--resume",
                "--accountant", "heterogeneous",
            )
        )


def test_scenarios_subcommand(tmp_path, capsys):
    output = tmp_path / "scenarios.txt"
    assert main(
        [
            "scenarios", "--methods", "nonprivate",
            "--partitions", "iid", "dirichlet(0.1)",
            "--availabilities", "dropout(0.3)",
            "--dataset", "cancer", "--seed", "3",
            "--output", str(output),
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "Scenario matrix" in out
    assert "dirichlet(0.1)" in out
    assert "Scenario matrix" in output.read_text()


def test_run_with_attack_flags_records_attacks(tmp_path, capsys):
    assert main(
        _run_args(
            tmp_path, "--rounds", "2",
            "--attack", "leakage", "--attack-rounds", "0",
            "--attack-seeds", "2", "--attack-iterations", "8",
        )
    ) == 0
    out = capsys.readouterr().out
    assert "in-loop leakage attack" in out
    payload = json.loads((tmp_path / "history.json").read_text())
    assert payload["config"]["attack"] == "leakage"
    assert payload["config"]["attack_rounds"] == [0]
    attacked = [r for r in payload["rounds"] if r.get("attacks")]
    assert [r["round_index"] for r in attacked] == [0]
    for record in attacked[0]["attacks"]:
        assert record["restarts"] == 2
        assert record["mse"] >= 0.0


def test_attack_rounds_flag_accepts_every_k_and_rejects_junk(tmp_path):
    assert main(
        _run_args(
            tmp_path, "--rounds", "2",
            "--attack", "leakage", "--attack-rounds", "every_2",
            "--attack-iterations", "5",
        )
    ) == 0
    payload = json.loads((tmp_path / "history.json").read_text())
    assert payload["config"]["attack_rounds"] == "every_2"
    with pytest.raises(SystemExit):
        main(_run_args(tmp_path, "--attack", "leakage", "--attack-rounds", "soon"))
    with pytest.raises(SystemExit):
        main(_run_args(tmp_path, "--attack", "leakage", "--attack-rounds", "every_0"))


def test_attack_flags_without_attack_kind_are_rejected(tmp_path):
    with pytest.raises(SystemExit, match="attack_rounds"):
        main(_run_args(tmp_path, "--attack-rounds", "0"))
    with pytest.raises(SystemExit, match="attack_seeds"):
        main(_run_args(tmp_path, "--attack-seeds", "2"))


def test_invalid_config_file_values_exit_with_the_field_name(tmp_path):
    config_path = tmp_path / "bad.json"
    for payload, field in (({"rounds": 2.5}, "rounds"), ({"num_clients": True}, "num_clients"),
                           ({"straggler_deadline": 1e999}, "straggler_deadline")):
        config_path.write_text(json.dumps(payload))
        with pytest.raises(SystemExit, match=field):
            main(["run", "--config", str(config_path)])


#: the ``run`` subcommand's flags as ``(option strings, dest, type, nargs,
#: choices, default)``; config flags are derived from FederatedConfig, so a
#: field that gains or loses a flag, or a flag that changes shape, shows here
RUN_FLAGS = [
    (("--accountant",), "accountant", None, None, ("moments", "heterogeneous"), None),
    (("--attack",), "attack", None, None, ("leakage", "membership", "adaptive"), None),
    (("--attack-clients",), "attack_clients", "int", "+", None, None),
    (("--attack-iterations",), "attack_iterations", "int", None, None, None),
    (("--attack-rounds",), "attack_rounds", None, "+", None, None),
    (("--attack-seeds",), "attack_seeds", "int", None, None, None),
    (("--availability-cycle",), "availability_cycle", "float", None, None, None),
    (("--availability-period",), "availability_period", "int", None, None, None),
    (("--byzantine-clients",), "byzantine_clients", "int", "+", None, None),
    (("--byzantine-mode",), "byzantine_mode", None, None, ("scale", "sign_flip", "label_flip"), None),
    (("--byzantine-scale",), "byzantine_scale", "float", None, None, None),
    (("--checkpoint",), "checkpoint", None, None, None, None),
    (("--checkpoint-every",), "checkpoint_every", "int", None, None, 1),
    (("--churn-rate",), "churn_rate", "float", None, None, None),
    (("--client-sampling",), "client_sampling", None, None, ("fixed", "poisson"), None),
    (("--clients",), "clients", "int", None, None, None),
    (("--clipping-bound",), "clipping_bound", "float", None, None, None),
    (("--config",), "config", None, None, None, None),
    (("--dataset",), "dataset", None, None, None, None),
    (("--device-classes",), "device_classes", "float", "+", None, None),
    (("--dirichlet-alpha",), "dirichlet_alpha", "float", None, None, None),
    (("--drift",), "drift", "float", None, None, None),
    (("--dropout",), "dropout", "float", None, None, None),
    (("--epsilon-budget",), "epsilon_budget", "float", None, None, None),
    (("--eval-every",), "eval_every", "int", None, None, None),
    (("--executor",), "executor", None, None, ("serial", "multiprocessing"), None),
    (("--history-spool",), "history_spool", None, None, None, None),
    (("--history-tail",), "history_tail", "int", None, None, 64),
    (("--method",), "method", None, None,
     ("nonprivate", "fed_sdp", "fed_cdp", "fed_cdp_decay", "dssgd"), None),
    (("--noise-scale",), "noise_scale", "float", None, None, None),
    (("--output",), "output", None, None, None, None),
    (("--participation",), "participation", "float", None, None, None),
    (("--partition",), "partition", None, None, ("shards", "iid", "dirichlet", "quantity_skew"), None),
    (("--profile",), "profile", None, None, ("bench", "quick"), None),
    (("--quantity-skew-exponent",), "quantity_skew_exponent", "float", None, None, None),
    (("--resume",), "resume", None, 0, None, False),
    (("--rounds",), "rounds", "int", None, None, None),
    (("--secure-aggregation",), "secure_aggregation", None, 0, None, None),
    (("--secure-mask-scale",), "secure_mask_scale", "float", None, None, None),
    (("--seed",), "seed", "int", None, None, None),
    (("--straggler-deadline",), "straggler_deadline", "float", None, None, None),
    (("--verbose",), "verbose", None, 0, None, False),
    (("--worker-chunk-size",), "worker_chunk_size", "int", None, None, None),
    (("--workers",), "workers", "int", None, None, None),
]


def test_run_subcommand_flag_surface_is_pinned(capsys):
    parser = build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    run = subcommands.choices["run"]
    flags = sorted(
        (
            tuple(action.option_strings),
            action.dest,
            getattr(action.type, "__name__", None),
            action.nargs,
            None if action.choices is None else tuple(action.choices),
            action.default,
        )
        for action in run._actions
        if action.dest != "help"
    )
    assert flags == RUN_FLAGS
    # a value outside the choices exits through argparse's own error
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--executor", "fused"])
    assert "invalid choice: 'fused'" in capsys.readouterr().err


def test_resume_rejects_conflicting_attack_flags(tmp_path):
    checkpoint = str(tmp_path / "ck.json")
    attack_args = ("--attack", "leakage", "--attack-rounds", "0", "--attack-iterations", "5")
    assert main(
        _run_args(tmp_path, "--rounds", "2", "--checkpoint", checkpoint, *attack_args)
    ) == 0
    # replaying the original command with --resume appended works ...
    assert main(
        _run_args(tmp_path, "--rounds", "2", "--checkpoint", checkpoint, "--resume", *attack_args)
    ) == 0
    # ... but changing the attack schedule against the checkpoint fails loudly
    with pytest.raises(SystemExit, match="attack"):
        main(
            _run_args(
                tmp_path, "--rounds", "2", "--checkpoint", checkpoint, "--resume",
                "--attack", "leakage", "--attack-rounds", "1", "--attack-iterations", "5",
            )
        )


def test_resume_accepts_config_file_with_unnormalised_attack_lists(tmp_path):
    """Replaying the original --config command with --resume must work even
    when the file lists attack rounds/clients unsorted or duplicated."""
    config_path = tmp_path / "attacked.json"
    config_path.write_text(
        json.dumps(
            {
                "attack": "leakage",
                "attack_rounds": [1, 0, 1],
                "attack_clients": [2, 0, 2],
                "attack_iterations": 5,
            }
        )
    )
    checkpoint = str(tmp_path / "ck.json")
    args = _run_args(tmp_path, "--rounds", "2", "--config", str(config_path), "--checkpoint", checkpoint)
    assert main(args) == 0
    assert main(args + ["--resume"]) == 0


def test_scenarios_subcommand_with_attack_columns(tmp_path, capsys):
    assert main(
        [
            "scenarios", "--methods", "nonprivate",
            "--partitions", "iid", "--availabilities", "reliable",
            "--dataset", "cancer", "--seed", "3", "--attack", "leakage",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "attack-mse" in out
    # the attacked sweep fills the resilience columns with real numbers
    row = next(line for line in out.splitlines() if line.startswith("iid"))
    assert "-" != row.split()[-2]


def test_scenarios_subcommand_rejects_unknown_names():
    with pytest.raises(SystemExit):
        main(["scenarios", "--partitions", "martian", "--dataset", "cancer"])


def test_tables_subcommand_table6(tmp_path, capsys):
    output = tmp_path / "tables.txt"
    assert main(["tables", "6", "--output", str(output)]) == 0
    out = capsys.readouterr().out
    assert "Table VI" in out
    assert "Table VI" in output.read_text()


def test_tables_subcommand_rejects_unknown_name():
    with pytest.raises(SystemExit):
        main(["tables", "42"])


def test_figures_subcommand_figure3(capsys):
    assert main(["figures", "3", "--profile", "quick"]) == 0
    assert "Figure 3" in capsys.readouterr().out


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
