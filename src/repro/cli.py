"""Config-driven command-line runner: ``python -m repro``.

Four subcommands cover the reproduction workflow:

``run``
    Run one federated experiment.  The :class:`~repro.federated.config.
    FederatedConfig` is materialised from a scale profile
    (:data:`repro.experiments.harness.SCALE_PROFILES`), optionally a YAML or
    JSON config file, and CLI flags — with CLI flags winning over the file and
    the file winning over the profile.  Supports round-level JSON checkpoints
    (``--checkpoint`` / ``--checkpoint-every``) and exact resume
    (``--resume``), plus the parallel client-execution backend
    (``--executor multiprocessing --workers N``).

``tables`` / ``figures``
    Regenerate the paper's tables and figures (the runners from
    :mod:`repro.experiments`) and print their plain-text renderings.

``scenarios``
    Sweep the scenario engine's (partition × availability × transport ×
    method) matrix
    (:func:`repro.experiments.scenarios.run_scenario_matrix`) and print one
    comparison table — see ``docs/scenarios.md``.

Examples::

    python -m repro run --profile quick --dataset mnist --method fed_cdp
    python -m repro run --config experiment.yaml --workers 4 --executor multiprocessing
    python -m repro run --profile quick --checkpoint ck.json --rounds 8 --resume
    python -m repro run --partition dirichlet --dirichlet-alpha 0.1 --dropout 0.3
    python -m repro run --partition quantity_skew --accountant heterogeneous --epsilon-budget 1.0
    python -m repro run --dataset cancer --attack leakage --attack-rounds every_2
    python -m repro run --dataset cancer --attack membership --secure-aggregation
    python -m repro run --dataset cancer --byzantine-clients 0 --byzantine-mode sign_flip
    python -m repro run --clients 1000000 --participation 0.00001 \
        --client-sampling poisson --history-spool rounds.jsonl
    python -m repro tables 1 6
    python -m repro figures 3
    python -m repro scenarios --methods nonprivate fed_cdp --dataset mnist
    python -m repro scenarios --dataset cancer --attack leakage --partitions iid
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.experiments.harness import SCALE_PROFILES, make_config
from repro.federated.config import (
    ATTACK_KINDS,
    FIELD_TYPES,
    METHODS,
    RESUME_MUTABLE_FIELDS,
    FederatedConfig,
)
from repro.federated.simulation import FederatedSimulation

__all__ = ["main", "build_parser", "load_config_file", "run_experiment"]


#: Config-file keys that are runner settings rather than FederatedConfig fields.
_RUNNER_KEYS = ("profile",)


#: ``run`` flag of every FederatedConfig field that has ``help`` metadata
_CONFIG_FLAGS: Dict[str, str] = {
    config_field.name: config_field.metadata.get("flag", "--" + config_field.name.replace("_", "-"))
    for config_field in dataclasses.fields(FederatedConfig)
    if "help" in config_field.metadata
}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """Add one flag per :data:`_CONFIG_FLAGS` field, typed from its annotation.

    Every flag defaults to ``None`` so that an absent flag leaves the profile
    or config-file value in place.
    """
    for name, flag in _CONFIG_FLAGS.items():
        metadata = FederatedConfig.__dataclass_fields__[name].metadata
        element, sequence = FIELD_TYPES[name]
        options = {"help": metadata["help"]}
        if element is bool:
            options.update(action="store_const", const=True, default=None)
        else:
            options.update(
                type=None if element is str else element,
                nargs="+" if sequence else None,
                choices=metadata.get("choices"),
                metavar=metadata.get("metavar"),
            )
        parser.add_argument(flag, **options)


def load_config_file(path: str) -> dict:
    """Load a YAML or JSON experiment description into a flat mapping.

    The mapping may contain any :class:`FederatedConfig` field plus the
    runner-level key ``profile``.  YAML needs PyYAML; JSON (and YAML files
    that are valid JSON) always work, so the CLI stays usable when PyYAML is
    missing from the environment.
    """
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as error:
        raise SystemExit(f"cannot read config file {path!r}: {error}")
    try:
        import yaml  # type: ignore
    except ImportError:
        yaml = None
    if yaml is not None:
        try:
            payload = yaml.safe_load(text)
        except yaml.YAMLError as error:
            raise SystemExit(f"cannot parse {path!r}: {error}")
    else:
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise SystemExit(
                f"cannot parse {path!r}: PyYAML is not installed and the file is not JSON "
                f"({error})"
            )
    if payload is None:
        payload = {}
    if not isinstance(payload, dict):
        raise SystemExit(f"config file {path!r} must contain a mapping, got {type(payload).__name__}")
    known = set(FederatedConfig.__dataclass_fields__) | set(_RUNNER_KEYS)
    unknown = set(payload) - known
    if unknown:
        raise SystemExit(f"unknown config keys in {path!r}: {sorted(unknown)}")
    return payload


def _config_from_args(args: argparse.Namespace) -> Tuple[FederatedConfig, str, Set[str], Set[str]]:
    """Materialise the run config from profile defaults, file, and flags.

    Returns ``(config, profile, pinned, flagged)``: ``pinned`` names every
    :class:`FederatedConfig` field the user set via a CLI flag or the config
    file (not via profile defaults), ``flagged`` the subset set by a flag.
    ``run`` checks ``pinned`` against a resumed checkpoint and lets
    ``flagged`` resume-mutable fields override it.
    """
    values = load_config_file(args.config) if args.config else {}
    file_profile = values.pop("profile", None)
    profile = args.profile or file_profile or "quick"
    flagged = {name: getattr(args, flag[2:].replace("-", "_")) for name, flag in _CONFIG_FLAGS.items()}
    flagged = {name: value for name, value in flagged.items() if value is not None}
    rounds = flagged.get("attack_rounds")
    if rounds is not None and len(rounds) == 1 and rounds[0].startswith("every_"):
        flagged["attack_rounds"] = rounds[0]  # the string form, attack every k-th round
    values.update(flagged)
    try:
        config = make_config(profile=profile, **values)
    except ValueError as error:
        raise SystemExit(f"invalid config: {error}")
    return config, profile, set(values), set(flagged)


def run_experiment(
    config: FederatedConfig,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: int = 1,
    resume: bool = False,
    verbose: bool = False,
    overrides: Optional[Mapping[str, object]] = None,
    history_spool: Optional[str] = None,
    history_tail: int = 64,
):
    """Run (or resume) one simulation.

    Returns ``(history, wall_clock_seconds, simulation)``; the simulation's
    executor is already closed when this returns.  On resume, the checkpoint
    pins every numerics-affecting field; ``overrides`` may replace the
    checkpointed value of the fields in
    :data:`~repro.federated.config.RESUME_MUTABLE_FIELDS` (the execution
    backend, and a larger ``rounds`` extends the run: "resume and keep
    going").  ``history_spool`` streams the round history to a JSONL file
    with only a ``history_tail``-sized window in RAM (see
    docs/cross_device_scale.md).
    """
    if resume:
        if not checkpoint_path:
            raise SystemExit("--resume requires --checkpoint")
        if not os.path.exists(checkpoint_path):
            raise SystemExit(f"--resume: checkpoint {checkpoint_path!r} does not exist")
        try:
            simulation = FederatedSimulation.from_checkpoint(
                checkpoint_path,
                history_spool=history_spool,
                history_tail=history_tail,
                **(overrides or {}),
            )
        except ValueError as error:
            raise SystemExit(f"--resume: {error}")
    else:
        simulation = FederatedSimulation(
            config, history_spool=history_spool, history_tail=history_tail
        )
    started = time.perf_counter()
    try:
        history = simulation.run(
            verbose=verbose,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
        )
    finally:
        simulation.close()
    return history, time.perf_counter() - started, simulation


def _reject_resume_conflicts(config: FederatedConfig, pinned: Set[str], checkpoint_path: str) -> None:
    """On --resume the checkpoint pins the numerics; fail loudly on conflicts.

    Re-running the original command with ``--resume`` appended must work, so
    explicitly-passed values that *match* the checkpoint are fine; a changed
    ``--seed`` or ``--noise-scale`` is rejected instead of silently ignored
    (the user would otherwise attribute the unchanged results to parameters
    that were never applied).  The resume-mutable fields remain free.  Both
    sides are compared as normalised :class:`FederatedConfig` values.
    """
    if not os.path.exists(checkpoint_path):
        return  # run_experiment reports the missing checkpoint
    try:
        with open(checkpoint_path) as handle:
            checkpointed = FederatedConfig.from_dict(json.load(handle)["config"])
    except ValueError as error:
        raise SystemExit(f"--resume: {error}")
    conflicts = [
        f"{name} (checkpoint: {getattr(checkpointed, name)!r}, requested: {getattr(config, name)!r})"
        for name in sorted(pinned)
        if name not in RESUME_MUTABLE_FIELDS and getattr(checkpointed, name) != getattr(config, name)
    ]
    if conflicts:
        raise SystemExit(
            "--resume: the checkpoint pins every numerics-affecting field; "
            "conflicting values: " + "; ".join(conflicts)
        )


def _cmd_run(args: argparse.Namespace) -> int:
    config, profile, pinned, flagged = _config_from_args(args)
    if args.resume and args.checkpoint:
        _reject_resume_conflicts(config, pinned, args.checkpoint)
    history, elapsed, simulation = run_experiment(
        config,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        verbose=args.verbose,
        # only an explicit flag overrides the checkpointed value on resume
        overrides={name: getattr(config, name) for name in RESUME_MUTABLE_FIELDS if name in flagged},
        history_spool=args.history_spool,
        history_tail=args.history_tail,
    )
    config = simulation.config  # resume may have restored the checkpointed config
    workers = config.num_workers if config.num_workers is not None else "auto"
    print(
        f"[repro] {config.method} on {config.dataset} (profile={profile}, "
        f"executor={config.executor}, workers={workers}): "
        f"{simulation.completed_rounds} rounds in {elapsed:.2f}s wall-clock"
    )
    if history.budget_stop_round is not None:
        print(
            f"[repro] epsilon budget {config.epsilon_budget} reached: stopped before "
            f"round {history.budget_stop_round + 1} "
            f"(spent epsilon={history.final_epsilon:.4f})"
        )
    print(
        f"[repro] final accuracy={history.final_accuracy:.4f} "
        f"epsilon={history.final_epsilon:.4f} "
        f"mean cost={history.mean_time_per_iteration_ms:.2f} ms/iteration"
    )
    if config.attack == "membership":
        records = history.mia_records
        print(
            f"[repro] in-loop membership audit: {len(records)} audits over "
            f"rounds {history.attacked_rounds}, mean AUC={history.mean_mia_auc:.4f} "
            f"(0.5 = indistinguishable)"
        )
    elif config.attack is not None:
        records = history.attack_records
        print(
            f"[repro] in-loop {config.attack} attack: {len(records)} attacks over "
            f"rounds {history.attacked_rounds}, mean reconstruction MSE="
            f"{history.mean_attack_mse:.4f}, success rate={history.attack_success_rate:.2f}"
        )
    if config.accountant == "heterogeneous":
        equal_shard = simulation.accountant.equal_shard_epsilon(config.delta)
        print(
            f"[repro] heterogeneous accounting: worst-case epsilon="
            f"{history.final_epsilon:.4f} vs equal-shard epsilon={equal_shard:.4f}"
        )
    if history.epsilon_by_lifetime is not None:
        split = history.epsilon_by_lifetime
        print(
            f"[repro] churn lifetime split (median {split['median_lifetime_rounds']:.1f} "
            f"rounds): short-lived worst epsilon="
            f"{split['short_lived_worst_epsilon']:.4f} "
            f"({split['short_lived_clients']} clients) vs long-lived="
            f"{split['long_lived_worst_epsilon']:.4f} "
            f"({split['long_lived_clients']} clients)"
        )
    if args.output:
        payload = history.to_dict()
        payload["wall_clock_seconds"] = elapsed
        payload["profile"] = profile
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"[repro] wrote history to {args.output}")
    return 0


# ----------------------------------------------------------------------
# tables / figures
# ----------------------------------------------------------------------
def _table_runners() -> Dict[str, Callable[[str, int], object]]:
    from repro.experiments import tables

    return {
        "1": lambda profile, seed: tables.run_table1(profile=profile, seed=seed),
        "2": lambda profile, seed: tables.run_table2(profile=profile, seed=seed),
        "3": lambda profile, seed: tables.run_table3(profile=profile, seed=seed),
        "4": lambda profile, seed: tables.run_table4(profile=profile, seed=seed),
        "5": lambda profile, seed: tables.run_table5(profile=profile, seed=seed),
        "6": lambda profile, seed: tables.run_table6(),
        "7": lambda profile, seed: tables.run_table7(profile="quick", seed=seed),
    }


def _figure_runners() -> Dict[str, Callable[[str, int], object]]:
    from repro.experiments import figures

    return {
        "1": lambda profile, seed: figures.run_figure1(seed=seed),
        "3": lambda profile, seed: figures.run_figure3(profile=profile, seed=seed),
        "4": lambda profile, seed: figures.run_figure4(seed=seed),
        "5": lambda profile, seed: figures.run_figure5(profile="quick", seed=seed),
    }


def _run_artifacts(
    kind: str,
    runners: Dict[str, Callable[[str, int], object]],
    names: Sequence[str],
    profile: str,
    seed: int,
    output: Optional[str],
) -> int:
    requested = list(names) if names else sorted(runners)
    unknown = [name for name in requested if name not in runners]
    if unknown:
        raise SystemExit(f"unknown {kind}: {unknown}; available: {sorted(runners)}")
    sections: List[str] = []
    for name in requested:
        started = time.perf_counter()
        result = runners[name](profile, seed)
        rendered = result.formatted()
        print(rendered)
        print(f"[repro] {kind[:-1]} {name} finished in {time.perf_counter() - started:.1f}s\n")
        sections.append(rendered)
    if output:
        with open(output, "w") as handle:
            handle.write("\n".join(sections))
        print(f"[repro] wrote {len(sections)} {kind} to {output}")
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.experiments.scenarios import run_scenario_matrix

    started = time.perf_counter()
    try:
        result = run_scenario_matrix(
            methods=tuple(args.methods),
            partitions=args.partitions or None,
            availabilities=args.availabilities or None,
            transports=args.transports or None,
            dataset=args.dataset,
            profile=args.table_profile,
            seed=args.seed,
            verbose=args.verbose,
            attack=args.attack,
        )
    except ValueError as error:
        raise SystemExit(str(error))
    rendered = result.formatted()
    print(rendered)
    print(f"[repro] scenario matrix ({len(result.cells)} cells) finished in "
          f"{time.perf_counter() - started:.1f}s")
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered)
        print(f"[repro] wrote scenario table to {args.output}")
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    return _run_artifacts("tables", _table_runners(), args.names, args.table_profile, args.seed, args.output)


def _cmd_figures(args: argparse.Namespace) -> int:
    return _run_artifacts("figures", _figure_runners(), args.names, args.table_profile, args.seed, args.output)


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Config-driven runner for the Fed-CDP reproduction.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="run one federated experiment")
    run.add_argument("--config", help="YAML/JSON file of FederatedConfig overrides (+ optional 'profile')")
    run.add_argument("--profile", choices=sorted(SCALE_PROFILES), help="scale profile (default: quick)")
    _add_config_flags(run)
    run.add_argument(
        "--history-spool",
        help="stream per-round history to this JSONL file instead of holding every "
        "round in RAM (bounded-memory long horizons)",
    )
    run.add_argument(
        "--history-tail",
        type=int,
        default=64,
        help="rounds kept in RAM when --history-spool is set (default 64)",
    )
    run.add_argument("--checkpoint", help="round-level JSON checkpoint path")
    run.add_argument(
        "--checkpoint-every", type=int, default=1, help="write the checkpoint every N rounds (default 1)"
    )
    run.add_argument("--resume", action="store_true", help="resume from --checkpoint if it exists")
    run.add_argument("--output", help="write the run history as JSON to this path")
    run.add_argument("--verbose", action="store_true", help="print per-round progress")
    run.set_defaults(handler=_cmd_run)

    scenarios = subparsers.add_parser(
        "scenarios",
        help="sweep the (partition x availability x transport x method) scenario matrix",
    )
    scenarios.add_argument(
        "--methods", nargs="+", default=["nonprivate", "fed_cdp"], choices=METHODS,
        help="training methods to sweep (default: nonprivate fed_cdp)",
    )
    scenarios.add_argument(
        "--partitions", nargs="*", default=None,
        help="partition scenario names (default: all; see repro.experiments.scenarios)",
    )
    scenarios.add_argument(
        "--availabilities", nargs="*", default=None,
        help="availability scenario names (default: all)",
    )
    scenarios.add_argument(
        "--transports", nargs="*", default=None,
        help="transport scenario names (default: plain only; see "
        "repro.experiments.scenarios.TRANSPORT_SCENARIOS)",
    )
    scenarios.add_argument(
        "--attack",
        choices=ATTACK_KINDS,
        help="fill the attack-resilience columns by running the in-loop adversary "
        "in every cell",
    )
    scenarios.add_argument("--dataset", default="mnist", help="benchmark dataset (default: mnist)")
    scenarios.add_argument(
        "--profile", dest="table_profile", choices=sorted(SCALE_PROFILES), default="quick",
        help="scale profile for every cell (default: quick)",
    )
    scenarios.add_argument("--seed", type=int, default=0)
    scenarios.add_argument("--output", help="write the comparison table to this path")
    scenarios.add_argument("--verbose", action="store_true", help="print per-cell progress")
    scenarios.set_defaults(handler=_cmd_scenarios)

    for kind, handler in (("tables", _cmd_tables), ("figures", _cmd_figures)):
        sub = subparsers.add_parser(kind, help=f"regenerate the paper's {kind}")
        sub.add_argument("names", nargs="*", help=f"{kind} to run (default: all)")
        sub.add_argument(
            "--profile",
            dest="table_profile",
            choices=sorted(SCALE_PROFILES),
            default="bench",
            help="scale profile for training-based runners (default: bench)",
        )
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--output", help="write the plain-text renderings to this path")
        sub.set_defaults(handler=handler)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:  # e.g. `python -m repro tables | head`
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
