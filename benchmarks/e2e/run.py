"""End-to-end round benchmark for the Fed-CDP federated simulation.

One run of one workload (the form the metric names in ``BENCHMARK.json`` are
reported in; the last stdout line is one JSON object)::

    python3 benchmarks/e2e/run.py --workload cdp-cnn --seed 0 --seconds 25 --trace 0

The suite: every workload, repetitions interleaved (W1 W2 W3 W4 W1 ...), then
one traced run per workload; prints each metric's median and quartiles and
writes them to ``--out`` for ``compare.py``::

    python3 benchmarks/e2e/run.py [--seed 0] [--repeats 3] [--trace 1] [--out FILE]

A run builds the workload's simulation through the public
``FederatedSimulation`` API, runs warm-up round 0, and then times one
``sim.run(rounds=r + 1)`` call per round for ``--seconds`` seconds and at
least 100 rounds; more simulations are then built only to time set-up
(``setup_s`` is the median).  ``--trace 1`` alternates untraced and traced
evaluation periods and reports per-layer metrics from the traced ones (see
tracing.py).  Every round is checked; a failed check makes the run
incorrect and the exit code non-zero.  See README.md.
"""

from __future__ import annotations

import os

# pinned before numpy is imported: a run is one busy thread
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: run scratch space (spools, suite reports); inside the checkout, git-ignored
SCRATCH = ROOT / ".bench_e2e"
REFERENCE = HERE / "reference.json"

#: timed rounds per run, at least: ``round_p90_ms`` then has ≥10 samples beyond it
MIN_TIMED_ROUNDS = 100
#: simulations built per untraced run (the first is the timed one);
#: ``setup_s`` is their median build time
SETUP_REPEATS = 9
#: seed-0 reference tolerances
EPSILON_RTOL = 1e-9
ACCURACY_ATOL = 0.02
#: glibc ``mallopt`` parameters and the ceiling its adaptive mmap threshold
#: rises to on 64-bit builds (DEFAULT_MMAP_THRESHOLD_MAX)
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD_MAX = 32 * 1024 * 1024


def pin_allocator() -> None:
    """Fix glibc's malloc thresholds where its adaptive rule converges.

    glibc raises the mmap threshold (and the trim threshold with it) each
    time a large mmapped block is freed, so whether a round's big
    temporaries are page-faulted afresh or reused from the heap depends on
    the process's allocation history: identical attack-cnn runs measured
    ~200 or ~320 ms per round depending only on what ran before.  Setting
    both thresholds turns the adaptation off; the values are the ones it
    converges to.  Other C libraries are left alone.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    if not (libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX)
            and libc.mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD_MAX)):
        raise RuntimeError("mallopt refused the pinned thresholds")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def quartiles(values):
    """(median, q1, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


# ----------------------------------------------------------------------
# One workload run
# ----------------------------------------------------------------------
def _strict_constant(token):
    raise ValueError(f"bare non-finite token {token!r}")


def round_problems(result, round_index: int, workload) -> list:
    """Why one recorded round is wrong (empty when it is fine)."""
    problems = []
    if result.round_index != round_index:
        problems.append(f"recorded as round {result.round_index}")
    accounted = (
        list(result.participating_clients)
        + list(result.dropped_clients)
        + list(result.straggler_clients)
        + list(result.offline_clients)
    )
    if sorted(map(int, result.selected_clients)) != sorted(map(int, accounted)):
        problems.append("selected != participating + dropped + stragglers + offline")
    if not result.skipped and not math.isfinite(result.mean_loss):
        problems.append(f"non-finite loss {result.mean_loss!r} in a round that was not skipped")
    if workload.attacks_per_round:
        if len(result.attacks) != workload.attacks_per_round:
            problems.append(f"{len(result.attacks)} attack records, expected {workload.attacks_per_round}")
        elif not all(math.isfinite(record.mse) for record in result.attacks):
            problems.append("non-finite attack MSE")
    return [f"round {round_index}: {problem}" for problem in problems]


def trajectory_digest(simulation) -> dict:
    """What the run computed: cohort sequence hash, epsilon and accuracy so far.

    The cohort hash depends only on the RNG stream, not on float summation
    order; the accuracy evaluation draws no randomness.
    """
    cohort = hashlib.sha256()
    for result in simulation.history.rounds:
        cohort.update(json.dumps([result.round_index, [int(c) for c in result.selected_clients]]).encode())
    rounds = simulation.completed_rounds
    return {
        "rounds": rounds,
        "cohort_sha256": cohort.hexdigest(),
        "epsilon": simulation.history.epsilon_by_round[rounds - 1],
        "accuracy": simulation.evaluate(),
    }


def reference_problems(workload, digest: dict) -> list:
    """Differences between a seed-0 digest and the pinned reference."""
    with open(REFERENCE) as handle:
        pinned = json.load(handle).get(workload.name)
    if pinned is None:
        return [f"no pinned reference for {workload.name} in {REFERENCE.name}"]
    problems = []
    if digest["rounds"] != pinned["rounds"]:
        problems.append(f"digest after {digest['rounds']} rounds, reference after {pinned['rounds']}")
    if digest["cohort_sha256"] != pinned["cohort_sha256"]:
        problems.append("selected-client sequence differs from the reference")
    if not math.isclose(digest["epsilon"], pinned["epsilon"], rel_tol=EPSILON_RTOL, abs_tol=0.0):
        problems.append(f"epsilon {digest['epsilon']!r} != reference {pinned['epsilon']!r}")
    if abs(digest["accuracy"] - pinned["accuracy"]) > ACCURACY_ATOL:
        problems.append(f"accuracy {digest['accuracy']!r} not within {ACCURACY_ATOL} of {pinned['accuracy']!r}")
    return [f"reference: {problem}" for problem in problems]


def spool_problems(path: Path, rounds: int) -> list:
    """The spool must hold one strict-JSON line per round."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    problems = [] if len(lines) == rounds else [f"spool has {len(lines)} lines for {rounds} rounds"]
    for number, line in enumerate(lines):
        try:
            json.loads(line, parse_constant=_strict_constant)
        except ValueError as exc:
            problems.append(f"spool line {number}: {exc}")
    return problems


def _close(simulation) -> None:
    simulation.close()
    closer = getattr(simulation.history.rounds, "close", None)
    if closer is not None:  # a RoundSpool
        closer()


def run_workload(
    workload, seed: int, seconds: float, trace: bool, quick: bool, trace_out=None, check_reference: bool = True
) -> dict:
    """Run one workload once and return its metrics, checks and digest."""
    from repro.federated.simulation import FederatedSimulation
    from tracing import Tracer, layer_metrics, write_chrome_trace

    config = workload.config(seed)
    # traced runs alternate untraced and traced blocks of one evaluation
    # period and end on a block boundary, so both kinds of block hold the
    # same share of evaluation rounds
    block = config.eval_every
    setup_repeats, min_rounds = (1, 3) if quick else (SETUP_REPEATS, MIN_TIMED_ROUNDS)
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=SCRATCH))
    spool = scratch / "rounds.jsonl"
    spool_kwargs = {}
    if workload.spool_tail is not None:
        spool_kwargs = {"history_spool": str(spool), "history_tail": workload.spool_tail}

    errors, attempted = [], 0
    setups, timed = [], []  # timed: (round index, wall seconds, traced, ms per iteration)
    tracer = Tracer() if trace else None
    simulation, digest, spool_bytes, peak_rss_mb = None, None, 0.0, 0.0

    def one_round(round_index: int) -> None:
        nonlocal attempted
        attempted += 1
        simulation.run(rounds=round_index + 1)
        errors.extend(round_problems(simulation.history.rounds[-1], round_index, workload))

    def set_up() -> None:
        nonlocal simulation
        if simulation is not None:
            _close(simulation)
        start = time.perf_counter()
        simulation = FederatedSimulation(config, **spool_kwargs)
        one_round(0)
        setups.append(time.perf_counter() - start)

    try:
        set_up()
        if tracer is not None:
            tracer.install(simulation)
        started = time.perf_counter()
        while not errors:
            index = simulation.completed_rounds
            if index == workload.check_rounds and digest is None:
                digest = trajectory_digest(simulation)
            finished = (
                time.perf_counter() - started >= seconds
                and len(timed) >= min_rounds
                and (quick or not trace or (index % block == 0 and index >= 2 * block))
            )
            if finished or index >= config.rounds - 1:
                break
            traced = trace and (quick or (index // block) % 2 == 1)
            start = time.perf_counter()
            if traced:
                with tracer.round_span(index):
                    one_round(index)
            else:
                one_round(index)
            wall = time.perf_counter() - start
            timed.append((index, wall, traced, simulation.history.rounds[-1].mean_time_per_iteration_ms))
        if digest is None:
            digest = trajectory_digest(simulation)
        if workload.spool_tail is not None:
            _close(simulation)
            errors.extend(spool_problems(spool, simulation.completed_rounds))
            spool_bytes = spool.stat().st_size / simulation.completed_rounds
        # the high-water mark of one simulation's life, read before the
        # extra set-ups that only time construction
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for _ in range(setup_repeats - 1 if not trace else 0):
            set_up()
    except Exception as exc:  # any raising round fails the run; report it, keep going
        traceback.print_exc()
        errors.append(f"round {simulation.completed_rounds if simulation else 0} raised {exc!r}")
    finally:
        if tracer is not None:
            tracer.uninstall()
        if simulation is not None:
            _close(simulation)
        shutil.rmtree(scratch, ignore_errors=True)

    if check_reference and digest is not None and seed == 0 and digest["rounds"] == workload.check_rounds:
        errors.extend(reference_problems(workload, digest))

    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "quick": quick,
        "correct": not errors,
        "attempted": attempted,
        "failed": attempted if errors else 0,
        "errors": errors,
        "digest": digest,
        "timed_rounds": sum(1 for *_, traced, _ in timed if not traced),
        "traced_rounds": sum(1 for *_, traced, _ in timed if traced),
    }
    if errors:
        return record
    plain = [wall for _, wall, traced, _ in timed if not traced]
    if trace:
        traced_walls = [wall for _, wall, traced, _ in timed if traced]
        overhead = 1.0 - statistics.median(plain) / statistics.median(traced_walls) if plain else 0.0
        record["layers"] = layer_metrics(tracer.spans, overhead, spool_bytes)
        if trace_out is not None:
            Path(trace_out).mkdir(parents=True, exist_ok=True)
            write_chrome_trace(tracer.spans, str(Path(trace_out) / f"{workload.name}.trace.json"), workload.name)
        return record
    iteration_ms = [ms for _, _, traced, ms in timed if not traced and ms > 0]
    record["metrics"] = {
        "setup_s": statistics.median(setups),
        "rounds_per_s": len(plain) / sum(plain),
        "round_p50_ms": 1000.0 * statistics.median(plain),
        "round_p90_ms": 1000.0 * statistics.quantiles(plain, n=10)[-1],
        "iter_ms": statistics.fmean(iteration_ms),
        "peak_rss_mb": peak_rss_mb,
    }
    return record


def run_single(args, spec: dict) -> int:
    from workloads import BY_NAME

    workload = BY_NAME[args.workload]
    trace = bool(args.trace)
    seconds = 0.0 if args.quick else args.seconds
    record = run_workload(
        workload, args.seed, seconds, trace, args.quick, args.trace_out, check_reference=not args.write_reference
    )
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(record, handle)
    digest = record["digest"] or {}
    print(
        f"[{workload.name}] seed={args.seed} trace={int(trace)} timed={record['timed_rounds']} "
        f"traced={record['traced_rounds']} epsilon={digest.get('epsilon')} "
        f"accuracy={digest.get('accuracy')} after {digest.get('rounds')} rounds"
    )
    for error in record["errors"]:
        print(f"[{workload.name}] FAILED {error}")
    metrics = {}
    if record["correct"]:
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        values = record["layers" if trace else "metrics"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"[{workload.name}] {name} = {metric['value']!r} {metric['unit']}")
    if record["correct"] and not trace:
        # reported with its sample count, not gated (see README.md)
        print(f"[{workload.name}] round_p90_ms = {record['metrics']['round_p90_ms']!r} ms "
              f"(n={record['timed_rounds']})")
    if args.write_reference:
        if args.seed != 0 or digest.get("rounds") != workload.check_rounds:
            print("--write-reference needs a full seed-0 run", file=sys.stderr)
            return 2
        pinned = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        pinned[workload.name] = digest
        REFERENCE.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if record["correct"] else 1


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------
def machine_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _child(workload: str, args, trace: int, report: Path) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--report", str(report),
    ]
    if args.quick:
        command.append("--quick")
    if trace and args.trace_out:
        command += ["--trace-out", args.trace_out]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if not report.exists():
        sys.stdout.write(proc.stdout)
        return {"workload": workload, "correct": False, "attempted": 1, "failed": 1,
                "errors": [f"exit code {proc.returncode}, no report"]}
    record = json.loads(report.read_text())
    report.unlink()
    return record


def run_suite(args, spec: dict) -> int:
    from workloads import WORKLOADS

    names = [w.name for w in WORKLOADS]
    repeats = 1 if args.quick else args.repeats
    SCRATCH.mkdir(exist_ok=True)
    report = SCRATCH / f"report-{os.getpid()}.json"
    runs = {name: [] for name in names}
    traced = {}
    for repeat in range(repeats):
        for name in names:
            record = _child(name, args, 0, report)
            runs[name].append(record)
            print(f"[suite] repeat {repeat + 1}/{repeats} {name}: "
                  f"{'ok' if record['correct'] else 'FAILED ' + '; '.join(record['errors'])}", flush=True)
    if args.trace:
        for name in names:
            traced[name] = _child(name, args, 1, report)
            print(f"[suite] traced {name}: {'ok' if traced[name]['correct'] else 'FAILED'}", flush=True)

    results = {
        "machine": machine_info(),
        "settings": {"seed": args.seed, "repeats": repeats, "seconds": args.seconds, "quick": args.quick},
        "workloads": {name: {"runs": runs[name], "traced": traced.get(name)} for name in names},
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")

    correct = True
    for name in names:
        records = runs[name] + ([traced[name]] if name in traced else [])
        correct &= all(r["correct"] for r in records)
        attempted = sum(r["attempted"] for r in records)
        failed = sum(r["failed"] for r in records)
        good = [r for r in runs[name] if r["correct"]]
        print(f"\n== {name}  (failed_frac {failed / attempted:.4g} fraction: {failed}/{attempted} rounds)")
        if good:
            digest = good[-1]["digest"]
            print(f"   final_epsilon {digest['epsilon']!r} eps, final_accuracy {digest['accuracy']!r} fraction "
                  f"after {digest['rounds']} rounds; timed rounds per run {[r['timed_rounds'] for r in good]}")
        # round_p90_ms is reported with the others but not gated (README.md)
        for key, unit in [(m["name"], m["unit"]) for m in spec["end_to_end"]] + [("round_p90_ms", "ms")]:
            values = [r["metrics"][key] for r in good]
            if values:
                median, q1, q3 = quartiles(values)
                print(f"   {key:<14} {median:>12.5g} {unit:<5} [q1 {q1:.5g}, q3 {q3:.5g}, n={len(values)}]")
        if traced.get(name, {}).get("correct"):
            print("   traced:")
            for metric in spec["per_layer"]:
                value = traced[name]["layers"][metric["name"]]
                print(f"     {metric['name']:<34} {value:>12.5g} {metric['unit']}")
    print(f"\nwrote {out}")
    return 0 if correct else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this one workload (default: the whole suite)")
    parser.add_argument("--seed", type=int, default=0, help="config.seed of every workload")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="timed seconds per run (at least 100 rounds are timed)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="per-layer trace (default: 0 for one workload, 1 = add a traced run to the suite)")
    parser.add_argument("--repeats", type=int, default=3, help="suite: untraced runs per workload")
    parser.add_argument("--quick", action="store_true", help="smoke test: 1 set-up, 3 timed rounds, 1 repeat")
    parser.add_argument("--trace-out", help="write each traced run's spans here as Chrome trace-event JSON")
    parser.add_argument("--out", default=str(SCRATCH / "results.json"), help="suite: results file")
    parser.add_argument("--write-reference", action="store_true",
                        help="pin this seed-0 run's digest in reference.json")
    parser.add_argument("--report", help=argparse.SUPPRESS)  # suite -> child: the full record
    args = parser.parse_args(argv)
    if args.trace is None:
        args.trace = 0 if args.workload else 1
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: the simulator's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    if args.workload:
        pin_allocator()
        return run_single(args, spec)
    return run_suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
