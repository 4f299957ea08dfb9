"""Cross-device scale benchmark: rounds/sec and peak RSS vs population size.

Runs the same short Poisson-sampled federated workload at ``K`` = 100, 10k
and 1M clients with a roughly constant ~10-client expected cohort
(``participation_fraction = 10 / K``), so the three cells differ *only* in
population size.  Since every client and its shard are derived on demand
(docs/cross_device_scale.md) per-round cost is O(cohort): rounds/sec should
stay in the same decade across four orders of magnitude of ``K``, and peak
RSS should stay laptop-sized even at a million clients.

Each cell runs in its own subprocess (the script re-invokes itself with
``--cell K``) so ``ru_maxrss`` — a process-wide high-water mark — measures
that cell alone rather than whatever ran before it.

The results are written to ``BENCH_scale.json``; the CI gate
(``benchmarks/check_regression.py``) enforces the committed 1M-cell floors
from ``benchmarks/thresholds.json``.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_scale.py            # full ladder
    PYTHONPATH=src python benchmarks/bench_scale.py --quick    # fewer rounds

This is a standalone script (not a pytest module) so it can run without the
benchmark plugin and emit machine-readable output for trend tracking.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time

POPULATIONS = (100, 10_000, 1_000_000)


def run_cell(num_clients: int, rounds: int, seed: int) -> dict:
    """One benchmark cell: a short lazy-mode run at the given population size."""
    from repro.experiments.harness import quick_config
    from repro.federated.simulation import FederatedSimulation

    config = quick_config(
        "adult",
        "nonprivate",
        num_clients=num_clients,
        # constant expected cohort: the cells differ only in population size
        participation_fraction=min(1.0, 10.0 / num_clients),
        client_sampling="poisson",
        rounds=rounds,
        eval_every=rounds,
        seed=seed,
        local_iterations=2,
        data_per_client=8,
    )
    with tempfile.TemporaryDirectory() as tmp:
        spool = os.path.join(tmp, "rounds.jsonl")
        started = time.perf_counter()
        with FederatedSimulation(config, history_spool=spool, history_tail=8) as simulation:
            history = simulation.run()
        elapsed = time.perf_counter() - started
        cohorts = [len(r.selected_clients) for r in history.rounds]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "num_clients": num_clients,
        "rounds": rounds,
        "elapsed_sec": elapsed,
        "rounds_per_sec": rounds / elapsed,
        "peak_rss_mb": peak_rss_mb,
        "mean_cohort": sum(cohorts) / len(cohorts) if cohorts else 0.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="fewer rounds per cell (CI smoke)")
    parser.add_argument("--rounds", type=int, default=None, help="rounds per cell (overrides --quick)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default="BENCH_scale.json")
    parser.add_argument(
        "--cell", type=int, default=None, help=argparse.SUPPRESS
    )  # internal: run one cell and print its JSON row
    args = parser.parse_args()
    rounds = args.rounds if args.rounds is not None else (3 if args.quick else 10)

    if args.cell is not None:
        json.dump(run_cell(args.cell, rounds, args.seed), sys.stdout)
        return 0

    results = []
    for num_clients in POPULATIONS:
        command = [
            sys.executable, os.path.abspath(__file__),
            "--cell", str(num_clients), "--rounds", str(rounds), "--seed", str(args.seed),
        ]
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
        proc = subprocess.run(command, capture_output=True, text=True, env=env)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            raise SystemExit(f"cell K={num_clients} failed with exit code {proc.returncode}")
        row = json.loads(proc.stdout)
        results.append(row)
        print(
            f"[bench_scale] K={num_clients:>9,}: {row['rounds_per_sec']:.2f} rounds/sec, "
            f"peak RSS {row['peak_rss_mb']:.0f} MB, mean cohort {row['mean_cohort']:.1f}"
        )

    payload = {
        "benchmark": "cross_device_scale",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rounds_per_cell": rounds,
        "seed": args.seed,
        "results": results,
    }
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"[bench_scale] wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
