"""Micro-benchmark: looped vs. batched-graph per-example gradients.

Times the two per-example gradient engines of :mod:`repro.nn.perexample`
against each other across batch sizes and both of the paper's model families:

* ``looped``  — :func:`per_example_gradients_looped`, one forward/backward per
  example (the seed implementation of the Fed-CDP hot path, kept as ground
  truth);
* ``batched`` — :func:`per_example_gradients_batched`, the batched-graph
  replay that is the engine for dense *and* conv models.

The trajectory is written to ``BENCH_perexample.json``.  The CNN operating
point is the quick-profile scale the simulation actually trains at in the
regression suites (small images, two conv blocks); at larger image sizes the
per-example dense weight-gradient stack is memory-bound for every engine and
the ratios compress toward the bandwidth limit.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_perexample.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_perexample.py --quick    # CI smoke

This is a standalone script (not a pytest module) so it can run without the
benchmark plugin and emit machine-readable output for trend tracking.  Like
the end-to-end benchmark it pins glibc's malloc thresholds first
(``pin_allocator`` in ``benchmarks/e2e/run.py``), so whether a replay's large
temporaries are page-faulted afresh does not depend on what ran before.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from typing import Callable, Dict, List

import numpy as np

from repro.nn import build_image_cnn, build_tabular_mlp
from repro.nn.perexample import per_example_gradients_batched, per_example_gradients_looped

# imported after numpy, so that its single-BLAS-thread environment pin
# (meant for the end-to-end runs) does not reach this process's BLAS
from e2e.run import pin_allocator

ENGINES = {
    "looped": per_example_gradients_looped,
    "batched": per_example_gradients_batched,
}


def _time(fn: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall-clock seconds for one call of ``fn``."""
    fn()  # warm up caches (im2col indices, batched traces, numpy buffers)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _bench_model(
    name: str,
    model,
    make_batch: Callable[[int, np.random.Generator], tuple],
    batch_sizes: List[int],
    repeats: int,
) -> List[Dict[str, float]]:
    rng = np.random.default_rng(0)
    rows: List[Dict[str, float]] = []
    for batch in batch_sizes:
        features, labels = make_batch(batch, rng)
        row: Dict[str, float] = {"model": name, "batch_size": batch}
        for engine, fn in ENGINES.items():
            row[f"{engine}_ms"] = _time(lambda: fn(model, features, labels), repeats) * 1e3
        row["batched_speedup"] = (
            row["looped_ms"] / row["batched_ms"] if row["batched_ms"] > 0 else float("inf")
        )
        # legacy alias read by older trend tooling: the engine's speedup
        row["speedup"] = row["batched_speedup"]
        rows.append(row)
        print(
            f"{name:>4} B={batch:<4d} looped {row['looped_ms']:9.2f} ms   "
            f"batched {row['batched_ms']:8.2f} ms ({row['batched_speedup']:5.1f}x)"
        )
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small sweep for CI smoke runs")
    parser.add_argument(
        "--output", default="BENCH_perexample.json", help="where to write the JSON trajectory"
    )
    args = parser.parse_args()
    pin_allocator()

    if args.quick:
        batch_sizes, repeats = [8, 32], 2
        mlp = build_tabular_mlp(32, 10, hidden_sizes=(32, 16), seed=0)
        cnn = build_image_cnn((1, 8, 8), 4, conv_channels=(4, 8), seed=0)
        cnn_shape = (1, 8, 8)
    else:
        batch_sizes, repeats = [8, 32, 128], 5
        mlp = build_tabular_mlp(64, 10, hidden_sizes=(64, 32), seed=0)
        cnn = build_image_cnn((1, 10, 10), 10, conv_channels=(4, 8), seed=0)
        cnn_shape = (1, 10, 10)

    def mlp_batch(batch, rng):
        num_features = mlp.layers[0].in_features
        return (
            rng.normal(size=(batch, num_features)),
            rng.integers(0, mlp.layers[-1].out_features, size=batch),
        )

    def cnn_batch(batch, rng):
        return (
            rng.normal(size=(batch,) + cnn_shape),
            rng.integers(0, cnn.layers[-1].out_features, size=batch),
        )

    results = _bench_model("mlp", mlp, mlp_batch, batch_sizes, repeats)
    results += _bench_model("cnn", cnn, cnn_batch, batch_sizes, repeats)

    payload = {
        "benchmark": "per_example_gradients",
        "quick": bool(args.quick),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "engines": sorted(ENGINES),
        "results": results,
    }
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")

    # The engines exist to beat the loop; fail loudly if they regress.
    mlp_32 = [r for r in results if r["model"] == "mlp" and r["batch_size"] >= 32]
    floor = min(r["batched_speedup"] for r in mlp_32)
    if floor < 5.0:
        raise SystemExit(f"batched MLP speedup regressed below 5x at B>=32 (got {floor:.1f}x)")
    cnn_128 = [r for r in results if r["model"] == "cnn" and r["batch_size"] >= 128]
    if cnn_128:
        floor = min(r["batched_speedup"] for r in cnn_128)
        if floor < 5.0:
            raise SystemExit(
                f"batched CNN speedup regressed below 5x at B=128 (got {floor:.1f}x)"
            )


if __name__ == "__main__":
    main()
