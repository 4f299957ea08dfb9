"""Per-op profile of the batched-graph replays one benchmark round runs.

Builds one workload of the end-to-end benchmark (``benchmarks/e2e``), runs
its warm-up round while recording every :class:`BatchedGraph` it replays
(with the feeds of its first replay), and then re-runs each recorded graph's
steps under a timer per step, ``--repeats`` times.  For each graph it prints
the number of op steps and a table of milliseconds per replay by op name
(the ``BATCH_RULES`` entry the step runs; the median over the repeats),
largest first::

    PYTHONPATH=src python3 benchmarks/profile_replay.py --workload attack-cnn

The step loop mirrors ``BatchedGraph._replay_pass`` (one pass at the
recorded feed width, no chunking) with a ``perf_counter`` read around each
rule call; ``replay() best`` is the fastest untimed ``replay()`` of the
same feeds, for comparison.  BLAS runs on one thread and glibc's malloc
thresholds are pinned, as in the benchmark (``run.pin_allocator``), so the
profile sees the allocator state the benchmark's rounds see.
"""

from __future__ import annotations

import os

# pinned before numpy is imported, as in benchmarks/e2e/run.py
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

import numpy as np  # noqa: E402

from repro.autodiff import batched  # noqa: E402
from repro.autodiff.ops import BATCH_RULES  # noqa: E402
from repro.federated.simulation import FederatedSimulation  # noqa: E402
from run import pin_allocator  # noqa: E402
from workloads import BY_NAME  # noqa: E402


def record_graphs(workload: str, seed: int) -> list:
    """``(graph, feeds)`` of every distinct graph replayed in round 0."""
    recorded: dict = {}
    original = batched.BatchedGraph.replay

    def replay(graph, feeds, chunk=0):
        recorded.setdefault(id(graph), (graph, {k: np.array(v) for k, v in feeds.items()}))
        return original(graph, feeds, chunk)

    batched.BatchedGraph.replay = replay
    try:
        sim = FederatedSimulation(BY_NAME[workload].config(seed))
        sim.run(rounds=1)
        sim.close()
    finally:
        batched.BatchedGraph.replay = original
    return list(recorded.values())


def profile(graph, feeds, repeats: int) -> dict:
    """Median milliseconds per replay by op name, and the best whole replay."""
    names = {id(rule): name for name, rule in BATCH_RULES.items()}
    per_op: dict = defaultdict(lambda: [0.0] * repeats)
    flags = graph._batched_flags
    for repeat in range(repeats):
        values = [None] * len(graph._steps)
        for slot, step in enumerate(graph._steps):
            kind = step[0]
            if kind == batched._OP:
                _, rule, op_args, parent_slots, out_shape, dead = step
                inputs = tuple((values[s], flags[s]) for s in parent_slots)
                start = time.perf_counter()
                values[slot] = rule(op_args, inputs, out_shape)
                per_op[names[id(rule)]][repeat] += time.perf_counter() - start
                for s in dead:
                    values[s] = None
            elif kind == batched._BATCHED:
                values[slot] = np.asarray(feeds[step[1]], dtype=np.float64)
            elif kind == batched._PARAM:
                values[slot] = step[1].data
            else:
                values[slot] = step[1]
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        graph.replay(feeds, chunk=next(iter(feeds.values())).shape[0])
        best = min(best, time.perf_counter() - start)
    return {
        "per_op_ms": {name: 1e3 * statistics.median(t) for name, t in per_op.items()},
        "replay_ms_best": 1e3 * best,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="attack-cnn", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=50)
    args = parser.parse_args()
    pin_allocator()

    for graph, feeds in record_graphs(args.workload, args.seed):
        ops = sum(step[0] == batched._OP for step in graph._steps)
        shapes = ", ".join(f"{k} {v.shape}" for k, v in feeds.items())
        result = profile(graph, feeds, args.repeats)
        per_op = result["per_op_ms"]
        print(f"graph fed {shapes}: {ops} op steps, "
              f"timed steps {sum(per_op.values()):.3f} ms, "
              f"replay() best {result['replay_ms_best']:.3f} ms")
        for name, ms in sorted(per_op.items(), key=lambda item: -item[1]):
            count = sum(
                step[0] == batched._OP and step[1] is BATCH_RULES[name] for step in graph._steps
            )
            print(f"  {name:20s} {count:4d} steps {ms:8.3f} ms")


if __name__ == "__main__":
    main()
