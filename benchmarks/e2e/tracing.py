"""Outside-in layer tracer for the end-to-end round benchmark.

Each layer of a federated round is timed by wrapping its public call with a
span recorder from this file; nothing under ``src/`` knows it is traced.  A
span records its name, start and end (``time.perf_counter``), the span that
was open when it started and the round it belongs to.  Spans stay in memory
until the run ends.

The wrappers draw no randomness and return what the wrapped call returned,
so a traced run follows the untraced trajectory exactly.  While the tracer
is inactive a wrapper is one extra Python call and a flag test.  Only the
serial executor is wrapped: no workload runs the process pool.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np


@dataclass
class Span:
    """One timed call into a layer."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    round: Optional[int]
    #: work counted at the same boundary (examples, draws, clipped blocks...)
    counts: Optional[Dict[str, float]] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around patched layer calls while :attr:`active` is set."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.active = False
        self.round: Optional[int] = None
        self._stack: List[int] = []
        self._next_id = 0
        self._patches: list = []

    # ------------------------------------------------------------------
    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """``fn`` timed as a ``name`` span; ``count(args, result)`` adds counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_id = tracer._new_id()
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
            counts = count(args, result) if count is not None else None
            tracer.spans.append(
                Span(span_id, name, start, end, parent, tracer.round, counts)
            )
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by its traced wrapper."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def round_span(self, round_index: int):
        """Trace one ``run()`` call as the ``round`` span all layers nest under."""
        span_id = self._new_id()
        self.active, self.round = True, round_index
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.active, self.round = False, None
        self.spans.append(Span(span_id, "round", start, end, None, round_index))

    # ------------------------------------------------------------------
    def install(self, simulation) -> None:
        """Wrap every layer the simulation's rounds call into."""
        from repro.core import fed_cdp
        from repro.core.base import LocalTrainerBase
        from repro.data.population import LazyClientPopulation
        from repro.federated import executor, server
        from repro.federated.availability import AvailabilityModel
        from repro.federated.history import RoundSpool
        from repro.federated.simulation import FederatedSimulation
        from repro.privacy.mechanisms import GaussianMechanism

        self.patch(server.FederatedServer, "select_clients", "select",
                   lambda args, result: {"selected": len(result)})
        self.patch(AvailabilityModel, "draw", "availability",
                   lambda args, draw: {"selected": len(args[1]),
                                       "participating": len(draw.participating)})
        self.patch(executor.SerialClientExecutor, "run_clients", "executor")
        self.patch(LazyClientPopulation, "__getitem__", "population",
                   lambda args, result: {"shards": 1})
        self.patch(LocalTrainerBase, "train_client", "local_train")
        self.patch(LocalTrainerBase, "compute_per_example_gradient_stack", "per_example",
                   lambda args, result: {"examples": len(args[1])})
        self.patch(fed_cdp, "clip_per_example_stack", "clip", _clip_counts)
        self.patch(GaussianMechanism, "add_noise_to_stack", "noise", _noise_counts)
        self.patch(server, "fedsgd_aggregate", "aggregate")
        accountant = type(simulation.accountant)
        self.patch(accountant, "charge_round", "account")
        self.patch(accountant, "get_epsilon", "account")
        self.patch(FederatedSimulation, "evaluate", "evaluate")
        self.patch(RoundSpool, "append", "persist")
        if simulation.attack_schedule is not None:
            from repro.attacks.schedule import AttackSchedule

            self.patch(AttackSchedule, "run_round_attacks", "attack", _attack_counts)


def _attack_counts(args, result) -> Dict[str, float]:
    records, _ = result
    return {
        "targets": len(records),
        "successes": sum(bool(r.success) for r in records),
        "iterations": sum(int(r.iterations) for r in records),
    }


def _clip_counts(args, result) -> Dict[str, float]:
    bound = args[1]
    _, layer_norms = result
    return {
        "blocks": sum(int(n.size) for n in layer_norms),
        "clipped": sum(int(np.count_nonzero(n > bound)) for n in layer_norms),
    }


def _noise_counts(args, result) -> Dict[str, float]:
    return {"draws": sum(int(a.size) for a in result) if args[0].stddev > 0 else 0}


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _covered(span: Span, children: Sequence[Span]) -> float:
    """Seconds of ``span`` covered by the union of its children's intervals."""
    covered, reach = 0.0, span.start
    for child in sorted(children, key=lambda c: c.start):
        start, end = max(child.start, reach), min(child.end, span.end)
        if end > start:
            covered += end - start
            reach = end
    return covered


def layer_metrics(spans: Sequence[Span], overhead_frac: float, spool_bytes_per_round: float) -> Dict[str, float]:
    """Per-layer metrics over the traced rounds (see README.md for each definition)."""
    rounds = [s for s in spans if s.name == "round"]
    if not rounds:
        raise ValueError("no traced round")
    count = len(rounds)
    round_ids = {s.id for s in rounds}
    round_seconds = sum(s.seconds for s in rounds)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            children[span.parent].append(span)

    def seconds(name):
        return sum(s.seconds for s in by_name[name])

    def self_seconds(name):
        return sum(s.seconds - _covered(s, children[s.id]) for s in by_name[name])

    def total(name, key):
        return sum(s.counts[key] for s in by_name[name])

    def per_round_ms(value):
        return 1000.0 * value / count

    def ratio(numerator, denominator, empty):
        return numerator / denominator if denominator else empty

    top_seconds = sum(s.seconds for s in spans if s.parent in round_ids)
    attack_targets = total("attack", "targets")
    return {
        "round.ms_per_round": per_round_ms(round_seconds),
        "round.coverage": top_seconds / round_seconds,
        "round.unattributed_ms": per_round_ms(round_seconds - top_seconds),
        "select.ms_per_round": per_round_ms(seconds("select")),
        "availability.share": seconds("availability") / round_seconds,
        # no availability draw means every selected client participated
        "availability.participation_ratio": ratio(
            total("availability", "participating"), total("availability", "selected"), 1.0
        ),
        "population.share": seconds("population") / round_seconds,
        "population.shards_per_round": total("population", "shards") / count,
        "executor.ms_per_round": per_round_ms(seconds("executor")),
        "executor.self_ms_per_round": per_round_ms(self_seconds("executor")),
        "local_train.ms_per_round": per_round_ms(seconds("local_train")),
        "local_train.self_ms_per_round": per_round_ms(self_seconds("local_train")),
        "per_example.ms_per_round": per_round_ms(seconds("per_example")),
        "per_example.us_per_example": ratio(
            1e6 * seconds("per_example"), total("per_example", "examples"), 0.0
        ),
        "clip.ms_per_round": per_round_ms(seconds("clip")),
        "clip.clipped_frac": ratio(total("clip", "clipped"), total("clip", "blocks"), 0.0),
        "noise.ms_per_round": per_round_ms(seconds("noise")),
        "noise.mdraws_per_s": ratio(total("noise", "draws") / 1e6, seconds("noise"), 0.0),
        "aggregate.ms_per_round": per_round_ms(seconds("aggregate")),
        "account.ms_per_round": per_round_ms(seconds("account")),
        "evaluate.ms_per_round": per_round_ms(seconds("evaluate")),
        "attack.share": seconds("attack") / round_seconds,
        "attack.success_frac": ratio(total("attack", "successes"), attack_targets, 0.0),
        "attack.iterations_per_target": ratio(total("attack", "iterations"), attack_targets, 0.0),
        "persist.share": seconds("persist") / round_seconds,
        "persist.bytes_per_round": spool_bytes_per_round,
        "trace.overhead_frac": overhead_frac,
    }


def write_chrome_trace(spans: Sequence[Span], path: str, workload: str) -> None:
    """Write spans as Chrome trace-event JSON (chrome://tracing, Perfetto)."""
    origin = min(s.start for s in spans)
    pid = os.getpid()
    events = [
        {
            "name": s.name,
            "cat": workload,
            "ph": "X",
            "ts": (s.start - origin) * 1e6,
            "dur": s.seconds * 1e6,
            "pid": pid,
            "tid": pid,
            "args": {"id": s.id, "parent": s.parent, "round": s.round, **(s.counts or {})},
        }
        for s in spans
    ]
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
