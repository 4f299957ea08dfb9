"""Shared configuration and formatting helpers for the experiment runners.

The paper's evaluation runs up to ``K = 10,000`` clients for ``T = 100``
rounds of ``L = 100`` local iterations on a GPU.  The runners in
:mod:`repro.experiments.tables` and :mod:`repro.experiments.figures` reproduce
every table and figure at a laptop-friendly scale; this module centralises the
scaled-down defaults so all experiments stay consistent and EXPERIMENTS.md can
document the scaling in one place.

Two profiles are provided:

* ``quick``  — a few seconds per run; used by the examples and the test suite;
* ``bench``  — the profile used by the ``benchmarks/`` suite (tens of seconds
  per table), large enough for the paper's qualitative orderings to emerge.

The differential-privacy *accounting* experiments (Table VI) always use the
paper's exact parameters, since they do not require training.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.federated.config import FederatedConfig

__all__ = [
    "ScaleProfile",
    "SCALE_PROFILES",
    "PAPER_DP_DEFAULTS",
    "quick_config",
    "bench_config",
    "make_config",
    "format_table",
]


@dataclass(frozen=True)
class ScaleProfile:
    """Scaled-down experiment sizes used in place of the paper's full scale."""

    name: str
    num_clients: int
    participation_fraction: float
    rounds: int
    local_iterations: int
    num_train_examples: int
    num_val_examples: int
    data_per_client: int
    model_scale: float
    learning_rate: float
    #: scaled DP parameters for *training* runs (see EXPERIMENTS.md): with only
    #: a handful of clients and rounds there is far less averaging than in the
    #: paper's setup, so the same noise multiplier would drown learning for
    #: every private method; the clipping bound and noise scale are reduced
    #: together, keeping the Fed-SDP / Fed-CDP comparison fair.
    clipping_bound: float
    noise_scale: float


SCALE_PROFILES: Dict[str, ScaleProfile] = {
    "quick": ScaleProfile(
        name="quick",
        num_clients=6,
        participation_fraction=0.5,
        rounds=4,
        local_iterations=4,
        num_train_examples=240,
        num_val_examples=80,
        data_per_client=40,
        model_scale=0.3,
        learning_rate=0.02,
        clipping_bound=2.0,
        noise_scale=0.5,
    ),
    "bench": ScaleProfile(
        name="bench",
        num_clients=10,
        participation_fraction=0.5,
        rounds=15,
        local_iterations=8,
        num_train_examples=600,
        num_val_examples=150,
        data_per_client=60,
        model_scale=0.4,
        learning_rate=0.02,
        clipping_bound=2.0,
        noise_scale=0.5,
    ),
}


#: The paper's differential-privacy defaults (Section IV-C / Table VI).
PAPER_DP_DEFAULTS: Dict[str, float] = {
    "clipping_bound": 4.0,
    "noise_scale": 6.0,
    "delta": 1e-5,
    "sampling_rate": 0.01,
}


def make_config(
    dataset: Optional[str] = None,
    method: Optional[str] = None,
    profile: str = "bench",
    **overrides,
) -> FederatedConfig:
    """Build a :class:`FederatedConfig` from a scale profile plus overrides.

    ``dataset`` / ``method`` left ``None`` take the dataclass defaults.
    """
    if profile not in SCALE_PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of {sorted(SCALE_PROFILES)}")
    scale = SCALE_PROFILES[profile]
    base = dict(
        num_clients=scale.num_clients,
        participation_fraction=scale.participation_fraction,
        rounds=scale.rounds,
        local_iterations=scale.local_iterations,
        num_train_examples=scale.num_train_examples,
        num_val_examples=scale.num_val_examples,
        data_per_client=scale.data_per_client,
        model_scale=scale.model_scale,
        learning_rate=scale.learning_rate,
        clipping_bound=scale.clipping_bound,
        noise_scale=scale.noise_scale,
        decay_clipping=(scale.clipping_bound * 1.5, scale.clipping_bound * 0.5),
        eval_every=max(1, scale.rounds),
        seed=0,
    )
    base.update({name: value for name, value in (("dataset", dataset), ("method", method)) if value is not None})
    base.update(overrides)
    return FederatedConfig(**base)


def quick_config(dataset: str, method: str = "fed_cdp", **overrides) -> FederatedConfig:
    """A configuration that runs in a few seconds (examples and tests)."""
    return make_config(dataset, method, profile="quick", **overrides)


def bench_config(dataset: str, method: str = "fed_cdp", **overrides) -> FederatedConfig:
    """The configuration used by the benchmark suite."""
    return make_config(dataset, method, profile="bench", **overrides)


def format_table(
    rows: Sequence[Sequence],
    headers: Sequence[str],
    title: Optional[str] = None,
    float_format: str = "{:.4f}",
) -> str:
    """Render rows as a plain-text table (what the benchmark harness prints)."""
    rendered: List[List[str]] = []
    for row in rows:
        rendered.append(
            [float_format.format(cell) if isinstance(cell, float) else str(cell) for cell in row]
        )
    headers = [str(h) for h in headers]
    widths = [len(h) for h in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    out = io.StringIO()
    if title:
        out.write(title + "\n")
    out.write("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip() + "\n")
    out.write("  ".join("-" * w for w in widths) + "\n")
    for row in rendered:
        out.write("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n")
    return out.getvalue()
