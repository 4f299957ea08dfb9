"""The four seeded workloads of the end-to-end round benchmark.

Every ``FederatedConfig`` field that affects cost is fixed here; a run varies
only ``config.seed``.  Each workload stresses a different layer of a
federated round, so a change to one layer has one workload that exercises it
and at least one that bypasses it (see README.md for the full map).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: ``config.rounds`` for workloads whose cost does not depend on the horizon.
#: It is never reached, so the simulation's forced final evaluation (which
#: fires at round ``config.rounds - 1``) never lands inside a timed round.
OPEN_HORIZON = 100_000

#: shared DP and optimiser settings: the repository's scaled-down training
#: values (``repro.experiments.harness``), spelled out so that a later change
#: to the harness profiles cannot silently change a workload
_TRAINING = dict(learning_rate=0.02, clipping_bound=2.0, noise_scale=0.5, delta=1e-5)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a fixed config plus what the run checks."""

    name: str
    why: str
    #: ``FederatedConfig`` keyword arguments (everything but ``seed``)
    fields: dict
    #: rounds (warm-up round 0 included) after which the trajectory digest
    #: is taken and, for seed 0, compared with ``reference.json``
    check_rounds: int
    #: rounds in RAM when the history is streamed to a JSONL spool
    #: (``None`` keeps the whole history in RAM)
    spool_tail: Optional[int] = None
    #: every round must carry exactly this many ``AttackRecord``s
    attacks_per_round: int = 0

    def config(self, seed: int):
        from repro.federated.config import FederatedConfig

        return FederatedConfig(seed=int(seed), **self.fields)


WORKLOADS = (
    Workload(
        name="cdp-cnn",
        why=(
            "the paper's image cell: per-example replay, clipping and noise of a CNN "
            "take over 90% of the round (FLOP- and bandwidth-bound local DP-SGD)"
        ),
        fields=dict(
            dataset="mnist",
            method="fed_cdp",
            model_scale=0.5,
            num_clients=100,
            participation_fraction=0.05,
            batch_size=16,
            local_iterations=2,
            data_per_client=32,
            num_train_examples=3200,
            num_val_examples=500,
            executor="serial",
            accountant="moments",
            eval_every=20,
            rounds=OPEN_HORIZON,
            **_TRAINING,
        ),
        check_rounds=20,
    ),
    Workload(
        name="cdp-mlp",
        why=(
            "the same layer in the opposite regime: 250 tiny B=3 MLP steps per round, so "
            "per-call overhead dominates, and a clipping bound that decays every round"
        ),
        fields=dict(
            dataset="adult",
            method="fed_cdp_decay",
            model_scale=1.0,
            num_clients=100,
            participation_fraction=0.05,
            batch_size=3,
            local_iterations=50,
            data_per_client=300,
            num_train_examples=30000,
            num_val_examples=2000,
            executor="serial",
            accountant="moments",
            eval_every=20,
            # the decay schedule spans this horizon; runs stop one round short
            # of it, so the bound decays every round of every run
            rounds=400,
            decay_clipping=(3.0, 1.0),
            **_TRAINING,
        ),
        check_rounds=20,
    ),
    Workload(
        name="xdevice-1m",
        why=(
            "1M lazy clients with population dynamics: fixed per-round costs (sampling, "
            "availability, shards, accounting, spool) dominate; bypasses local training"
        ),
        fields=dict(
            dataset="adult",
            method="fed_cdp",
            model_scale=0.3,
            num_clients=1_000_000,
            participation_fraction=10.0 / 1_000_000,
            client_sampling="poisson",
            local_iterations=2,
            data_per_client=8,
            num_train_examples=2000,
            num_val_examples=80,
            dropout_rate=0.1,
            straggler_deadline=3.0,
            device_classes=(0.5, 1.0, 2.0),
            availability_cycle=0.5,
            availability_period=24,
            accountant="moments",
            eval_every=100,
            rounds=OPEN_HORIZON,
            **_TRAINING,
        ),
        check_rounds=100,
        spool_tail=8,
    ),
    Workload(
        name="attack-cnn",
        why=(
            "the batched-graph engine driving a leakage attack (create_graph, batched "
            "L-BFGS over 4 restarts) every round instead of training"
        ),
        fields=dict(
            dataset="mnist",
            method="fed_cdp",
            model_scale=0.5,
            num_clients=20,
            participation_fraction=0.05,
            batch_size=4,
            local_iterations=4,
            data_per_client=50,
            num_train_examples=1000,
            num_val_examples=200,
            attack="leakage",
            attack_seeds=4,
            attack_iterations=12,
            accountant="moments",
            eval_every=20,
            rounds=OPEN_HORIZON,
            **_TRAINING,
        ),
        check_rounds=20,
        attacks_per_round=1,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
