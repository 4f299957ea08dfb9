"""Client abstraction for the federated simulation.

A :class:`FederatedClient` owns a private data shard and delegates the actual
local computation to a local trainer from :mod:`repro.core`.  With the serial
execution backend every client shares the simulation's single trainer (the
broadcast global weights are reloaded before each use); the multiprocessing
backend gives each worker process its own trainer copy, which is equivalent
for the same reason.  The separation mirrors the paper's publish-subscribe
reference model: the client downloads the global weights, trains locally for
``L`` iterations, and shares only the resulting parameter update — each round
with its own :class:`numpy.random.SeedSequence`-derived RNG stream (see
:mod:`repro.federated.executor`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.dataset import Dataset

__all__ = ["FederatedClient", "LazyClientRoster"]


class FederatedClient:
    """One participant of the federated learning task."""

    def __init__(self, client_id: int, dataset: Dataset, trainer, drift=None) -> None:
        if len(dataset) == 0:
            raise ValueError(f"client {client_id} has an empty data shard")
        self.client_id = int(client_id)
        self.dataset = dataset
        self.trainer = trainer
        #: optional :class:`~repro.federated.availability.DriftModel`: when
        #: set, local training at round ``t`` sees the drifted shard while
        #: ``self.dataset`` keeps the true labels (the adversary's ground
        #: truth for attacks and membership audits)
        self.drift = drift

    @property
    def num_examples(self) -> int:
        """Size of the client's private shard (``N_i``)."""
        return len(self.dataset)

    def dataset_for_round(self, round_index: int) -> Dataset:
        """The shard local training sees at ``round_index`` (drift applied)."""
        if self.drift is None:
            return self.dataset
        return self.drift.apply(self.client_id, self.dataset, round_index)

    def local_update(
        self,
        global_weights: Sequence[np.ndarray],
        round_index: int,
        rng: np.random.Generator,
    ):
        """Run local training for one round on the client's own RNG stream."""
        return self.trainer.train_client(
            self.dataset_for_round(round_index), global_weights, round_index, rng
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FederatedClient(id={self.client_id}, examples={self.num_examples})"


class LazyClientRoster(Sequence):
    """On-demand :class:`FederatedClient` view over a lazy population.

    Cross-device simulations never materialise all ``K`` clients: this roster
    stands in for the eager client list and constructs a client (and its
    shard, via :class:`repro.data.population.LazyClientPopulation`) only when
    it is indexed — which the simulation does exactly for the round's sampled
    cohort.  Every access builds a fresh, identical object from the same
    deterministic derivation, so holding no cache costs only the cohort-sized
    per-round construction and keeps memory flat over any horizon.

    ``shard_transform`` — called as ``transform(client_id, shard)`` on every
    derived shard — lets byzantine data poisoning (label flipping) apply at
    construction time, exactly where the eager client list applies it, so
    lazy and eager byzantine runs stay bit-identical.
    """

    def __init__(self, population, trainer, shard_transform=None, drift=None) -> None:
        self.population = population
        self.trainer = trainer
        self.shard_transform = shard_transform
        self.drift = drift

    def __len__(self) -> int:
        return len(self.population)

    def __getitem__(self, index):
        index = int(index)
        if index < 0:
            index += len(self)
        shard = self.population[index]
        if self.shard_transform is not None:
            shard = self.shard_transform(index, shard)
        return FederatedClient(index, shard, self.trainer, drift=self.drift)
