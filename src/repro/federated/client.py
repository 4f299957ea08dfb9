"""Client abstraction for the federated simulation.

A :class:`FederatedClient` owns a private data shard and delegates the actual
local computation to a local trainer from :mod:`repro.core`.  Clients are
built on demand by a :class:`LazyClientRoster`.  In the simulation process
every client shares the simulation's single trainer (the broadcast global
weights are reloaded before each use); each multiprocessing worker builds
its own roster around its own trainer copy, which is equivalent for the same
reason.  The separation mirrors the paper's publish-subscribe
reference model: the client downloads the global weights, trains locally for
``L`` iterations, and shares only the resulting parameter update — each round
with its own :class:`numpy.random.SeedSequence`-derived RNG stream (see
:mod:`repro.federated.executor`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.data.population import LazyClientPopulation

from .availability import DriftModel
from .byzantine import ByzantineBehaviour

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
    """On-demand :class:`FederatedClient` view over a client population.

    Every run gets its clients from one roster, built by :meth:`from_config`
    in the simulation and in each multiprocessing worker alike.  A client
    (and its shard, via :class:`repro.data.population.LazyClientPopulation`)
    is constructed only when it is indexed — which the simulation does
    exactly for the round's sampled cohort.  Every access builds a fresh,
    identical object from the same deterministic derivation, so holding no
    cache costs only the cohort-sized per-round construction and keeps
    memory flat over any horizon.

    ``byzantine`` — a :class:`~repro.federated.byzantine.ByzantineBehaviour`
    — poisons the designated clients' shards (label flipping) as they are
    built; ``drift`` is handed to every client, which applies it per round.
    """

    def __init__(self, population, trainer, byzantine=None, drift=None) -> None:
        self.population = population
        self.trainer = trainer
        self.byzantine = byzantine
        self.drift = drift

    @classmethod
    def from_config(
        cls, config, train_dataset: Dataset, trainer, rng: np.random.Generator
    ) -> "LazyClientRoster":
        """The roster ``config`` declares over ``train_dataset``.

        The population must be the first consumer of ``rng``, a fresh
        ``default_rng(config.seed)``: the ``shards`` strategy draws its
        partition seed from it (the disjoint strategies their whole split),
        so every process that builds the roster this way derives the same
        shards.
        """
        population = LazyClientPopulation(
            train_dataset,
            config.spec,
            config.num_clients,
            rng=rng,
            data_per_client=config.effective_data_per_client,
            strategy=config.partition,
            dirichlet_alpha=config.dirichlet_alpha,
            quantity_skew_exponent=config.quantity_skew_exponent,
        )
        return cls(
            population,
            trainer,
            byzantine=ByzantineBehaviour.from_config(config),
            drift=DriftModel.from_config(config),
        )

    def __len__(self) -> int:
        return len(self.population)

    def __getitem__(self, index):
        index = int(index)
        if index < 0:
            index += len(self)
        shard = self.population[index]
        if self.byzantine is not None:
            shard = self.byzantine.transform_shard(index, shard)
        return FederatedClient(index, shard, self.trainer, drift=self.drift)
