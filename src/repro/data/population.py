"""On-demand client-state construction for every client population.

:class:`LazyClientPopulation` derives any client's index set on demand, so a
round that samples a ``q = 1%`` Poisson cohort only ever pays for the cohort,
at the paper's ``K = 50..100`` and at cross-device scales (100k–1M clients)
alike.  It is the only way a run builds client shards:

* ``"shards"`` — one ``partition_seed`` is drawn from the main RNG (the
  strategy's *only* main-RNG consumption); client ``k``'s indices then come
  from a :class:`~repro.data.partition.ClassShardPlan` keyed on
  ``(partition_seed, k)`` through :mod:`repro.rng` domains.  Per-client state
  is never stored: memory is O(num_examples), independent of ``K``.
* ``"iid"`` / ``"dirichlet"`` / ``"quantity_skew"`` — the disjoint strategies
  split the *whole* dataset, so the index partition is computed once at
  construction with the ``*_partition_indices`` cores and only the index
  arrays (O(num_examples) total, not O(K · shard)) are kept; feature/label
  arrays are sliced per access.
* full-copy datasets (Cancer) — every client views the whole dataset; no
  main-RNG consumption, O(1) state.

See ``docs/cross_device_scale.md`` for the memory envelope and the simulation
wiring (:class:`repro.federated.client.LazyClientRoster`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .dataset import Dataset
from .partition import (
    PARTITION_STRATEGIES,
    ClassShardPlan,
    dirichlet_partition_indices,
    draw_partition_seed,
    iid_partition_indices,
    quantity_skew_partition_indices,
)
from .registry import DatasetSpec

__all__ = ["LazyClientPopulation"]


class LazyClientPopulation(Sequence):
    """A client population whose shards are constructed on demand.

    Behaves as a read-only sequence of :class:`~repro.data.dataset.Dataset`
    shards: ``population[k]`` builds client ``k``'s shard when asked and
    ``len(population)`` is the population size ``K``.  Construction draws
    from ``rng`` exactly once per strategy as described in the module
    docstring, so the same main-RNG state always yields the same shards.
    """

    def __init__(
        self,
        dataset: Dataset,
        spec: DatasetSpec,
        num_clients: int,
        rng: np.random.Generator,
        data_per_client: Optional[int] = None,
        strategy: str = "shards",
        dirichlet_alpha: float = 0.5,
        quantity_skew_exponent: float = 1.5,
    ) -> None:
        if strategy not in PARTITION_STRATEGIES:
            raise ValueError(
                f"unknown partition strategy {strategy!r}; expected one of {PARTITION_STRATEGIES}"
            )
        if num_clients <= 0:
            raise ValueError("num_clients must be positive")
        self.dataset = dataset
        self.num_clients = int(num_clients)
        self.strategy = strategy
        self._plan: Optional[ClassShardPlan] = None
        self._index_lists: Optional[List[np.ndarray]] = None
        self._full_copy = False

        if strategy == "iid":
            self._index_lists = iid_partition_indices(len(dataset), num_clients, rng=rng)
        elif strategy == "dirichlet":
            self._index_lists = dirichlet_partition_indices(
                dataset.labels, num_clients, dirichlet_alpha, rng=rng
            )
        elif strategy == "quantity_skew":
            self._index_lists = quantity_skew_partition_indices(
                len(dataset), num_clients, quantity_skew_exponent, rng=rng
            )
        elif spec.full_copy_per_client:
            self._full_copy = True
        else:
            volume = data_per_client if data_per_client is not None else spec.data_per_client
            self._plan = ClassShardPlan.from_dataset(
                dataset, volume, spec.classes_per_client, draw_partition_seed(rng)
            )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.num_clients

    def _check_client(self, client_id: int) -> int:
        client_id = int(client_id)
        if client_id < 0:
            client_id += self.num_clients
        if not 0 <= client_id < self.num_clients:
            raise IndexError(
                f"client id out of range for a population of {self.num_clients}"
            )
        return client_id

    def indices_for(self, client_id: int) -> np.ndarray:
        """Example indices of client ``client_id``'s shard (derived on demand)."""
        client_id = self._check_client(client_id)
        if self._full_copy:
            return np.arange(len(self.dataset), dtype=np.int64)
        if self._plan is not None:
            return self._plan.indices_for(client_id)
        return self._index_lists[client_id]

    def __getitem__(self, client_id):
        if isinstance(client_id, slice):
            return [self[k] for k in range(*client_id.indices(self.num_clients))]
        return self.dataset.subset(self.indices_for(client_id))

    # ------------------------------------------------------------------
    def shard_sizes(self) -> np.ndarray:
        """Per-client shard sizes ``n_k`` as a read-only int64 array, without
        materialising any shard.

        Equal-shard populations (``shards`` plans and full copies) return a
        zero-stride broadcast view: O(1) memory and time whatever ``K`` is.
        """
        if self._index_lists is not None:
            sizes = np.fromiter(
                map(len, self._index_lists), dtype=np.int64, count=self.num_clients
            )
            sizes.flags.writeable = False
            return sizes
        size = len(self.dataset) if self._full_copy else self._plan.data_per_client
        return np.broadcast_to(np.int64(size), (self.num_clients,))
