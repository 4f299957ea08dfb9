"""Partitioning of a global dataset into per-client shards.

Section VII of the paper partitions every benchmark into class-skewed shards:
"We partition the 50,000 training data into shards.  Each client gets two
shards with 500 samples from two classes" (MNIST), 400 from two classes
(CIFAR-10), 300 from ~15 classes (LFW), 300 from two classes (Adult), and for
the tiny Cancer dataset "each client has a full copy of the dataset".
:class:`ClassShardPlan` reproduces that scheme for an arbitrary number of
clients over the synthetic datasets, deriving each client's shard from its id
alone; :class:`repro.data.population.LazyClientPopulation` builds every run's
shards from it.

Beyond the paper's fixed scheme, the scenario engine adds three heterogeneity
strategies (selected by ``FederatedConfig.partition``, see
``docs/scenarios.md``), whose index cores assign every example to exactly one
client (disjoint indices, full coverage, no client empty):

* ``"iid"`` — a uniform random equal split, the benign baseline;
* ``"dirichlet"`` — Dirichlet label skew: each class is divided across
  clients by proportions drawn from ``Dir(alpha)``.  Large ``alpha``
  approaches IID; small ``alpha`` concentrates each client on few classes
  (the standard non-IID benchmark protocol, e.g. Hsu et al. 2019);
* ``"quantity_skew"`` — power-law client sizes: label-IID shards whose sizes
  follow ``size_k ∝ rank^-exponent``, modeling populations where a few
  clients hold most of the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.rng import domain_seed_sequence

from .dataset import Dataset

__all__ = [
    "ClassShardPlan",
    "iid_partition_indices",
    "dirichlet_partition_indices",
    "quantity_skew_partition_indices",
    "PARTITION_STRATEGIES",
]


#: Partition strategies understood by
#: :class:`repro.data.population.LazyClientPopulation` (and by
#: ``FederatedConfig.partition``).  ``"shards"`` is the paper's Table-I scheme.
PARTITION_STRATEGIES: Tuple[str, ...] = ("shards", "iid", "dirichlet", "quantity_skew")


#: Domain tags for the per-client shard derivation (see :mod:`repro.rng`):
#: one stream per client id for the example draws, one run-level stream for
#: the class-coverage permutation.  Both are keyed on the run's
#: ``partition_seed``, NOT on the population size — client ``k``'s shard is
#: the same whether the run simulates 20 clients or a million, which is what
#: lets :class:`repro.data.population.LazyClientPopulation` derive any
#: client's indices on demand.
_SHARD_CLIENT_DOMAIN = 0x5AA2D0
_SHARD_ORDER_DOMAIN = 0x5AA2D1


@dataclass(frozen=True)
class ClassShardPlan:
    """Per-client-derivable description of a class-skewed shard partition.

    The paper's Table-I scheme assigns each client ``classes_per_client``
    classes and samples ``data_per_client`` examples from them.  A plan holds
    everything needed to derive client ``k``'s shard *independently* of every
    other client: the class pools, a run-level class-coverage permutation
    (cycled deterministically by client id so the class load stays balanced),
    and the ``partition_seed`` that keys one RNG stream per client id.  The
    derivation is population-size-independent — :meth:`indices_for` never
    looks at how many clients exist.
    """

    partition_seed: int
    indices_by_class: Tuple[np.ndarray, ...]
    class_order: np.ndarray
    data_per_client: int
    classes_per_client: int

    @classmethod
    def from_dataset(
        cls,
        dataset: Dataset,
        data_per_client: int,
        classes_per_client: int,
        partition_seed: int,
    ) -> "ClassShardPlan":
        """Validate the request and precompute the class pools (O(num_examples))."""
        if classes_per_client <= 0 or classes_per_client > dataset.num_classes:
            raise ValueError(
                f"classes_per_client must be in [1, {dataset.num_classes}], got {classes_per_client}"
            )
        if data_per_client <= 0:
            raise ValueError("data_per_client must be positive")
        indices_by_class = tuple(
            np.flatnonzero(dataset.labels == c) for c in range(dataset.num_classes)
        )
        present_classes = [c for c, idx in enumerate(indices_by_class) if idx.size > 0]
        if not present_classes:
            raise ValueError("dataset contains no examples")
        order_rng = np.random.default_rng(
            domain_seed_sequence(partition_seed, _SHARD_ORDER_DOMAIN)
        )
        return cls(
            partition_seed=int(partition_seed),
            indices_by_class=indices_by_class,
            class_order=order_rng.permutation(present_classes),
            data_per_client=int(data_per_client),
            classes_per_client=int(classes_per_client),
        )

    def classes_for(self, client_id: int) -> List[int]:
        """The distinct classes client ``client_id`` samples from.

        Clients cycle through the run-level class permutation at stride
        ``classes_per_client``, so over any window of consecutive client ids
        every class is covered as evenly as possible, derivable from the
        client id alone.
        """
        if client_id < 0:
            raise ValueError("client_id must be non-negative")
        available = len(self.class_order)
        take = min(self.classes_per_client, available)
        start = client_id * self.classes_per_client
        return [int(self.class_order[(start + j) % available]) for j in range(take)]

    def indices_for(self, client_id: int) -> np.ndarray:
        """Example indices of client ``client_id``'s shard (always exactly
        ``data_per_client`` of them), derived from ``(partition_seed,
        client_id)`` alone."""
        chosen = self.classes_for(client_id)
        rng = np.random.default_rng(
            domain_seed_sequence(self.partition_seed, _SHARD_CLIENT_DOMAIN, client_id)
        )
        per_class = int(np.ceil(self.data_per_client / self.classes_per_client))
        parts: List[np.ndarray] = []
        for position, cls in enumerate(chosen):
            pool = self.indices_by_class[cls]
            want = (
                per_class
                if position < len(chosen) - 1
                else self.data_per_client - per_class * (len(chosen) - 1)
            )
            want = max(want, 0)
            parts.append(rng.choice(pool, size=want, replace=pool.size < want))
        flat = np.concatenate(parts) if parts else np.array([], dtype=np.int64)
        rng.shuffle(flat)
        return flat[: self.data_per_client].astype(np.int64)


def draw_partition_seed(rng: np.random.Generator) -> int:
    """The single main-RNG draw the shards strategy consumes per run.

    :class:`repro.data.population.LazyClientPopulation` consumes exactly
    this one draw: the same main RNG state yields the same
    ``partition_seed``, and everything downstream is keyed on that seed
    through :mod:`repro.rng` domains.
    """
    return int(rng.integers(0, 2**63))


# ----------------------------------------------------------------------
# Heterogeneity strategies (index-level cores)
# ----------------------------------------------------------------------
def _validate_population(num_examples: int, num_clients: int) -> None:
    if num_clients <= 0:
        raise ValueError("num_clients must be positive")
    if num_examples < num_clients:
        raise ValueError(
            f"cannot give {num_clients} clients a non-empty shard of {num_examples} examples"
        )


def _rebalance_empty_clients(
    client_indices: List[List[int]], min_per_client: int
) -> List[List[int]]:
    """Move examples from the largest clients until every client has at least
    ``min_per_client`` examples.  Deterministic: the donor is always the
    currently-largest client (lowest id on ties) and donates its last index.
    """
    for needy in range(len(client_indices)):
        while len(client_indices[needy]) < min_per_client:
            donor = max(
                range(len(client_indices)),
                key=lambda k: (len(client_indices[k]), -k),
            )
            if len(client_indices[donor]) <= min_per_client:
                raise ValueError(
                    "not enough examples to give every client "
                    f"{min_per_client} example(s)"
                )
            client_indices[needy].append(client_indices[donor].pop())
    return client_indices


def iid_partition_indices(
    num_examples: int, num_clients: int, rng: np.random.Generator
) -> List[np.ndarray]:
    """Disjoint uniform random split into ``num_clients`` near-equal parts."""
    _validate_population(num_examples, num_clients)
    order = rng.permutation(num_examples)
    return [np.sort(part).astype(np.int64) for part in np.array_split(order, num_clients)]


def dirichlet_partition_indices(
    labels: np.ndarray,
    num_clients: int,
    alpha: float,
    rng: np.random.Generator,
    min_per_client: int = 1,
) -> List[np.ndarray]:
    """Dirichlet label-skew split of ``labels`` into disjoint index sets.

    For each class present in ``labels`` the class's example indices are
    divided across clients by proportions drawn from ``Dir(alpha * 1_K)``.
    ``alpha -> inf`` recovers an IID split; ``alpha -> 0`` gives each client
    examples from essentially one class.  Every example is assigned to exactly
    one client and no client is left below ``min_per_client`` examples
    (rebalanced deterministically from the largest clients).
    """
    labels = np.asarray(labels).reshape(-1)
    _validate_population(labels.shape[0], num_clients)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if min_per_client < 1:
        raise ValueError("min_per_client must be at least 1")

    client_indices: List[List[int]] = [[] for _ in range(num_clients)]
    for cls in np.unique(labels):
        class_indices = np.flatnonzero(labels == cls)
        rng.shuffle(class_indices)
        proportions = rng.dirichlet(np.full(num_clients, float(alpha)))
        # split points from the cumulative proportions; len-preserving
        cuts = (np.cumsum(proportions)[:-1] * class_indices.size).astype(np.int64)
        for client, part in enumerate(np.split(class_indices, cuts)):
            client_indices[client].extend(int(i) for i in part)
    _rebalance_empty_clients(client_indices, min_per_client)
    return [np.sort(np.asarray(part, dtype=np.int64)) for part in client_indices]


def quantity_skew_partition_indices(
    num_examples: int,
    num_clients: int,
    exponent: float,
    rng: np.random.Generator,
    min_per_client: int = 1,
) -> List[np.ndarray]:
    """Power-law quantity-skew split into disjoint, label-IID index sets.

    Client sizes follow ``size_k ∝ rank^-exponent`` (Zipf-like) with the
    size-rank-to-client assignment randomly permuted, so *which* client is
    data-rich varies with the seed.  ``exponent = 0`` gives an equal split;
    larger exponents concentrate the data on few clients.  Every client keeps
    at least ``min_per_client`` examples.
    """
    _validate_population(num_examples, num_clients)
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    if min_per_client < 1:
        raise ValueError("min_per_client must be at least 1")
    if min_per_client * num_clients > num_examples:
        raise ValueError("not enough examples for the requested min_per_client")

    weights = np.arange(1, num_clients + 1, dtype=np.float64) ** -float(exponent)
    rng.shuffle(weights)
    raw = weights / weights.sum() * num_examples
    sizes = np.floor(raw).astype(np.int64)
    # largest-remainder allocation of the leftover examples
    leftover = num_examples - int(sizes.sum())
    if leftover > 0:
        for index in np.argsort(-(raw - sizes), kind="stable")[:leftover]:
            sizes[index] += 1
    # enforce the per-client floor by taking from the largest clients
    for needy in range(num_clients):
        while sizes[needy] < min_per_client:
            donor = int(np.argmax(sizes))
            if sizes[donor] <= min_per_client:
                raise ValueError("not enough examples for the requested min_per_client")
            sizes[donor] -= 1
            sizes[needy] += 1
    order = rng.permutation(num_examples)
    cuts = np.cumsum(sizes)[:-1]
    return [np.sort(part).astype(np.int64) for part in np.split(order, cuts)]
