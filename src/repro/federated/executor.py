"""Client-execution backends for the federated simulation.

The paper's evaluation runs up to ``K = 10,000`` clients over ``T = 100``
rounds.  Within one round the sampled clients' local training jobs are
independent of each other — they all start from the same broadcast global
weights — so the round is embarrassingly parallel.  This module provides the
:class:`ClientExecutor` abstraction the :class:`~repro.federated.simulation.
FederatedSimulation` uses to farm those jobs out:

* :class:`SerialClientExecutor` — runs the selected clients one after another
  in the simulation process (the reference backend);
* :class:`MultiprocessingClientExecutor` — runs them on a persistent
  ``multiprocessing`` worker pool; each worker process rebuilds the model,
  the local trainer and the client roster once from the
  :class:`~repro.federated.config.FederatedConfig`, keeps them alive across
  rounds and runs its chunks through a :class:`SerialClientExecutor`; per
  round the selected cohort is dispatched as one chunk of clients per
  worker, with the read-only global weights serialised once per chunk (see
  docs/cross_device_scale.md).

Determinism
-----------
Both backends consume *the same* randomness: the
:class:`~repro.federated.server.FederatedServer` hands them one seed per
participant.  Under fixed-size sampling it derives one child RNG stream per
selected-client slot with :func:`spawn_client_seeds`; under Poisson
sampling (where slots are meaningless — any subset of the population may be
drawn) each participant's stream is keyed directly on its client id with
:func:`client_id_seed_sequence`, so the stream is independent of the
population size and of which other clients happened to be drawn.  Both
schemes build on :func:`repro.rng.domain_seed_sequence`: streams are keyed on
``(config.seed, domain tag, structural key)`` and are therefore independent
of execution order, of the backend, and of how many rounds ran before (which
is what makes checkpoint resume exact).  A fixed config seed yields a
bit-identical :class:`~repro.federated.simulation.SimulationHistory` on every
backend — regression-tested in ``tests/federated/test_executor.py``.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import List, Optional, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.rng import domain_seed_sequence

from .config import EXECUTORS, FederatedConfig

__all__ = [
    "ClientExecutor",
    "SerialClientExecutor",
    "MultiprocessingClientExecutor",
    "make_executor",
    "domain_seed_sequence",
    "spawn_client_seeds",
    "client_id_seed_sequence",
    "default_num_workers",
]


#: Domain-separation tags mixed into the client SeedSequences so the client
#: streams never collide with other uses of the config seed.
#: ``_CLIENT_STREAM_DOMAIN`` keys the per-round *slot* streams of fixed-size
#: sampling; ``_CLIENT_ID_STREAM_DOMAIN`` keys the per-round *client-id*
#: streams of Poisson sampling (population-size-independent).  Sibling
#: domains: ``repro.federated.availability._AVAILABILITY_DOMAIN`` (dropout /
#: straggler draws), ``repro.attacks.schedule.ATTACK_DOMAIN`` (in-loop
#: adversary draws) and ``repro.data.partition._SHARD_CLIENT_DOMAIN`` (lazy
#: shard derivation) — every consumer of the config seed derives its streams
#: through :func:`repro.rng.domain_seed_sequence` with its own tag, so no two
#: subsystems can ever consume correlated randomness.
_CLIENT_STREAM_DOMAIN = 0x0C11E27
_CLIENT_ID_STREAM_DOMAIN = 0x0C11D1D


def spawn_client_seeds(
    seed: int, round_index: int, count: int
) -> List[np.random.SeedSequence]:
    """Child seed sequences for the ``count`` client slots of one round.

    The returned streams depend only on ``(seed, round_index, slot)`` — not on
    the execution backend, the worker that picks the job up, or any RNG state
    carried over from earlier rounds — which is the invariant behind the
    serial/multiprocessing equivalence guarantee and exact checkpoint resume.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    root = domain_seed_sequence(seed, _CLIENT_STREAM_DOMAIN, round_index)
    return list(root.spawn(count))


def client_id_seed_sequence(
    seed: int, round_index: int, client_id: int
) -> np.random.SeedSequence:
    """Training-stream seed for one ``(round, client id)`` pair.

    Used by Poisson sampling, where any subset of the population may be drawn
    and slot numbering is therefore meaningless: keying on the client id
    makes a client's stream independent of the population size, of the rest
    of the cohort and of the backend — so a 1M-client run never spawns a
    million seeds to serve a 10k cohort.  Fixed-size sampling keeps the
    historical per-slot scheme of :func:`spawn_client_seeds` (committed
    golden trajectories depend on it).
    """
    return domain_seed_sequence(seed, _CLIENT_ID_STREAM_DOMAIN, round_index, client_id)


def _usable_cores() -> int:
    """Cores this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def default_num_workers(clients_per_round: int) -> int:
    """Pool size used when the config does not pin ``num_workers``."""
    return max(1, min(int(clients_per_round), _usable_cores()))


class ClientExecutor:
    """Strategy object that runs the selected clients' local training jobs."""

    #: backend name, one of :data:`repro.federated.config.EXECUTORS`
    name = "base"

    def run_clients(
        self,
        selected: Sequence[int],
        global_weights: Sequence[np.ndarray],
        round_index: int,
        client_seeds: Sequence[np.random.SeedSequence],
    ) -> List:
        """Run local training for ``selected`` and return their ``LocalUpdate``s.

        Results are returned in the order of ``selected`` (the aggregation
        order), and ``client_seeds[i]`` seeds the RNG of ``selected[i]``.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources (worker pools) held by the backend."""

    def __enter__(self) -> "ClientExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialClientExecutor(ClientExecutor):
    """Reference backend: clients run one after another in-process."""

    name = "serial"

    def __init__(self, clients: Sequence) -> None:
        self.clients = clients

    def run_clients(
        self,
        selected: Sequence[int],
        global_weights: Sequence[np.ndarray],
        round_index: int,
        client_seeds: Sequence[np.random.SeedSequence],
    ) -> List:
        if len(client_seeds) < len(selected):
            raise ValueError("need one client seed per selected client")
        results = []
        for slot, client_index in enumerate(selected):
            rng = np.random.default_rng(client_seeds[slot])
            results.append(
                self.clients[client_index].local_update(global_weights, round_index, rng=rng)
            )
        return results


# ----------------------------------------------------------------------
# Multiprocessing backend
# ----------------------------------------------------------------------
#: Per-worker-process state, populated once by :func:`_worker_initializer`.
_WORKER_STATE: dict = {}


def _worker_initializer(config: FederatedConfig, data_payload: Optional[tuple]) -> None:
    """Build the model, trainer and client roster once per worker.

    ``data_payload`` is ``None`` when the training data is the config's
    synthetic dataset — the worker regenerates it from ``config.seed``, so
    nothing but the config crosses the process boundary at startup.  A custom
    training dataset is shipped once as ``(features, labels, num_classes)``.
    Either way the worker builds its roster with the same
    :meth:`~repro.federated.client.LazyClientRoster.from_config` as the
    parent simulation, from a fresh ``default_rng(config.seed)``, so
    worker-side clients are bit-identical to the parent's at every scale.
    """
    # Imported here so the (spawned) worker pays the import cost once, and to
    # avoid an import cycle at module load time.
    from repro.core.factory import make_trainer
    from repro.data.synthetic import generate_train_val
    from repro.nn import build_model_for_dataset

    from .client import LazyClientRoster

    model = build_model_for_dataset(config.spec, seed=config.seed, scale=config.model_scale)
    trainer = make_trainer(config.method, model, config)
    if data_payload is None:
        train_dataset, _ = generate_train_val(
            config.spec, config.num_train_examples, config.num_val_examples, seed=config.seed
        )
    else:
        train_dataset = Dataset(*data_payload)
    roster = LazyClientRoster.from_config(
        config, train_dataset, trainer, np.random.default_rng(config.seed)
    )
    _WORKER_STATE["executor"] = SerialClientExecutor(roster)


def _worker_run_chunk(task: tuple) -> List:
    """Run one chunk of clients' local training inside a worker process."""
    global_weights, round_index, selected, client_seeds = task
    return _WORKER_STATE["executor"].run_clients(
        selected, global_weights, round_index, client_seeds
    )


class MultiprocessingClientExecutor(ClientExecutor):
    """Round-level client parallelism on a persistent process pool.

    Worker processes are started lazily on the first round and kept alive for
    the lifetime of the executor.  Startup ships only the config (plus the
    training dataset when it is a custom one the workers cannot regenerate);
    each worker rebuilds the model, trainer and client roster in its
    initializer and derives the shards it is asked to train on demand — no
    per-client state is ever broadcast, which is what lets this backend
    serve 100k–1M-client populations (docs/cross_device_scale.md).

    Per round the selected cohort is split into chunks of
    ``config.worker_chunk_size`` clients (default: one chunk per worker) and
    each chunk is dispatched as a single task carrying the read-only global
    weights exactly once — so the weights cross the process boundary
    ``ceil(cohort / chunk)`` times per round regardless of cohort size.
    Chunk tasks are mapped in order, so aggregation order (and therefore
    floating-point summation order) matches the serial backend exactly.
    """

    name = "multiprocessing"

    def __init__(
        self,
        config: FederatedConfig,
        train_dataset: Optional[Dataset] = None,
        num_workers: Optional[int] = None,
        start_method: str = "spawn",
        dataset_from_config: bool = True,
    ) -> None:
        self.config = config
        if dataset_from_config:
            self._data_payload = None
        else:
            if train_dataset is None:
                raise ValueError(
                    "train_dataset is required when it cannot be rebuilt from the config"
                )
            self._data_payload = (
                train_dataset.features,
                train_dataset.labels,
                train_dataset.num_classes,
            )
        self.num_workers = (
            int(num_workers)
            if num_workers is not None
            else default_num_workers(config.clients_per_round)
        )
        if self.num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        self.start_method = start_method
        self._pool = None

    # ------------------------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            context = multiprocessing.get_context(self.start_method)
            self._pool = context.Pool(
                processes=self.num_workers,
                initializer=_worker_initializer,
                initargs=(self.config, self._data_payload),
            )
        return self._pool

    def run_clients(
        self,
        selected: Sequence[int],
        global_weights: Sequence[np.ndarray],
        round_index: int,
        client_seeds: Sequence[np.random.SeedSequence],
    ) -> List:
        if len(client_seeds) < len(selected):
            raise ValueError("need one client seed per selected client")
        if not selected:  # skipped round: don't spin up the pool for nothing
            return []
        pool = self._ensure_pool()
        weights = [np.asarray(w) for w in global_weights]
        chunk = self.config.worker_chunk_size
        if chunk is None:
            chunk = max(1, -(-len(selected) // self.num_workers))
        tasks = [
            (
                weights,
                int(round_index),
                [int(client) for client in selected[start : start + chunk]],
                list(client_seeds[start : start + chunk]),
            )
            for start in range(0, len(selected), chunk)
        ]
        chunk_results = pool.map(_worker_run_chunk, tasks, chunksize=1)
        return [result for chunk_result in chunk_results for result in chunk_result]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None


def make_executor(
    config: FederatedConfig,
    clients: Sequence,
    train_dataset: Optional[Dataset] = None,
    dataset_from_config: bool = True,
) -> ClientExecutor:
    """Instantiate the executor backend selected by ``config.executor``.

    ``clients`` is the simulation's
    :class:`~repro.federated.client.LazyClientRoster`; the serial backend
    only indexes into it.  The multiprocessing backend ignores ``clients``
    entirely: each worker builds the same roster from the config, over the
    regenerated dataset (``dataset_from_config=True``, nothing shipped) or
    the ``train_dataset`` shipped once at pool startup.
    """
    if config.executor == "serial":
        return SerialClientExecutor(clients)
    if config.executor == "multiprocessing":
        return MultiprocessingClientExecutor(
            config,
            train_dataset=train_dataset,
            num_workers=config.num_workers,
            dataset_from_config=dataset_from_config,
        )
    raise ValueError(f"unknown executor {config.executor!r}; expected one of {EXECUTORS}")
