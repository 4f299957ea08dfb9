"""Per-round client sampling.

Each round the server selects ``Kt`` out of ``K`` subscribed clients.  The
paper's accounting assumes random sampling; two schemes are provided:

* :func:`sample_clients_fixed` — draw exactly ``Kt`` distinct clients
  uniformly at random (what the experiments use);
* :func:`sample_clients_poisson` — include every client independently with
  probability ``q`` (the idealised Poisson sampling assumed by the moments
  accountant; used in ablations).

Churn and the live set
----------------------
Under client churn (``churn_rate``, see
:class:`~repro.federated.availability.ChurnSchedule`) the *live* population
at round ``t`` is a subset of the ``K`` registered ids, and the simulation
still samples over all ``K`` — identical RNG consumption to a churn-free
run — then marks dead selected clients ``offline``.  For Poisson sampling
this is not an approximation: including each client with probability ``q``
and then independently discarding the dead ones is, by the thinning
property, *exactly* Poisson sampling with probability ``q`` over the live
set (dead clients are discarded with probability 1, live ones kept).  The
filter touches only the drawn cohort, so the O(cohort) cross-device cost
model carries over unchanged — no per-round sweep over ``K`` to find the
living.
"""

from __future__ import annotations

from typing import List

import numpy as np

__all__ = ["sample_clients_fixed", "sample_clients_poisson"]


def sample_clients_fixed(
    num_clients: int, clients_per_round: int, rng: np.random.Generator
) -> List[int]:
    """Uniformly sample ``clients_per_round`` distinct client indices."""
    if num_clients <= 0:
        raise ValueError("num_clients must be positive")
    if not 0 < clients_per_round <= num_clients:
        raise ValueError(
            f"clients_per_round must lie in [1, {num_clients}], got {clients_per_round}"
        )
    chosen = rng.choice(num_clients, size=clients_per_round, replace=False)
    return sorted(int(i) for i in chosen)


def sample_clients_poisson(
    num_clients: int, participation_probability: float, rng: np.random.Generator
) -> List[int]:
    """Include each client independently with the given probability.

    This is exact Poisson subsampling and the result **may be empty**; callers
    must handle an empty selection.  :class:`~repro.federated.server.
    FederatedServer` skips the round deterministically — server weights
    unchanged, the round recorded with no participants — so fixed-seed
    trajectories stay reproducible.

    The draw costs O(cohort), not O(population): under Poisson sampling the
    cohort size is ``Binomial(K, q)`` and, conditioned on the size, the cohort
    is a uniformly random subset of that size — so one ``binomial`` draw plus
    rejection-sampling the distinct member ids is distributionally identical
    to the textbook one-Bernoulli-per-client formulation, without ever
    enumerating the ``K`` clients.  (When the drawn cohort exceeds ``K/2``
    the *complement* is rejection-sampled instead, so the expected number of
    ``rng`` draws stays O(min(cohort, K - cohort)).)  At ``K = 1M, q = 1%``
    this is the difference between touching 10k ids and touching 1M every
    round — see docs/cross_device_scale.md.
    """
    if num_clients <= 0:
        raise ValueError("num_clients must be positive")
    if not 0.0 < participation_probability <= 1.0:
        raise ValueError("participation_probability must lie in (0, 1]")
    count = int(rng.binomial(num_clients, participation_probability))
    if count == 0:
        return []
    if count == num_clients:
        return list(range(num_clients))
    target = count if count <= num_clients // 2 else num_clients - count
    picked: set = set()
    while len(picked) < target:
        draws = rng.integers(0, num_clients, size=target - len(picked))
        picked.update(int(i) for i in draws)
    if target == count:
        return sorted(picked)
    return [i for i in range(num_clients) if i not in picked]
