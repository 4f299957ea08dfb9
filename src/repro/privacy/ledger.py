"""Pluggable privacy accounting: round charges, registry, per-client ledger.

The paper (and :class:`~repro.privacy.accountant.MomentsAccountant`) models
DP-SGD's subsampling with one *global* rate ``q = B*Kt/N`` — exact when every
client holds an equal shard.  The scenario engine's heterogeneous partitions
(``dirichlet``, ``quantity_skew``) break that assumption: an example on a
small shard of size ``n_k`` enters its client's batches with probability
``B/n_k >> B*K/N`` whenever that client trains, so the equal-shard figure
understates the worst-case instance-level epsilon.  This module makes the
accountant a pluggable subsystem so the simulation can track that honestly:

* :class:`RoundCharge` — a trainer's declarative description of what one
  federated round releases (level, noise multiplier, mechanism invocations);
* :class:`AccountingContext` — the realised run facts every accountant may
  bind to (shard sizes, batch size, the equal-shard rates);
* :class:`HeterogeneousAccountant` — a per-client RDP *ledger* charging
  ``q_k = B * 1[k participated] / n_k`` per local iteration, reporting the
  worst-case instance-level epsilon and the full per-client distribution,
  with an embedded equal-shard :class:`MomentsAccountant` for side-by-side
  comparison;
* :data:`ACCOUNTANTS` / :func:`make_accountant` — the registry the
  simulation resolves ``FederatedConfig.accountant`` through.

Ledger semantics (documented in full in ``docs/privacy_accounting.md``):

* Only clients that actually participated in a round are charged, at the
  *conditional* rate ``B/n_k`` — the ledger conditions on the realised
  participation record instead of claiming amplification by client sampling.
  Consequently it coincides with the equal-shard moments accountant exactly
  when shards are equal and every client participates every round (no client
  sampling to amplify by), and upper-bounds it otherwise.
* Each participation charges the client's *realised* local iteration count
  ``max(1, min(L, ceil(n_k / B)))``, mirroring
  :meth:`repro.core.base.LocalTrainerBase._local_iterations`.
* Client-level charges (Fed-SDP) are recorded at ``q = 1`` for participants:
  conditioned on participating, the client's update is released under the
  plain Gaussian mechanism.
* Zero-participation rounds charge nobody (nothing was released).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .accountant import (
    DEFAULT_RDP_ORDERS,
    MomentsAccountant,
    compute_rdp_subsampled_gaussian,
)

__all__ = [
    "CHARGE_LEVELS",
    "ACCOUNTANT_NAMES",
    "ACCOUNTANTS",
    "RoundCharge",
    "AccountingContext",
    "HeterogeneousAccountant",
    "make_accountant",
]


#: Units of privacy a round charge may be expressed in.
CHARGE_LEVELS: Tuple[str, ...] = ("instance", "client")


@dataclass(frozen=True)
class RoundCharge:
    """What one federated round releases, as declared by the local trainer.

    ``level`` names the privacy unit: ``"instance"`` for per-example
    mechanisms (Fed-CDP), ``"client"`` for per-update mechanisms (Fed-SDP).
    ``steps`` counts subsampled-Gaussian invocations per participating round
    (``L`` local iterations for Fed-CDP, one shared update for Fed-SDP).
    """

    level: str
    noise_multiplier: float
    steps: int

    def __post_init__(self) -> None:
        if self.level not in CHARGE_LEVELS:
            raise ValueError(f"unknown charge level {self.level!r}; expected one of {CHARGE_LEVELS}")
        if not (math.isfinite(self.noise_multiplier) and self.noise_multiplier > 0):
            raise ValueError("noise_multiplier must be positive and finite")
        if self.steps <= 0:
            raise ValueError("steps must be positive")


# eq=False: an array field has no single truth value, so contexts compare
# (and hash) by identity
@dataclass(frozen=True, eq=False)
class AccountingContext:
    """Realised facts of one run that accountants bind to.

    The equal-shard rates are passed through from the config (rather than
    re-derived) so the default accountant reproduces the paper's numbers
    bit-for-bit; ``shard_sizes`` is the realised partition the heterogeneous
    ledger keys its per-client rates on.

    ``shard_sizes`` is stored as a read-only 1-D int64 array.  A read-only
    int64 array (such as the zero-stride view
    :meth:`~repro.data.population.LazyClientPopulation.shard_sizes` returns
    for equal shards) is kept as is, so binding a million-client run copies
    nothing; any other input, a writeable array included, is copied once so
    later changes by the caller cannot reach the context.
    """

    #: realised per-client shard sizes ``n_k`` (indexed by client id)
    shard_sizes: np.ndarray
    #: local batch size ``B``
    batch_size: int
    #: the paper's equal-shard instance rate ``q = B * Kt / N``
    instance_sampling_rate: float
    #: the client-level rate ``q2 = Kt / K``
    client_sampling_rate: float

    def __post_init__(self) -> None:
        given = self.shard_sizes
        sizes = np.asarray(given)
        if sizes.ndim != 1 or sizes.size == 0:
            raise ValueError("shard_sizes must be a non-empty 1-D sequence")
        if sizes.dtype.kind == "f":
            if not np.all(np.isfinite(sizes) & (sizes == np.trunc(sizes))):
                raise ValueError("shard_sizes must be integers")
        elif sizes.dtype.kind not in "iu":
            raise ValueError(f"shard_sizes must be integers, got dtype {sizes.dtype}")
        if sizes.min() <= 0:
            raise ValueError("shard_sizes must be positive")
        if sizes.dtype != np.int64 or (sizes is given and sizes.flags.writeable):
            sizes = sizes.astype(np.int64)
        sizes.flags.writeable = False
        object.__setattr__(self, "shard_sizes", sizes)
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")

    @classmethod
    def from_config(cls, config, shard_sizes: Sequence[int]) -> "AccountingContext":
        """Build the context from a :class:`~repro.federated.config.FederatedConfig`."""
        return cls(
            shard_sizes=shard_sizes,
            batch_size=config.effective_batch_size,
            instance_sampling_rate=config.instance_sampling_rate,
            client_sampling_rate=config.client_sampling_rate,
        )

    def rate_for_level(self, level: str) -> float:
        """The equal-shard sampling rate the moments accountant uses for ``level``."""
        if level == "instance":
            return self.instance_sampling_rate
        if level == "client":
            return self.client_sampling_rate
        raise ValueError(f"unknown charge level {level!r}; expected one of {CHARGE_LEVELS}")


class HeterogeneousAccountant:
    """Per-client RDP ledger for heterogeneous shards and realised participation.

    One RDP curve is maintained *per client*.  A round charges only the
    clients that actually participated: client ``k`` accrues
    ``steps_k * RDP(q_k, sigma)`` with ``q_k = min(1, B / n_k)`` at the
    instance level (``q_k = 1`` at the client level) and
    ``steps_k = max(1, min(steps, ceil(n_k / B)))`` mirroring the trainer's
    realised local iteration count.  :meth:`get_epsilon` reports the
    worst-case (maximum) per-client epsilon — the honest instance-level
    guarantee for examples on the smallest shard — and
    :meth:`epsilon_per_client` the full distribution.  An embedded
    equal-shard :class:`MomentsAccountant` is charged in parallel so the
    paper's figure stays available side by side
    (:meth:`equal_shard_epsilon`).
    """

    name = "heterogeneous"

    def __init__(self, orders: Sequence[float] = DEFAULT_RDP_ORDERS) -> None:
        self.orders = tuple(float(order) for order in orders)
        self._context: Optional[AccountingContext] = None
        self._ledger: Optional[np.ndarray] = None          # (K, len(orders))
        self._participation: Optional[np.ndarray] = None   # (K,) rounds charged per client
        self._rounds_charged = 0
        self._equal_shard = MomentsAccountant(orders=self.orders)
        # per-client facts derived once from the bound context (see bind_context)
        self._rate_index: Optional[np.ndarray] = None     # (K,) index into _instance_rates
        self._instance_rates: Tuple[float, ...] = ()       # distinct min(1, B / n_k)
        self._step_caps: Optional[np.ndarray] = None      # (K,) ceil(n_k / B)

    # ------------------------------------------------------------------
    # Binding to a run
    # ------------------------------------------------------------------
    def bind_context(self, context: AccountingContext) -> None:
        """Attach the realised run facts (shard sizes, rates) to this accountant."""
        num_clients = len(context.shard_sizes)
        if self._ledger is None:
            self._ledger = np.zeros((num_clients, len(self.orders)), dtype=np.float64)
            self._participation = np.zeros(num_clients, dtype=np.int64)
        elif self._ledger.shape[0] != num_clients:
            raise ValueError(
                f"ledger tracks {self._ledger.shape[0]} clients but the context "
                f"has {num_clients} shards"
            )
        sizes = context.shard_sizes
        distinct_sizes, self._rate_index = np.unique(sizes, return_inverse=True)
        self._instance_rates = tuple(
            min(1.0, context.batch_size / int(size)) for size in distinct_sizes
        )
        self._step_caps = -(-sizes // context.batch_size)
        self._context = context
        self._equal_shard.bind_context(context)

    def _require_context(self) -> AccountingContext:
        if self._context is None:
            raise RuntimeError(
                "HeterogeneousAccountant is unbound; call bind_context(...) first "
                "(the simulation does this at construction)"
            )
        return self._context

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------
    def _round_rdp(self, charge: RoundCharge, clients: np.ndarray) -> np.ndarray:
        """RDP one round like ``charge`` adds to each of ``clients``, one row each.

        Row ``i`` is ``steps_k * RDP(q_k, sigma)`` for client ``k = clients[i]``
        — the same elementwise product whether one client or the whole
        population is charged, so batching never changes a ledger bit.
        """
        if charge.level == "client":
            # conditioned on participation, the update is a plain Gaussian release
            rates, rows = (1.0,), np.zeros(len(clients), dtype=np.intp)
            steps = np.full(len(clients), charge.steps)
        else:
            distinct, rows = np.unique(self._rate_index[clients], return_inverse=True)
            rates = [self._instance_rates[index] for index in distinct]
            steps = np.minimum(self._step_caps[clients], charge.steps)
        curves = np.stack([
            compute_rdp_subsampled_gaussian(rate, charge.noise_multiplier, self.orders)
            for rate in rates
        ])
        increments = curves[rows]
        increments *= steps[:, None]
        return increments

    def charge_round(self, charge: RoundCharge, participants: Sequence[int]) -> None:
        """Charge one round's release to the clients that actually participated.

        An empty ``participants`` list (a skipped round) charges nothing —
        no update was released, so no privacy was spent.
        """
        self._require_context()
        if not participants:
            return
        cohort = sorted(set(int(k) for k in participants))
        # validate the whole cohort before mutating anything, so a rejected
        # round never leaves the ledger partially charged (and out of sync
        # with the embedded equal-shard accountant)
        for client in cohort:
            if not 0 <= client < self._ledger.shape[0]:
                raise ValueError(f"participant {client} is outside the client population")
        cohort = np.asarray(cohort, dtype=np.intp)
        self._ledger[cohort] += self._round_rdp(charge, cohort)
        self._participation[cohort] += 1
        self._rounds_charged += 1
        self._equal_shard.charge_round(charge, participants)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _epsilons(self, ledger: np.ndarray, charged: np.ndarray, delta: float) -> np.ndarray:
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {delta}")
        orders = np.asarray(self.orders, dtype=np.float64)
        candidates = ledger + math.log(1.0 / delta) / (orders - 1.0)[None, :]
        epsilons = np.maximum(candidates.min(axis=1), 0.0)
        # a client that never participated has released nothing
        return np.where(charged, epsilons, 0.0)

    def epsilon_per_client(self, delta: float) -> np.ndarray:
        """Per-client epsilon distribution (0 for clients never charged)."""
        if self._ledger is None:
            raise RuntimeError("accountant is unbound; call bind_context(...) first")
        return self._epsilons(self._ledger, self._participation > 0, delta)

    def get_epsilon(self, delta: float) -> float:
        """Worst-case (maximum) per-client epsilon — the honest instance-level figure."""
        if self._ledger is None or self._rounds_charged == 0:
            return 0.0
        return float(self.epsilon_per_client(delta).max())

    def equal_shard_epsilon(self, delta: float) -> float:
        """The paper's equal-shard moments-accountant figure, for comparison."""
        return self._equal_shard.get_epsilon(delta)

    def projected_epsilon(self, charge: RoundCharge, delta: float) -> float:
        """Worst-case epsilon *if* one more round were charged to every client.

        Used for budget-driven early stopping: assuming full participation is
        the conservative projection, so a run never releases a round that
        could push any client past the budget.
        """
        self._require_context()
        projected = self._round_rdp(charge, np.arange(self._ledger.shape[0]))
        projected += self._ledger
        return float(self._epsilons(projected, np.ones(projected.shape[0], bool), delta).max())

    @property
    def rounds_charged(self) -> int:
        """Number of (non-skipped) rounds charged so far."""
        return self._rounds_charged

    @property
    def participation_counts(self) -> np.ndarray:
        """Per-client count of rounds in which the client was charged."""
        if self._participation is None:
            raise RuntimeError("accountant is unbound; call bind_context(...) first")
        return self._participation.copy()

    def reset(self) -> None:
        """Forget all accumulated privacy spending (context stays bound)."""
        if self._ledger is not None:
            self._ledger[:] = 0.0
            self._participation[:] = 0
        self._rounds_charged = 0
        self._equal_shard.reset()

    # ------------------------------------------------------------------
    # Serialization (simulation checkpoints)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serialisable snapshot of the per-client ledger."""
        if self._ledger is None:
            raise RuntimeError("accountant is unbound; call bind_context(...) first")
        return {
            "accountant": self.name,
            "orders": list(self.orders),
            "ledger": self._ledger.tolist(),
            "participation": self._participation.tolist(),
            "rounds_charged": self._rounds_charged,
            "equal_shard": self._equal_shard.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        if state.get("accountant") != self.name:
            raise ValueError(
                f"checkpoint accountant {state.get('accountant')!r} does not match "
                f"{self.name!r}; was the run checkpointed with a different --accountant?"
            )
        orders = tuple(float(order) for order in state["orders"])
        ledger = np.asarray(state["ledger"], dtype=np.float64)
        participation = np.asarray(state["participation"], dtype=np.int64)
        if ledger.ndim != 2 or ledger.shape[1] != len(orders):
            raise ValueError("ledger shape does not match the order grid")
        if participation.shape != (ledger.shape[0],):
            raise ValueError("participation vector length does not match the ledger")
        if self._context is not None and ledger.shape[0] != len(self._context.shard_sizes):
            raise ValueError("checkpoint ledger does not match the bound client population")
        self.orders = orders
        self._ledger = ledger
        self._participation = participation
        self._rounds_charged = int(state["rounds_charged"])
        self._equal_shard.load_state_dict(state["equal_shard"])


#: Registry resolving ``FederatedConfig.accountant`` to an implementation.
ACCOUNTANTS = {
    "moments": MomentsAccountant,
    "heterogeneous": HeterogeneousAccountant,
}

#: The valid values of ``FederatedConfig.accountant`` (imported by the config).
ACCOUNTANT_NAMES: Tuple[str, ...] = tuple(ACCOUNTANTS)


def make_accountant(
    name: str,
    context: Optional[AccountingContext] = None,
    orders: Sequence[float] = DEFAULT_RDP_ORDERS,
):
    """Instantiate (and optionally bind) the accountant registered as ``name``."""
    if name not in ACCOUNTANTS:
        raise ValueError(f"unknown accountant {name!r}; expected one of {ACCOUNTANT_NAMES}")
    accountant = ACCOUNTANTS[name](orders=orders)
    if context is not None:
        accountant.bind_context(context)
    return accountant
