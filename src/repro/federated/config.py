"""Configuration dataclasses for the federated-learning simulation.

A single :class:`FederatedConfig` captures everything needed to reproduce one
cell of the paper's evaluation tables: the dataset and its synthetic size, the
client population ``K`` and per-round participation ``Kt``, the local training
hyper-parameters ``(B, L, eta)``, the training method (non-private, Fed-SDP,
Fed-CDP, Fed-CDP(decay), DSSGD) and its differential-privacy parameters
``(C, sigma, delta)``.
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass, replace
from typing import Mapping, Optional, Sequence, Tuple, Union

from repro.data.partition import PARTITION_STRATEGIES
from repro.data.registry import DatasetSpec, get_dataset_spec
from repro.privacy.ledger import ACCOUNTANT_NAMES

from .byzantine import BYZANTINE_MODES

__all__ = [
    "FederatedConfig",
    "METHODS",
    "PRIVATE_METHODS",
    "EXECUTORS",
    "CLIENT_SAMPLING_SCHEMES",
    "CLIENT_STATE_MODES",
    "LAZY_CLIENT_STATE_THRESHOLD",
    "ACCOUNTANT_NAMES",
    "ATTACK_KINDS",
    "BYZANTINE_MODES",
    "normalize_attack_rounds",
]


#: Training methods understood by the trainer factory.
METHODS: Tuple[str, ...] = ("nonprivate", "fed_sdp", "fed_cdp", "fed_cdp_decay", "dssgd")

#: The subset of :data:`METHODS` that carries a differential-privacy guarantee
#: (and therefore drives the accountant and the epsilon budget).
PRIVATE_METHODS: Tuple[str, ...] = ("fed_sdp", "fed_cdp", "fed_cdp_decay")

#: Client-execution backends understood by :func:`repro.federated.executor.make_executor`.
#: ``fused`` is the opt-in batch-fusion backend: it stacks the selected
#: clients' first minibatches into one batched-graph replay before running
#: each client's local loop (see
#: :class:`repro.federated.executor.BatchFusedClientExecutor`).
EXECUTORS: Tuple[str, ...] = ("serial", "multiprocessing", "fused")

#: Per-round client-selection schemes understood by the server.
CLIENT_SAMPLING_SCHEMES: Tuple[str, ...] = ("fixed", "poisson")

#: Client-state construction modes (see docs/cross_device_scale.md).
#: ``eager`` materialises every client's shard up front (the historical
#: behaviour); ``lazy`` derives only the sampled cohort's shards per round
#: through :class:`repro.data.population.LazyClientPopulation`; ``auto``
#: picks ``lazy`` at cross-device populations and ``eager`` below.  The two
#: modes are bit-identical — the choice is purely a memory/time trade.
CLIENT_STATE_MODES: Tuple[str, ...] = ("auto", "eager", "lazy")

#: Population size at which ``client_state="auto"`` switches to ``lazy``.
LAZY_CLIENT_STATE_THRESHOLD = 10_000

#: In-loop adversary kinds understood by :class:`repro.attacks.schedule.AttackSchedule`:
#: ``leakage`` runs the fixed-budget gradient-reconstruction attack,
#: ``adaptive`` the variant that tunes its restart/iteration budget from the
#: observed gradient norm, and ``membership`` the loss-threshold membership
#: inference audit of each round's released model (per-round AUC records).
ATTACK_KINDS: Tuple[str, ...] = ("leakage", "membership", "adaptive")

#: accepted string form of ``attack_rounds``: ``"every_k"`` attacks rounds
#: ``0, k, 2k, ...``
_EVERY_K_PATTERN = re.compile(r"^every_([1-9]\d*)$")


def normalize_attack_rounds(
    value: Optional[Union[str, Sequence[int]]],
) -> Optional[Union[str, Tuple[int, ...]]]:
    """Validate and canonicalise an ``attack_rounds`` specification.

    ``None`` (attack every round) and ``"every_k"`` strings pass through;
    explicit round lists become sorted, de-duplicated tuples of non-negative
    ints so that configs rebuilt from JSON checkpoints compare equal.
    """
    if value is None:
        return None
    if isinstance(value, str):
        if _EVERY_K_PATTERN.match(value) is None:
            raise ValueError(
                f"attack_rounds string must look like 'every_k' (k >= 1), got {value!r}"
            )
        return value
    rounds = tuple(sorted({int(r) for r in value}))
    if not rounds:
        raise ValueError("attack_rounds must name at least one round (or be None)")
    if rounds[0] < 0:
        raise ValueError(f"attack_rounds must be non-negative, got {rounds}")
    return rounds


@dataclass
class FederatedConfig:
    """Full description of one federated-learning run."""

    #: dataset name from :mod:`repro.data.registry` (``mnist``, ``cifar10``, ...)
    dataset: str = "mnist"
    #: training method, one of :data:`METHODS`
    method: str = "fed_cdp"

    # ----- population ------------------------------------------------
    #: total number of clients ``K``
    num_clients: int = 100
    #: fraction of clients participating per round (``Kt / K``)
    participation_fraction: float = 0.10
    #: number of federated rounds ``T``
    rounds: int = 10

    # ----- local training --------------------------------------------
    #: local batch size ``B`` (defaults to the Table-I value when ``None``)
    batch_size: Optional[int] = None
    #: local iterations ``L`` per round (defaults to the Table-I value when ``None``)
    local_iterations: Optional[int] = None
    #: local SGD learning rate ``eta``
    learning_rate: float = 0.02
    #: width multiplier for the model architecture (scaled-down experiments)
    model_scale: float = 1.0

    # ----- synthetic data sizes ----------------------------------------
    #: number of synthetic training examples to generate
    num_train_examples: int = 2000
    #: number of synthetic validation examples to generate
    num_val_examples: int = 400
    #: per-client shard size (defaults to the Table-I value when ``None``)
    data_per_client: Optional[int] = None

    # ----- heterogeneity scenario (see docs/scenarios.md) ---------------
    #: partition strategy, one of :data:`repro.data.partition.PARTITION_STRATEGIES`
    #: (``shards`` = the paper's Table-I scheme)
    partition: str = "shards"
    #: Dirichlet concentration for ``partition="dirichlet"`` (small = pathological skew)
    dirichlet_alpha: float = 0.5
    #: power-law exponent for ``partition="quantity_skew"`` (0 = equal sizes)
    quantity_skew_exponent: float = 1.5

    # ----- client availability (see docs/scenarios.md) ------------------
    #: per-round client-selection scheme: ``fixed`` (exactly Kt clients) or
    #: ``poisson`` (each client independently with probability Kt/K; a round
    #: may select *no* clients and is then skipped)
    client_sampling: str = "fixed"
    #: probability that a selected client drops out of a round before
    #: reporting its update (1.0 = every round is skipped)
    dropout_rate: float = 0.0
    #: round deadline in simulated time units; a surviving client whose
    #: lognormal(0, 1) simulated duration (median 1.0) exceeds it is excluded
    #: as a straggler (``None`` disables straggler exclusion)
    straggler_deadline: Optional[float] = None
    #: amplitude in (0, 1] of the diurnal availability cycle: each client's
    #: offline probability follows a per-client phase-offset sinusoid over
    #: round time (``None`` disables; see docs/scenarios.md)
    availability_cycle: Optional[float] = None
    #: period of the diurnal cycle in rounds ("hours per day")
    availability_period: int = 24
    #: client churn rate in (0, 1): each client lives for a geometric number
    #: of rounds with mean ``1 / churn_rate`` before leaving the population
    #: (``None`` disables churn)
    churn_rate: Optional[float] = None
    #: per-client device-class straggler-duration multipliers, e.g.
    #: ``(0.5, 1.0, 2.0)`` for fast/mid/slow hardware — each client draws one
    #: class for the whole run (``None`` disables; only meaningful together
    #: with ``straggler_deadline``)
    device_classes: Optional[Tuple[float, ...]] = None
    #: per-round concept-drift rate in (0, 1]: at round ``t`` a fraction
    #: ``min(1, drift_rate * t)`` of every client's shard carries a resampled
    #: label (``None`` disables drift)
    drift_rate: Optional[float] = None

    # ----- differential privacy ----------------------------------------
    #: clipping bound ``C`` (paper default 4)
    clipping_bound: float = 4.0
    #: noise multiplier ``sigma`` (paper default 6)
    noise_scale: float = 6.0
    #: target broken-guarantee probability ``delta``
    delta: float = 1e-5
    #: clipping-decay schedule for Fed-CDP(decay): ``(start, end)``
    decay_clipping: Tuple[float, float] = (6.0, 2.0)
    #: whether Fed-SDP sanitises at the server (True) or at each client (False)
    sdp_server_side: bool = False
    #: privacy accountant, one of :data:`ACCOUNTANT_NAMES`: ``moments`` (the
    #: paper's equal-shard model) or ``heterogeneous`` (per-client RDP ledger
    #: over the realised partition — see docs/privacy_accounting.md)
    accountant: str = "moments"
    #: stop training before the first round whose release would push the
    #: accountant's epsilon past this budget (``None`` disables; private
    #: methods only)
    epsilon_budget: Optional[float] = None

    # ----- in-loop adversary (see docs/in_loop_attacks.md) ---------------
    #: in-loop attack kind, one of :data:`ATTACK_KINDS` (``None`` disables;
    #: ``leakage`` runs gradient-reconstruction attacks inside the simulation)
    attack: Optional[str] = None
    #: rounds at which the adversary strikes: ``None`` (every round), an
    #: explicit list of round indices, or the string ``"every_k"``
    attack_rounds: Optional[Union[str, Tuple[int, ...]]] = None
    #: client ids the adversary targets when they participate in an attacked
    #: round (``None`` = every participating client)
    attack_clients: Optional[Tuple[int, ...]] = None
    #: number of multi-restart dummy seeds per attack, optimised as one
    #: batched reconstruction (see :mod:`repro.attacks.multistart`)
    attack_seeds: int = 1
    #: maximum attack optimiser iterations per in-loop attack (the offline
    #: harness default of 300 is too slow to run inside every round)
    attack_iterations: int = 30

    # ----- byzantine clients (see docs/in_loop_attacks.md) ----------------
    #: client ids behaving byzantinely (``None`` = every client is honest);
    #: must be set together with ``byzantine_mode``
    byzantine_clients: Optional[Tuple[int, ...]] = None
    #: byzantine behaviour, one of :data:`BYZANTINE_MODES` (``scale``
    #: multiplies the uploaded update, ``sign_flip`` negates it,
    #: ``label_flip`` trains on complement-remapped labels)
    byzantine_mode: Optional[str] = None
    #: multiplicative factor applied by ``byzantine_mode="scale"``
    byzantine_scale: float = 10.0

    # ----- baselines / extensions --------------------------------------
    #: fraction of parameters shared by the DSSGD baseline
    dssgd_share_fraction: float = 0.1
    #: gradient-pruning compression ratio for communication-efficient FL
    #: (0 disables compression; 0.3 keeps the largest 30% of update entries)
    compression_ratio: float = 0.0
    #: aggregation rule: ``fedsgd`` or ``fedavg``
    aggregation: str = "fedsgd"
    #: pairwise-masking secure aggregation (Bonawitz et al.): each
    #: participant uploads its update plus pairwise-cancelling masks, so the
    #: server (and the in-loop adversary) only ever observes masked updates;
    #: requires ``aggregation="fedsgd"``
    secure_aggregation: bool = False
    #: standard deviation of the pairwise masks (large = stronger hiding of
    #: the individual update; the aggregate is unaffected either way)
    secure_mask_scale: float = 10.0

    # ----- execution -----------------------------------------------------
    #: client-execution backend: ``serial``, ``multiprocessing`` or ``fused``
    executor: str = "serial"
    #: worker-pool size for the multiprocessing backend (``None`` = one per
    #: participating client, capped at the machine's CPU count)
    num_workers: Optional[int] = None
    #: client-state construction mode, one of :data:`CLIENT_STATE_MODES`
    #: (``auto`` = lazy at populations of :data:`LAZY_CLIENT_STATE_THRESHOLD`
    #: clients or more, eager below; bit-identical either way)
    client_state: str = "auto"
    #: clients per multiprocessing dispatch chunk (``None`` = split the
    #: cohort evenly, one chunk per worker); the global weights are
    #: serialised once per chunk
    worker_chunk_size: Optional[int] = None

    # ----- bookkeeping ---------------------------------------------------
    #: global seed controlling data generation, partitioning, sampling, noise
    seed: int = 0
    #: evaluate validation accuracy every this many rounds (1 = every round)
    eval_every: int = 1

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.num_clients <= 0:
            raise ValueError("num_clients must be positive")
        if not 0.0 < self.participation_fraction <= 1.0:
            raise ValueError("participation_fraction must lie in (0, 1]")
        if self.rounds <= 0:
            raise ValueError("rounds must be positive")
        # NaN passes a bare ``<= 0`` test and would surface only as a NaN epsilon
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be positive and finite")
        if not (math.isfinite(self.clipping_bound) and self.clipping_bound > 0):
            raise ValueError("clipping_bound must be positive and finite")
        if not (math.isfinite(self.noise_scale) and self.noise_scale >= 0):
            raise ValueError("noise_scale must be non-negative and finite")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        try:
            decay_bounds = tuple(float(bound) for bound in self.decay_clipping)
        except (TypeError, ValueError):
            decay_bounds = ()
        if len(decay_bounds) != 2 or not all(
            math.isfinite(bound) and bound > 0 for bound in decay_bounds
        ):
            raise ValueError(
                "decay_clipping must be two positive finite clipping bounds (start, end), "
                f"got {self.decay_clipping!r}"
            )
        self.decay_clipping = decay_bounds
        if not 0.0 <= self.compression_ratio < 1.0:
            raise ValueError("compression_ratio must lie in [0, 1)")
        if not 0.0 < self.dssgd_share_fraction <= 1.0:
            raise ValueError("dssgd_share_fraction must lie in (0, 1]")
        if self.aggregation not in ("fedsgd", "fedavg"):
            raise ValueError("aggregation must be 'fedsgd' or 'fedavg'")
        if self.eval_every <= 0:
            raise ValueError("eval_every must be positive")
        if self.partition not in PARTITION_STRATEGIES:
            raise ValueError(
                f"unknown partition {self.partition!r}; expected one of {PARTITION_STRATEGIES}"
            )
        if self.dirichlet_alpha <= 0:
            raise ValueError("dirichlet_alpha must be positive")
        if self.quantity_skew_exponent < 0:
            raise ValueError("quantity_skew_exponent must be non-negative")
        if self.client_sampling not in CLIENT_SAMPLING_SCHEMES:
            raise ValueError(
                f"unknown client_sampling {self.client_sampling!r}; "
                f"expected one of {CLIENT_SAMPLING_SCHEMES}"
            )
        if not 0.0 <= self.dropout_rate <= 1.0:
            raise ValueError("dropout_rate must lie in [0, 1]")
        if self.straggler_deadline is not None and self.straggler_deadline <= 0:
            raise ValueError("straggler_deadline must be positive (or None to disable)")
        if self.availability_cycle is not None and not 0.0 < self.availability_cycle <= 1.0:
            raise ValueError("availability_cycle must lie in (0, 1] (or None to disable)")
        if self.availability_period < 1:
            raise ValueError("availability_period must be a positive number of rounds")
        if self.churn_rate is not None and not 0.0 < self.churn_rate < 1.0:
            raise ValueError("churn_rate must lie in (0, 1) (or None to disable)")
        if self.device_classes is not None:
            classes = tuple(float(m) for m in self.device_classes)
            if not classes or any(m <= 0 for m in classes):
                raise ValueError(
                    "device_classes must be a non-empty list of positive multipliers "
                    "(or None to disable)"
                )
            self.device_classes = classes
        if self.drift_rate is not None and not 0.0 < self.drift_rate <= 1.0:
            raise ValueError("drift_rate must lie in (0, 1] (or None to disable)")
        if self.accountant not in ACCOUNTANT_NAMES:
            raise ValueError(
                f"unknown accountant {self.accountant!r}; expected one of {ACCOUNTANT_NAMES}"
            )
        if self.epsilon_budget is not None and not (
            math.isfinite(self.epsilon_budget) and self.epsilon_budget > 0
        ):
            raise ValueError("epsilon_budget must be positive and finite (or None to disable)")
        if self.attack is not None and self.attack not in ATTACK_KINDS:
            raise ValueError(
                f"unknown attack {self.attack!r}; expected one of {ATTACK_KINDS} (or None)"
            )
        self.attack_rounds = normalize_attack_rounds(self.attack_rounds)
        if self.attack_clients is not None:
            clients = tuple(sorted({int(c) for c in self.attack_clients}))
            if not clients:
                raise ValueError("attack_clients must name at least one client (or be None)")
            if clients[0] < 0 or clients[-1] >= self.num_clients:
                raise ValueError(
                    f"attack_clients must lie in [0, {self.num_clients}), got {clients}"
                )
            self.attack_clients = clients
        if isinstance(self.attack_rounds, tuple) and self.attack_rounds[0] >= self.rounds:
            raise ValueError(
                f"attack_rounds {self.attack_rounds} schedules no attack within the "
                f"{self.rounds}-round horizon"
            )
        if self.attack is None and (
            self.attack_rounds is not None
            or self.attack_clients is not None
            or self.attack_seeds != 1
            or self.attack_iterations != 30
        ):
            raise ValueError(
                "attack_rounds/attack_clients/attack_seeds/attack_iterations require "
                "an attack kind (set attack='leakage')"
            )
        if self.attack_seeds < 1:
            raise ValueError("attack_seeds must be at least 1")
        if self.attack_iterations < 1:
            raise ValueError("attack_iterations must be at least 1")
        if (self.byzantine_mode is None) != (self.byzantine_clients is None):
            raise ValueError(
                "byzantine_mode and byzantine_clients must be set together "
                "(or both left None)"
            )
        if self.byzantine_mode is not None and self.byzantine_mode not in BYZANTINE_MODES:
            raise ValueError(
                f"unknown byzantine_mode {self.byzantine_mode!r}; "
                f"expected one of {BYZANTINE_MODES}"
            )
        if self.byzantine_clients is not None:
            byzantine = tuple(sorted({int(c) for c in self.byzantine_clients}))
            if not byzantine:
                raise ValueError("byzantine_clients must name at least one client (or be None)")
            if byzantine[0] < 0 or byzantine[-1] >= self.num_clients:
                raise ValueError(
                    f"byzantine_clients must lie in [0, {self.num_clients}), got {byzantine}"
                )
            self.byzantine_clients = byzantine
        if self.byzantine_scale <= 0:
            raise ValueError("byzantine_scale must be positive")
        if self.secure_mask_scale <= 0:
            raise ValueError("secure_mask_scale must be positive")
        if self.secure_aggregation and self.aggregation != "fedsgd":
            raise ValueError(
                "secure_aggregation masks shared *updates* and therefore requires "
                "aggregation='fedsgd'"
            )
        if self.executor not in EXECUTORS:
            raise ValueError(f"unknown executor {self.executor!r}; expected one of {EXECUTORS}")
        if self.num_workers is not None and self.num_workers < 1:
            raise ValueError("num_workers must be at least 1 (or None for auto)")
        if self.client_state not in CLIENT_STATE_MODES:
            raise ValueError(
                f"unknown client_state {self.client_state!r}; "
                f"expected one of {CLIENT_STATE_MODES}"
            )
        if self.worker_chunk_size is not None and self.worker_chunk_size < 1:
            raise ValueError("worker_chunk_size must be at least 1 (or None for auto)")
        # fail fast on typos in the dataset name
        get_dataset_spec(self.dataset)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def spec(self) -> DatasetSpec:
        """The Table-I specification of the configured dataset."""
        return get_dataset_spec(self.dataset)

    @property
    def clients_per_round(self) -> int:
        """Number of participating clients per round (``Kt``), at least one."""
        return max(1, int(round(self.participation_fraction * self.num_clients)))

    @property
    def effective_batch_size(self) -> int:
        """Local batch size, defaulting to the paper's per-dataset value."""
        return self.batch_size if self.batch_size is not None else self.spec.batch_size

    @property
    def effective_local_iterations(self) -> int:
        """Local iteration count, defaulting to the paper's per-dataset value."""
        return (
            self.local_iterations
            if self.local_iterations is not None
            else self.spec.local_iterations
        )

    @property
    def effective_data_per_client(self) -> int:
        """Per-client shard size, defaulting to the paper's per-dataset value."""
        return (
            self.data_per_client if self.data_per_client is not None else self.spec.data_per_client
        )

    @property
    def instance_sampling_rate(self) -> float:
        """Global example sampling rate ``q = B * Kt / N`` used by the accountant.

        Section V argues that local sampling with replacement across clients
        can be modelled as global sampling with rate ``B * Kt / N``.
        """
        total = self.num_train_examples
        return min(1.0, self.effective_batch_size * self.clients_per_round / max(total, 1))

    @property
    def client_sampling_rate(self) -> float:
        """Client-level sampling rate ``q2 = Kt / K`` used by Fed-SDP accounting."""
        return self.clients_per_round / self.num_clients

    @property
    def resolved_client_state(self) -> str:
        """``client_state`` with ``auto`` resolved against the population size."""
        if self.client_state != "auto":
            return self.client_state
        return "lazy" if self.num_clients >= LAZY_CLIENT_STATE_THRESHOLD else "eager"

    def with_overrides(self, **kwargs) -> "FederatedConfig":
        """Return a copy of this config with the given fields replaced."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # Serialization (checkpoints, the CLI's YAML/JSON config files)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON-serialisable dictionary of the config.

        Fields added after the checkpoint format stabilised (``accountant``,
        ``epsilon_budget``, the ``attack*`` family) are omitted while at their
        defaults, so default runs keep emitting byte-identical checkpoints and
        golden fixtures, and checkpoints written before those fields existed
        still satisfy :meth:`from_dict` round-trip equality.
        """
        payload = asdict(self)
        if payload["accountant"] == "moments":
            del payload["accountant"]
        if payload["epsilon_budget"] is None:
            del payload["epsilon_budget"]
        # same convention for the cross-device-scale execution knobs: both
        # modes are bit-identical, so defaults stay out of the payload and
        # pre-scale checkpoints/fixtures keep their byte-exact form
        if payload["client_state"] == "auto":
            del payload["client_state"]
        if payload["worker_chunk_size"] is None:
            del payload["worker_chunk_size"]
        for attack_field, default in (
            ("attack", None),
            ("attack_rounds", None),
            ("attack_clients", None),
            ("attack_seeds", 1),
            ("attack_iterations", 30),
        ):
            if payload[attack_field] == default:
                del payload[attack_field]
        # threat-catalogue fields (byzantine clients, secure aggregation)
        # follow the same convention: absent at defaults, so every honest run
        # keeps its pre-catalogue byte-exact payload
        for threat_field, default in (
            ("byzantine_clients", None),
            ("byzantine_mode", None),
            ("byzantine_scale", 10.0),
            ("secure_aggregation", False),
            ("secure_mask_scale", 10.0),
        ):
            if payload[threat_field] == default:
                del payload[threat_field]
        # population-dynamics fields (diurnal cycle, churn, device classes,
        # drift) — absent at defaults, so every pre-dynamics checkpoint and
        # golden fixture keeps its byte-exact payload
        for dynamics_field, default in (
            ("availability_cycle", None),
            ("availability_period", 24),
            ("churn_rate", None),
            ("device_classes", None),
            ("drift_rate", None),
        ):
            if payload[dynamics_field] == default:
                del payload[dynamics_field]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FederatedConfig":
        """Rebuild a config from :meth:`to_dict` output (or a YAML mapping)."""
        data = dict(payload)
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown FederatedConfig fields: {sorted(unknown)}")
        for tuple_field in (
            "attack_rounds",
            "attack_clients",
            "byzantine_clients",
            "device_classes",
        ):
            value = data.get(tuple_field)
            if value is not None and not isinstance(value, str):
                data[tuple_field] = tuple(value)
        return cls(**data)
