"""Configuration dataclasses for the federated-learning simulation.

A single :class:`FederatedConfig` captures everything needed to reproduce one
cell of the paper's evaluation tables: the dataset and its synthetic size, the
client population ``K`` and per-round participation ``Kt``, the local training
hyper-parameters ``(B, L, eta)``, the training method (non-private, Fed-SDP,
Fed-CDP, Fed-CDP(decay), DSSGD) and its differential-privacy parameters
``(C, sigma, delta)``.

The dataclass is the single source of truth for every field: its default,
its allowed values (``choices`` metadata), whether ``python -m repro run``
exposes it as a flag (``help`` metadata) and whether a resumed checkpoint may
change it (:data:`RESUME_MUTABLE_FIELDS`).  Serialisation, the CLI and the
resume checks all derive from it.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Tuple, Union, get_args, get_origin, get_type_hints

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
    "ACCOUNTANT_NAMES",
    "ATTACK_KINDS",
    "BYZANTINE_MODES",
    "ALWAYS_SERIALISED_FIELDS",
    "FIELD_TYPES",
    "RESUME_MUTABLE_FIELDS",
    "normalize_attack_rounds",
]


#: Training methods understood by the trainer factory.
METHODS: Tuple[str, ...] = ("nonprivate", "fed_sdp", "fed_cdp", "fed_cdp_decay", "dssgd")

#: The subset of :data:`METHODS` that carries a differential-privacy guarantee
#: (and therefore drives the accountant and the epsilon budget).
PRIVATE_METHODS: Tuple[str, ...] = ("fed_sdp", "fed_cdp", "fed_cdp_decay")

#: Client-execution backends understood by :func:`repro.federated.executor.make_executor`.
EXECUTORS: Tuple[str, ...] = ("serial", "multiprocessing")

#: Per-round client-selection schemes understood by the server.
CLIENT_SAMPLING_SCHEMES: Tuple[str, ...] = ("fixed", "poisson")

#: In-loop adversary kinds understood by :class:`repro.attacks.schedule.AttackSchedule`:
#: ``leakage`` runs the fixed-budget gradient-reconstruction attack,
#: ``adaptive`` the variant that tunes its restart/iteration budget from the
#: observed gradient norm, and ``membership`` the loss-threshold membership
#: inference audit of each round's released model (per-round AUC records).
ATTACK_KINDS: Tuple[str, ...] = ("leakage", "membership", "adaptive")

#: accepted string form of ``attack_rounds``: ``"every_k"`` attacks rounds
#: ``0, k, 2k, ...``
_EVERY_K_PATTERN = re.compile(r"^every_([1-9]\d*)$")

#: Config fields a resumed checkpoint may change: the execution backend and
#: an extending horizon.  Every other field is pinned by the checkpoint.
RESUME_MUTABLE_FIELDS: Tuple[str, ...] = ("rounds", "executor", "num_workers", "worker_chunk_size")

#: Fields every serialised config carries (the checkpoint format as it first
#: stabilised).  Every other field is written only when it differs from its
#: dataclass default, so checkpoints and golden fixtures of runs that leave
#: later knobs alone stay byte-identical.
ALWAYS_SERIALISED_FIELDS: FrozenSet[str] = frozenset(
    """dataset method num_clients participation_fraction rounds batch_size local_iterations
    learning_rate model_scale num_train_examples num_val_examples data_per_client partition
    dirichlet_alpha quantity_skew_exponent client_sampling dropout_rate straggler_deadline
    clipping_bound noise_scale delta decay_clipping sdp_server_side dssgd_share_fraction
    compression_ratio aggregation executor num_workers seed eval_every""".split()
)


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
    try:
        rounds = tuple(sorted({int(r) for r in value}))
    except (TypeError, ValueError):
        raise ValueError(
            f"attack_rounds must be round indices or one 'every_k' string, got {value!r}"
        ) from None
    if not rounds:
        raise ValueError("attack_rounds must name at least one round (or be None)")
    if rounds[0] < 0:
        raise ValueError(f"attack_rounds must be non-negative, got {rounds}")
    return rounds


#: accepted value types of the scalar number fields (``bool`` never is)
_NUMBER_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a real number")}


def _field(default, **metadata):
    """A config field whose metadata validation and the ``run`` CLI read.

    ``choices`` lists the allowed values (``None`` is allowed too when it is
    the default); ``help`` exposes the field as a ``python -m repro run``
    flag, spelled ``--field-name`` unless ``flag`` says otherwise;
    ``metavar`` names a list flag's items in ``--help``.
    """
    return field(default=default, metadata=metadata)


@dataclass
class FederatedConfig:
    """Full description of one federated-learning run."""

    #: dataset name from :mod:`repro.data.registry` (``mnist``, ``cifar10``, ...)
    dataset: str = _field("mnist", help="benchmark dataset (default: mnist)")
    #: training method, one of :data:`METHODS`
    method: str = _field("fed_cdp", choices=METHODS, help="training method (default: fed_cdp)")

    # ----- population ------------------------------------------------
    #: total number of clients ``K``
    num_clients: int = _field(100, flag="--clients", help="total number of clients K")
    #: fraction of clients participating per round (``Kt / K``)
    participation_fraction: float = _field(0.10, flag="--participation", help="participating fraction Kt/K")
    #: number of federated rounds ``T``
    rounds: int = _field(10, help="number of federated rounds T")

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
    partition: str = _field(
        "shards",
        choices=PARTITION_STRATEGIES,
        help="data heterogeneity strategy (default: shards, the paper's scheme)",
    )
    #: Dirichlet concentration for ``partition="dirichlet"`` (small = pathological skew)
    dirichlet_alpha: float = _field(0.5, help="Dirichlet concentration for --partition dirichlet")
    #: power-law exponent for ``partition="quantity_skew"`` (0 = equal sizes)
    quantity_skew_exponent: float = _field(
        1.5, help="power-law exponent for --partition quantity_skew (0 = equal sizes)"
    )

    # ----- client availability (see docs/scenarios.md) ------------------
    #: per-round client-selection scheme: ``fixed`` (exactly Kt clients) or
    #: ``poisson`` (each client independently with probability Kt/K; a round
    #: may select *no* clients and is then skipped)
    client_sampling: str = _field(
        "fixed",
        choices=CLIENT_SAMPLING_SCHEMES,
        help="per-round cohort selection (default: fixed)",
    )
    #: probability that a selected client drops out of a round before
    #: reporting its update (1.0 = every round is skipped)
    dropout_rate: float = _field(
        0.0, flag="--dropout", help="per-round probability a selected client drops out"
    )
    #: round deadline in simulated time units; a surviving client whose
    #: lognormal(0, 1) simulated duration (median 1.0) exceeds it is excluded
    #: as a straggler (``None`` disables straggler exclusion)
    straggler_deadline: Optional[float] = _field(
        None, help="round deadline in simulated time units (lognormal(0,1) client durations)"
    )
    #: amplitude in (0, 1] of the diurnal availability cycle: each client's
    #: offline probability follows a per-client phase-offset sinusoid over
    #: round time (``None`` disables; see docs/scenarios.md)
    availability_cycle: Optional[float] = _field(
        None,
        help="diurnal availability-cycle amplitude in (0, 1]: each client's "
        "offline probability follows a per-client phase-offset sinusoid over "
        "round time (see docs/scenarios.md)",
    )
    #: period of the diurnal cycle in rounds ("hours per day")
    availability_period: int = _field(24, help="period of the diurnal cycle in rounds (default 24)")
    #: client churn rate in (0, 1): each client lives for a geometric number
    #: of rounds with mean ``1 / churn_rate`` before leaving the population
    #: (``None`` disables churn)
    churn_rate: Optional[float] = _field(
        None,
        help="client churn rate in (0, 1): each client lives a geometric number "
        "of rounds with mean 1/rate before leaving the population",
    )
    #: per-client device-class straggler-duration multipliers, e.g.
    #: ``(0.5, 1.0, 2.0)`` for fast/mid/slow hardware — each client draws one
    #: class for the whole run (``None`` disables; only meaningful together
    #: with ``straggler_deadline``)
    device_classes: Optional[Tuple[float, ...]] = _field(
        None,
        metavar="MULTIPLIER",
        help="per-client device-class straggler-duration multipliers, e.g. "
        "'0.5 1 2' for fast/mid/slow hardware (each client draws one class "
        "for the whole run; pair with --straggler-deadline)",
    )
    #: per-round concept-drift rate in (0, 1]: at round ``t`` a fraction
    #: ``min(1, drift_rate * t)`` of every client's shard carries a resampled
    #: label (``None`` disables drift)
    drift_rate: Optional[float] = _field(
        None,
        flag="--drift",
        help="per-round concept-drift rate in (0, 1]: at round t a fraction "
        "min(1, rate*t) of every client's shard carries a resampled label",
    )

    # ----- differential privacy ----------------------------------------
    #: clipping bound ``C`` (paper default 4)
    clipping_bound: float = _field(4.0, help="DP clipping bound C")
    #: noise multiplier ``sigma`` (paper default 6)
    noise_scale: float = _field(6.0, help="DP noise multiplier sigma")
    #: target broken-guarantee probability ``delta``
    delta: float = 1e-5
    #: clipping-decay schedule for Fed-CDP(decay): ``(start, end)``
    decay_clipping: Tuple[float, float] = (6.0, 2.0)
    #: whether Fed-SDP sanitises at the server (True) or at each client (False)
    sdp_server_side: bool = False
    #: privacy accountant, one of :data:`ACCOUNTANT_NAMES`: ``moments`` (the
    #: paper's equal-shard model) or ``heterogeneous`` (per-client RDP ledger
    #: over the realised partition — see docs/privacy_accounting.md)
    accountant: str = _field(
        "moments",
        choices=ACCOUNTANT_NAMES,
        help="privacy accountant: 'moments' (the paper's equal-shard model, default) or "
        "'heterogeneous' (per-client RDP ledger over the realised partition)",
    )
    #: stop training before the first round whose release would push the
    #: accountant's epsilon past this budget (``None`` disables; private
    #: methods only)
    epsilon_budget: Optional[float] = _field(
        None, help="stop before the first round whose release would exceed this epsilon"
    )

    # ----- in-loop adversary (see docs/in_loop_attacks.md) ---------------
    #: in-loop attack kind, one of :data:`ATTACK_KINDS` (``None`` disables;
    #: ``leakage`` runs gradient-reconstruction attacks inside the simulation)
    attack: Optional[str] = _field(
        None,
        choices=ATTACK_KINDS,
        help="run the in-loop adversary during training (see docs/in_loop_attacks.md)",
    )
    #: rounds at which the adversary strikes: ``None`` (every round), an
    #: explicit list of round indices, or the string ``"every_k"``
    attack_rounds: Optional[Union[str, Tuple[int, ...]]] = _field(
        None,
        metavar="ROUND|every_k",
        help="rounds to attack: explicit indices ('0 5 10') or one 'every_k' "
        "(default with --attack: every round)",
    )
    #: client ids the adversary targets when they participate in an attacked
    #: round (``None`` = every participating client)
    attack_clients: Optional[Tuple[int, ...]] = _field(
        None,
        metavar="CLIENT",
        help="client ids to attack when they participate (default: all participants)",
    )
    #: number of multi-restart dummy seeds per attack, optimised as one
    #: batched reconstruction (see :mod:`repro.attacks.multistart`)
    attack_seeds: int = _field(
        1, help="dummy-seed restarts per attack, optimised as one batched reconstruction"
    )
    #: maximum attack optimiser iterations per in-loop attack (the offline
    #: harness default of 300 is too slow to run inside every round)
    attack_iterations: int = _field(30, help="attack optimiser iteration cap per attack")

    # ----- byzantine clients (see docs/in_loop_attacks.md) ----------------
    #: client ids behaving byzantinely (``None`` = every client is honest);
    #: must be set together with ``byzantine_mode``
    byzantine_clients: Optional[Tuple[int, ...]] = _field(
        None,
        metavar="CLIENT",
        help="client ids that misbehave every round (requires --byzantine-mode)",
    )
    #: byzantine behaviour, one of :data:`BYZANTINE_MODES` (``scale``
    #: multiplies the uploaded update, ``sign_flip`` negates it,
    #: ``label_flip`` trains on complement-remapped labels)
    byzantine_mode: Optional[str] = _field(
        None,
        choices=BYZANTINE_MODES,
        help="byzantine behaviour: 'scale' / 'sign_flip' corrupt the upload, "
        "'label_flip' poisons the client's shard (see docs/in_loop_attacks.md)",
    )
    #: multiplicative factor applied by ``byzantine_mode="scale"``
    byzantine_scale: float = _field(10.0, help="multiplier for --byzantine-mode scale (default 10)")

    # ----- baselines / extensions --------------------------------------
    #: fraction of parameters shared by the DSSGD baseline
    dssgd_share_fraction: float = 0.1
    #: gradient-pruning compression ratio for communication-efficient FL
    #: (0 disables compression; 0.3 keeps the largest 30% of update entries)
    compression_ratio: float = 0.0
    #: aggregation rule: ``fedsgd`` or ``fedavg``
    aggregation: str = _field("fedsgd", choices=("fedsgd", "fedavg"))
    #: pairwise-masking secure aggregation (Bonawitz et al.): each
    #: participant uploads its update plus pairwise-cancelling masks, so the
    #: server (and the in-loop adversary) only ever observes masked updates;
    #: requires ``aggregation="fedsgd"``
    secure_aggregation: bool = _field(
        False,
        help="mask uploads with pairwise secure aggregation (fedsgd only; the "
        "masks cancel in the aggregate)",
    )
    #: standard deviation of the pairwise masks (large = stronger hiding of
    #: the individual update; the aggregate is unaffected either way)
    secure_mask_scale: float = _field(
        10.0, help="stddev of the pairwise secure-aggregation masks (default 10)"
    )

    # ----- execution -----------------------------------------------------
    #: client-execution backend: ``serial`` or ``multiprocessing``
    executor: str = _field("serial", choices=EXECUTORS, help="client-execution backend (default: serial)")
    #: worker-pool size for the multiprocessing backend (``None`` = one per
    #: participating client, capped at the machine's CPU count)
    num_workers: Optional[int] = _field(
        None, flag="--workers", help="worker-pool size for --executor multiprocessing"
    )
    #: clients per multiprocessing dispatch chunk (``None`` = split the
    #: cohort evenly, one chunk per worker); the global weights are
    #: serialised once per chunk
    worker_chunk_size: Optional[int] = _field(
        None, help="clients dispatched per multiprocessing task (default: cohort/workers)"
    )

    # ----- bookkeeping ---------------------------------------------------
    #: global seed controlling data generation, partitioning, sampling, noise
    seed: int = _field(0, help="global RNG seed")
    #: evaluate validation accuracy every this many rounds (1 = every round)
    eval_every: int = _field(1, help="evaluate every this many rounds")

    def __post_init__(self) -> None:
        for config_field in fields(self):
            name, value = config_field.name, getattr(self, config_field.name)
            if value is None:
                if config_field.default is None:
                    continue  # an optional knob left disabled
                raise ValueError(f"{name} must not be None")
            element, sequence = FIELD_TYPES[name]
            if element in _NUMBER_KINDS and not sequence:
                # config files are outside input: 2.5 rounds would only fail
                # after set-up, and True clients would run silently
                kind, noun = _NUMBER_KINDS[element]
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise ValueError(f"{name} must be {noun}, got {value!r}")
                if element is int:
                    setattr(self, name, int(value))
            choices = config_field.metadata.get("choices")
            if choices is not None and value not in choices:
                raise ValueError(f"unknown {name} {value!r}; expected one of {choices}")
        if self.num_clients <= 0:
            raise ValueError("num_clients must be positive")
        if not 0.0 < self.participation_fraction <= 1.0:
            raise ValueError("participation_fraction must lie in (0, 1]")
        if self.rounds <= 0:
            raise ValueError("rounds must be positive")
        # NaN passes a bare ``<= 0`` test and would surface only as a NaN
        # epsilon, non-finite weights or a non-JSON checkpoint
        positive = ("learning_rate", "clipping_bound", "dirichlet_alpha", "straggler_deadline")
        for name in positive + ("epsilon_budget", "byzantine_scale", "secure_mask_scale"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        for name in ("noise_scale", "quantity_skew_exponent"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be non-negative and finite, got {value!r}")
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
        if self.eval_every <= 0:
            raise ValueError("eval_every must be positive")
        if not 0.0 <= self.dropout_rate <= 1.0:
            raise ValueError("dropout_rate must lie in [0, 1]")
        if self.availability_cycle is not None and not 0.0 < self.availability_cycle <= 1.0:
            raise ValueError("availability_cycle must lie in (0, 1] (or None to disable)")
        if self.availability_period < 1:
            raise ValueError("availability_period must be a positive number of rounds")
        if self.churn_rate is not None and not 0.0 < self.churn_rate < 1.0:
            raise ValueError("churn_rate must lie in (0, 1) (or None to disable)")
        if self.device_classes is not None:
            classes = tuple(float(m) for m in self.device_classes)
            if not classes or not all(math.isfinite(m) and m > 0 for m in classes):
                raise ValueError(
                    "device_classes must be a non-empty list of positive finite multipliers "
                    f"(or None to disable), got {self.device_classes!r}"
                )
            self.device_classes = classes
        if self.drift_rate is not None and not 0.0 < self.drift_rate <= 1.0:
            raise ValueError("drift_rate must lie in (0, 1] (or None to disable)")
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
        attack_fields = ("attack_rounds", "attack_clients", "attack_seeds", "attack_iterations")
        if self.attack is None and any(
            getattr(self, name) != _DEFAULTS[name] for name in attack_fields
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
        if self.byzantine_clients is not None:
            byzantine = tuple(sorted({int(c) for c in self.byzantine_clients}))
            if not byzantine:
                raise ValueError("byzantine_clients must name at least one client (or be None)")
            if byzantine[0] < 0 or byzantine[-1] >= self.num_clients:
                raise ValueError(
                    f"byzantine_clients must lie in [0, {self.num_clients}), got {byzantine}"
                )
            self.byzantine_clients = byzantine
        if self.secure_aggregation and self.aggregation != "fedsgd":
            raise ValueError(
                "secure_aggregation masks shared *updates* and therefore requires "
                "aggregation='fedsgd'"
            )
        if self.num_workers is not None and self.num_workers < 1:
            raise ValueError("num_workers must be at least 1 (or None for auto)")
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

    def with_overrides(self, **kwargs) -> "FederatedConfig":
        """Return a copy of this config with the given fields replaced."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # Serialization (checkpoints, the CLI's YAML/JSON config files)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON-serialisable dictionary of the config.

        A field outside :data:`ALWAYS_SERIALISED_FIELDS` is omitted while it
        equals its dataclass default, so default runs keep emitting
        byte-identical checkpoints and golden fixtures, and checkpoints
        written before such a field existed still satisfy :meth:`from_dict`
        round-trip equality.
        """
        return {
            name: value
            for name, value in asdict(self).items()
            if name in ALWAYS_SERIALISED_FIELDS or value != _DEFAULTS[name]
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FederatedConfig":
        """Rebuild a config from :meth:`to_dict` output (or a YAML mapping).

        Older checkpoints may carry the retired eager/lazy client-construction
        switch, which never changed the numerics; it is dropped.
        """
        payload = {name: value for name, value in payload.items() if name != "client_state"}
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown FederatedConfig fields: {sorted(unknown)}")
        # __post_init__ turns the JSON lists back into tuples
        return cls(**payload)


def _element_type(hint) -> Tuple[type, bool]:
    """``(element type, is_sequence)`` of a field annotation, ``Optional`` unwrapped.

    A sequence field that also accepts a plain string (``attack_rounds``)
    reads its elements as strings.
    """
    options = [arg for arg in get_args(hint) if arg is not type(None)]
    if get_origin(hint) is not Union:
        options = [hint]
    for option in options:
        if get_origin(option) is tuple:
            return (str if str in options else get_args(option)[0]), True
    return options[0], False


#: ``field name -> (element type, is_sequence)`` resolved once from the
#: annotations; drives the integer validation and the ``run`` CLI flags
FIELD_TYPES: Dict[str, Tuple[type, bool]] = {
    name: _element_type(hint) for name, hint in get_type_hints(FederatedConfig).items()
}

_DEFAULTS: Dict[str, object] = {
    config_field.name: config_field.default for config_field in fields(FederatedConfig)
}
