"""Client-availability dynamics: dropout, stragglers, and temporal structure.

Real federated deployments never see the full selected cohort report back:
devices go offline mid-round (dropout) and slow devices miss the server's
aggregation deadline (stragglers).  On top of those i.i.d. per-round effects
the *population itself* has temporal structure — phones charge overnight,
devices churn in and out of the fleet, and slow hardware is slow every
round.  :class:`AvailabilityModel` makes all of it first-class,
deterministic dimensions of every simulation:

* **Dropout** — each selected client independently fails to report with
  probability ``dropout_rate``;
* **Stragglers** — each surviving client draws a simulated round duration
  from ``lognormal(0, 1)`` (median 1.0 time unit) and is excluded when it
  exceeds ``straggler_deadline``;
* **Diurnal cycles** (:class:`DiurnalCycle`) — each client's offline
  probability follows a sinusoid over round time with a per-client phase
  offset, so cohorts thin and recover on a ``availability_period``-round
  cycle instead of i.i.d. noise;
* **Churn** (:class:`ChurnSchedule`) — each client has a join round and a
  geometric lifetime (mean ``1 / churn_rate`` rounds); outside its lifetime
  window the client is dead and never participates, so the *live*
  population evolves over the run;
* **Device classes** — each client draws one straggler-duration multiplier
  from ``device_classes`` once for the whole run (slow phones are slow
  every round);
* **Concept drift** (:class:`DriftModel`) — each client's shard labels
  decay toward noise on a per-round ramp, modelling data that goes stale.

Clients excluded by the *temporal* dynamics (churn-dead or cycle-offline)
are recorded as ``offline`` — distinct from ``dropped`` (mid-round failure)
and ``stragglers`` (deadline miss).

Determinism
-----------
All draws come from ``np.random.SeedSequence`` streams derived through
:func:`repro.rng.domain_seed_sequence` with dedicated domain tags, so they
never collide with each other or with the client training streams.  The
per-round dropout/straggler draws keep their historical scheme: under
fixed-size sampling each *slot* of the selected cohort consumes its own
spawned child stream (the scheme the committed golden trajectories depend
on); under Poisson sampling the draws are keyed on the *client id* instead
(``by_client_id=True``), which makes them independent of the population
size and of which other clients were drawn — the same discipline
:func:`repro.federated.executor.client_id_seed_sequence` applies to
training streams.  The temporal dynamics are keyed on the client's
coordinate alone (churn windows, device classes, cycle phases, drift
permutations are per-client constants) or on ``(round, client)`` (cycle
coin flips), so nothing depends on cohort composition, backend scheduling
or how many rounds ran before: serial ≡ multiprocessing ≡ resumed stays
bit-identical with every dynamic enabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.data.dataset import Dataset
from repro.rng import domain_seed_sequence

__all__ = [
    "AvailabilityModel",
    "AvailabilityDraw",
    "ChurnSchedule",
    "DiurnalCycle",
    "DriftModel",
]


#: Domain-separation tag for the availability SeedSequence streams (distinct
#: from ``executor._CLIENT_STREAM_DOMAIN`` so dropout draws never correlate
#: with training randomness).
_AVAILABILITY_DOMAIN = 0x0A7A11

#: Per-client phase offsets of the diurnal availability cycle (one uniform
#: draw per client for the whole run).
_CYCLE_PHASE_DOMAIN = 0x0D1A7A0

#: Per-(round, client) offline coin flips of the diurnal cycle.
_CYCLE_DOMAIN = 0x0D1A7A1

#: Per-client churn windows: join round and geometric lifetime.
_CHURN_DOMAIN = 0x0C40BB1

#: Per-client device-class draws (straggler-duration multipliers).
_DEVICE_CLASS_DOMAIN = 0x0DEC1A5

#: Per-client concept-drift permutations and replacement labels.
_DRIFT_DOMAIN = 0x0D21F70


@dataclass(frozen=True)
class AvailabilityDraw:
    """Outcome of one round's availability draws over the selected cohort."""

    #: clients that participate (report an update in time), in selection order
    participating: List[int] = field(default_factory=list)
    #: slots of the participating clients within the original selected list
    #: (used to keep each client's pre-spawned training RNG stream)
    participating_slots: List[int] = field(default_factory=list)
    #: clients that dropped out of the round
    dropped: List[int] = field(default_factory=list)
    #: clients excluded for missing the round deadline
    stragglers: List[int] = field(default_factory=list)
    #: clients excluded by the temporal dynamics (churn-dead or cycle-offline)
    offline: List[int] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        """True when no selected client participates (the round is skipped)."""
        return not self.participating


class DiurnalCycle:
    """Per-client phase-offset sinusoidal offline probability over round time.

    A client's offline probability at round ``t`` is

    ``amplitude * 0.5 * (1 - cos(2 * pi * (t / period + phase)))``

    where ``phase`` is one uniform draw per client for the whole run.  At
    ``amplitude = 1`` every client is certainly offline once per period (its
    "night") and certainly available half a period later; smaller amplitudes
    soften the cycle.  Phases are client-keyed constants and the per-round
    coin flips are keyed on ``(round, client)``, so the cycle is independent
    of cohort composition and population size.
    """

    def __init__(self, seed: int, amplitude: float, period: int) -> None:
        if not 0.0 < amplitude <= 1.0:
            raise ValueError("availability_cycle amplitude must lie in (0, 1]")
        if period < 1:
            raise ValueError("availability_period must be a positive number of rounds")
        self.seed = int(seed)
        self.amplitude = float(amplitude)
        self.period = int(period)

    def phase(self, client_id: int) -> float:
        """The client's fixed phase offset in [0, 1) — one draw per run."""
        rng = np.random.default_rng(
            domain_seed_sequence(self.seed, _CYCLE_PHASE_DOMAIN, int(client_id))
        )
        return float(rng.random())

    def offline_probability(self, client_id: int, round_index: int) -> float:
        """Offline probability of ``client_id`` at round ``round_index``."""
        position = round_index / self.period + self.phase(client_id)
        return self.amplitude * 0.5 * (1.0 - math.cos(2.0 * math.pi * position))

    def offline(self, client_id: int, round_index: int) -> bool:
        """One deterministic coin flip keyed on ``(round, client)``."""
        rng = np.random.default_rng(
            domain_seed_sequence(self.seed, _CYCLE_DOMAIN, int(round_index), int(client_id))
        )
        return bool(rng.random() < self.offline_probability(client_id, round_index))


class ChurnSchedule:
    """Per-client join/depart windows: the live population evolves over time.

    Each client draws, once for the whole run, a join round (uniform over a
    window of width ``2 / churn_rate`` straddling round 0, so the population
    starts mid-churn rather than all-join-at-once) and a geometric lifetime
    with mean ``1 / churn_rate`` rounds.  The client is *alive* — eligible
    to participate — only while ``join <= t < join + lifetime``.  Windows
    are pure per-client functions of the seed: they do not depend on the
    horizon, so extending a resumed run replays the same schedule.

    Selection still samples over all ``K`` registered ids (identical RNG
    consumption to a churn-free run); dead selected clients are then marked
    ``offline``.  For Poisson sampling this thinning is *exactly* Poisson
    sampling over the live set (see :mod:`repro.federated.sampling`), so the
    O(cohort) cross-device path carries over unchanged.
    """

    def __init__(self, seed: int, churn_rate: float) -> None:
        if not 0.0 < churn_rate < 1.0:
            raise ValueError("churn_rate must lie in (0, 1)")
        self.seed = int(seed)
        self.churn_rate = float(churn_rate)
        self.mean_lifetime = 1.0 / self.churn_rate

    def window(self, client_id: int) -> Tuple[int, int]:
        """The client's ``(join_round, depart_round)`` half-open window."""
        rng = np.random.default_rng(
            domain_seed_sequence(self.seed, _CHURN_DOMAIN, int(client_id))
        )
        span = max(1, int(round(2.0 * self.mean_lifetime)))
        join = int(rng.integers(span)) - int(round(self.mean_lifetime))
        lifetime = int(rng.geometric(self.churn_rate))
        return join, join + lifetime

    def alive(self, client_id: int, round_index: int) -> bool:
        """True while the client is inside its lifetime window."""
        join, depart = self.window(client_id)
        return join <= round_index < depart

    def lifetime(self, client_id: int) -> int:
        """The client's total lifetime in rounds."""
        join, depart = self.window(client_id)
        return depart - join


class DriftModel:
    """Per-client concept drift: a deterministic label-noise ramp on shards.

    At round ``t`` a fraction ``min(1, drift_rate * t)`` of the client's
    shard carries a resampled (uniform) label instead of its true one.  The
    drifted positions are a prefix of one fixed per-client permutation and
    the replacement labels are fixed per position, so drift is *monotone*:
    an example that drifted at round ``t`` stays drifted (with the same
    wrong label) at every later round.  Round 0 is always undrifted.

    The transform is a pure function of ``(seed, client_id, round_index,
    shard)`` — applied identically by every client the roster builds, in the
    simulation and in the multiprocessing workers — so drift
    preserves every bit-identical backend/resume guarantee.
    """

    def __init__(self, seed: int, drift_rate: float) -> None:
        if not 0.0 < drift_rate <= 1.0:
            raise ValueError("drift_rate must lie in (0, 1]")
        self.seed = int(seed)
        self.drift_rate = float(drift_rate)

    @classmethod
    def from_config(cls, config) -> Optional["DriftModel"]:
        """Build the model from a config, or ``None`` when drift is off."""
        if config.drift_rate is None:
            return None
        return cls(seed=config.seed, drift_rate=config.drift_rate)

    def apply(self, client_id: int, dataset: Dataset, round_index: int) -> Dataset:
        """Return the client's shard as seen at ``round_index``."""
        fraction = min(1.0, self.drift_rate * round_index)
        count = int(math.floor(fraction * len(dataset) + 1e-9))
        if count == 0:
            return dataset
        rng = np.random.default_rng(
            domain_seed_sequence(self.seed, _DRIFT_DOMAIN, int(client_id))
        )
        order = rng.permutation(len(dataset))
        noisy = rng.integers(dataset.num_classes, size=len(dataset))
        labels = dataset.labels.copy()
        positions = order[:count]
        labels[positions] = noisy[positions]
        return Dataset(dataset.features, labels, dataset.num_classes)


class AvailabilityModel:
    """Deterministic per-round availability model (see module docs)."""

    def __init__(
        self,
        seed: int,
        dropout_rate: float = 0.0,
        straggler_deadline: Optional[float] = None,
        availability_cycle: Optional[float] = None,
        availability_period: int = 24,
        churn_rate: Optional[float] = None,
        device_classes: Optional[Sequence[float]] = None,
    ) -> None:
        if not 0.0 <= dropout_rate <= 1.0:
            raise ValueError("dropout_rate must lie in [0, 1]")
        if straggler_deadline is not None and straggler_deadline <= 0:
            raise ValueError("straggler_deadline must be positive (or None to disable)")
        if device_classes is not None:
            device_classes = tuple(float(m) for m in device_classes)
            if not device_classes or any(m <= 0 for m in device_classes):
                raise ValueError("device_classes must be a non-empty list of positive multipliers")
        self.seed = int(seed)
        self.dropout_rate = float(dropout_rate)
        self.straggler_deadline = (
            float(straggler_deadline) if straggler_deadline is not None else None
        )
        self.cycle = (
            DiurnalCycle(self.seed, availability_cycle, availability_period)
            if availability_cycle is not None
            else None
        )
        self.churn = ChurnSchedule(self.seed, churn_rate) if churn_rate is not None else None
        self.device_classes = device_classes

    @classmethod
    def from_config(cls, config) -> "AvailabilityModel":
        """Build the model from a :class:`~repro.federated.config.FederatedConfig`."""
        return cls(
            seed=config.seed,
            dropout_rate=config.dropout_rate,
            straggler_deadline=config.straggler_deadline,
            availability_cycle=config.availability_cycle,
            availability_period=config.availability_period,
            churn_rate=config.churn_rate,
            device_classes=config.device_classes,
        )

    @property
    def active(self) -> bool:
        """True when any availability dynamic is enabled."""
        return (
            self.dropout_rate > 0.0
            or self.straggler_deadline is not None
            or self.cycle is not None
            or self.churn is not None
        )

    def device_multiplier(self, client_id: int) -> float:
        """The client's fixed straggler-duration multiplier (1.0 when off)."""
        if self.device_classes is None:
            return 1.0
        rng = np.random.default_rng(
            domain_seed_sequence(self.seed, _DEVICE_CLASS_DOMAIN, int(client_id))
        )
        return self.device_classes[int(rng.integers(len(self.device_classes)))]

    # ------------------------------------------------------------------
    def draw(
        self, selected: Sequence[int], round_index: int, by_client_id: bool = False
    ) -> AvailabilityDraw:
        """Classify the selected cohort of one round.

        Temporal dynamics come first: a churn-dead or cycle-offline client is
        recorded as ``offline`` without consuming any per-round stream (its
        exclusion is a function of per-client constants and its own
        ``(round, client)`` coin, so live clients draw identically whether or
        not their peers were offline).  Each surviving client then consumes
        its own per-round stream: one uniform draw decides dropout, then
        (only when a deadline is set) one lognormal draw gives the client's
        simulated duration, scaled by its device-class multiplier.  Enabling
        stragglers therefore does not perturb the dropout pattern and vice
        versa.

        With ``by_client_id=False`` (fixed-size sampling) the dropout/
        straggler streams are the per-slot children spawned from the round's
        availability root — the historical scheme committed golden
        trajectories depend on.  With ``by_client_id=True`` (Poisson
        sampling) each stream is keyed on ``(seed, domain, round_index,
        client_id)`` directly, so a client's availability is independent of
        the population size and of the rest of the drawn cohort — never
        enumerating, or spawning seeds for, the full population.
        """
        if not self.active or not selected:
            return AvailabilityDraw(
                participating=[int(c) for c in selected],
                participating_slots=list(range(len(selected))),
            )
        base_active = self.dropout_rate > 0.0 or self.straggler_deadline is not None
        if not base_active:
            streams: List = [None] * len(selected)
        elif by_client_id:
            streams = [
                domain_seed_sequence(self.seed, _AVAILABILITY_DOMAIN, round_index, int(client))
                for client in selected
            ]
        else:
            root = domain_seed_sequence(self.seed, _AVAILABILITY_DOMAIN, round_index)
            streams = root.spawn(len(selected))
        participating: List[int] = []
        slots: List[int] = []
        dropped: List[int] = []
        stragglers: List[int] = []
        offline: List[int] = []
        for slot, (client, child) in enumerate(zip(selected, streams)):
            client = int(client)
            if self.churn is not None and not self.churn.alive(client, round_index):
                offline.append(client)
                continue
            if self.cycle is not None and self.cycle.offline(client, round_index):
                offline.append(client)
                continue
            if child is not None:
                rng = np.random.default_rng(child)
                if rng.random() < self.dropout_rate:
                    dropped.append(client)
                    continue
                if self.straggler_deadline is not None:
                    duration = rng.lognormal(mean=0.0, sigma=1.0)
                    if self.device_classes is not None:
                        duration *= self.device_multiplier(client)
                    if duration > self.straggler_deadline:
                        stragglers.append(client)
                        continue
            participating.append(client)
            slots.append(slot)
        return AvailabilityDraw(
            participating=participating,
            participating_slots=slots,
            dropped=dropped,
            stragglers=stragglers,
            offline=offline,
        )
