"""Federated server: client selection, update collection and aggregation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .aggregation import fedavg_aggregate, fedsgd_aggregate
from .availability import AvailabilityModel
from .byzantine import ByzantineBehaviour
from .compression import prune_update
from .config import FederatedConfig
from .executor import ClientExecutor, client_id_seed_sequence, spawn_client_seeds
from .sampling import sample_clients_fixed, sample_clients_poisson
from .secure_aggregation import RoundSecureAggregator

__all__ = ["AttackRecord", "MIARecord", "RoundResult", "FederatedServer"]


@dataclass
class AttackRecord:
    """Outcome of one in-loop gradient-leakage attack against one client.

    Produced by :class:`repro.attacks.schedule.AttackSchedule` at the rounds
    designated by the config's attack schedule and recorded on the round's
    :class:`RoundResult`, from where it serialises into checkpoints and the
    golden-trajectory fixtures.  All fields are plain JSON scalars; a
    non-finite ``psnr`` (a bit-perfect reconstruction) is encoded as ``null``
    by :meth:`repro.federated.simulation.SimulationHistory.to_dict`.
    """

    #: id of the attacked (participating) client
    client_id: int
    #: reconstruction MSE — the paper's per-feature root mean squared
    #: deviation between reconstruction and private ground truth (Section VII)
    mse: float
    #: peak signal-to-noise ratio of the reconstruction in dB
    psnr: float
    #: whether the gradient-matching loss reached the success threshold
    success: bool
    #: attack optimiser iterations performed before success / give-up
    iterations: int
    #: final (best) gradient-matching loss across restarts
    final_loss: float
    #: index of the winning dummy-seed restart
    best_restart: int
    #: number of dummy-seed restarts optimised (batched) for this attack
    restarts: int


@dataclass
class MIARecord:
    """Outcome of one in-loop membership inference audit against one client.

    Produced by the ``attack="membership"`` schedule after each attacked
    round's aggregation: the adversary audits the *released* global weights
    ``W(t+1)`` with the loss-threshold attack of
    :mod:`repro.core.membership_inference`, using the attacked client's shard
    as members and a same-size held-out sample as non-members.  All fields
    are plain JSON scalars and ride on the round's :class:`RoundResult` into
    checkpoints and golden fixtures.
    """

    #: id of the audited (participating) client
    client_id: int
    #: threshold-free attack AUC (0.5 = chance; the per-round headline metric)
    auc: float
    #: membership advantage (TPR - FPR) of the Yeom-calibrated threshold attack
    advantage: float
    #: balanced accuracy of the threshold attack
    accuracy: float
    #: mean loss of the client's (member) examples under the released model
    mean_member_loss: float
    #: mean loss of the held-out (non-member) sample
    mean_nonmember_loss: float
    #: member / non-member evaluation-set sizes
    members: int
    nonmembers: int


@dataclass
class RoundResult:
    """Summary of one federated round, recorded by the simulation history."""

    round_index: int
    selected_clients: List[int]
    #: mean local training loss across the participating clients
    mean_loss: float
    #: mean pre-clipping gradient L2 norm across clients (Figure 3 series)
    mean_gradient_norm: float
    #: mean per-iteration local training time in milliseconds (Table III)
    mean_time_per_iteration_ms: float
    #: free-form per-round metadata (clipping bound in effect, etc.)
    metadata: Dict[str, float] = field(default_factory=dict)
    #: clients whose updates were aggregated (== selected when no availability
    #: dynamics are configured); an empty list marks a skipped round.  This is
    #: the authoritative release record for privacy accounting: the
    #: simulation charges the accountant from it (participant-aware
    #: accountants like ``heterogeneous`` charge exactly these clients, and a
    #: skipped round — empty list — is never charged at all)
    participating_clients: List[int] = field(default_factory=list)
    #: selected clients that dropped out before reporting
    dropped_clients: List[int] = field(default_factory=list)
    #: selected clients excluded for missing the round deadline
    straggler_clients: List[int] = field(default_factory=list)
    #: selected clients excluded by the temporal population dynamics
    #: (churn-dead or diurnal-cycle offline — see docs/scenarios.md)
    offline_clients: List[int] = field(default_factory=list)
    #: in-loop adversary outcomes for this round (empty when the round was
    #: not attacked or no attack schedule is configured)
    attacks: List[AttackRecord] = field(default_factory=list)
    #: in-loop membership inference audits for this round (empty unless an
    #: ``attack="membership"`` schedule struck the round)
    mia: List[MIARecord] = field(default_factory=list)

    @property
    def skipped(self) -> bool:
        """True when no client participated (server weights were unchanged)."""
        return not self.participating_clients


class FederatedServer:
    """Runs the rounds of one federated experiment.

    Every round option is read from ``config`` (a
    :class:`~repro.federated.config.FederatedConfig`, which has already
    validated it): ``num_clients``, ``clients_per_round`` and
    ``client_sampling`` shape the cohort, ``aggregation`` and
    ``compression_ratio`` the update path, ``secure_aggregation`` and
    ``secure_mask_scale`` the masking, and ``seed`` keys every per-client
    training stream and every mask stream.

    Parameters
    ----------
    config:
        The experiment's configuration.
    global_weights:
        Initial global model weights ``W(0)`` (per-layer arrays).
    executor:
        The :class:`~repro.federated.executor.ClientExecutor` that runs the
        participants' local training.
    update_sanitizer:
        Optional callable applied to every collected client update before
        aggregation — used for the server-side variant of Fed-SDP.
    byzantine:
        Optional :class:`~repro.federated.byzantine.ByzantineBehaviour`: the
        designated clients' uploads are tampered with (scale / sign_flip)
        before any server-side processing, modelling a malicious participant
        rather than a server-side step.
    """

    def __init__(
        self,
        config: FederatedConfig,
        global_weights: Sequence[np.ndarray],
        executor: ClientExecutor,
        *,
        update_sanitizer: Optional[Callable[[List[np.ndarray], int, np.random.Generator], List[np.ndarray]]] = None,
        byzantine: Optional[ByzantineBehaviour] = None,
    ) -> None:
        self.config = config
        self.global_weights: List[np.ndarray] = [np.array(w, dtype=np.float64, copy=True) for w in global_weights]
        self.executor = executor
        #: thins each selected cohort (the whole cohort passes when the
        #: config sets no availability dynamic)
        self.availability = AvailabilityModel.from_config(config)
        self.update_sanitizer = update_sanitizer
        self.byzantine = byzantine

    # ------------------------------------------------------------------
    def select_clients(self, rng: np.random.Generator) -> List[int]:
        """Sample the round's cohort (possibly empty under Poisson sampling).

        ``"fixed"`` sampling draws exactly ``clients_per_round`` distinct
        clients; ``"poisson"`` includes each client independently with
        probability ``clients_per_round / num_clients``.
        """
        num_clients, cohort = self.config.num_clients, self.config.clients_per_round
        if self.config.client_sampling == "poisson":
            return sample_clients_poisson(num_clients, cohort / num_clients, rng=rng)
        return sample_clients_fixed(num_clients, cohort, rng=rng)

    def run_round(self, round_index: int, rng: np.random.Generator) -> RoundResult:
        """Execute one full round: select, filter availability, train, aggregate.

        The availability model thins the selected cohort into participating /
        dropped / straggling / offline clients before any local training runs
        (offline = excluded by churn or the diurnal cycle).  The executor then
        trains the participants, each on its own RNG stream derived from the
        config seed:

        * under fixed sampling, the stream of its selection slot
          (:func:`~repro.federated.executor.spawn_client_seeds`), so a
          survivor keeps its stream when an earlier slot drops out;
        * under Poisson sampling, where any subset of the population may be
          drawn, a stream keyed on its client id
          (:func:`~repro.federated.executor.client_id_seed_sequence`) — no
          seed is spawned for a client that was not drawn, so the per-round
          cost is O(cohort) whatever the population size.

        The availability draw is keyed the same way.  The server then applies
        tampering, sanitisation, compression and secure masking and
        aggregates in selection order, so the result is independent of the
        backend's scheduling.  When *no* client participates (all dropped, or
        an empty Poisson draw) the round is skipped deterministically: the
        global weights are left untouched and the empty
        ``participating_clients`` tells the privacy accountant that nothing
        was released, so the round costs no epsilon.
        """
        config = self.config
        selected = self.select_clients(rng)
        by_client_id = config.client_sampling == "poisson"
        draw = self.availability.draw(selected, round_index, by_client_id=by_client_id)
        participants = draw.participating
        if by_client_id:
            seeds = [client_id_seed_sequence(config.seed, round_index, c) for c in participants]
        else:
            slot_seeds = spawn_client_seeds(config.seed, round_index, len(selected))
            seeds = [slot_seeds[slot] for slot in draw.participating_slots]
        results = self.executor.run_clients(participants, self.global_weights, round_index, seeds)

        updates: List[List[np.ndarray]] = []
        metadata: Dict[str, float] = {}
        for client_index, result in zip(participants, results):
            delta = result.delta
            if self.byzantine is not None:
                # a malicious client tampers with its *upload*, before any
                # server-side processing sees it
                delta = self.byzantine.transform_update(int(client_index), delta)
            if self.update_sanitizer is not None:
                delta = self.update_sanitizer(delta, round_index, rng)
            if config.compression_ratio > 0.0:
                delta = prune_update(delta, config.compression_ratio)
            updates.append(delta)
            metadata.update(result.metadata)

        if participants:
            if config.aggregation == "fedavg":
                self.global_weights = fedavg_aggregate(
                    [[w + d for w, d in zip(self.global_weights, delta)] for delta in updates]
                )
            else:
                if config.secure_aggregation:
                    # each participant uploads update + pairwise masks
                    # instead; the masks cancel in the aggregate (up to float
                    # summation residue), so the server learns the mean
                    # without seeing any single update
                    aggregator = RoundSecureAggregator(
                        participants, config.seed, round_index, mask_scale=config.secure_mask_scale
                    )
                    updates = [
                        aggregator.mask_update(int(client_index), delta)
                        for client_index, delta in zip(participants, updates)
                    ]
                self.global_weights = fedsgd_aggregate(self.global_weights, updates)

        return RoundResult(
            round_index=round_index,
            selected_clients=list(selected),
            mean_loss=float(np.nanmean([r.mean_loss for r in results])) if results else float("nan"),
            mean_gradient_norm=float(np.mean([r.mean_gradient_norm for r in results])) if results else 0.0,
            mean_time_per_iteration_ms=(
                float(np.mean([r.time_per_iteration_ms for r in results])) if results else 0.0
            ),
            metadata=metadata,
            participating_clients=list(participants),
            dropped_clients=list(draw.dropped),
            straggler_clients=list(draw.stragglers),
            offline_clients=list(draw.offline),
        )
