"""In-loop attack scheduling: a deterministic adversary inside the simulation.

The offline threat harness (:mod:`repro.attacks.threat`) attacks a model
snapshot in isolation; this module puts the adversary *inside*
:class:`~repro.federated.simulation.FederatedSimulation`.  An
:class:`AttackSchedule` — declared on the
:class:`~repro.federated.config.FederatedConfig` via the ``attack*`` fields —
designates the rounds and clients to strike, with three adversary kinds:

``leakage``
    The fixed-budget gradient-reconstruction attack: at each attacked round
    the adversary intercepts a participating client's round share and runs
    the batched multi-restart reconstruction of
    :mod:`repro.attacks.multistart` against it, producing one
    :class:`~repro.federated.server.AttackRecord` per attacked client.
``adaptive``
    The same reconstruction, but the restart/iteration budget is tuned per
    observation from the observed gradient norm
    (:mod:`repro.attacks.adaptive`): heavily sanitised observations earn a
    larger budget, crisp ones a smaller — the DLG-line's "evaluate against
    adaptive, not fixed, adversaries" requirement.
``membership``
    The loss-threshold membership inference audit
    (:mod:`repro.core.membership_inference`) of each attacked round's
    *released* global weights ``W(t+1)``: the attacked client's shard plays
    the members, a same-size held-out sample the non-members, and the
    per-client AUC/advantage land in
    :class:`~repro.federated.server.MIARecord` entries next to the
    reconstruction records.

Threat model
------------
Following the paper's Figure-1 setup (and the harness's type-0 observation),
the leaked quantity at round ``t`` is the client's *sanitised* gradient at
the broadcast global weights ``W(t)`` over one private probe example drawn
from its realised shard: exact for the non-private baseline, per-update
noised for Fed-SDP, per-example clipped-and-noised for Fed-CDP.  When the
config wires in secure aggregation, the server-side adversary only ever sees
the client's *masked* upload, so the observation carries the round's
pairwise mask as well.  Every adversary here is purely observational — it
never mutates server state, trainer state or the simulation's main RNG, so
an attacked run's training trajectory is bit-identical to the same run
without the adversary (regression-tested).

Determinism
-----------
Every draw an adversary consumes (probe-example choice, the observation's
sanitisation draws, each restart's dummy seed, the non-member sample) comes
from :func:`repro.federated.executor.domain_seed_sequence` under a
kind-dedicated domain tag — :data:`ATTACK_DOMAIN` for ``leakage``,
:data:`~repro.attacks.adaptive.ADAPTIVE_ATTACK_DOMAIN` for ``adaptive``,
:data:`MEMBERSHIP_ATTACK_DOMAIN` for ``membership`` — keyed on ``(config
seed, domain, round, client)`` plus the restart index for dummy seeds.  The
streams are therefore independent of the execution backend (serial ≡
multiprocessing bit-identically), of scheduling, and of how many rounds ran
before (exact checkpoint resume mid-schedule).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.membership_inference import loss_threshold_attack
from repro.federated.config import ATTACK_KINDS, FederatedConfig
from repro.federated.executor import domain_seed_sequence
from repro.federated.secure_aggregation import RoundSecureAggregator
from repro.federated.server import AttackRecord, MIARecord

from .adaptive import ADAPTIVE_ATTACK_DOMAIN, observed_update_norm, tune_attack_budget
from .multistart import MultiRestartReconstruction
from .reconstruction import AttackConfig
from .threat import GradientLeakageThreat

__all__ = [
    "ATTACK_DOMAIN",
    "MEMBERSHIP_ATTACK_DOMAIN",
    "AttackSchedule",
    "resolve_attack_rounds",
]


#: Domain-separation tag for the fixed-budget ``leakage`` adversary's RNG
#: streams (distinct from the client-training and availability domains — see
#: :mod:`repro.federated.executor`).  The ``adaptive`` and ``membership``
#: kinds use their own sibling tags, so no two adversary kinds ever consume
#: correlated randomness.
ATTACK_DOMAIN = 0x0A77AC4

#: Domain-separation tag for the in-loop membership inference audit (the
#: non-member sample draw).
MEMBERSHIP_ATTACK_DOMAIN = 0x0331A75


def _every_step(spec: str) -> int:
    """The stride of a normalised ``"every_k"`` spec (the single owner of
    that grammar on the consuming side; validation lives in
    :func:`repro.federated.config.normalize_attack_rounds`)."""
    return int(spec.split("_", 1)[1])


def resolve_attack_rounds(
    spec: Optional[object], total_rounds: int
) -> Tuple[int, ...]:
    """Concrete attacked round indices under a normalised ``attack_rounds`` spec.

    ``None`` attacks every round, ``"every_k"`` attacks rounds ``0, k, 2k,
    ...``, and an explicit tuple is clipped to the horizon.
    """
    if spec is None:
        return tuple(range(total_rounds))
    if isinstance(spec, str):
        return tuple(range(0, total_rounds, _every_step(spec)))
    return tuple(r for r in spec if r < total_rounds)


class AttackSchedule:
    """Runs the configured adversary at the designated rounds of a simulation."""

    def __init__(self, config: FederatedConfig) -> None:
        if config.attack not in ATTACK_KINDS:
            raise ValueError(
                f"unknown attack {config.attack!r}; expected one of {ATTACK_KINDS}"
            )
        self.config = config
        self.kind = config.attack
        self.rounds_spec = config.attack_rounds
        self.client_filter = (
            frozenset(config.attack_clients) if config.attack_clients is not None else None
        )
        self.restarts = int(config.attack_seeds)
        # images live in [0, 1]; the synthetic tabular features are Gaussian
        # cluster points, so the reconstruction box is widened accordingly
        value_range = (0.0, 1.0) if config.spec.is_image else (-6.0, 6.0)
        self.attack_config = AttackConfig(
            max_iterations=int(config.attack_iterations),
            value_range=value_range,
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config: FederatedConfig) -> Optional["AttackSchedule"]:
        """The schedule declared by ``config``, or ``None`` when attacks are off."""
        if config.attack is None:
            return None
        return cls(config)

    # ------------------------------------------------------------------
    def is_attack_round(self, round_index: int) -> bool:
        """Whether the adversary strikes at ``round_index``."""
        spec = self.rounds_spec
        if spec is None:
            return True
        if isinstance(spec, str):
            return round_index % _every_step(spec) == 0
        return round_index in spec

    def target_clients(self, participating: Sequence[int]) -> List[int]:
        """The participating clients the adversary attacks this round."""
        if self.client_filter is None:
            return [int(c) for c in participating]
        return [int(c) for c in participating if c in self.client_filter]

    # ------------------------------------------------------------------
    def run_round_attacks(
        self,
        trainer,
        clients: Sequence,
        broadcast_weights: Sequence[np.ndarray],
        participating: Sequence[int],
        round_index: int,
        released_weights: Optional[Sequence[np.ndarray]] = None,
        nonmember_dataset=None,
    ) -> Tuple[List[AttackRecord], List[MIARecord]]:
        """Attack every targeted participant of one round.

        ``broadcast_weights`` must be the global weights ``W(t)`` the round's
        cohort trained from (captured *before* aggregation);
        ``released_weights`` the post-aggregation ``W(t+1)`` the membership
        audit targets, with ``nonmember_dataset`` supplying its held-out
        non-members.  Returns ``(reconstruction records, membership
        records)`` — exactly one of the two is non-empty, in participation
        order.
        """
        attacks: List[AttackRecord] = []
        audits: List[MIARecord] = []
        if self.kind == "membership":
            if released_weights is None or nonmember_dataset is None:
                raise ValueError(
                    "the membership audit needs the released weights and a "
                    "non-member dataset"
                )
            for client_id in self.target_clients(participating):
                audits.append(
                    self._audit_client(
                        trainer, clients[client_id], released_weights, round_index,
                        nonmember_dataset,
                    )
                )
            return attacks, audits
        # under secure aggregation the server-side adversary observes the
        # masked upload: the round's pairwise mask rides on the observation
        masker = None
        if self.config.secure_aggregation:
            masker = RoundSecureAggregator(
                participating,
                self.config.seed,
                round_index,
                mask_scale=self.config.secure_mask_scale,
            )
        for client_id in self.target_clients(participating):
            attacks.append(
                self._attack_client(
                    trainer, clients[client_id], broadcast_weights, round_index, masker
                )
            )
        return attacks, audits

    def _attack_client(
        self,
        trainer,
        client,
        broadcast_weights: Sequence[np.ndarray],
        round_index: int,
        masker: Optional[RoundSecureAggregator] = None,
    ) -> AttackRecord:
        seed = self.config.seed
        client_id = client.client_id
        domain = ADAPTIVE_ATTACK_DOMAIN if self.kind == "adaptive" else ATTACK_DOMAIN
        # one stream per (round, client) for the probe choice and the
        # observation's sanitisation draws; one per restart for dummy seeds
        observation_rng = np.random.default_rng(
            domain_seed_sequence(seed, domain, round_index, client_id)
        )
        probe = int(observation_rng.integers(0, client.num_examples))
        features = client.dataset.features[probe : probe + 1]
        labels = client.dataset.labels[probe : probe + 1]

        threat = GradientLeakageThreat(
            trainer, self.attack_config, compression_ratio=self.config.compression_ratio
        )
        observation = threat.observe(
            "type0",
            broadcast_weights,
            features,
            labels,
            round_index=round_index,
            rng=observation_rng,
        )
        observed_gradients = observation.gradients
        if masker is not None:
            observed_gradients = masker.mask_update(int(client_id), observed_gradients)

        restarts = self.restarts
        attack_config = self.attack_config
        if self.kind == "adaptive":
            # tune the budget to the observation: the defender's announced
            # clipping bound is the adversary's reference for "unsanitised"
            budget = tune_attack_budget(
                observed_update_norm(observed_gradients),
                self.config.clipping_bound,
                base_restarts=self.restarts,
                base_iterations=int(self.config.attack_iterations),
            )
            restarts = budget.restarts
            attack_config = replace(self.attack_config, max_iterations=budget.iterations)

        restart_rngs = [
            np.random.default_rng(domain_seed_sequence(seed, domain, round_index, client_id, restart))
            for restart in range(restarts)
        ]
        attack = MultiRestartReconstruction(trainer.model, attack_config)
        result = attack.run(
            observed_gradients,
            features.shape[1:],
            restart_rngs,
            ground_truth=features[0],
            labels=labels,
            global_weights=broadcast_weights,
        )
        return AttackRecord(
            client_id=int(client_id),
            mse=float(result.reconstruction_distance),
            psnr=float(result.psnr),
            success=bool(result.succeeded),
            iterations=int(result.num_iterations),
            final_loss=float(result.final_loss),
            best_restart=int(result.best_restart),
            restarts=int(result.restarts),
        )

    def _audit_client(
        self,
        trainer,
        client,
        released_weights: Sequence[np.ndarray],
        round_index: int,
        nonmember_dataset,
    ) -> MIARecord:
        """Membership-audit one client against the round's released model."""
        client_id = int(client.client_id)
        audit_rng = np.random.default_rng(
            domain_seed_sequence(
                self.config.seed, MEMBERSHIP_ATTACK_DOMAIN, round_index, client_id
            )
        )
        members = client.dataset
        count = min(len(members), len(nonmember_dataset))
        picks = np.sort(audit_rng.choice(len(nonmember_dataset), size=count, replace=False))
        # the audited model is the released aggregate; the trainer's model is
        # re-set from the authoritative weights before every other use, so
        # borrowing it here stays observational
        trainer.model.set_weights([np.array(w, copy=True) for w in released_weights])
        result = loss_threshold_attack(
            trainer.model,
            members.features,
            members.labels,
            nonmember_dataset.features[picks],
            nonmember_dataset.labels[picks],
        )
        return MIARecord(
            client_id=client_id,
            auc=float(result.auc),
            advantage=float(result.advantage),
            accuracy=float(result.accuracy),
            mean_member_loss=float(result.mean_member_loss),
            mean_nonmember_loss=float(result.mean_nonmember_loss),
            members=int(len(members)),
            nonmembers=int(count),
        )
