"""End-to-end federated learning simulation.

:class:`FederatedSimulation` ties together the data substrate, the model, the
local trainers from :mod:`repro.core`, the server and the privacy accountant,
and produces a :class:`SimulationHistory` with everything the paper's tables
and figures report: validation accuracy per round, per-iteration training
cost, the gradient-norm trajectory (Figure 3) and the accumulated privacy
spending epsilon (Table VI).

Client execution is delegated to a :class:`~repro.federated.executor.
ClientExecutor` (serial or multiprocessing, selected by
``config.executor``); both backends consume identical per-client RNG streams,
so a fixed seed yields a bit-identical history either way.  The simulation can
also write round-level JSON checkpoints and resume from them exactly — see
:meth:`FederatedSimulation.save_checkpoint` and
:meth:`FederatedSimulation.from_checkpoint`.

When the config declares an attack schedule (``attack="leakage"``), an
in-loop adversary (:class:`repro.attacks.schedule.AttackSchedule`) strikes
the scheduled rounds and its per-client
:class:`~repro.federated.server.AttackRecord` outcomes are recorded on each
``RoundResult`` — see docs/in_loop_attacks.md.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.data.synthetic import generate_train_val
from repro.nn import build_model_for_dataset, evaluate_accuracy
from repro.privacy.ledger import AccountingContext, make_accountant

from .client import LazyClientRoster
from .config import PRIVATE_METHODS, RESUME_MUTABLE_FIELDS, FederatedConfig
from .executor import ClientExecutor, make_executor
from .history import RoundSpool, round_result_from_payload, round_result_to_payload
from .server import AttackRecord, FederatedServer, MIARecord, RoundResult

__all__ = ["SimulationHistory", "FederatedSimulation", "CHECKPOINT_FORMAT_VERSION"]


#: Version tag written into every checkpoint (bump on breaking layout changes).
CHECKPOINT_FORMAT_VERSION = 1


@dataclass
class SimulationHistory:
    """Metrics collected over a federated run."""

    config: FederatedConfig
    #: validation accuracy indexed by round (only rounds where evaluation ran)
    accuracy_by_round: Dict[int, float] = field(default_factory=dict)
    #: per-round summaries from the server — a plain list by default, or a
    #: disk-backed :class:`~repro.federated.history.RoundSpool` when the
    #: simulation streams its history (both expose the same sequence
    #: interface, so every consumer below works unchanged)
    rounds: List[RoundResult] = field(default_factory=list)
    #: privacy spending epsilon after each round (empty for non-private runs);
    #: under the ``heterogeneous`` accountant this is the worst-case
    #: per-client epsilon (see docs/privacy_accounting.md)
    epsilon_by_round: Dict[int, float] = field(default_factory=dict)
    #: round the epsilon budget stopped the run *before* (``None`` when no
    #: budget was configured or the horizon was reached first)
    budget_stop_round: Optional[int] = None
    #: worst-case per-client epsilon split by churn lifetime — short-lived vs
    #: long-lived clients relative to the median lifetime (``None`` unless
    #: the run combined ``churn_rate`` with the ``heterogeneous`` accountant;
    #: computed once at the end of :meth:`FederatedSimulation.run`)
    epsilon_by_lifetime: Optional[Dict[str, float]] = None

    @property
    def final_accuracy(self) -> float:
        """Validation accuracy after the last evaluated round."""
        if not self.accuracy_by_round:
            return float("nan")
        return self.accuracy_by_round[max(self.accuracy_by_round)]

    @property
    def final_epsilon(self) -> float:
        """Privacy spending after the last round (0 for non-private methods)."""
        if not self.epsilon_by_round:
            return 0.0
        return self.epsilon_by_round[max(self.epsilon_by_round)]

    @property
    def mean_time_per_iteration_ms(self) -> float:
        """Average per-client per-iteration training cost (Table III)."""
        values = [r.mean_time_per_iteration_ms for r in self.rounds if r.mean_time_per_iteration_ms > 0]
        return float(np.mean(values)) if values else 0.0

    @property
    def gradient_norm_series(self) -> List[float]:
        """Mean gradient L2 norm per round (the Figure 3 series)."""
        return [r.mean_gradient_norm for r in self.rounds]

    # ------------------------------------------------------------------
    # Scenario / availability bookkeeping
    # ------------------------------------------------------------------
    @property
    def participation_series(self) -> List[int]:
        """Number of clients whose updates were aggregated, per round."""
        return [len(r.participating_clients) for r in self.rounds]

    @property
    def total_dropped(self) -> int:
        """Total client drop-outs across the run."""
        return sum(len(r.dropped_clients) for r in self.rounds)

    @property
    def total_stragglers(self) -> int:
        """Total deadline-missing client exclusions across the run."""
        return sum(len(r.straggler_clients) for r in self.rounds)

    @property
    def total_offline(self) -> int:
        """Total churn-dead / cycle-offline client exclusions across the run."""
        return sum(len(r.offline_clients) for r in self.rounds)

    @property
    def skipped_rounds(self) -> int:
        """Rounds where no client participated (server weights unchanged)."""
        return sum(1 for r in self.rounds if r.skipped)

    # ------------------------------------------------------------------
    # In-loop adversary bookkeeping (see docs/in_loop_attacks.md)
    # ------------------------------------------------------------------
    @property
    def attacked_rounds(self) -> List[int]:
        """Round indices at which the in-loop adversary struck."""
        return [r.round_index for r in self.rounds if r.attacks or r.mia]

    @property
    def attack_records(self) -> List[AttackRecord]:
        """All in-loop attack records across the run, in round order."""
        return [record for r in self.rounds for record in r.attacks]

    @property
    def mean_attack_mse(self) -> float:
        """Mean reconstruction MSE over every in-loop attack (NaN when none ran)."""
        records = self.attack_records
        if not records:
            return float("nan")
        return float(np.mean([record.mse for record in records]))

    @property
    def attack_success_rate(self) -> float:
        """Fraction of in-loop attacks that met the success threshold (NaN when none ran)."""
        records = self.attack_records
        if not records:
            return float("nan")
        return float(np.mean([record.success for record in records]))

    @property
    def mia_records(self) -> List[MIARecord]:
        """All in-loop membership inference audits across the run, in round order."""
        return [record for r in self.rounds for record in r.mia]

    @property
    def mia_auc_by_round(self) -> Dict[int, float]:
        """Mean membership AUC of each audited round (the per-round leakage series)."""
        return {
            r.round_index: float(np.mean([record.auc for record in r.mia]))
            for r in self.rounds
            if r.mia
        }

    @property
    def mean_mia_auc(self) -> float:
        """Mean membership AUC over every in-loop audit (NaN when none ran)."""
        records = self.mia_records
        if not records:
            return float("nan")
        return float(np.mean([record.auc for record in records]))

    # ------------------------------------------------------------------
    # Serialization (checkpoints and the CLI's ``--output`` JSON)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Strict-JSON-serialisable dictionary (round keys become strings).

        ``NaN`` metrics (the loss of a skipped round, the accuracy of a run
        interrupted before its first evaluation) are encoded as ``null`` so
        the emitted checkpoints and ``--output`` files stay valid RFC-8259
        JSON for strict consumers (jq, ``JSON.parse``, ...).
        """
        def de_nan(value: float):
            return None if isinstance(value, float) and np.isnan(value) else value

        # one shared serialiser with the round spool, so a spooled round and
        # a checkpointed round are the same bytes (see repro.federated.history)
        rounds = [round_result_to_payload(result) for result in self.rounds]
        payload = {
            "config": self.config.to_dict(),
            "accuracy_by_round": {str(k): v for k, v in self.accuracy_by_round.items()},
            "epsilon_by_round": {str(k): v for k, v in self.epsilon_by_round.items()},
            "rounds": rounds,
            "final_accuracy": de_nan(self.final_accuracy),
            "final_epsilon": self.final_epsilon,
            "mean_time_per_iteration_ms": self.mean_time_per_iteration_ms,
        }
        # omitted unless set, keeping pre-budget payloads byte-identical
        if self.budget_stop_round is not None:
            payload["budget_stop_round"] = self.budget_stop_round
        # same convention: only churn + heterogeneous-accountant runs carry it
        if self.epsilon_by_lifetime is not None:
            payload["epsilon_by_lifetime"] = self.epsilon_by_lifetime
        return payload

    @classmethod
    def from_dict(cls, payload: dict, config: Optional[FederatedConfig] = None) -> "SimulationHistory":
        """Inverse of :meth:`to_dict` (derived summary fields are recomputed)."""
        config = config if config is not None else FederatedConfig.from_dict(payload["config"])
        rounds = [round_result_from_payload(entry) for entry in payload["rounds"]]
        return cls(
            config=config,
            accuracy_by_round={int(k): float(v) for k, v in payload["accuracy_by_round"].items()},
            epsilon_by_round={int(k): float(v) for k, v in payload["epsilon_by_round"].items()},
            rounds=rounds,
            budget_stop_round=payload.get("budget_stop_round"),
            epsilon_by_lifetime=payload.get("epsilon_by_lifetime"),
        )


class FederatedSimulation:
    """Builds and runs one federated learning experiment from a config."""

    def __init__(
        self,
        config: FederatedConfig,
        train_dataset=None,
        val_dataset=None,
        model=None,
        trainer=None,
        history_spool: Optional[str] = None,
        history_tail: int = 64,
    ) -> None:
        self.config = config
        self.rng = np.random.default_rng(config.seed)

        # remember whether the caller supplied its own data: multiprocessing
        # workers either regenerate the default dataset from the config or
        # receive the custom one over the wire (see make_executor below)
        custom_data = train_dataset is not None
        if train_dataset is None or val_dataset is None:
            train_dataset, val_dataset = generate_train_val(
                config.spec, config.num_train_examples, config.num_val_examples, seed=config.seed
            )
        self.train_dataset = train_dataset
        self.val_dataset = val_dataset

        self.model = (
            model
            if model is not None
            else build_model_for_dataset(config.spec, seed=config.seed, scale=config.model_scale)
        )

        if (model is not None or trainer is not None) and config.executor != "serial":
            raise ValueError(
                "a custom model/trainer requires executor='serial': multiprocessing "
                "workers rebuild the default model and trainer from the config and "
                "would silently ignore the custom objects"
            )
        if trainer is None:
            from repro.core.factory import make_trainer  # local import to avoid a cycle

            trainer = make_trainer(config.method, self.model, config)
        self.trainer = trainer

        # every client and its shard are derived on demand from (seed,
        # strategy, client id); the roster's population is the first consumer
        # of the main RNG, here and in every multiprocessing worker (see
        # docs/cross_device_scale.md).  Byzantine label flipping poisons the
        # designated shards as they are built; concept drift is applied per
        # round by the clients, so attack ground truth keeps the true labels
        self.clients = LazyClientRoster.from_config(config, self.train_dataset, self.trainer, self.rng)
        executor = make_executor(
            config,
            self.clients,
            train_dataset=self.train_dataset,
            dataset_from_config=not custom_data,
        )

        sanitizer = None
        if config.method == "fed_sdp" and config.sdp_server_side:
            sanitizer = self.trainer.sanitize_update
        self.server = FederatedServer(
            config,
            self.model.get_weights(),
            executor,
            update_sanitizer=sanitizer,
            byzantine=self.clients.byzantine,
        )
        # lazy import: the attack stack (scipy's optimiser) is only paid for
        # when the config actually schedules an in-loop adversary
        if config.attack is not None:
            from repro.attacks.schedule import AttackSchedule

            self.attack_schedule: Optional["AttackSchedule"] = AttackSchedule.from_config(config)
        else:
            self.attack_schedule = None
        # the accountant is resolved through the registry and bound to the
        # *realised* partition, so shard-size-aware accountants see the true
        # per-client rates (docs/privacy_accounting.md)
        self.accountant = make_accountant(
            config.accountant,
            context=AccountingContext.from_config(config, self.clients.population.shard_sizes()),
        )
        self.history = SimulationHistory(config=config)
        self._history_spool = history_spool
        self._history_tail = int(history_tail)
        if history_spool is not None:
            self.history.rounds = RoundSpool(history_spool, tail_window=history_tail)
        self._completed_rounds = 0

    # ------------------------------------------------------------------
    def evaluate(self) -> float:
        """Validation accuracy of the current global model."""
        self.model.set_weights(self.server.global_weights)
        return evaluate_accuracy(self.model, self.val_dataset.features, self.val_dataset.labels)

    def run(
        self,
        rounds: Optional[int] = None,
        verbose: bool = False,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 1,
    ) -> SimulationHistory:
        """Run the federated training loop and return the collected history.

        Starts from the first round not yet completed, so a simulation
        restored with :meth:`from_checkpoint` simply continues.  When
        ``checkpoint_path`` is given, a checkpoint is written after every
        ``checkpoint_every``-th round (and always after the final one).
        """
        if checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        total_rounds = rounds if rounds is not None else self.config.rounds
        history = self.history
        # recomputed at the end of every run() call from accountant state, so
        # a mid-run checkpoint never carries a stale split and resumed runs
        # reach the identical final value
        history.epsilon_by_lifetime = None
        is_private = self.config.method in PRIVATE_METHODS
        budget = self.config.epsilon_budget if is_private else None
        for round_index in range(self._completed_rounds, total_rounds):
            if budget is not None and self._round_would_exceed_budget(round_index, budget):
                # stop *before* the release that would blow the budget; the
                # projection depends only on accountant state, so a resumed
                # run reaches the identical stopping decision
                history.budget_stop_round = round_index
                break
            attack_this_round = (
                self.attack_schedule is not None
                and self.attack_schedule.is_attack_round(round_index)
            )
            if attack_this_round:
                # the adversary targets the broadcast weights W(t) the cohort
                # trained from, captured before aggregation replaces them
                broadcast_weights = [np.array(w, copy=True) for w in self.server.global_weights]
            result = self.server.run_round(round_index, self.rng)
            if attack_this_round and not result.skipped:
                # observational only: the attack consumes its own RNG domain
                # and never touches server, trainer or accountant state, so
                # the training trajectory matches the unattacked run exactly.
                # reconstruction attacks target the broadcast W(t); the
                # membership audit targets the *released* W(t+1) the server
                # just aggregated
                result.attacks, result.mia = self.attack_schedule.run_round_attacks(
                    self.trainer,
                    self.clients,
                    broadcast_weights,
                    result.participating_clients,
                    round_index,
                    released_weights=self.server.global_weights,
                    nonmember_dataset=self.val_dataset,
                )
            history.rounds.append(result)
            if is_private:
                # a skipped round releases nothing, so it costs no privacy;
                # epsilon is still recorded (flat) to keep the series per-round
                if not result.skipped:
                    charge = self.trainer.round_privacy_charge(round_index)
                    if charge is not None:
                        self.accountant.charge_round(charge, result.participating_clients)
                history.epsilon_by_round[round_index] = self.accountant.get_epsilon(self.config.delta)
            # forced final evaluation happens at the end of the *experiment*
            # (not at the interruption point of a partial run(rounds=N) call,
            # which would leave extra accuracy entries in a resumed history)
            final_round = max(total_rounds, self.config.rounds) - 1
            if (round_index + 1) % self.config.eval_every == 0 or round_index == final_round:
                accuracy = self.evaluate()
                history.accuracy_by_round[round_index] = accuracy
                if verbose:  # pragma: no cover - console convenience
                    print(
                        f"[{self.config.method}] round {round_index + 1}/{total_rounds} "
                        f"accuracy={accuracy:.4f} loss={result.mean_loss:.4f}"
                    )
            self._completed_rounds = round_index + 1
            if checkpoint_path is not None and (
                (round_index + 1) % checkpoint_every == 0 or round_index == total_rounds - 1
            ):
                self.save_checkpoint(checkpoint_path)
        if history.budget_stop_round is not None:
            # the run ended early: evaluate the released model once (the stop
            # round is off the eval_every grid in general) and persist the
            # stopping decision into the checkpoint
            last = self._completed_rounds - 1
            if last >= 0 and last not in history.accuracy_by_round:
                history.accuracy_by_round[last] = self.evaluate()
            if verbose:  # pragma: no cover - console convenience
                print(
                    f"[{self.config.method}] epsilon budget {self.config.epsilon_budget} "
                    f"reached: stopped before round {history.budget_stop_round + 1}"
                )
            if checkpoint_path is not None:
                self.save_checkpoint(checkpoint_path)
        self._record_lifetime_epsilons(history)
        return history

    def _record_lifetime_epsilons(self, history: SimulationHistory) -> None:
        """Split the worst-case per-client epsilon by churn lifetime.

        Only meaningful when the run combined ``churn_rate`` with a
        per-client accountant (``heterogeneous``): clients that ever
        participated are split at the median churn lifetime, and the
        worst-case epsilon of each group is recorded — the chart behind
        ``examples/lifetime_epsilon_study.py`` (long-lived clients are
        charged more rounds, so their worst case dominates).
        """
        churn = self.server.availability.churn
        if churn is None or not hasattr(self.accountant, "epsilon_per_client"):
            return
        counts = np.asarray(self.accountant.participation_counts)
        participants = np.nonzero(counts > 0)[0]
        if len(participants) < 2:
            return
        lifetimes = np.array([churn.lifetime(int(c)) for c in participants], dtype=np.float64)
        median = float(np.median(lifetimes))
        short = participants[lifetimes <= median]
        long_lived = participants[lifetimes > median]
        if len(short) == 0 or len(long_lived) == 0:
            return
        epsilons = np.asarray(self.accountant.epsilon_per_client(self.config.delta))
        history.epsilon_by_lifetime = {
            "median_lifetime_rounds": median,
            "short_lived_clients": int(len(short)),
            "long_lived_clients": int(len(long_lived)),
            "short_lived_worst_epsilon": float(np.max(epsilons[short])),
            "long_lived_worst_epsilon": float(np.max(epsilons[long_lived])),
        }

    def _round_would_exceed_budget(self, round_index: int, budget: float) -> bool:
        """Would charging one more (fully participating) round exceed the budget?"""
        charge = self.trainer.round_privacy_charge(round_index)
        if charge is None:
            return False
        return self.accountant.projected_epsilon(charge, self.config.delta) > budget

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the client-execution backend (worker pools)."""
        self.server.executor.close()

    def __enter__(self) -> "FederatedSimulation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    @property
    def completed_rounds(self) -> int:
        """Number of federated rounds finished so far."""
        return self._completed_rounds

    def state_dict(self) -> dict:
        """Everything needed to resume this simulation bit-exactly.

        Weights are stored as nested lists via ``ndarray.tolist()`` and the
        JSON float repr round-trips ``float64`` exactly, so a resumed run is
        numerically identical to an uninterrupted one (regression-tested).
        """
        return {
            "format": CHECKPOINT_FORMAT_VERSION,
            "config": self.config.to_dict(),
            "completed_rounds": self._completed_rounds,
            "rng_state": self.rng.bit_generator.state,
            "global_weights": [w.tolist() for w in self.server.global_weights],
            "accountant": self.accountant.state_dict(),
            "history": self.history.to_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore server weights, RNG, accountant and history from a checkpoint."""
        if state.get("format") != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(
                f"unsupported checkpoint format {state.get('format')!r}; "
                f"expected {CHECKPOINT_FORMAT_VERSION}"
            )
        checkpoint_config = FederatedConfig.from_dict(state["config"])
        runtime = {name: getattr(self.config, name) for name in RESUME_MUTABLE_FIELDS}
        if (
            checkpoint_config.with_overrides(**runtime) != self.config
            or self.config.rounds < checkpoint_config.rounds
        ):
            raise ValueError(
                "checkpoint config does not match this simulation's config (only "
                f"{'/'.join(RESUME_MUTABLE_FIELDS)} may differ, and rounds may only grow)"
            )
        # parse the history *before* touching any live state (weights, RNG,
        # spool): a malformed checkpoint must leave this simulation — and any
        # spool file already on disk — exactly as they were
        restored = SimulationHistory.from_dict(state["history"], config=self.config)
        self.server.global_weights = [
            np.array(w, dtype=np.float64) for w in state["global_weights"]
        ]
        self.rng.bit_generator.state = state["rng_state"]
        self.accountant.load_state_dict(state["accountant"])
        if self._history_spool is not None:
            # re-spool the restored rounds so the resumed run appends to a
            # fresh spool file and keeps only the tail window in RAM; any
            # spool the constructor already opened on this path must be
            # closed first — two live write handles on one file would
            # truncate each other's output
            if isinstance(self.history.rounds, RoundSpool):
                self.history.rounds.close()
            spool = RoundSpool(self._history_spool, tail_window=self._history_tail)
            spool.extend(restored.rounds)
            restored.rounds = spool
        self.history = restored
        self._completed_rounds = int(state["completed_rounds"])

    def save_checkpoint(self, path: str) -> None:
        """Atomically write a JSON checkpoint of the current state."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(self.state_dict(), handle)
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise

    @classmethod
    def from_checkpoint(
        cls,
        path: str,
        *,
        history_spool: Optional[str] = None,
        history_tail: int = 64,
        **overrides,
    ) -> "FederatedSimulation":
        """Rebuild a simulation from a checkpoint and position it to resume.

        ``overrides`` may replace the checkpointed value of any field in
        :data:`~repro.federated.config.RESUME_MUTABLE_FIELDS` (``None`` keeps
        the checkpoint's value); any other field raises ``ValueError``,
        because the checkpoint pins it.  The execution backend
        (``executor``, ``num_workers``, ``worker_chunk_size``) is a runtime
        choice that does not affect the numerics (both backends consume
        identical RNG streams).
        ``history_spool`` / ``history_tail`` stream the resumed history to a
        fresh disk spool (see docs/cross_device_scale.md).  ``rounds`` may
        extend the run ("resume and keep going"); it is applied *before* the
        simulation
        is rebuilt, so round-count-dependent state — notably the
        Fed-CDP(decay) clipping schedule — spans the new horizon, matching
        what a fresh run of the extended length would use for the remaining
        rounds.  (The already-completed rounds keep whatever schedule they
        were trained with; extending a decay run is inherently a different
        experiment from a fresh long one.)
        """
        pinned = sorted(set(overrides) - set(RESUME_MUTABLE_FIELDS))
        if pinned:
            raise ValueError(
                f"the checkpoint pins {', '.join(pinned)}; a resume may only change "
                f"{', '.join(RESUME_MUTABLE_FIELDS)}"
            )
        with open(path) as handle:
            state = json.load(handle)
        config = FederatedConfig.from_dict(state["config"])
        overrides = {name: value for name, value in overrides.items() if value is not None}
        if overrides.get("rounds", config.rounds) < config.rounds:
            raise ValueError(
                f"rounds may only extend the checkpointed run "
                f"({overrides['rounds']} < {config.rounds})"
            )
        config = config.with_overrides(**overrides)
        # construct WITHOUT the spool: the constructor's RoundSpool truncates
        # its path on open, which would destroy an existing spool before the
        # restore is known to succeed (and leave two write handles on the
        # same file); load_state_dict opens the spool itself, last
        simulation = cls(config, history_tail=history_tail)
        if history_spool is not None:
            simulation._history_spool = history_spool
        simulation.load_state_dict(state)
        return simulation

    # ------------------------------------------------------------------
    @property
    def executor(self) -> ClientExecutor:
        """The server's client-execution backend; assigning swaps it for the
        following rounds."""
        return self.server.executor

    @executor.setter
    def executor(self, executor: ClientExecutor) -> None:
        self.server.executor = executor

    def global_weights(self) -> List[np.ndarray]:
        """Copies of the current global model weights."""
        return [np.array(w, copy=True) for w in self.server.global_weights]
