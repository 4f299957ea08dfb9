"""Federated-learning simulation framework."""

from .aggregation import average_weight_lists, fedavg_aggregate, fedsgd_aggregate
from .availability import (
    AvailabilityDraw,
    AvailabilityModel,
    ChurnSchedule,
    DiurnalCycle,
    DriftModel,
)
from .byzantine import BYZANTINE_MODES, ByzantineBehaviour
from .client import FederatedClient
from .compression import compression_savings, prune_update
from .config import CLIENT_SAMPLING_SCHEMES, EXECUTORS, METHODS, FederatedConfig
from .executor import (
    ClientExecutor,
    MultiprocessingClientExecutor,
    SerialClientExecutor,
    domain_seed_sequence,
    make_executor,
    spawn_client_seeds,
)
from .sampling import sample_clients_fixed, sample_clients_poisson
from .secure_aggregation import SECURE_AGGREGATION_DOMAIN, RoundSecureAggregator
from .server import AttackRecord, FederatedServer, MIARecord, RoundResult
from .simulation import FederatedSimulation, SimulationHistory

__all__ = [
    "FederatedConfig",
    "METHODS",
    "EXECUTORS",
    "CLIENT_SAMPLING_SCHEMES",
    "AvailabilityModel",
    "AvailabilityDraw",
    "ChurnSchedule",
    "DiurnalCycle",
    "DriftModel",
    "ClientExecutor",
    "SerialClientExecutor",
    "MultiprocessingClientExecutor",
    "make_executor",
    "domain_seed_sequence",
    "spawn_client_seeds",
    "FederatedClient",
    "FederatedServer",
    "RoundResult",
    "AttackRecord",
    "MIARecord",
    "ByzantineBehaviour",
    "BYZANTINE_MODES",
    "FederatedSimulation",
    "SimulationHistory",
    "fedsgd_aggregate",
    "fedavg_aggregate",
    "average_weight_lists",
    "sample_clients_fixed",
    "sample_clients_poisson",
    "prune_update",
    "compression_savings",
    "RoundSecureAggregator",
    "SECURE_AGGREGATION_DOMAIN",
]
