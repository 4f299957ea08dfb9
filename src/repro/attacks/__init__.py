"""Gradient-leakage (reconstruction) attacks, the type-0/1/2 threat harness
and the in-loop attack scheduler used by the federated simulation."""

from .adaptive import (
    ADAPTIVE_ATTACK_DOMAIN,
    AdaptiveBudget,
    observed_update_norm,
    tune_attack_budget,
)
from .metrics import attack_success_rate, mean_attack_iterations, psnr, reconstruction_distance
from .multistart import MultiRestartReconstruction
from .objectives import (
    OBJECTIVE_KINDS,
    build_matching_loss,
    cosine_matching_loss,
    l2_matching_loss,
    total_variation,
)
from .reconstruction import AttackConfig, AttackResult, infer_label_from_gradients
from .schedule import (
    ATTACK_DOMAIN,
    MEMBERSHIP_ATTACK_DOMAIN,
    AttackSchedule,
    resolve_attack_rounds,
)
from .seeds import SEED_KINDS, constant_seed, make_seed, patterned_random_seed, uniform_random_seed
from .threat import LEAKAGE_TYPES, GradientLeakageThreat, LeakageObservation

__all__ = [
    "AttackConfig",
    "AttackResult",
    "MultiRestartReconstruction",
    "AttackSchedule",
    "ATTACK_DOMAIN",
    "MEMBERSHIP_ATTACK_DOMAIN",
    "ADAPTIVE_ATTACK_DOMAIN",
    "AdaptiveBudget",
    "observed_update_norm",
    "tune_attack_budget",
    "resolve_attack_rounds",
    "infer_label_from_gradients",
    "GradientLeakageThreat",
    "LeakageObservation",
    "LEAKAGE_TYPES",
    "SEED_KINDS",
    "make_seed",
    "patterned_random_seed",
    "uniform_random_seed",
    "constant_seed",
    "reconstruction_distance",
    "psnr",
    "attack_success_rate",
    "mean_attack_iterations",
    "OBJECTIVE_KINDS",
    "build_matching_loss",
    "l2_matching_loss",
    "cosine_matching_loss",
    "total_variation",
]
