"""Differential-privacy substrate: mechanisms, clipping policies and accounting."""

from .accountant import (
    DEFAULT_RDP_ORDERS,
    MomentsAccountant,
    abadi_asymptotic_epsilon,
    compute_dp_sgd_epsilon,
    compute_rdp_subsampled_gaussian,
    rdp_to_epsilon,
)
from .clipping import (
    ClippingPolicy,
    ConstantClipping,
    ExponentialDecayClipping,
    LinearDecayClipping,
    MedianNormClipping,
    clip_by_l2_norm,
    clip_gradients_per_layer,
    clip_noise_mean,
    clip_per_example_stack,
    global_l2_norm,
    l2_norm,
    per_example_global_norms,
    per_example_layer_norms,
)
from .composition import advanced_composition, amplify_by_subsampling, basic_composition
from .ledger import (
    ACCOUNTANT_NAMES,
    ACCOUNTANTS,
    AccountingContext,
    HeterogeneousAccountant,
    RoundCharge,
    make_accountant,
)
from .mechanisms import GaussianMechanism, calibrate_sigma, epsilon_for_sigma

__all__ = [
    "GaussianMechanism",
    "calibrate_sigma",
    "epsilon_for_sigma",
    "ClippingPolicy",
    "ConstantClipping",
    "LinearDecayClipping",
    "ExponentialDecayClipping",
    "MedianNormClipping",
    "clip_by_l2_norm",
    "clip_gradients_per_layer",
    "clip_per_example_stack",
    "clip_noise_mean",
    "per_example_layer_norms",
    "per_example_global_norms",
    "l2_norm",
    "global_l2_norm",
    "MomentsAccountant",
    "HeterogeneousAccountant",
    "AccountingContext",
    "RoundCharge",
    "ACCOUNTANTS",
    "ACCOUNTANT_NAMES",
    "make_accountant",
    "compute_dp_sgd_epsilon",
    "compute_rdp_subsampled_gaussian",
    "rdp_to_epsilon",
    "abadi_asymptotic_epsilon",
    "DEFAULT_RDP_ORDERS",
    "amplify_by_subsampling",
    "basic_composition",
    "advanced_composition",
]
