"""Every random draw in the package comes from a generator the caller passes.

A function that quietly falls back to an unseeded ``np.random.default_rng()``
when its ``rng`` is left out turns a forgotten argument into an
unreproducible run.  Each of these calls must fail instead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import GradientLeakageThreat, make_seed, patterned_random_seed, uniform_random_seed
from repro.core import make_trainer
from repro.federated.config import FederatedConfig
from repro.nn import Conv2D, Dense, Sequential
from repro.privacy.mechanisms import GaussianMechanism


_MECHANISM = GaussianMechanism(noise_scale=1.0, sensitivity=1.0)
_MODEL = Sequential([Dense(4, 2, rng=np.random.default_rng(0))])
_THREAT = GradientLeakageThreat(
    make_trainer("nonprivate", _MODEL, FederatedConfig(dataset="cancer", method="nonprivate"))
)
_FEATURES, _LABELS = np.zeros((1, 4)), np.zeros(1, dtype=np.int64)

CALLS_WITHOUT_RNG = {
    "Dense": lambda: Dense(3, 2),
    "Conv2D": lambda: Conv2D(1, 2),
    "patterned_random_seed": lambda: patterned_random_seed((1, 4, 4)),
    "uniform_random_seed": lambda: uniform_random_seed((3,)),
    "make_seed": lambda: make_seed("uniform", (3,)),
    "GaussianMechanism.add_noise": lambda: _MECHANISM.add_noise(np.zeros(3)),
    "GaussianMechanism.add_noise_to_list": lambda: _MECHANISM.add_noise_to_list([np.zeros(3)]),
    "GaussianMechanism.add_noise_to_stack": lambda: _MECHANISM.add_noise_to_stack([np.zeros((2, 3))]),
    "GradientLeakageThreat.observe": lambda: _THREAT.observe(
        "type2", _MODEL.get_weights(), _FEATURES, _LABELS
    ),
    "GradientLeakageThreat.attack": lambda: _THREAT.attack(
        "type2", _MODEL.get_weights(), _FEATURES, _LABELS
    ),
}


@pytest.mark.parametrize("name", sorted(CALLS_WITHOUT_RNG))
def test_leaving_out_the_generator_is_an_error(name):
    with pytest.raises(TypeError, match="rng"):
        CALLS_WITHOUT_RNG[name]()
