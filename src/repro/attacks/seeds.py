"""Initialization seeds for the gradient reconstruction attack.

The attack starts from a dummy input of the same shape as the private training
data and iteratively updates it to match the leaked gradients.  Section III of
the paper notes that the choice of initialization seed has "significant impact
... on the attack success rate and attack cost" and that all experiments use
the *patterned random* seed of the CPL framework (Wei et al., ESORICS 2020)
for its high success rate and fast convergence.  Besides the patterned seed,
uniform-random, constant and zero seeds are provided for the ablation bench.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["patterned_random_seed", "uniform_random_seed", "constant_seed", "make_seed", "SEED_KINDS"]


SEED_KINDS: Tuple[str, ...] = ("patterned", "uniform", "constant", "zeros")


def patterned_random_seed(
    shape: Tuple[int, ...],
    rng: np.random.Generator,
    patch_size: int = 4,
) -> np.ndarray:
    """Patterned random initialization: a small random patch tiled over the input.

    For image shapes ``(C, H, W)`` (or batches of them) a ``patch_size`` x
    ``patch_size`` random patch is tiled across the spatial dimensions, giving
    the repeated geometric texture of the CPL "patterned" seed.  For flat
    (tabular) shapes a random vector pattern of length ``patch_size`` is tiled.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) >= 2:
        height, width = shape[-2], shape[-1]
        leading = shape[:-2]
        patch = rng.uniform(0.0, 1.0, size=leading + (patch_size, patch_size))
        reps_h = int(np.ceil(height / patch_size))
        reps_w = int(np.ceil(width / patch_size))
        tiled = np.tile(patch, (1,) * len(leading) + (reps_h, reps_w))
        return tiled[..., :height, :width].astype(np.float64)
    length = shape[0]
    pattern = rng.uniform(0.0, 1.0, size=patch_size)
    reps = int(np.ceil(length / patch_size))
    return np.tile(pattern, reps)[:length].astype(np.float64)


def uniform_random_seed(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Independent uniform noise in [0, 1] for every input entry."""
    return rng.uniform(0.0, 1.0, size=tuple(int(s) for s in shape))


def constant_seed(shape: Tuple[int, ...], value: float = 0.5) -> np.ndarray:
    """A constant-valued dummy input."""
    return np.full(tuple(int(s) for s in shape), float(value))


def make_seed(
    kind: str,
    shape: Tuple[int, ...],
    rng: np.random.Generator,
) -> np.ndarray:
    """Create an attack seed of the requested kind (see :data:`SEED_KINDS`)."""
    kind = kind.lower()
    if kind == "patterned":
        return patterned_random_seed(shape, rng=rng)
    if kind == "uniform":
        return uniform_random_seed(shape, rng=rng)
    if kind == "constant":
        return constant_seed(shape)
    if kind == "zeros":
        return np.zeros(tuple(int(s) for s in shape))
    raise ValueError(f"unknown seed kind {kind!r}; expected one of {SEED_KINDS}")
