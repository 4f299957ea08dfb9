"""Attack-effectiveness metrics.

The paper reports three quantities per attack (Table VII): whether the attack
*succeeded*, the number of attack iterations needed, and the *reconstruction
distance*, defined as the root mean square deviation between the reconstructed
input and its private ground-truth counterpart.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = ["reconstruction_distance", "psnr", "attack_success_rate", "mean_attack_iterations"]


def reconstruction_distance(reconstruction: np.ndarray, ground_truth: np.ndarray) -> float:
    """Root mean squared deviation between reconstruction and ground truth.

    ``sqrt( (1/A) * sum_i (x_i - x_rec_i)^2 )`` with ``A`` the number of input
    features, matching the paper's definition in Section VII.
    """
    reconstruction = np.asarray(reconstruction, dtype=np.float64)
    ground_truth = np.asarray(ground_truth, dtype=np.float64)
    if reconstruction.shape != ground_truth.shape:
        raise ValueError(
            f"shape mismatch: reconstruction {reconstruction.shape} vs ground truth {ground_truth.shape}"
        )
    return float(np.sqrt(np.mean((reconstruction - ground_truth) ** 2)))


def psnr(reconstruction: np.ndarray, ground_truth: np.ndarray, data_range: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB (infinite for a perfect reconstruction)."""
    rmse = reconstruction_distance(reconstruction, ground_truth)
    if rmse == 0.0:
        return float("inf")
    return float(20.0 * np.log10(data_range / rmse))


def _attribute(result, *names: str):
    """First present attribute of ``result`` among ``names``.

    The attack engine's :class:`~repro.attacks.reconstruction.AttackResult`
    and the in-loop :class:`~repro.federated.server.AttackRecord` use slightly
    different field names (``succeeded``/``num_iterations`` vs
    ``success``/``iterations``); the aggregate metrics accept both.
    """
    for name in names:
        if hasattr(result, name):
            return getattr(result, name)
    raise AttributeError(f"attack result {result!r} has none of {names}")


def attack_success_rate(results: Iterable) -> float:
    """Fraction of attack results flagged as successful."""
    outcomes = [bool(_attribute(result, "succeeded", "success")) for result in results]
    if not outcomes:
        return 0.0
    return float(np.mean(outcomes))


def mean_attack_iterations(results: Iterable) -> float:
    """Average number of attack iterations across results (failed runs count at their cap)."""
    iterations = [int(_attribute(result, "num_iterations", "iterations")) for result in results]
    if not iterations:
        return 0.0
    return float(np.mean(iterations))
