"""Membership inference audit of the jointly trained global model.

The paper lists membership inference (its references [9]-[11]) as one of the
inference attacks an adversary can mount from leaked gradients or from the
trained model.  This module provides the standard loss-threshold membership
inference attack (Yeom et al. style) as a complementary, model-level privacy
audit: given the global model produced by a federated run, the adversary
guesses that an example was part of training when its loss is below a
threshold calibrated on known members.

The audit is used in the examples and tests to show that the differentially
private training methods reduce the attacker's advantage relative to
non-private training — the model-level counterpart of the gradient-level
resilience the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.nn import Sequential
from repro.nn.metrics import chunked_logits

__all__ = [
    "MembershipInferenceResult",
    "per_example_losses",
    "membership_auc",
    "loss_threshold_attack",
]


@dataclass
class MembershipInferenceResult:
    """Outcome of the loss-threshold membership inference attack."""

    #: attack accuracy over a balanced member/non-member evaluation set
    accuracy: float
    #: membership advantage = true-positive rate - false-positive rate
    advantage: float
    #: loss threshold used by the attacker
    threshold: float
    #: mean loss of members and non-members (the gap the attack exploits)
    mean_member_loss: float
    mean_nonmember_loss: float
    #: threshold-free attack AUC (probability a random member scores a lower
    #: loss than a random non-member; 0.5 = no leakage)
    auc: float


def membership_auc(member_losses: np.ndarray, nonmember_losses: np.ndarray) -> float:
    """Threshold-free membership AUC from per-example loss scores.

    The probability that a uniformly random member has *strictly lower* loss
    than a uniformly random non-member, counting ties as half — i.e. the
    exact Mann–Whitney AUC of the "low loss means member" classifier.  0.5 is
    chance; the distance from 0.5 is the model-level leakage the DP methods
    are supposed to shrink.  Purely arithmetic and deterministic: no sampling,
    no RNG.
    """
    members = np.asarray(member_losses, dtype=np.float64).reshape(-1)
    nonmembers = np.asarray(nonmember_losses, dtype=np.float64).reshape(-1)
    if members.size == 0 or nonmembers.size == 0:
        raise ValueError("both member and non-member loss sets must be non-empty")
    wins = np.sum(members[:, None] < nonmembers[None, :], dtype=np.float64)
    ties = np.sum(members[:, None] == nonmembers[None, :], dtype=np.float64)
    return float((wins + 0.5 * ties) / (members.size * nonmembers.size))


def per_example_losses(model: Sequential, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Cross-entropy loss of every example under ``model`` (no graph is built)."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    losses = []
    for logits, chunk_labels in chunked_logits(model, features, labels):
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        losses.append(-log_probs[np.arange(chunk_labels.shape[0]), chunk_labels])
    return np.concatenate(losses) if losses else np.empty(0, dtype=np.float64)


def loss_threshold_attack(
    model: Sequential,
    member_features: np.ndarray,
    member_labels: np.ndarray,
    nonmember_features: np.ndarray,
    nonmember_labels: np.ndarray,
    threshold: Optional[float] = None,
) -> MembershipInferenceResult:
    """Run the loss-threshold membership inference attack.

    Parameters
    ----------
    model:
        The (global) model under audit.
    member_features, member_labels:
        Examples that were part of the training data.
    nonmember_features, nonmember_labels:
        Held-out examples from the same distribution.
    threshold:
        Loss threshold below which the attacker claims "member".  Defaults to
        the mean member loss (the standard Yeom calibration, which assumes the
        attacker knows the average training loss).
    """
    member_losses = per_example_losses(model, member_features, member_labels)
    nonmember_losses = per_example_losses(model, nonmember_features, nonmember_labels)
    if member_losses.size == 0 or nonmember_losses.size == 0:
        raise ValueError("both member and non-member sets must be non-empty")
    if threshold is None:
        threshold = float(np.mean(member_losses))

    true_positive_rate = float(np.mean(member_losses <= threshold))
    false_positive_rate = float(np.mean(nonmember_losses <= threshold))
    # balanced attack accuracy
    accuracy = 0.5 * (true_positive_rate + (1.0 - false_positive_rate))
    return MembershipInferenceResult(
        accuracy=accuracy,
        advantage=true_positive_rate - false_positive_rate,
        threshold=float(threshold),
        mean_member_loss=float(np.mean(member_losses)),
        mean_nonmember_loss=float(np.mean(nonmember_losses)),
        auc=membership_auc(member_losses, nonmember_losses),
    )
