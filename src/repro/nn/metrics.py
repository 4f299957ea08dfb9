"""Evaluation metrics."""

from __future__ import annotations

from typing import Iterator, Tuple, Union

import numpy as np

from repro.autodiff import Tensor, no_grad

__all__ = ["EVAL_CHUNK_SIZE", "accuracy", "chunked_logits", "evaluate_accuracy", "confusion_matrix"]

#: examples per forward pass when a whole dataset is pushed through a model
#: without a graph.  It bounds the transient of the widest conv layer (its
#: im2col matrix and the transposed copy, ~2 x chunk x C*K*K*OH*OW float64s);
#: 64 keeps the CNN validation logits bitwise equal to 256-example chunks.
EVAL_CHUNK_SIZE = 64


def accuracy(logits: Union[Tensor, np.ndarray], labels: np.ndarray) -> float:
    """Fraction of examples whose arg-max prediction matches the label."""
    if isinstance(logits, Tensor):
        logits = logits.numpy()
    labels = np.asarray(labels).reshape(-1)
    predictions = np.argmax(logits, axis=-1)
    if predictions.shape[0] != labels.shape[0]:
        raise ValueError(
            f"got {predictions.shape[0]} predictions for {labels.shape[0]} labels"
        )
    if labels.size == 0:
        return 0.0
    return float(np.mean(predictions == labels))


def chunked_logits(
    model, features: np.ndarray, labels: np.ndarray
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield ``(logits, labels)`` for consecutive :data:`EVAL_CHUNK_SIZE` chunks.

    Each forward runs under :func:`no_grad`, so nothing is recorded and only
    one chunk's activations are alive at a time.  ``labels`` must already be
    1-D; a length mismatch with ``features`` raises ``ValueError`` before
    the first forward pass.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.shape[0] != labels.shape[0]:
        raise ValueError(f"got {features.shape[0]} examples for {labels.shape[0]} labels")
    for start in range(0, labels.shape[0], EVAL_CHUNK_SIZE):
        stop = start + EVAL_CHUNK_SIZE
        with no_grad():
            logits = model(Tensor(features[start:stop])).numpy()
        yield logits, labels[start:stop]


def evaluate_accuracy(model, features: np.ndarray, labels: np.ndarray) -> float:
    """Accuracy of ``model`` over a dataset, evaluated without building a graph."""
    labels = np.asarray(labels).reshape(-1)
    correct = sum(
        int(np.sum(np.argmax(logits, axis=-1) == chunk_labels))
        for logits, chunk_labels in chunked_logits(model, features, labels)
    )
    return correct / max(labels.shape[0], 1)


def confusion_matrix(logits: Union[Tensor, np.ndarray], labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Confusion matrix with true classes as rows and predictions as columns."""
    if isinstance(logits, Tensor):
        logits = logits.numpy()
    predictions = np.argmax(logits, axis=-1)
    labels = np.asarray(labels).reshape(-1)
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    for true, predicted in zip(labels, predictions):
        matrix[int(true), int(predicted)] += 1
    return matrix
