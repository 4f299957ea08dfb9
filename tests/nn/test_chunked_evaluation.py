"""Whole-dataset evaluation runs in bounded memory and matches one big forward.

``evaluate_accuracy`` and ``per_example_losses`` stream the dataset through
the model in :data:`repro.nn.metrics.EVAL_CHUNK_SIZE` example chunks.  These
tests pin that the chunking caps the transient (a CNN's im2col matrices grow
with the chunk, not the dataset) and changes no result.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.autodiff import Tensor, no_grad
from repro.core.membership_inference import per_example_losses
from repro.data.registry import get_dataset_spec
from repro.nn import accuracy, build_model_for_dataset, evaluate_accuracy
from repro.nn.metrics import EVAL_CHUNK_SIZE


def _dataset(name: str, count: int, seed: int = 0):
    spec = get_dataset_spec(name)
    rng = np.random.default_rng(seed)
    shape = spec.input_shape if spec.is_image else (spec.num_features,)
    features = rng.normal(size=(count,) + tuple(shape))
    labels = rng.integers(0, spec.num_classes, size=count)
    return build_model_for_dataset(spec, seed=seed, scale=0.5), features, labels


def test_cnn_evaluation_peak_memory_is_bounded():
    # 256 mnist images at half width: one 256-example forward traced 148 MB,
    # 64-example chunks trace 37 MB
    model, features, labels = _dataset("mnist", 256)
    tracemalloc.start()
    try:
        evaluate_accuracy(model, features, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"evaluation traced {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("name", ["cancer", "mnist"])
@pytest.mark.parametrize(
    "count",
    [10, EVAL_CHUNK_SIZE, 3 * EVAL_CHUNK_SIZE + 8],
    ids=["below-one-chunk", "one-chunk", "ragged"],
)
def test_chunking_matches_a_whole_set_forward(name, count):
    model, features, labels = _dataset(name, count, seed=count)
    with no_grad():
        logits = model(Tensor(features)).numpy()
    assert evaluate_accuracy(model, features, labels) == accuracy(logits, labels)

    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    expected = -log_probs[np.arange(count), labels]
    losses = per_example_losses(model, features, labels)
    assert losses.shape == (count,)
    np.testing.assert_allclose(losses, expected, rtol=1e-12, atol=0.0)


def test_empty_dataset_gives_empty_results():
    model, features, labels = _dataset("cancer", 0)
    assert evaluate_accuracy(model, features, labels) == 0.0
    assert per_example_losses(model, features, labels).shape == (0,)
