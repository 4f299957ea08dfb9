"""Equivalence regression tests for the fast per-example gradient engine.

The batched-graph engine of :mod:`repro.nn.perexample`
(:func:`per_example_gradients_batched`, behind :func:`per_example_gradients`)
must be numerically indistinguishable (within 1e-8; in practice machine
epsilon) from the one-backward-per-example looped reference — for raw
gradients, after vectorized clipping, and after seeded Gaussian noise, whose
RNG stream must match the looped draw order exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.nn import (
    Dense,
    Module,
    ReLU,
    Sequential,
    build_image_cnn,
    build_tabular_mlp,
    is_traceable,
    per_example_gradients,
    per_example_gradients_batched,
    per_example_gradients_looped,
    stack_to_example_lists,
)
from repro.privacy import GaussianMechanism
from repro.privacy.clipping import (
    clip_gradients_per_layer,
    clip_per_example_stack,
    global_l2_norm,
    per_example_global_norms,
    per_example_layer_norms,
)

ATOL = 1e-8


@pytest.fixture
def mlp_batch(rng):
    model = build_tabular_mlp(12, 4, hidden_sizes=(16, 8), seed=3)
    features = rng.normal(size=(9, 12))
    labels = rng.integers(0, 4, size=9)
    return model, features, labels


@pytest.fixture
def cnn_batch(rng):
    model = build_image_cnn((1, 8, 8), 3, conv_channels=(3, 5), seed=4)
    features = rng.normal(size=(5, 1, 8, 8))
    labels = rng.integers(0, 3, size=5)
    return model, features, labels


@pytest.mark.parametrize("setup", ["mlp_batch", "cnn_batch"])
@pytest.mark.parametrize("engine", [per_example_gradients])
def test_fast_engines_match_looped(engine, setup, request):
    model, features, labels = request.getfixturevalue(setup)
    assert is_traceable(model)
    fast, fast_loss = engine(model, features, labels)
    ref, ref_loss = per_example_gradients_looped(model, features, labels)
    assert fast_loss == pytest.approx(ref_loss, abs=ATOL)
    assert len(fast) == len(model.parameters())
    for fast_layer, ref_layer, param in zip(fast, ref, model.parameters()):
        assert fast_layer.shape == (features.shape[0],) + param.shape
        np.testing.assert_allclose(fast_layer, ref_layer, atol=ATOL, rtol=0)


@pytest.mark.parametrize("setup", ["mlp_batch", "cnn_batch"])
def test_batched_engine_losses_match_looped_per_example(setup, request):
    """The batched engine also exposes the (B,) per-example loss vector."""
    model, features, labels = request.getfixturevalue(setup)
    stack, losses = per_example_gradients_batched(model, features, labels)
    assert losses.shape == (features.shape[0],)
    for index in range(features.shape[0]):
        _, solo_loss = per_example_gradients_looped(
            model, features[index : index + 1], labels[index : index + 1]
        )
        assert losses[index] == pytest.approx(solo_loss, abs=ATOL)
    # the dispatcher's mean is the sum of the per-example losses
    _, mean_loss = per_example_gradients(model, features, labels)
    assert mean_loss == pytest.approx(float(losses.sum()) / features.shape[0], abs=0)


def test_batched_trace_survives_weight_updates(mlp_batch):
    """set_weights mutates parameter data in place; the cached trace must
    read the *new* values on the next replay."""
    model, features, labels = mlp_batch
    stack_before, _ = per_example_gradients_batched(model, features, labels)
    perturbed = [w + 0.05 for w in model.get_weights()]
    model.set_weights(perturbed)
    stack_after, _ = per_example_gradients_batched(model, features, labels)
    ref_after, _ = per_example_gradients_looped(model, features, labels)
    assert any(
        not np.array_equal(before, after) for before, after in zip(stack_before, stack_after)
    )
    for layer, ref_layer in zip(stack_after, ref_after):
        np.testing.assert_allclose(layer, ref_layer, atol=ATOL, rtol=0)


def test_stack_averages_to_batch_gradient(mlp_batch):
    from repro.autodiff import grad
    from repro.nn import functional as F

    model, features, labels = mlp_batch
    stack, _ = per_example_gradients(model, features, labels)
    loss = F.cross_entropy_with_logits(model(Tensor(features)), labels, reduction="mean")
    batch_gradients = grad(loss, model.parameters())
    for layer, batch_layer in zip(stack, batch_gradients):
        np.testing.assert_allclose(layer.mean(axis=0), batch_layer.numpy(), atol=1e-10)


def test_clip_per_example_stack_matches_looped_clipping(cnn_batch):
    model, features, labels = cnn_batch
    stack, _ = per_example_gradients(model, features, labels)
    bound = 0.05  # small enough that clipping is active
    clipped, layer_norms = clip_per_example_stack(stack, bound)

    per_example = stack_to_example_lists(stack)
    for b, example in enumerate(per_example):
        ref = clip_gradients_per_layer(example, bound)
        for layer_index, ref_layer in enumerate(ref):
            np.testing.assert_allclose(clipped[layer_index][b], ref_layer, atol=ATOL, rtol=0)
            assert layer_norms[layer_index][b] == pytest.approx(
                float(np.linalg.norm(example[layer_index].reshape(-1))), abs=ATOL
            )
    # every clipped block respects the bound
    for layer in clipped:
        flat = layer.reshape(layer.shape[0], -1)
        assert np.all(np.linalg.norm(flat, axis=1) <= bound + ATOL)


def test_per_example_global_norms_reuse_layer_norms(mlp_batch):
    model, features, labels = mlp_batch
    stack, _ = per_example_gradients(model, features, labels)
    norms = per_example_global_norms(stack)
    norms_reused = per_example_global_norms(layer_norms=per_example_layer_norms(stack))
    np.testing.assert_allclose(norms, norms_reused, atol=ATOL)
    for b, example in enumerate(stack_to_example_lists(stack)):
        assert norms[b] == pytest.approx(global_l2_norm(example), abs=ATOL)


def test_add_noise_to_stack_consumes_identical_rng_stream(mlp_batch):
    model, features, labels = mlp_batch
    stack, _ = per_example_gradients(model, features, labels)
    mechanism = GaussianMechanism(noise_scale=2.0, sensitivity=1.5)

    noised_stack = mechanism.add_noise_to_stack(stack, rng=np.random.default_rng(99))

    rng = np.random.default_rng(99)
    for b, example in enumerate(stack_to_example_lists(stack)):
        ref = mechanism.add_noise_to_list(example, rng=rng)
        for layer_index, ref_layer in enumerate(ref):
            np.testing.assert_array_equal(noised_stack[layer_index][b], ref_layer)


def test_sanitized_stack_matches_looped_sanitisation_exactly(mlp_batch):
    """Clip + seeded noise on the stack reproduces the looped pipeline."""
    model, features, labels = mlp_batch
    stack, _ = per_example_gradients(model, features, labels)
    bound, sigma = 0.1, 1.2
    mechanism = GaussianMechanism(sigma, bound)

    clipped, _ = clip_per_example_stack(stack, bound)
    sanitized = mechanism.add_noise_to_stack(clipped, rng=np.random.default_rng(7))

    rng = np.random.default_rng(7)
    ref_stack, _ = per_example_gradients_looped(model, features, labels)
    for b, example in enumerate(stack_to_example_lists(ref_stack)):
        ref = mechanism.add_noise_to_list(clip_gradients_per_layer(example, bound), rng=rng)
        for layer_index, ref_layer in enumerate(ref):
            np.testing.assert_allclose(sanitized[layer_index][b], ref_layer, atol=ATOL, rtol=0)


def test_zero_noise_stack_copies_input(mlp_batch):
    model, features, labels = mlp_batch
    stack, _ = per_example_gradients(model, features, labels)
    mechanism = GaussianMechanism(0.0, 4.0)
    noised = mechanism.add_noise_to_stack(stack, rng=np.random.default_rng(0))
    for layer, original in zip(noised, stack):
        np.testing.assert_array_equal(layer, original)
        assert layer is not original


class _OpaqueLayer(Module):
    """A parameterised layer outside the traceable family."""

    def __init__(self) -> None:
        super().__init__()
        self.scale = Tensor(np.ones(1), requires_grad=True, name="opaque.scale")

    def forward(self, x):
        from repro.autodiff import broadcast_to, mul, reshape

        return mul(x, broadcast_to(reshape(self.scale, (1, 1)), x.shape))


def test_fallback_for_models_without_rules(rng):
    model = Sequential([Dense(6, 5, rng=np.random.default_rng(0)), ReLU(), _OpaqueLayer()])
    assert not is_traceable(model)
    features = rng.normal(size=(4, 6))
    labels = rng.integers(0, 5, size=4)
    fast, fast_loss = per_example_gradients(model, features, labels)
    ref, ref_loss = per_example_gradients_looped(model, features, labels)
    assert fast_loss == pytest.approx(ref_loss, abs=ATOL)
    for fast_layer, ref_layer in zip(fast, ref):
        np.testing.assert_array_equal(fast_layer, ref_layer)


def test_stack_to_example_lists_round_trip(mlp_batch):
    model, features, labels = mlp_batch
    stack, _ = per_example_gradients(model, features, labels)
    examples = stack_to_example_lists(stack)
    assert len(examples) == features.shape[0]
    rebuilt = [np.stack([example[i] for example in examples]) for i in range(len(stack))]
    for layer, rebuilt_layer in zip(stack, rebuilt):
        np.testing.assert_array_equal(layer, rebuilt_layer)
