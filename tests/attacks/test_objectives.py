"""Tests for the alternative attack objectives (cosine matching, TV prior)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import (
    AttackConfig,
    MultiRestartReconstruction,
    build_matching_loss,
    cosine_matching_loss,
    l2_matching_loss,
    total_variation,
)
from repro.autodiff import Tensor, grad
from repro.data import generate_dataset, get_dataset_spec
from repro.nn import CrossEntropyLoss, build_model_for_dataset, build_tabular_mlp

from ..conftest import numerical_gradient


def _tensor_list(arrays):
    return [Tensor(a, requires_grad=True) for a in arrays]


def test_l2_matching_loss_zero_on_identical_gradients(rng):
    arrays = [rng.normal(size=(3, 3)), rng.normal(size=4)]
    loss = l2_matching_loss(_tensor_list(arrays), arrays)
    assert loss.item() == pytest.approx(0.0)
    with pytest.raises(ValueError):
        l2_matching_loss([], [])


def test_cosine_matching_loss_range_and_extremes(rng):
    arrays = [rng.normal(size=(4,))]
    identical = cosine_matching_loss(_tensor_list(arrays), arrays)
    assert identical.item() == pytest.approx(0.0, abs=1e-9)
    flipped = cosine_matching_loss(_tensor_list(arrays), [-arrays[0]])
    assert flipped.item() == pytest.approx(2.0, abs=1e-9)
    orthogonal = cosine_matching_loss(
        [Tensor(np.array([1.0, 0.0]), requires_grad=True)], [np.array([0.0, 1.0])]
    )
    assert orthogonal.item() == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        cosine_matching_loss([], [])


def test_cosine_loss_is_scale_invariant_in_target(rng):
    arrays = [rng.normal(size=(5,))]
    dummy = _tensor_list(arrays)
    small = cosine_matching_loss(dummy, [0.1 * arrays[0] + 0.05])
    large = cosine_matching_loss(_tensor_list(arrays), [10.0 * (arrays[0] + 0.5)])
    # scaling the target leaves the objective's *shape* unchanged: both stay in [0, 2]
    assert 0.0 <= small.item() <= 2.0
    assert 0.0 <= large.item() <= 2.0


def test_total_variation_values():
    flat = Tensor(np.ones((1, 1, 4, 4)), requires_grad=True)
    assert total_variation(flat).item() == pytest.approx(0.0)
    # a vertical step edge: each row has one horizontal jump of size 1
    edge = np.zeros((1, 1, 4, 4))
    edge[:, :, :, 2:] = 1.0
    tv = total_variation(Tensor(edge, requires_grad=True)).item()
    assert tv == pytest.approx(4.0 / 16.0)
    with pytest.raises(ValueError):
        total_variation(Tensor(np.zeros((4, 4)), requires_grad=True))
    tiny = total_variation(Tensor(np.zeros((1, 1, 1, 1)), requires_grad=True))
    assert tiny.item() == 0.0


def test_total_variation_gradient_check(rng):
    image = rng.uniform(size=(1, 1, 5, 5))

    def fn_tensor(x):
        return total_variation(x.reshape((1, 1, 5, 5)))

    def fn_numpy(x):
        img = x.reshape(5, 5)
        vertical = np.abs(np.diff(img, axis=0)).sum()
        horizontal = np.abs(np.diff(img, axis=1)).sum()
        return float((vertical + horizontal) / 25.0)

    t = Tensor(image, requires_grad=True)
    (g,) = grad(total_variation(t), [t])
    numeric = numerical_gradient(fn_numpy, image.copy().reshape(-1)).reshape(image.shape)
    np.testing.assert_allclose(g.numpy(), numeric, atol=1e-6)


def test_build_matching_loss_dispatch_and_validation(rng):
    arrays = [rng.normal(size=(3,))]
    dummy_input = Tensor(rng.uniform(size=(1, 1, 4, 4)), requires_grad=True)
    l2 = build_matching_loss("l2", _tensor_list(arrays), arrays, dummy_input)
    assert l2.item() == pytest.approx(0.0)
    with_tv = build_matching_loss("l2", _tensor_list(arrays), arrays, dummy_input, tv_weight=1.0)
    assert with_tv.item() >= 0.0
    cos = build_matching_loss("cosine", _tensor_list(arrays), arrays, dummy_input)
    assert cos.item() == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        build_matching_loss("huber", _tensor_list(arrays), arrays, dummy_input)


def test_attack_config_validates_objective_and_tv():
    with pytest.raises(ValueError):
        AttackConfig(objective="huber")
    with pytest.raises(ValueError):
        AttackConfig(tv_weight=-0.5)
    assert AttackConfig(objective="cosine").objective == "cosine"


def test_cosine_objective_attack_succeeds_on_tabular_model(rng):
    model = build_tabular_mlp(16, 2, hidden_sizes=(12, 6), seed=0)
    x_true = rng.uniform(0, 1, size=(1, 16))
    y_true = np.array([0])
    loss_fn = CrossEntropyLoss()
    target = [g.numpy() for g in grad(loss_fn(model(Tensor(x_true)), y_true), model.parameters())]
    attack = MultiRestartReconstruction(
        model, AttackConfig(max_iterations=120, objective="cosine", success_loss_threshold=1e-5)
    )
    result = attack.run(target, (16,), [rng], ground_truth=x_true[0], labels=y_true)
    assert result.reconstruction_distance < 0.15


def test_tv_prior_smooths_image_reconstruction():
    """With a noisy leaked gradient, the TV prior yields a smoother reconstruction."""
    spec = get_dataset_spec("mnist")
    data = generate_dataset(spec, 2, seed=0)
    model = build_model_for_dataset(spec, seed=0, scale=0.25)
    loss_fn = CrossEntropyLoss()
    x, y = data.features[:1], data.labels[:1]
    rng = np.random.default_rng(0)
    target = [
        g.numpy() + rng.normal(0, 0.02, size=g.shape)
        for g in grad(loss_fn(model(Tensor(x)), y), model.parameters())
    ]

    def run(tv_weight):
        attack = MultiRestartReconstruction(
            model, AttackConfig(max_iterations=40, tv_weight=tv_weight)
        )
        return attack.run(target, x.shape[1:], [np.random.default_rng(1)], ground_truth=x[0], labels=y)

    plain = run(0.0)
    smoothed = run(1.0)
    tv_plain = total_variation(Tensor(plain.reconstruction.reshape((1,) + x.shape[1:]))).item()
    tv_smoothed = total_variation(Tensor(smoothed.reconstruction.reshape((1,) + x.shape[1:]))).item()
    assert tv_smoothed <= tv_plain + 1e-6
