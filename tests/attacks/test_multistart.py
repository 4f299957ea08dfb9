"""Tests for the batched multi-restart reconstruction engine.

The vectorized objective must agree with the looped reference evaluation of the
same joint objective (values, input gradients and per-restart losses), and
the full attack must behave like a best-of-R single-restart attack.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import AttackConfig, MultiRestartReconstruction
from repro.autodiff import Tensor, broadcast_to, grad, mul, reshape
from repro.nn import CrossEntropyLoss, Module, build_model_for_dataset, build_tabular_mlp
from repro.data import generate_dataset, get_dataset_spec


def _mlp_and_target(num_features=12, num_classes=3, seed=0):
    model = build_tabular_mlp(num_features, num_classes, hidden_sizes=(10, 6), seed=seed)
    rng = np.random.default_rng(seed)
    x_true = rng.uniform(0.0, 1.0, size=(1, num_features))
    y_true = np.array([1])
    loss_fn = CrossEntropyLoss()
    target = [
        g.numpy() for g in grad(loss_fn(model(Tensor(x_true)), y_true), model.parameters())
    ]
    return model, x_true, y_true, target


def _restart_seeds(count, entropy=7):
    return list(np.random.SeedSequence(entropy).spawn(count))


def test_vectorized_objective_matches_looped_reference():
    model, x_true, y_true, target = _mlp_and_target()
    attack = MultiRestartReconstruction(model, AttackConfig(max_iterations=5))
    restarts = 3
    batch_shape = (restarts,) + x_true.shape[1:]
    labels = np.broadcast_to(y_true, (restarts,))
    rng = np.random.default_rng(3)
    flat = rng.uniform(0.0, 1.0, size=int(np.prod(batch_shape)))

    value_v, grad_v, per_v = attack._objective_vectorized(flat, batch_shape, labels, target)
    value_l, grad_l, per_l = attack._objective_looped(flat, batch_shape, labels, target)
    assert value_v == pytest.approx(value_l, rel=1e-9, abs=1e-10)
    np.testing.assert_allclose(per_v, per_l, rtol=1e-9, atol=1e-10)
    np.testing.assert_allclose(grad_v, grad_l, rtol=1e-7, atol=1e-9)


def test_restarts_are_independent_in_the_joint_gradient():
    """Each restart's gradient block must not depend on the other restarts."""
    model, x_true, y_true, target = _mlp_and_target()
    attack = MultiRestartReconstruction(model, AttackConfig(max_iterations=5))
    batch_shape = (2,) + x_true.shape[1:]
    labels = np.broadcast_to(y_true, (2,))
    example_size = int(np.prod(x_true.shape[1:]))
    rng = np.random.default_rng(4)
    first = rng.uniform(size=example_size)
    second = rng.uniform(size=example_size)
    third = rng.uniform(size=example_size)

    _, grad_a, per_a = attack._objective_vectorized(
        np.concatenate([first, second]), batch_shape, labels, target
    )
    _, grad_b, per_b = attack._objective_vectorized(
        np.concatenate([first, third]), batch_shape, labels, target
    )
    # restart 0 is identical in both batches: same loss, same gradient block
    assert per_a[0] == pytest.approx(per_b[0], rel=1e-12)
    np.testing.assert_allclose(grad_a[:example_size], grad_b[:example_size], rtol=1e-12)


def test_batched_attack_reconstructs_clean_gradient():
    model, x_true, y_true, target = _mlp_and_target(num_features=16)
    attack = MultiRestartReconstruction(model, AttackConfig(max_iterations=80))
    result = attack.run(
        target,
        x_true.shape[1:],
        _restart_seeds(2),
        ground_truth=x_true[0],
        labels=y_true,
    )
    assert result.vectorized
    assert result.succeeded
    assert result.restarts == 2
    assert len(result.per_restart_losses) == 2
    assert 0 <= result.best_restart < 2
    assert result.reconstruction_distance < 0.05
    assert result.final_loss == pytest.approx(min(result.per_restart_losses))
    assert result.reconstruction.shape == x_true.shape[1:]
    assert np.isfinite(result.psnr)


def test_noisy_gradient_defeats_the_batched_attack():
    model, x_true, y_true, target = _mlp_and_target(num_features=16)
    rng = np.random.default_rng(11)
    noisy = [g + rng.normal(0.0, 1.0, size=g.shape) for g in target]
    attack = MultiRestartReconstruction(model, AttackConfig(max_iterations=40))
    result = attack.run(
        noisy, x_true.shape[1:], _restart_seeds(2), ground_truth=x_true[0], labels=y_true
    )
    assert not result.succeeded
    assert result.reconstruction_distance > 0.1


def _cnn_and_target(scale=0.25, seed=0):
    spec = get_dataset_spec("mnist")
    model = build_model_for_dataset(spec, seed=seed, scale=scale)
    data = generate_dataset(spec, 2, seed=seed)
    x = data.features[:1]
    y = data.labels[:1]
    loss_fn = CrossEntropyLoss()
    target = [g.numpy() for g in grad(loss_fn(model(Tensor(x)), y), model.parameters())]
    return model, x, y, target


def test_cnn_models_run_vectorized():
    model, x, y, target = _cnn_and_target()
    attack = MultiRestartReconstruction(model, AttackConfig(max_iterations=4))
    result = attack.run(target, x.shape[1:], _restart_seeds(2), ground_truth=x[0], labels=y)
    assert result.vectorized
    assert result.restarts == 2
    assert result.reconstruction.shape == x.shape[1:]
    assert np.isfinite(result.reconstruction_distance)


def test_cnn_vectorized_objective_matches_looped_reference():
    model, x, y, target = _cnn_and_target()
    attack = MultiRestartReconstruction(model, AttackConfig(max_iterations=4))
    restarts = 2
    batch_shape = (restarts,) + x.shape[1:]
    labels = np.broadcast_to(y, (restarts,))
    rng = np.random.default_rng(9)
    flat = rng.uniform(0.0, 1.0, size=int(np.prod(batch_shape)))

    value_v, grad_v, per_v = attack._objective_vectorized(flat, batch_shape, labels, target)
    value_l, grad_l, per_l = attack._objective_looped(flat, batch_shape, labels, target)
    assert value_v == pytest.approx(value_l, rel=1e-9, abs=1e-10)
    np.testing.assert_allclose(per_v, per_l, rtol=1e-9, atol=1e-10)
    np.testing.assert_allclose(grad_v, grad_l, rtol=1e-7, atol=1e-9)


def test_cosine_tv_objective_matches_looped_reference():
    model, x, y, target = _cnn_and_target()
    config = AttackConfig(max_iterations=4, objective="cosine", tv_weight=0.05)
    attack = MultiRestartReconstruction(model, config)
    restarts = 2
    batch_shape = (restarts,) + x.shape[1:]
    labels = np.broadcast_to(y, (restarts,))
    rng = np.random.default_rng(10)
    flat = rng.uniform(0.0, 1.0, size=int(np.prod(batch_shape)))

    value_v, grad_v, per_v = attack._objective_vectorized(flat, batch_shape, labels, target)
    value_l, grad_l, per_l = attack._objective_looped(flat, batch_shape, labels, target)
    assert value_v == pytest.approx(value_l, rel=1e-9, abs=1e-10)
    np.testing.assert_allclose(per_v, per_l, rtol=1e-9, atol=1e-10)
    np.testing.assert_allclose(grad_v, grad_l, rtol=1e-7, atol=1e-9)


class _Scale(Module):
    """A parameterised layer outside the traceable family."""

    def __init__(self) -> None:
        super().__init__()
        self.scale = Tensor(np.ones(1), requires_grad=True, name="scale")

    def forward(self, x):
        return mul(x, broadcast_to(reshape(self.scale, (1, 1)), x.shape))


def _opaque_and_target():
    model, x, y, _ = _mlp_and_target()
    model.layers.append(_Scale())
    target = [g.numpy() for g in grad(CrossEntropyLoss()(model(Tensor(x)), y), model.parameters())]
    return model, x, y, target


@pytest.mark.parametrize(
    "setup, config_kwargs, vectorized",
    [
        (_mlp_and_target, {}, True),
        (_cnn_and_target, {}, True),
        (_mlp_and_target, {"objective": "cosine"}, True),
        (_cnn_and_target, {"tv_weight": 0.1}, True),
        (_opaque_and_target, {}, False),
    ],
    ids=["dense-l2", "cnn-l2", "dense-cosine", "cnn-tv", "opaque-l2"],
)
def test_vectorized_iff_model_is_traceable(setup, config_kwargs, vectorized):
    """The batched path is chosen structurally: dense and conv models run
    vectorized under either objective and the TV prior; a model with an
    untraceable parameterised layer runs the looped fallback end to end."""
    model, x, y, target = setup()
    attack = MultiRestartReconstruction(model, AttackConfig(max_iterations=4, **config_kwargs))
    result = attack.run(target, x.shape[1:], _restart_seeds(2), ground_truth=x[0], labels=y)
    assert result.vectorized is vectorized
    assert result.restarts == 2
    assert result.reconstruction.shape == x.shape[1:]
    assert np.isfinite(result.reconstruction_distance)


def test_run_is_deterministic_in_the_restart_seeds():
    model, x_true, y_true, target = _mlp_and_target()
    config = AttackConfig(max_iterations=10)
    first = MultiRestartReconstruction(model, config).run(
        target, x_true.shape[1:], _restart_seeds(2, entropy=5), ground_truth=x_true[0], labels=y_true
    )
    second = MultiRestartReconstruction(model, config).run(
        target, x_true.shape[1:], _restart_seeds(2, entropy=5), ground_truth=x_true[0], labels=y_true
    )
    assert first.final_loss == second.final_loss
    assert first.reconstruction_distance == second.reconstruction_distance
    np.testing.assert_array_equal(first.reconstruction, second.reconstruction)
    other = MultiRestartReconstruction(model, config).run(
        target, x_true.shape[1:], _restart_seeds(2, entropy=6), ground_truth=x_true[0], labels=y_true
    )
    assert not np.array_equal(first.reconstruction, other.reconstruction)


def test_run_validates_inputs():
    model, x_true, y_true, target = _mlp_and_target()
    attack = MultiRestartReconstruction(model, AttackConfig(max_iterations=5))
    with pytest.raises(ValueError):
        attack.run(target, x_true.shape[1:], [], labels=y_true)
    with pytest.raises(ValueError):
        attack.run(target, x_true.shape[1:], _restart_seeds(1), labels=None)
    with pytest.raises(ValueError):
        # wrong number of target blocks for the model
        attack.run(target[:-1], x_true.shape[1:], _restart_seeds(1), labels=y_true)
