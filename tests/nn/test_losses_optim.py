"""Tests for losses, optimizers, metrics and end-to-end training convergence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import Tensor, backward, grad
from repro.nn import (
    SGD,
    Adam,
    CrossEntropyLoss,
    MSELoss,
    accuracy,
    build_image_cnn,
    build_tabular_mlp,
    confusion_matrix,
    evaluate_accuracy,
)
from ..conftest import numerical_gradient


def test_cross_entropy_matches_manual_computation(rng):
    logits = rng.normal(size=(4, 3))
    labels = np.array([0, 2, 1, 1])
    loss = CrossEntropyLoss()(Tensor(logits), labels).item()
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    expected = -np.mean(log_probs[np.arange(4), labels])
    assert loss == pytest.approx(expected, rel=1e-10)


def test_cross_entropy_gradient_check(rng):
    labels = np.array([1, 0])
    logits = rng.normal(size=(2, 3))

    def fn_numpy(x):
        shifted = x - x.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return float(-np.mean(log_probs[np.arange(2), labels]))

    t = Tensor(logits, requires_grad=True)
    (g,) = grad(CrossEntropyLoss()(t, labels), [t])
    numeric = numerical_gradient(fn_numpy, logits.copy())
    np.testing.assert_allclose(g.numpy(), numeric, atol=1e-6)


def test_cross_entropy_reductions(rng):
    logits = Tensor(rng.normal(size=(3, 4)))
    labels = np.array([0, 1, 2])
    none = CrossEntropyLoss(reduction="none")(logits, labels)
    assert none.shape == (3,)
    total = CrossEntropyLoss(reduction="sum")(logits, labels).item()
    assert total == pytest.approx(float(none.numpy().sum()))
    with pytest.raises(ValueError):
        CrossEntropyLoss(reduction="bogus")


def test_mse_loss(rng):
    pred = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
    target = rng.normal(size=(5, 2))
    loss = MSELoss()(pred, target)
    assert loss.item() == pytest.approx(float(np.mean((pred.numpy() - target) ** 2)))
    with pytest.raises(ValueError):
        MSELoss(reduction="bad")


def test_sgd_plain_update():
    param = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    optimizer = SGD([param], lr=0.5)
    optimizer.step_with_gradients([np.array([1.0, -2.0])])
    np.testing.assert_allclose(param.numpy(), [0.5, 3.0])


def test_sgd_with_momentum_and_weight_decay():
    param = Tensor(np.array([1.0]), requires_grad=True)
    optimizer = SGD([param], lr=0.1, momentum=0.9, weight_decay=0.1)
    optimizer.step_with_gradients([np.array([1.0])])
    first = param.numpy().copy()
    optimizer.step_with_gradients([np.array([1.0])])
    # momentum makes the second step larger in magnitude than the first
    assert abs(param.numpy()[0] - first[0]) > abs(first[0] - 1.0) * 0.99


def test_sgd_validation_errors():
    param = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ValueError):
        SGD([param], lr=-1.0)
    with pytest.raises(ValueError):
        SGD([param], lr=0.1, momentum=1.5)
    with pytest.raises(ValueError):
        SGD([], lr=0.1)
    optimizer = SGD([param], lr=0.1)
    with pytest.raises(ValueError):
        optimizer.step_with_gradients([np.zeros(3)])
    with pytest.raises(ValueError):
        optimizer.step_with_gradients([np.zeros(1), np.zeros(1)])


def test_optimizer_step_uses_accumulated_grads(rng):
    param = Tensor(np.array([2.0]), requires_grad=True)
    loss = (param * param).sum()
    backward(loss)
    optimizer = SGD([param], lr=0.25)
    optimizer.step()
    np.testing.assert_allclose(param.numpy(), [2.0 - 0.25 * 4.0])
    optimizer.zero_grad()
    assert param.grad is None


def test_adam_reduces_quadratic_loss():
    param = Tensor(np.array([5.0, -3.0]), requires_grad=True)
    optimizer = Adam([param], lr=0.2)
    for _ in range(200):
        optimizer.step_with_gradients([2.0 * param.numpy()])
    assert np.all(np.abs(param.numpy()) < 0.5)


def test_accuracy_and_confusion_matrix():
    logits = np.array([[2.0, 1.0], [0.1, 0.9], [3.0, -1.0]])
    labels = np.array([0, 1, 1])
    assert accuracy(logits, labels) == pytest.approx(2.0 / 3.0)
    matrix = confusion_matrix(logits, labels, 2)
    assert matrix.sum() == 3
    assert matrix[1, 0] == 1
    with pytest.raises(ValueError):
        accuracy(logits, labels[:2])


def test_mlp_learns_linearly_separable_data(rng):
    """End-to-end sanity check: a small MLP fits a separable 2-class problem."""
    n = 120
    features = rng.normal(size=(n, 4))
    labels = (features[:, 0] + features[:, 1] > 0).astype(int)
    model = build_tabular_mlp(4, 2, hidden_sizes=(16, 8), seed=0)
    loss_fn = CrossEntropyLoss()
    optimizer = SGD(model.parameters(), lr=0.3)
    for _ in range(60):
        model.zero_grad()
        loss = loss_fn(model(Tensor(features)), labels)
        backward(loss)
        optimizer.step()
    assert evaluate_accuracy(model, features, labels) > 0.9


class _ConstantModel:
    """Predicts class 0 for every example and counts its forward passes."""

    def __init__(self):
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return Tensor(np.zeros((x.shape[0], 2)))


@pytest.mark.parametrize("num_examples, num_labels", [(256, 384), (8, 12), (12, 8)])
def test_evaluate_accuracy_rejects_misaligned_labels(num_examples, num_labels):
    model = _ConstantModel()
    features = np.zeros((num_examples, 3))
    labels = np.zeros(num_labels, dtype=np.int64)
    with pytest.raises(ValueError, match=f"{num_examples} examples for {num_labels} labels"):
        evaluate_accuracy(model, features, labels)
    assert model.calls == 0
    assert evaluate_accuracy(model, features, np.zeros(num_examples, dtype=np.int64)) == 1.0


def test_image_cnn_shapes_and_training_step(rng):
    model = build_image_cnn((1, 28, 28), 10, conv_channels=(2, 4), seed=0)
    x = rng.normal(size=(3, 1, 28, 28))
    labels = np.array([1, 5, 9])
    logits = model(Tensor(x))
    assert logits.shape == (3, 10)
    loss_before = CrossEntropyLoss()(logits, labels).item()
    optimizer = SGD(model.parameters(), lr=0.05)
    for _ in range(5):
        model.zero_grad()
        loss = CrossEntropyLoss()(model(Tensor(x)), labels)
        backward(loss)
        optimizer.step()
    loss_after = CrossEntropyLoss()(model(Tensor(x)), labels).item()
    assert loss_after < loss_before


def test_build_model_for_dataset_dispatch():
    from repro.data.registry import get_dataset_spec

    image_model = __import__("repro.nn", fromlist=["build_model_for_dataset"]).build_model_for_dataset(
        get_dataset_spec("mnist"), scale=0.5
    )
    assert image_model(Tensor(np.zeros((1, 1, 28, 28)))).shape == (1, 10)
    tabular_model = __import__("repro.nn", fromlist=["build_model_for_dataset"]).build_model_for_dataset(
        get_dataset_spec("adult"), scale=0.5
    )
    assert tabular_model(Tensor(np.zeros((1, 105)))).shape == (1, 2)
