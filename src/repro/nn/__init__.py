"""Neural-network library built on the :mod:`repro.autodiff` engine."""

from . import functional
from .init import glorot_uniform, he_normal, normal_init, zeros_init
from .layers import Conv2D, Dense, Flatten, ReLU, Sigmoid, Tanh
from .losses import CrossEntropyLoss, MSELoss
from .metrics import accuracy, confusion_matrix, evaluate_accuracy
from .models import Sequential, build_image_cnn, build_model_for_dataset, build_tabular_mlp
from .module import Module
from .optim import SGD, Adam, Optimizer
from .perexample import (
    is_traceable,
    per_example_gradients,
    per_example_gradients_batched,
    per_example_gradients_looped,
    stack_to_example_lists,
)

__all__ = [
    "functional",
    "Module",
    "Dense",
    "Conv2D",
    "Flatten",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Sequential",
    "build_image_cnn",
    "build_tabular_mlp",
    "build_model_for_dataset",
    "CrossEntropyLoss",
    "MSELoss",
    "SGD",
    "Adam",
    "Optimizer",
    "accuracy",
    "evaluate_accuracy",
    "confusion_matrix",
    "glorot_uniform",
    "he_normal",
    "zeros_init",
    "normal_init",
    "is_traceable",
    "per_example_gradients",
    "per_example_gradients_batched",
    "per_example_gradients_looped",
    "stack_to_example_lists",
]
