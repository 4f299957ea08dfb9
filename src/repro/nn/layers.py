"""Neural-network layers used by the paper's two model architectures.

The paper evaluates a small CNN (two convolutional layers + one fully
connected layer) on the image datasets and a two-hidden-layer MLP on the
tabular datasets; :mod:`repro.nn.models` assembles those from the layers
defined here.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autodiff import Tensor, relu, sigmoid, tanh

from . import functional as F
from .init import glorot_uniform, zeros_init
from .module import Module

__all__ = ["Dense", "Conv2D", "Flatten", "ReLU", "Tanh", "Sigmoid"]


class Dense(Module):
    """Fully connected layer ``y = x @ W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output dimensionality.
    rng:
        Generator used for weight initialization; pass the same seeded
        generator to obtain reproducible models.
    use_bias:
        Whether to learn an additive bias (default ``True``).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        use_bias: bool = True,
    ) -> None:
        super().__init__()
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.weight = Tensor(
            glorot_uniform((self.in_features, self.out_features), rng),
            requires_grad=True,
            name="dense.weight",
        )
        self.bias: Optional[Tensor] = None
        if use_bias:
            self.bias = Tensor(
                zeros_init((self.out_features,), rng), requires_grad=True, name="dense.bias"
            )

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 2:
            x = F.flatten(x)
        return F.linear(x, self.weight, self.bias)


class Conv2D(Module):
    """2-D convolution over ``(N, C, H, W)`` inputs with square kernels."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int = 1,
        *,
        rng: np.random.Generator,
        use_bias: bool = True,
    ) -> None:
        super().__init__()
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)
        # Glorot initialization keeps activations well-scaled for both the
        # tanh default and the relu ablation architecture.
        self.weight = Tensor(
            glorot_uniform((self.out_channels, self.in_channels, self.kernel_size, self.kernel_size), rng),
            requires_grad=True,
            name="conv.weight",
        )
        self.bias: Optional[Tensor] = None
        if use_bias:
            self.bias = Tensor(
                zeros_init((self.out_channels,), rng), requires_grad=True, name="conv.bias"
            )

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def output_shape(self, spatial) -> tuple:
        """Spatial output size for a given input spatial size."""
        return F.conv_output_shape(tuple(spatial), self.kernel_size, self.stride, self.padding)


class Flatten(Module):
    """Flatten all non-batch dimensions into a feature vector."""

    def forward(self, x: Tensor) -> Tensor:
        return F.flatten(x)


class ReLU(Module):
    """Rectified linear activation layer."""

    def forward(self, x: Tensor) -> Tensor:
        return relu(x)


class Tanh(Module):
    """Hyperbolic tangent activation layer."""

    def forward(self, x: Tensor) -> Tensor:
        return tanh(x)


class Sigmoid(Module):
    """Logistic sigmoid activation layer."""

    def forward(self, x: Tensor) -> Tensor:
        return sigmoid(x)
