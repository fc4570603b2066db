"""Three-branch reparameterizable convolutions and their fusion.

During training a layer is a 3x3 conv, a 1x1 conv and (at stride 1
with Cin == Cout) an identity pass-through, each followed by batch
norm, summed. For inference the three branches collapse algebraically
into a single 3x3 kernel plus bias: fold each BN into its branch,
zero-pad the 1x1 kernel into the 3x3 center tap, express the identity
as a center-tap identity matrix, and sum. The skip connections
disappear from the inference graph without changing the function.

Layers hold weights only; callers pass the mode of the op a layer runs
at (network.Op.mode), "submanifold" or "stride2".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, StructuralError
from .sparse import SparseTensor2D, sparse_conv_stride2, submanifold_conv

BN_EPSILON = 1e-5   # every batch norm's epsilon: weight files store none


@dataclass(frozen=True)
class BnParams:
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray

    def __post_init__(self):
        if np.any(np.asarray(self.running_var) < 0):
            raise StructuralError("running_var must be elementwise non-negative")

    @classmethod
    def identity(cls, channels: int) -> "BnParams":
        return cls(gamma=np.ones(channels), beta=np.zeros(channels),
                   running_mean=np.zeros(channels),
                   running_var=np.full(channels, 1.0 - BN_EPSILON))

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Inference-time normalization over the channel (last) axis."""
        inv = self.gamma / np.sqrt(self.running_var + BN_EPSILON)
        return values * inv + (self.beta - self.running_mean * inv)


@dataclass(frozen=True)
class RepConvLayer:
    """Training-form layer: 3x3 + 1x1 (+ identity) branches, each with BN."""

    kernel3: np.ndarray            # (3, 3, Cin, Cout)
    bn3: BnParams
    kernel1: np.ndarray            # (1, 1, Cin, Cout)
    bn1: BnParams
    identity_bn: BnParams | None = None

    def __post_init__(self):
        if self.kernel3.shape[:2] != (3, 3) or self.kernel1.shape[:2] != (1, 1):
            raise ShapeError("branch kernels must be 3x3 and 1x1")
        if self.kernel3.shape[2:] != self.kernel1.shape[2:]:
            raise ShapeError("branch channel shapes differ")
        if self.identity_bn is not None and self.cin != self.cout:
            raise StructuralError("identity branch requires Cin == Cout")

    @property
    def cin(self) -> int:
        return self.kernel3.shape[2]

    @property
    def cout(self) -> int:
        return self.kernel3.shape[3]


@dataclass(frozen=True)
class FusedConvLayer:
    """Single-kernel inference form: one conv plus bias, nothing else.
    The detector's plain convs (alignment, head) use it too."""

    kernel: np.ndarray             # (K, K, Cin, Cout)
    bias: np.ndarray               # (Cout,)

    @property
    def cout(self) -> int:
        return self.kernel.shape[3]


def fold_bn(kernel: np.ndarray, bn: BnParams):
    """Fold batch norm into the preceding conv.

    Returns (kernel', bias') with kernel'[..., c] scaled by
    gamma[c] / sqrt(var[c] + BN_EPSILON) and bias' = beta - mean * that scale.
    """
    inv = bn.gamma / np.sqrt(bn.running_var + BN_EPSILON)
    return kernel * inv, bn.beta - bn.running_mean * inv


def _pad_1x1_to_3x3(kernel1: np.ndarray) -> np.ndarray:
    padded = np.zeros((3, 3) + kernel1.shape[2:], dtype=np.float64)
    padded[1, 1] = kernel1[0, 0]
    return padded


def _identity_kernel(channels: int) -> np.ndarray:
    kernel = np.zeros((3, 3, channels, channels))
    kernel[1, 1] = np.eye(channels)
    return kernel


def fuse(layer: RepConvLayer) -> FusedConvLayer:
    """Collapse the training branches into one 3x3 kernel + bias."""
    k3, b3 = fold_bn(layer.kernel3.astype(np.float64), layer.bn3)
    k1, b1 = fold_bn(_pad_1x1_to_3x3(layer.kernel1), layer.bn1)
    kernel = k3 + k1
    bias = b3 + b1
    if layer.identity_bn is not None:
        kid, bid = fold_bn(_identity_kernel(layer.cin), layer.identity_bn)
        kernel = kernel + kid
        bias = bias + bid
    return FusedConvLayer(kernel=kernel, bias=bias)


def _branch_conv(x: SparseTensor2D, kernel: np.ndarray, mode: str, threads: int = 1,
                 bias=None):
    conv = sparse_conv_stride2 if mode == "stride2" else submanifold_conv
    return conv(x, kernel, bias, threads=threads)


def apply_fused(layer: FusedConvLayer, x: SparseTensor2D, mode: str,
                threads: int = 1) -> SparseTensor2D:
    return _branch_conv(x, layer.kernel, mode, threads, layer.bias)


def apply_training_form(layer: RepConvLayer, x: SparseTensor2D, mode: str,
                        threads: int = 1) -> SparseTensor2D:
    """Literal training-form evaluation: conv, normalize, sum branches.

    All branches share the output active set the 3x3 branch produces
    in this mode; the 1x1 and identity branches read through their
    center-tap placement so the same rule applies to them.
    """
    if mode == "stride2" and layer.identity_bn is not None:
        raise StructuralError("a stride-2 layer has no identity branch")
    out3 = _branch_conv(x, layer.kernel3.astype(np.float64), mode, threads)
    out1 = _branch_conv(x, _pad_1x1_to_3x3(layer.kernel1), mode, threads)
    total = layer.bn3.apply(out3.features) + layer.bn1.apply(out1.features)
    if layer.identity_bn is not None:
        outi = _branch_conv(x, _identity_kernel(layer.cin), mode, threads)
        total = total + layer.identity_bn.apply(outi.features)
    return out3.with_features(total)
