"""INT8 affine quantization and integer requantization.

Conventions used throughout the engine:

* activations: per-tensor asymmetric (scale + zero point),
* weights: per-output-channel symmetric (zero point 0),
* rounding: half-to-even everywhere, so integer results do not depend
  on platform or vectorization,
* accumulators: int32. A layer adds ``taps`` products of a centered
  input (|q - zero_point| <= 255) and a weight (|w| <= 128) onto its
  integer bias, so it needs |bias_q| + taps * 255 * 128 < 2^31.
  ``integer_bias`` computes every bias_q and checks that bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, ParameterError, RangeError

INT8_MIN = -128
INT8_MAX = 127


@dataclass(frozen=True)
class QuantParams:
    """Affine mapping real = (q - zero_point) * scale."""

    scale: float
    zero_point: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ParameterError(f"scale must be positive and finite, got {self.scale}")
        if not INT8_MIN <= self.zero_point <= INT8_MAX:
            raise ParameterError(f"zero_point {self.zero_point} outside [{INT8_MIN}, {INT8_MAX}]")


def quantize(x, qp: QuantParams):
    """Map real values to int8: round-half-to-even(x / scale) + zero_point, saturating.

    Accepts scalars or arrays; returns np.int8 of matching shape.
    """
    q = np.rint(np.asarray(x, dtype=np.float64) / qp.scale) + qp.zero_point
    q = np.clip(q, INT8_MIN, INT8_MAX).astype(np.int8)
    return q if q.ndim else np.int8(q)


def dequantize(q, qp: QuantParams):
    """Map int8 values back to reals: (q - zero_point) * scale."""
    x = (np.asarray(q, dtype=np.float64) - qp.zero_point) * qp.scale
    return x if x.ndim else float(x)


def integer_bias(bias, in_scale: float, weight_scales, taps: int) -> np.ndarray:
    """A layer's bias on its accumulator scale, rint(bias / (in_scale * s_w)).

    The values are integers held in float64. The layer adds taps
    products (K * K * Cin for a conv, the feature count for the encoder)
    onto them. RangeError unless every |bias_q| + taps * 255 * 128 is
    below 2^31, the int32 accumulator bound; NaN and inf fail too.
    """
    bias_q = np.rint(bias / (in_scale * weight_scales))
    ok = np.abs(bias_q) < 2 ** 31 - taps * 255 * 128   # False for NaN
    if np.count_nonzero(ok) != ok.size:
        raise RangeError(f"integer bias {bias_q[~ok][0]:.6g} plus {taps} taps of "
                         f"255 x 128 leaves the int32 accumulator range")
    return bias_q


def calibrate(samples, mode: str = "minmax", percentile: float = 99.9) -> QuantParams:
    """Derive QuantParams from observed values.

    minmax: scale = (hi - lo) / 255 with the observed range widened to
    include 0 (otherwise the zero point would leave the int8 range for
    one-sided data), zero point chosen so lo maps to -128. An all-equal
    sample degenerates to scale = max(|v|, 1) / 127, zero_point = 0.
    percentile: |values| are clipped at the given percentile first,
    then the minmax rule applies.
    """
    values = np.asarray(samples, dtype=np.float64).ravel()
    if values.size == 0:
        raise CalibrationError("cannot calibrate from an empty sample set")
    if not np.all(np.isfinite(values)):
        raise CalibrationError("calibration samples must be finite")
    if mode == "percentile":
        t = float(np.percentile(np.abs(values), percentile))
        values = np.clip(values, -t, t) if t > 0 else values
    elif mode != "minmax":
        raise ParameterError(f"unknown calibration mode {mode!r}")

    vmin = float(values.min())
    vmax = float(values.max())
    if vmin == vmax:
        return QuantParams(scale=max(abs(vmin), 1.0) / 127.0, zero_point=0)
    lo = min(vmin, 0.0)
    hi = max(vmax, 0.0)
    scale = (hi - lo) / 255.0
    zero_point = int(INT8_MIN - round_half_even(lo / scale))
    zero_point = max(INT8_MIN, min(INT8_MAX, zero_point))
    return QuantParams(scale=scale, zero_point=zero_point)


def round_half_even(x: float) -> int:
    return int(np.rint(x))


@dataclass(frozen=True)
class Requantizer:
    """Fixed-point rescaling of an int32 accumulator down to int8.

    Encodes a real factor as multiplier * 2**-(31 + shift) with
    multiplier in [2^30, 2^31), i.e. a Q31 mantissa plus a right shift.
    """

    multiplier: int
    shift: int
    zero_point: int = 0

    def __post_init__(self):
        if not (1 << 30) <= self.multiplier < (1 << 31):
            raise ParameterError(f"multiplier {self.multiplier} outside [2^30, 2^31)")
        if not 0 <= self.shift <= 62:
            raise ParameterError(f"shift {self.shift} outside [0, 62]")
        if not INT8_MIN <= self.zero_point <= INT8_MAX:
            raise ParameterError(f"zero_point {self.zero_point} outside int8 range")

    @classmethod
    def from_factor(cls, factor: float, zero_point: int = 0) -> "Requantizer":
        """Build the fixed-point encoding of a real rescaling factor.

        Factors must lie in [2^-32, 1]; anything outside cannot be
        represented with a non-negative shift and an int64-safe shift
        amount. Factor 1.0 gets the saturated mantissa 2^31 - 1 (off by
        2^-31, within the 2^-24 tolerance). Calibrated conv pipelines
        stay well inside this range.
        """
        if not (math.isfinite(factor) and 2.0 ** -32 <= factor <= 1.0):
            raise ParameterError(f"requantization factor {factor} outside [2^-32, 1]")
        if factor == 1.0:
            return cls(multiplier=(1 << 31) - 1, shift=0, zero_point=zero_point)
        mantissa, exponent = math.frexp(factor)  # factor = mantissa * 2^exponent
        multiplier = round_half_even(mantissa * (1 << 31))
        if multiplier == (1 << 31):
            multiplier >>= 1
            exponent += 1
        shift = -exponent
        r = cls(multiplier=multiplier, shift=shift, zero_point=zero_point)
        encoded = multiplier * 2.0 ** -(31 + shift)
        if abs(encoded - factor) > factor * 2.0 ** -24:
            raise ParameterError(f"factor {factor} not representable to 2^-24")
        return r

    @property
    def factor(self) -> float:
        return self.multiplier * 2.0 ** -(31 + self.shift)


def requantization_factor(in_scale: float, weight_scale: float, out_scale: float) -> float:
    """The real factor s_in * s_w / s_out a requantizer encodes (s_w = 1
    for an add operand). Factors below 2^-32 are raised to it: they
    requantize every input to the zero point anyway, so clamping keeps
    them encodable without changing any output. Factors above 1 are
    returned as they are; from_factor rejects them.
    """
    return max(in_scale * weight_scale / out_scale, 2.0 ** -32)


def requantize(acc: int, r: Requantizer) -> int:
    """Rescale an int32 accumulator to int8 through r, saturating.

    Python ints are exact, so this is the reference semantics the
    vectorized engine path must reproduce bit for bit: multiply by the
    Q31 mantissa, rounding right shift (half away from zero toward
    +inf), add the output zero point, clamp.
    """
    total = int(acc) * r.multiplier
    sh = 31 + r.shift
    rounded = (total + (1 << (sh - 1))) >> sh
    return max(INT8_MIN, min(INT8_MAX, rounded + r.zero_point))


def requantize_array(acc: np.ndarray, multipliers: np.ndarray, shifts: np.ndarray,
                     zero_point: int, relu: bool = False) -> np.ndarray:
    """Vectorized requantize over per-channel multiplier/shift arrays.

    acc holds integers (int32 from a conv, int64, or float64 from the
    encoder) that must lie within int32 range: callers keep the
    accumulator bound that integer_bias checks, and the int8 weight
    reader and quantize_network enforce it. multipliers/shifts broadcast
    to acc's shape (per channel along the last axis, or scalars).
    Matches requantize() exactly: shift amounts stay <= 63 because
    from_factor bounds factors below by 2^-32. relu also clamps at the
    zero point (real 0), the same as rectifying the int8 result. Works
    in place on one int64 copy of acc; the caller's array is left
    unchanged.
    """
    total = acc.astype(np.int64)
    total *= multipliers
    sh = 31 + np.asarray(shifts, dtype=np.int64)
    total += np.int64(1) << (sh - 1)
    total >>= sh
    total += zero_point
    lo = zero_point if relu else INT8_MIN
    return np.clip(total, lo, INT8_MAX, out=total).astype(np.int8)
