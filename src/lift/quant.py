"""INT8 affine quantization and integer requantization.

Conventions used throughout the engine:

* activations: per-tensor asymmetric (scale + zero point),
* weights: per-output-channel symmetric (zero point 0),
* rounding: reals quantize with np.rint (half to even); accumulators
  requantize to floor(x + 1/2), so ties round toward +inf. Both are
  exact integer rules: results do not depend on platform or
  vectorization,
* requantization: each real factor s_in * s_w / s_out is a Q31
  multiplier and a right shift, built by ``encode_factors``,
* accumulators: int32. A layer adds ``taps`` products of a centered
  input (|q - zero_point| <= 255) and a weight (|w| <= 128) onto its
  integer bias, so it needs |bias_q| + taps * 255 * 128 < 2^31.
  ``integer_bias`` computes every bias_q and checks that bound. The
  engine emulates these int32 sums exactly, in float32 where each output
  channel's 255 * sum |w| + |bias_q| is below 2^24 and in float64
  otherwise (one rule, ``sparse.int8_gemms``, for convs and the
  encoder), and requantizes them as ``requantize_array`` does; a conv
  tile, held in float64, by an equal float64 epilogue where every shift
  is at most 13 (proof: the sparse module).
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


def dequantize(q, qp: QuantParams):
    """Map int8 values back to reals: (q - zero_point) * scale."""
    x = (np.asarray(q, dtype=np.float64) - qp.zero_point) * qp.scale
    return x if x.ndim else float(x)


def integer_bias(bias, in_scale, weight_scales, taps) -> np.ndarray:
    """A layer's bias on its accumulator scale, rint(bias / (in_scale * s_w)).

    Integers held in float64. The layer adds taps products (K * K * Cin
    for a conv, the feature count for the encoder; in_scale and taps may
    be per channel) onto them. RangeError unless every |bias_q| + taps *
    255 * 128 is below 2^31, the int32 accumulator bound; NaN and inf fail.
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
    zero_point = int(INT8_MIN - np.rint(lo / scale))
    zero_point = max(INT8_MIN, min(INT8_MAX, zero_point))
    return QuantParams(scale=scale, zero_point=zero_point)


def encode_factors(factors) -> tuple[np.ndarray, np.ndarray]:
    """The Q31 encoding of real rescaling factors: int64 multipliers in
    [2^30, 2^31) and shifts >= 0 with factor = multiplier * 2**-(31 + shift)
    to within 2^-31 relative.

    Factors below 2^-32 are raised to it: they requantize every input to
    the zero point anyway, so clamping keeps them encodable without
    changing any output. A mantissa that rounds up to 2^31 carries into
    the shift, and 1.0 gets the saturated mantissa 2^31 - 1 with shift 0.
    ParameterError names the first factor that no non-negative shift can
    encode: above 1, NaN, or just below 1 where the carry would need
    shift -1.
    """
    factors = np.maximum(np.atleast_1d(np.asarray(factors, dtype=np.float64)), 2.0 ** -32)
    ok = factors <= 1.0   # False for NaN
    mantissa, exponent = np.frexp(np.where(ok, factors, 0.5))
    multipliers = np.rint(mantissa * 2.0 ** 31).astype(np.int64)
    carry = multipliers == 1 << 31
    multipliers[carry] >>= 1
    shifts = -(exponent.astype(np.int64) + carry)
    one = factors == 1.0
    multipliers[one], shifts[one] = (1 << 31) - 1, 0
    ok &= shifts >= 0
    if not ok.all():
        bad = float(factors[~ok][0])
        raise ParameterError(f"requantization factor {bad!r} cannot be encoded as a Q31 "
                             f"multiplier with a right shift{', above 1' if bad > 1 else ''}")
    return multipliers, shifts


def requantize_array(acc: np.ndarray, multipliers: np.ndarray, shifts: np.ndarray,
                     zero_point: int, relu: bool = False) -> np.ndarray:
    """Rescale integer accumulators to int8 through Q31 multipliers and
    shifts (from encode_factors), saturating: multiply by the mantissa,
    shift right by 31 + shift rounding to floor(x + 1/2) (ties toward
    +inf), add the output zero point, clamp. acc holds integers of any
    dtype within int32 range (the bound integer_bias checks, which every
    Int8Network enforces when it is made); multipliers/shifts broadcast
    to its shape. int64 is exact: shifts stay <= 31, as encode_factors
    bounds factors below by 2^-32. relu also clamps at the zero point
    (real 0), as rectifying the int8 result would. acc is left unchanged.
    """
    total = acc.astype(np.int64)
    total *= multipliers
    sh = 31 + np.asarray(shifts, dtype=np.int64)
    total += np.int64(1) << (sh - 1)
    total >>= sh
    total += zero_point
    lo = zero_point if relu else INT8_MIN
    return np.clip(total, lo, INT8_MAX, out=total).astype(np.int8)
