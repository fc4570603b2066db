import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lift.errors import CalibrationError, ParameterError, RangeError
from lift.quant import (QuantParams, Requantizer, calibrate, dequantize, integer_bias,
                        quantize, requantize, requantize_array)


def test_quantize_zero_maps_to_zero_point():
    qp = QuantParams(scale=0.1, zero_point=3)
    assert quantize(0.0, qp) == 3


def test_quantize_saturates():
    qp = QuantParams(scale=1.0, zero_point=0)
    assert quantize(200.0, qp) == 127
    assert quantize(-500.0, qp) == -128


def test_quantize_affine_example():
    # 1.0 / 0.25 = 4, plus zero point -10
    assert quantize(1.0, QuantParams(scale=0.25, zero_point=-10)) == -6


def test_dequantize_examples():
    qp = QuantParams(scale=0.1, zero_point=0)
    assert dequantize(127, qp) == pytest.approx(12.7)
    assert dequantize(5, QuantParams(scale=2.0, zero_point=5)) == 0.0


@given(st.floats(-20, 20), st.floats(0.01, 1.0), st.integers(-100, 100))
def test_round_trip_error_bound(x, scale, zp):
    zp = max(-128, min(127, zp))
    qp = QuantParams(scale=scale, zero_point=zp)
    lo = (-128 - zp) * scale
    hi = (127 - zp) * scale
    clamped = min(max(x, lo), hi)
    assert abs(dequantize(quantize(x, qp), qp) - clamped) <= scale / 2 + 1e-12


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=40), st.floats(0.01, 2.0))
def test_quantize_monotone(values, scale):
    qp = QuantParams(scale=scale, zero_point=7)
    q = [int(quantize(v, qp)) for v in sorted(values)]
    assert all(a <= b for a, b in zip(q, q[1:]))


def test_calibrate_degenerate_all_zero():
    qp = calibrate([0.0, 0.0, 0.0])
    assert qp.scale == pytest.approx(1.0 / 127.0)
    assert qp.zero_point == 0


def test_calibrate_symmetric_pair():
    # round-half-even(-127.5) = -128, so the zero point lands on 0
    qp = calibrate([-1.0, 1.0])
    assert qp.scale == pytest.approx(2.0 / 255.0)
    assert qp.zero_point == 0


def test_calibrate_full_byte_range():
    qp = calibrate([0.0, 255.0])
    assert qp.scale == pytest.approx(1.0)
    assert qp.zero_point == -128


def test_calibrate_one_sided_samples_keep_zero_representable():
    qp = calibrate([10.0, 11.0])
    assert -128 <= qp.zero_point <= 127
    assert abs(dequantize(quantize(0.0, qp), qp)) <= qp.scale / 2


def test_calibrate_percentile_clips_outliers():
    values = np.concatenate([np.full(999, 1.0), [1000.0]])
    qp = calibrate(values, mode="percentile", percentile=99.0)
    assert qp.scale < 1000.0 / 255.0


def test_calibrate_empty_raises():
    with pytest.raises(CalibrationError):
        calibrate([])


def test_requantizer_identityish_factor():
    r = Requantizer.from_factor(0.5, zero_point=0)
    assert requantize(10, r) == 5


def test_requantizer_identity_factor():
    # exact 1.0 uses the saturated mantissa: still identity on int8-range accs
    r = Requantizer.from_factor(1.0, zero_point=0)
    assert r.multiplier == (1 << 31) - 1 and r.shift == 0
    assert requantize(5, r) == 5
    assert all(requantize(a, r) == a for a in range(-128, 128))


def test_requantize_zero_acc_returns_zero_point():
    r = Requantizer.from_factor(0.123, zero_point=-7)
    assert requantize(0, r) == -7


def test_requantizer_rejects_out_of_range_factors():
    with pytest.raises(ParameterError):
        Requantizer.from_factor(1.5)
    with pytest.raises(ParameterError):
        Requantizer.from_factor(2.0 ** -40)


def test_requantizer_field_invariants():
    r = Requantizer.from_factor(0.37, zero_point=3)
    assert (1 << 30) <= r.multiplier < (1 << 31)
    assert 0 <= r.shift <= 62
    assert abs(r.factor - 0.37) <= 0.37 * 2 ** -24


@settings(max_examples=300)
@given(st.integers(-2 ** 31, 2 ** 31 - 1),
       st.floats(2 ** -20, 0.999), st.integers(-100, 100))
def test_requantize_matches_float_oracle(acc, factor, zp):
    zp = max(-128, min(127, zp))
    r = Requantizer.from_factor(factor, zero_point=zp)
    got = requantize(acc, r)
    want = max(-128, min(127, round(acc * factor) + zp))
    assert abs(got - want) <= 1


def test_requantize_array_matches_scalar(rng):
    # 1000 random (acc, factor) pairs
    factors = rng.uniform(1e-5, 0.9, size=8)
    zp = 5
    rs = [Requantizer.from_factor(f, zero_point=zp) for f in factors]
    mult = np.array([r.multiplier for r in rs], dtype=np.int64)
    shift = np.array([r.shift for r in rs], dtype=np.int64)
    acc = rng.integers(-2 ** 31, 2 ** 31, size=(125, 8))
    got = requantize_array(acc, mult, shift, zp)
    for row in range(125):
        for ch in range(8):
            assert got[row, ch] == requantize(int(acc[row, ch]), rs[ch])


def test_quantparams_validation():
    with pytest.raises(ParameterError):
        QuantParams(scale=0.0)
    with pytest.raises(ParameterError):
        QuantParams(scale=1.0, zero_point=300)


def test_integer_bias_rounds_onto_the_accumulator_scale():
    got = integer_bias(np.array([0.25, -0.26, 1e-9]), 0.5, np.array([0.1, 0.1, 1.0]), 9)
    assert got.tolist() == [5.0, -5.0, 0.0]


@pytest.mark.parametrize("taps", [1, 9 * 128])
def test_integer_bias_bound_is_tight(taps):
    limit = 2 ** 31 - taps * 255 * 128
    ones = np.ones(2)
    assert integer_bias(np.array([limit - 1, 1 - limit]), 1.0, ones, taps).tolist() == \
        [limit - 1, 1 - limit]
    for bad in (limit, -limit, np.nan, np.inf, -np.inf):
        with pytest.raises(RangeError, match="int32 accumulator"):
            integer_bias(np.array([0.0, bad]), 1.0, ones, taps)
