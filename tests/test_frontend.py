"""The per-cloud work around the convs -- pillar binning, dual-bound
pooling, the int8 encoder and box decoding -- against the plain
formulations in oracles.py, bit for bit."""

import math

import numpy as np
import pytest
from oracles import (decode_reference, encode_int8_reference, pillarize_stable_argsort,
                     reduceat_dual_bound)

from lift.errors import ShapeError
from lift.network import (ENCODER_SITE, DbpfnParams, NetworkConfig, dbpfn_encode, decode,
                          dual_bound_pool)
from lift.pcd_io import PointCloud
from lift.pillarizer import GridConfig, PillarSet, pillarize
from lift.quant import QuantParams
from lift.quantize import Int8Network, Int8Weights, encode_int8
from lift.sparse import F32_EXACT, SparseTensor2D, int8_gemms


def _offsets(counts):
    return np.r_[0, np.cumsum(counts)].astype(np.int64)


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# dual-bound pooling


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("counts", [
    np.arange(1, 21),                 # every count up to the 20-point cap
    np.array([20]),                   # a single pillar
    np.array([1]),
    np.ones(37, dtype=np.int64),      # single-point pillars only: no rank loop
    np.array([3, 1, 20, 1, 7, 7, 2, 20, 1, 5]),
])
def test_dual_bound_pool_matches_reduceat(rng, dtype, counts):
    counts = rng.permutation(counts)
    offsets = _offsets(counts)
    values = rng.normal(size=(offsets[-1], 6)).astype(dtype)
    assert _same(dual_bound_pool(values, offsets), reduceat_dual_bound(values, offsets))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_dual_bound_pool_resolves_signed_zero_ties_as_reduceat(rng, dtype):
    counts = rng.integers(1, 21, size=200)
    offsets = _offsets(counts)
    values = rng.choice(np.array([0.0, -0.0, 1.0, -1.0], dtype=dtype),
                        size=(offsets[-1], 5))
    assert _same(dual_bound_pool(values, offsets), reduceat_dual_bound(values, offsets))
    # the tie goes to the later row, so row order shows in the sign bit
    pair = np.array([[0.0], [-0.0]], dtype=dtype)
    for rows in (pair, pair[::-1]):
        got = dual_bound_pool(rows, _offsets([2]))
        assert _same(got, reduceat_dual_bound(rows, _offsets([2])))
        assert np.signbit(got[0, 0]) == np.signbit(rows[1, 0])


# ---------------------------------------------------------------------------
# pillarize


def _pillar_fields(p):
    return (p.width, p.height, p.out_of_range, p.truncated, p.coords, p.offsets, p.features)


def _assert_same_pillars(got, ref):
    for a, b in zip(_pillar_fields(got), _pillar_fields(ref)):
        if isinstance(a, np.ndarray):
            assert _same(a, b)
        else:
            assert a == b
    assert got.out_of_range + got.truncated + got.point_count > 0


def _clustered_cloud(rng, n, grid, centers=6, spread=0.2, spill=0.05):
    """n points around a few centres (heavy key collisions, deep tails),
    a share of them outside the ranges."""
    cx = rng.uniform(grid.x_min, grid.x_max, centers)
    cy = rng.uniform(grid.y_min, grid.y_max, centers)
    owner = rng.integers(0, centers, n)
    pts = np.column_stack([
        cx[owner] + rng.normal(0.0, spread, n), cy[owner] + rng.normal(0.0, spread, n),
        rng.uniform(grid.z_min, grid.z_max, n), rng.uniform(0.0, 255.0, n)])
    far = rng.random(n) < spill
    pts[far, 2] = grid.z_max + 1.0
    return PointCloud(data=pts.astype(np.float32))


@pytest.mark.parametrize("cap", [1, 3, 20])
@pytest.mark.parametrize("offsets_on", [True, False])
def test_pillarize_matches_stable_argsort_oracle(rng, cap, offsets_on):
    grid = GridConfig(x_min=-4.8, x_max=4.8, y_min=-4.8, y_max=4.8,
                      max_points_per_pillar=cap)
    cloud = _clustered_cloud(rng, 5000, grid)
    got = pillarize(cloud, grid, include_offsets=offsets_on, normalize_intensity=offsets_on)
    ref = pillarize_stable_argsort(cloud, grid, include_offsets=offsets_on,
                                   normalize_intensity=offsets_on)
    _assert_same_pillars(got, ref)
    assert got.truncated > 0


@pytest.mark.parametrize("kept", [1, 2, 3, 4, 5, 255, 256, 257, 1024, 1025, 4096, 4097])
def test_pillarize_matches_oracle_where_the_rank_width_changes(rng, kept):
    # the packed sort holds ranks in bit_length(kept) bits
    grid = GridConfig(x_min=-1.2, x_max=1.2, y_min=-1.2, y_max=1.2,
                      max_points_per_pillar=4)
    inside = _clustered_cloud(rng, kept, grid, centers=3, spread=0.1, spill=0.0).data
    inside[:, :2] = np.clip(inside[:, :2], -1.19, 1.19)
    outside = inside[: kept // 3].copy()
    outside[:, 0] = 7.0
    data = rng.permutation(np.concatenate([inside, outside]))
    cloud = PointCloud(data=data)
    got = pillarize(cloud, grid)
    assert got.point_count + got.truncated == kept
    _assert_same_pillars(got, pillarize_stable_argsort(cloud, grid))


def test_pillarize_matches_oracle_on_the_largest_grid(rng):
    grid = GridConfig(x_min=0.0, x_max=4096.0, y_min=0.0, y_max=4096.0,
                      pillar_size_x=1.0, pillar_size_y=1.0, max_points_per_pillar=2)
    corners = np.array([[4095.5, 4095.5], [0.5, 0.5], [4095.5, 0.5], [0.5, 4095.5]])
    xy = np.concatenate([np.repeat(corners, 3, axis=0), rng.uniform(0.0, 4096.0, (3000, 2)),
                         rng.uniform(4090.0, 4096.0, (500, 2))])
    data = np.column_stack([xy, rng.uniform(-1.0, 1.0, len(xy)),
                            rng.uniform(0.0, 255.0, len(xy))]).astype(np.float32)
    cloud = PointCloud(data=rng.permutation(data))
    got = pillarize(cloud, grid)
    keys = got.coords[:, 1] * grid.width + got.coords[:, 0]
    assert keys.max() == 2 ** 24 - 1 and keys.min() == 0
    _assert_same_pillars(got, pillarize_stable_argsort(cloud, grid))


# ---------------------------------------------------------------------------
# int8 encoder


def _int8_weights(rng, n_features, hidden):
    return rng.choice(np.array([-128, 127, -1, 0, 1, 93], dtype=np.int8),
                      size=(n_features, hidden), p=[0.4, 0.4, 0.05, 0.05, 0.05, 0.05])


def _int8_encoder(q_weight, bias_q, weight_scales, out_scale, feature_qps=None):
    """An Int8Network holding only what encode_int8 reads, with biases
    integers on scale 1. Feature zero points alternate between -128 and
    127 unless given, so saturated features center to +255 and -255."""
    if feature_qps is None:
        feature_qps = [QuantParams(scale=0.5, zero_point=-128 if f % 2 else 127)
                       for f in range(q_weight.shape[0])]
    encoder = Int8Weights(q_weight=q_weight, weight_scales=np.asarray(weight_scales),
                          bias=np.asarray(bias_q, dtype=np.float64) * weight_scales)
    return Int8Network(feature_qps=feature_qps, encoder=encoder, ops=(), layers={},
                       act={ENCODER_SITE: QuantParams(scale=out_scale, zero_point=3)})


def _pillars(rng, counts, n_features, width=64):
    offsets = _offsets(counts)
    flat = rng.choice(width * width, size=len(counts), replace=False)
    flat.sort()
    # saturating values at both ends, and values in between
    features = rng.choice(np.array([-1e4, 1e4, 0.0]), size=(offsets[-1], n_features))
    mid = rng.random(features.shape) < 0.3
    features[mid] = rng.uniform(-70.0, 70.0, mid.sum())
    return PillarSet(width=width, height=width,
                     coords=np.column_stack([flat % width, flat // width]),
                     features=features, offsets=offsets)


def test_encode_int8_matches_the_float64_reduceat_formula(rng):
    n_features, hidden = 9, 8
    # |bias| + F * 255 * 128 lands within one tap (32,640) of 2^31
    room = 2 ** 31 - 1 - n_features * 255 * 128
    bias_q = rng.choice([-1, 1], hidden) * (room - rng.integers(0, 255 * 128, hidden))
    bias_q[:2] = 0
    weight_scales = 2.0 ** -rng.integers(0, 4, hidden)
    weight_scales[:2] = 2.0 ** 10
    net = _int8_encoder(_int8_weights(rng, n_features, hidden), bias_q, weight_scales,
                        out_scale=2.0 ** 24)
    pillars = _pillars(rng, rng.integers(1, 21, 300), n_features)
    x = encode_int8(pillars, net)
    assert x.is_int8 and np.array_equal(x.coords, pillars.coords)
    assert _same(x.features, encode_int8_reference(pillars, net))
    assert len(np.unique(x.features)) > 10


def test_encode_int8_stays_exact_past_the_float32_feature_count(rng):
    n_features, hidden = 600, 4
    # on channel 0, point 0 sums F - 1 products 255 * -128 and one 1 * 1: an
    # odd integer above 2^24 in magnitude, which float32 cannot hold; the
    # bias brings the pooled sum back to 1
    feature_qps = [QuantParams(scale=0.5, zero_point=-128)] * (n_features - 1)
    feature_qps.append(QuantParams(scale=1.0, zero_point=0))
    q_weight = _int8_weights(rng, n_features, hidden)
    q_weight[:, 0] = -128
    q_weight[-1, 0] = 1
    total = -(n_features - 1) * 255 * 128 + 1
    assert abs(total) > 2 ** 24 and total % 2
    # channel 0's L1 bound, 255 * sum |w|, passes 2^24: the GEMM runs in float64
    assert int8_gemms(q_weight[None, None], 0)[1] == np.float64
    bias_q = np.zeros(hidden)
    bias_q[0] = 1 - total
    net = _int8_encoder(q_weight, bias_q, np.ones(hidden), 1.0, feature_qps)
    pillars = _pillars(rng, [1, 3, 2], n_features)
    pillars.features[0, :-1] = 1e4
    pillars.features[0, -1] = 1.0
    x = encode_int8(pillars, net)
    assert _same(x.features, encode_int8_reference(pillars, net))
    zero_point = net.act[ENCODER_SITE].zero_point
    assert x.features[0, 0] == 1 + zero_point == x.features[0, hidden]


def test_encode_int8_runs_float32_past_the_feature_count_where_the_l1_bound_holds(rng):
    n_features, hidden = 600, 4
    assert n_features * 255 * 128 >= F32_EXACT
    # channel 0 holds 514 weights -128 and one -1, channel 1 518 weights 127
    # and one 7: 255 * sum |w| is 2^24 - 1 on both, so point 0's sums, all
    # 255 * w, are -/+(2^24 - 1), odd integers at float32's edge; the biases
    # bring them back to 1
    q_weight = rng.integers(-100, 101, size=(n_features, hidden)).astype(np.int8)
    q_weight[:, :2] = 0
    q_weight[:514, 0], q_weight[514, 0] = -128, -1
    q_weight[:518, 1], q_weight[518, 1] = 127, 7
    assert int8_gemms(q_weight[None, None], 0)[1] == np.float32
    edge = F32_EXACT - 1
    bias_q = np.zeros(hidden)
    bias_q[:2] = 1 + edge, 1 - edge
    feature_qps = [QuantParams(scale=0.5, zero_point=-128)] * n_features
    net = _int8_encoder(q_weight, bias_q, np.ones(hidden), 1.0, feature_qps)
    pillars = _pillars(rng, [1, 3, 2], n_features)
    pillars.features[0] = 1e4
    x = encode_int8(pillars, net)
    assert _same(x.features, encode_int8_reference(pillars, net))
    zero_point = net.act[ENCODER_SITE].zero_point
    assert (x.features[0, [0, 1, hidden, hidden + 1]] == 1 + zero_point).all()


@pytest.mark.parametrize("n_points", [0, 3])
def test_both_encoders_reject_a_wrong_feature_length_empty_or_not(rng, n_points):
    pillars = _pillars(rng, [n_points], 7) if n_points else \
        PillarSet(width=8, height=8, features=np.empty((0, 7)))
    with pytest.raises(ShapeError, match="length 7, encoder expects 9"):
        dbpfn_encode(pillars, DbpfnParams(weight=np.ones((9, 4)), bias=np.zeros(4)))
    net = _int8_encoder(_int8_weights(rng, 9, 4), np.zeros(4), np.ones(4), 1.0)
    with pytest.raises(ShapeError, match="length 7, encoder expects 9"):
        encode_int8(pillars, net)


@pytest.mark.parametrize("source", ["no pillars", "empty cloud", "all out of range"])
def test_both_encoders_run_zero_pillars_through_the_common_path(rng, source):
    grid = GridConfig(x_min=-1.2, x_max=1.2, y_min=-0.6, y_max=0.6)
    cloud = PointCloud(np.array([[5.0, 0, 0, 1], [0, -5.0, 0, 1], [0, 0, 9.0, 1]],
                                dtype=np.float32)) if source == "all out of range" \
        else PointCloud()
    pillars = PillarSet(width=16, height=8) if source == "no pillars" else pillarize(cloud, grid)
    assert (len(pillars), pillars.features.shape, pillars.offsets.tolist()) == (0, (0, 9), [0])
    out = dbpfn_encode(pillars, DbpfnParams(weight=rng.normal(size=(9, 4)), bias=np.zeros(4)))
    net = _int8_encoder(_int8_weights(rng, 9, 4), np.zeros(4), np.ones(4), 1.0)
    out_q = encode_int8(pillars, net)
    for y, dtype, qparams in ((out, np.float64, None), (out_q, np.int8, net.act[ENCODER_SITE])):
        assert (y.width, y.height, y.features.shape) == (16, 8, (0, 8))
        assert y.features.dtype == dtype and y.qparams == qparams
        assert y.coords.shape == (0, 2) and y.coords.dtype == np.int64
        assert y.keys().shape == (0,) and y.keys().dtype == np.int64


# ---------------------------------------------------------------------------
# decode


def _bits(boxes):
    return [tuple(v.hex() if isinstance(v, float) else v for v in
                  (b.class_id, b.class_name, b.score, b.x, b.y, b.z, b.l, b.w, b.h, b.yaw))
            for b in boxes]


@pytest.mark.parametrize("int8", [False, True])
def test_decode_of_empty_maps_is_no_boxes(int8):
    grid = GridConfig(x_min=-4.8, x_max=4.8, y_min=-4.8, y_max=4.8)
    cfg = NetworkConfig(num_classes=3, class_names=("a", "b", "c"))
    dtype = np.int8 if int8 else np.float64
    heat, reg = (SparseTensor2D.build(16, 16, [], np.empty((0, c), dtype=dtype),
                                      qparams=QuantParams(0.05, -4) if int8 else None)
                 for c in (3, 8))
    assert decode(heat, reg, grid, cfg, 0.0, 500) == []


def _head_maps(rng, side, classes, int8):
    n = max(1, side * side // 3)
    flat = rng.choice(side * side, size=n, replace=False)
    coords = np.column_stack([flat % side, flat // side])
    if int8:
        heat = rng.integers(-128, 128, size=(n, classes)).astype(np.int8)
        reg = rng.integers(-128, 128, size=(n, 8)).astype(np.int8)
        # sin at the zero point, cos negative: yaw at +pi
        reg[::4, 6] = 2
        reg[::4, 7] = -50
        return (SparseTensor2D.build(side, side, coords, heat,
                                     qparams=QuantParams(scale=0.05, zero_point=-4)),
                SparseTensor2D.build(side, side, coords, reg,
                                     qparams=QuantParams(scale=0.1, zero_point=2)))
    heat = rng.normal(0.0, 2.0, size=(n, classes))
    reg = rng.normal(0.0, 1.5, size=(n, 8))
    reg[:, 3:6] *= 8.0                  # log-sizes past the clamp
    reg[::3, 6] = rng.choice([0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324], len(reg[::3]))
    reg[::3, 7] = -rng.uniform(0.1, 2.0, len(reg[::3]))
    return (SparseTensor2D.build(side, side, coords, heat),
            SparseTensor2D.build(side, side, coords, reg))


@pytest.mark.parametrize("int8", [False, True])
@pytest.mark.parametrize("pillars_per_axis", [64, 13])
def test_decode_matches_the_per_box_reference(rng, int8, pillars_per_axis):
    span = pillars_per_axis * 0.15
    grid = GridConfig(x_min=-span / 2, x_max=span / 2, y_min=-span / 3,
                      y_max=span - span / 3)
    cfg = NetworkConfig(num_classes=3, class_names=("a", "b", "c"))
    side = -(-pillars_per_axis // 4)
    boxes = []
    for _ in range(5):
        heat, reg = _head_maps(rng, side, 3, int8)
        for threshold, top_k in ((0.0, 500), (0.3, 7)):
            got = decode(heat, reg, grid, cfg, threshold, top_k)
            assert got and _bits(got) == _bits(decode_reference(heat, reg, grid, cfg,
                                                                threshold, top_k))
            boxes += got
    # the clamps and the wrap at -pi were reached
    assert any(b.yaw == math.pi for b in boxes)
    assert max(b.l for b in boxes) == pytest.approx(math.exp(8.0))
    assert min(b.h for b in boxes) == pytest.approx(math.exp(-8.0))
    if pillars_per_axis % 4:
        cell = grid.pillar_size_x * 4
        assert any(b.x == grid.x_max + cell for b in boxes)
        assert any(b.y == grid.y_max + cell for b in boxes)
