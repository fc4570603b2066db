import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from conftest import random_sparse
from oracles import (Requantizer, brute_force_taps, dense_conv, dense_conv_int,
                     dense_conv_int_fast, dense_max_pool, densify, conv_loops, max_rel_dev, requantize, scatter_conv,
                     stride2_active_set, stride2_coords_unique)

from lift import cli, sparse
from lift.errors import ParameterError, ShapeError
from lift.quant import QuantParams, integer_bias
from lift.sparse import (EXACT_F64_SHIFT, F32_EXACT, SPLIT_ROWS, TILE_ROWS, OutputQuant,
                         SparseTensor2D, _split_tiles, _stride2_coords, _tiles, build_rulebook,
                         int8_gemms, sparse_add_projected, sparse_conv_stride2,
                         sparse_max_pool, submanifold_conv)


def identity_kernel(channels, k=3):
    kernel = np.zeros((k, k, channels, channels))
    kernel[k // 2, k // 2] = np.eye(channels)
    return kernel


def masked_dense(tensor, dense_out):
    return np.stack([dense_out[j, i] for (i, j) in tensor.coords]) \
        if len(tensor) else np.zeros((0, dense_out.shape[2]))


class TestSparseTensor:
    def test_build_canonicalizes_order(self):
        coords = [(3, 1), (0, 0), (1, 1)]
        feats = [[3.0], [0.0], [1.0]]
        t = SparseTensor2D.build(4, 2, coords, feats)
        assert [tuple(c) for c in t.coords] == [(0, 0), (1, 1), (3, 1)]
        assert list(t.features[:, 0]) == [0.0, 1.0, 3.0]

    def test_build_rejects_duplicates(self):
        with pytest.raises(ShapeError):
            SparseTensor2D.build(4, 4, [(1, 1), (1, 1)], [[1.0], [2.0]])

    def test_build_rejects_out_of_range(self):
        with pytest.raises(ShapeError):
            SparseTensor2D.build(4, 4, [(4, 0)], [[1.0]])

    def test_int8_requires_qparams(self):
        with pytest.raises(ShapeError):
            SparseTensor2D.build(4, 4, [(0, 0)], np.array([[1]], dtype=np.int8))

    @pytest.mark.parametrize("qparams", [None, QuantParams(0.5, 3)])
    def test_build_and_max_pool_take_zero_rows(self, qparams):
        dtype = np.float64 if qparams is None else np.int8
        t = SparseTensor2D.build(6, 4, [], np.empty((0, 5), dtype=dtype), qparams=qparams)
        for y in (t, sparse_max_pool(t)):
            assert (y.width, y.height, len(y), y.channels) == (6, 4, 0, 5)
            assert y.features.dtype == dtype and y.qparams == qparams
            assert y.coords.shape == (0, 2) and y.coords.dtype == np.int64
            assert y.keys().shape == (0,) and y.keys().dtype == np.int64

    def test_build_reads_a_vector_as_one_channel(self):
        t = SparseTensor2D.build(4, 4, [(2, 1), (0, 0)], [5.0, 7.0])
        assert t.features.shape == (2, 1) and t.features[:, 0].tolist() == [7.0, 5.0]

    def test_build_refuses_features_with_other_rows_than_coords(self):
        # 4 x 2 features hold 8 values, as many as 2 sites of 4 channels
        with pytest.raises(ShapeError, match="coords and features row counts differ"):
            SparseTensor2D.build(4, 4, [(0, 0), (1, 0)], np.ones((4, 2)))


class TestSubmanifold:
    def test_empty_input(self):
        x = SparseTensor2D.build(8, 8, [], np.empty((0, 4)))
        y = submanifold_conv(x, np.zeros((3, 3, 4, 2)))
        assert len(y) == 0 and y.channels == 2

    def test_identity_kernel(self, rng):
        x = random_sparse(rng, 8, 8, 3, occupancy=0.2)
        y = submanifold_conv(x, identity_kernel(3))
        assert np.array_equal(x.coords, y.coords)
        assert np.allclose(x.features, y.features)

    def test_active_set_preserved(self, rng):
        for _ in range(20):
            x = random_sparse(rng, 12, 9, 2, occupancy=float(rng.uniform(0.05, 0.9)))
            y = submanifold_conv(x, rng.normal(size=(3, 3, 2, 5)), rng.normal(size=5))
            assert np.array_equal(x.coords, y.coords)

    def test_dense_oracle_equivalence(self, rng):
        for _ in range(30):
            cin, cout = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            x = random_sparse(rng, 16, 16, cin, occupancy=0.3)
            w = rng.normal(size=(3, 3, cin, cout))
            b = rng.normal(size=cout)
            y = submanifold_conv(x, w, b)
            ref = masked_dense(y, dense_conv(densify(x), w, b))
            assert max_rel_dev(y.features, ref) < 1e-12

    def test_matches_literal_loop_oracle(self, rng):
        cin, cout = 3, 4
        x = random_sparse(rng, 7, 6, cin, occupancy=0.4)
        w = rng.normal(size=(3, 3, cin, cout))
        b = rng.normal(size=cout)
        y = submanifold_conv(x, w, b)
        ref = masked_dense(y, conv_loops(densify(x), w, b))
        assert max_rel_dev(y.features, ref) < 1e-12

    def test_1x1_kernel(self, rng):
        x = random_sparse(rng, 10, 10, 4, occupancy=0.5)
        w = rng.normal(size=(1, 1, 4, 6))
        y = submanifold_conv(x, w)
        assert np.allclose(y.features, x.features @ w[0, 0])

    def test_channel_mismatch(self, rng):
        x = random_sparse(rng, 8, 8, 3)
        with pytest.raises(ShapeError):
            submanifold_conv(x, np.zeros((3, 3, 4, 2)))

    def test_thread_count_does_not_change_results(self, rng):
        x = random_sparse(rng, 16, 16, 8, occupancy=0.4)
        w = rng.normal(size=(3, 3, 8, 8))
        b = rng.normal(size=8)
        y1 = submanifold_conv(x, w, b, threads=1)
        y4 = submanifold_conv(x, w, b, threads=4)
        assert np.array_equal(y1.features, y4.features)


class TestStride2:
    def test_empty(self):
        x = SparseTensor2D.build(8, 8, [], np.empty((0, 4)))
        y = sparse_conv_stride2(x, np.zeros((3, 3, 4, 2)))
        assert len(y) == 0 and (y.width, y.height) == (4, 4)

    def test_single_site_footprint(self):
        x = SparseTensor2D.build(16, 16, [(5, 5)], np.ones((1, 3)))
        y = sparse_conv_stride2(x, np.ones((3, 3, 3, 2)))
        assert {tuple(c) for c in y.coords} == {(2, 2), (2, 3), (3, 2), (3, 3)}

    def test_active_set_law(self, rng):
        for _ in range(20):
            w = int(rng.integers(5, 33))
            h = int(rng.integers(5, 33))
            x = random_sparse(rng, w, h, 1, occupancy=float(rng.uniform(0.05, 0.6)))
            y = sparse_conv_stride2(x, rng.normal(size=(3, 3, 1, 1)))
            active = {tuple(c) for c in x.coords}
            assert {tuple(c) for c in y.coords} == stride2_active_set(active, w, h)

    def test_dense_oracle_equivalence(self, rng):
        for _ in range(30):
            cin, cout = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            w = int(rng.integers(6, 33))
            h = int(rng.integers(6, 33))
            x = random_sparse(rng, w, h, cin, occupancy=0.2)
            kernel = rng.normal(size=(3, 3, cin, cout))
            bias = rng.normal(size=cout)
            y = sparse_conv_stride2(x, kernel, bias)
            ref = masked_dense(y, dense_conv(densify(x), kernel, bias, stride=2))
            assert max_rel_dev(y.features, ref) < 1e-12

    def test_odd_dims_output_shape(self, rng):
        x = random_sparse(rng, 15, 9, 2, occupancy=0.4)
        y = sparse_conv_stride2(x, rng.normal(size=(3, 3, 2, 2)))
        assert (y.width, y.height) == (8, 5)

    @pytest.mark.parametrize("k", [1, 5])
    def test_a_kernel_other_than_3x3_is_refused(self, rng, k):
        x = random_sparse(rng, 8, 8, 2, occupancy=0.4)
        with pytest.raises(ParameterError, match="defined for k = 3"):
            sparse_conv_stride2(x, np.zeros((k, k, 2, 2)))


    @pytest.mark.parametrize("width, height", [(1, 1), (2, 3), (7, 5), (9, 9), (40, 31)])
    def test_bitmap_coords_equal_the_unique_of_candidate_keys(self, rng, width, height):
        out_w, out_h = -(-width // 2), -(-height // 2)
        cases = [SparseTensor2D.build(width, height, [], np.empty((0, 1))),
                 SparseTensor2D.build(width, height, [(width - 1, height - 1)], [[1.0]]),
                 SparseTensor2D.build(width, height, [(0, 0)], [[1.0]])]
        cases += [random_sparse(rng, width, height, 1, occupancy=occ)
                  for occ in (0.02, 0.3, 1.0)]
        for x in cases:
            got = _stride2_coords(x, out_w, out_h)
            want = stride2_coords_unique(x, out_w, out_h)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)


class TestInt8Conv:
    def _quantized_case(self, rng, mode, cin=4, cout=6, w=12, h=10):
        x = random_sparse(rng, w, h, cin, occupancy=0.3, int8=True)
        kernel = rng.integers(-127, 128, size=(3, 3, cin, cout)).astype(np.int8)
        bias = rng.integers(-1000, 1000, size=cout).astype(np.int64)
        out_qp = QuantParams(scale=0.07, zero_point=int(rng.integers(-10, 10)))
        w_scales = rng.uniform(1e-3, 2e-2, size=cout)
        oq = OutputQuant.from_scales(x.qparams.scale, w_scales, out_qp)
        return x, kernel, bias, oq

    def test_bitwise_vs_dense_oracle_submanifold(self, rng):
        for _ in range(10):
            x, kernel, bias, oq = self._quantized_case(rng, "submanifold")
            y = submanifold_conv(x, kernel, bias, out_quant=oq)
            ref = dense_conv_int(densify(x), x.qparams.zero_point, kernel, bias, oq)
            assert np.array_equal(y.features, masked_dense(y, ref).astype(np.int8))

    def test_bitwise_vs_dense_oracle_stride2(self, rng):
        for _ in range(10):
            x, kernel, bias, oq = self._quantized_case(rng, "stride2")
            y = sparse_conv_stride2(x, kernel, bias, out_quant=oq)
            ref = dense_conv_int(densify(x), x.qparams.zero_point, kernel, bias, oq,
                                 stride=2)
            assert np.array_equal(y.features, masked_dense(y, ref).astype(np.int8))

    @pytest.mark.parametrize("zero_point", [-128, 127])
    def test_bitwise_at_the_accumulator_bound(self, zero_point):
        # every input is centered to +255 or -255 and every tap is active at
        # the interior sites, so channel 0 (weights -128) and channel 1
        # (weights 127) sum 9 * 128 products of 255 * 128 and 255 * 127 onto
        # the largest integer bias the bound admits, of the product's sign
        cin, taps = 128, 9 * 128
        sign = 1 if zero_point < 0 else -1
        coords = [(i, j) for j in range(5) for i in range(5)]
        feats = np.full((25, cin), 127 if sign > 0 else -128, dtype=np.int8)
        x = SparseTensor2D.build(5, 5, coords, feats, qparams=QuantParams(1.0, zero_point))
        kernel = np.empty((3, 3, cin, 2), dtype=np.int8)
        kernel[..., 0], kernel[..., 1] = -128, 127
        limit = 2 ** 31 - taps * 255 * 128
        bias = integer_bias(np.array([-sign, sign]) * (limit - 1.0), 1.0, np.ones(2), taps)
        oq = OutputQuant.from_scales(1.0, np.ones(2), QuantParams(2.0 ** 31 / 100))
        y = submanifold_conv(x, kernel, bias, out_quant=oq)
        ref = dense_conv_int(densify(x), zero_point, kernel, bias.astype(np.int64), oq)
        # the center site's accumulators have magnitudes 2^31 - 1 and
        # 2^31 - 1 - 9 * 128 * 255
        assert ref[2, 2].tolist() == [-100 * sign, 100 * sign]
        assert np.array_equal(y.features, masked_dense(y, ref).astype(np.int8))

    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("zero_point", [-128, 127])
    @pytest.mark.parametrize("mode", ["submanifold", "stride2"])
    @pytest.mark.parametrize("cin", [514, 515])
    def test_bitwise_at_the_float32_gemm_edge(self, cin, mode, zero_point, threads):
        # At Cin = 514 each offset runs its own float32 GEMM, at Cin = 515
        # one float64 GEMM runs. Every input is centered to v = +255 or -255. Output
        # channel 0 weighs input channel 0 by -127 and the rest by -128, so
        # each full offset sums to the odd -v/255 * (32385 + (Cin - 1) *
        # 32640): 16,776,705 < 2^24 in magnitude at 514, 16,809,345 > 2^24
        # at 515, where float32 cannot hold it. Channel 1 weighs all by 127.
        # The bias cancels the 9 offsets of a site with every tap active and
        # the requantization factor is 1, so an error of 1 shows.
        v = 255 if zero_point < 0 else -255
        feats = np.full((25, cin), 127 if v > 0 else -128, dtype=np.int8)
        x = SparseTensor2D.build(5, 5, [(i, j) for j in range(5) for i in range(5)],
                                 feats, qparams=QuantParams(1.0, zero_point))
        kernel = np.empty((3, 3, cin, 2), dtype=np.int8)
        kernel[..., 0], kernel[..., 1] = -128, 127
        kernel[:, :, 0, 0] = -127
        full = 9 * v * np.array([-127 - 128 * (cin - 1), 127 * cin])
        bias = integer_bias(np.array([5.0, -7.0]) - full, 1.0, np.ones(2), 9 * cin)
        oq = OutputQuant.from_scales(1.0, np.ones(2), QuantParams(1.0))
        conv = submanifold_conv if mode == "submanifold" else sparse_conv_stride2
        y = conv(x, kernel, bias, out_quant=oq, threads=threads)
        stride = 1 if mode == "submanifold" else 2
        ref = dense_conv_int(densify(x), zero_point, kernel, bias.astype(np.int64), oq,
                             stride=stride)
        # the site with every tap active: (2, 2) of 5 x 5, or (1, 1) of 3 x 3
        assert ref[2 // stride, 2 // stride].tolist() == [5, -7]
        assert np.array_equal(y.features, masked_dense(y, ref).astype(np.int8))

    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("zero_point", [-128, 127])
    @pytest.mark.parametrize("mode", ["submanifold", "stride2"])
    @pytest.mark.parametrize("cin", [257, 258])
    def test_bitwise_at_the_offset_group_edge(self, cin, mode, zero_point, threads):
        # Offsets share a float32 GEMM while 255 * sum |w| over them stays
        # below 2^24: 2 at Cin = 257, 1 at 258. Every input is centered to
        # v = +255 or -255 and output
        # channel 0 weighs every input by -128, but by -127 at offset 0,
        # input channel 0. The GEMM over offsets 0 and 1 then sums to the
        # odd v/255 * 255 * (256 * Cin - 1): 16,776,705 < 2^24 in magnitude
        # at 257; at 258 it would be 16,841,985 > 2^24, which float32
        # cannot hold, and a third offset at 257 would pass 2^24 as well.
        # Channel 1 weighs all by 127. The bias cancels the 9 offsets of a
        # site with every tap active and the factor is 1, so an error of 1
        # shows.
        v = 255 if zero_point < 0 else -255
        feats = np.full((25, cin), 127 if v > 0 else -128, dtype=np.int8)
        x = SparseTensor2D.build(5, 5, [(i, j) for j in range(5) for i in range(5)],
                                 feats, qparams=QuantParams(1.0, zero_point))
        kernel = np.empty((3, 3, cin, 2), dtype=np.int8)
        kernel[..., 0], kernel[..., 1] = -128, 127
        kernel[0, 0, 0, 0] = -127
        full = v * np.array([1 - 9 * 128 * cin, 9 * 127 * cin])
        bias = integer_bias(np.array([5.0, -7.0]) - full, 1.0, np.ones(2), 9 * cin)
        oq = OutputQuant.from_scales(1.0, np.ones(2), QuantParams(1.0))
        conv = submanifold_conv if mode == "submanifold" else sparse_conv_stride2
        y = conv(x, kernel, bias, out_quant=oq, threads=threads)
        stride = 1 if mode == "submanifold" else 2
        ref = dense_conv_int(densify(x), zero_point, kernel, bias.astype(np.int64), oq,
                             stride=stride)
        assert ref[2 // stride, 2 // stride].tolist() == [5, -7]
        assert np.array_equal(y.features, masked_dense(y, ref).astype(np.int8))

    @pytest.mark.parametrize("out_zero_point", [-128, 0, 127])
    @pytest.mark.parametrize("mode", ["submanifold", "stride2"])
    def test_relu_clamps_at_the_output_zero_point(self, rng, mode, out_zero_point):
        conv = submanifold_conv if mode == "submanifold" else sparse_conv_stride2
        stride = 1 if mode == "submanifold" else 2
        for _ in range(5):
            x, kernel, bias, oq = self._quantized_case(rng, mode)
            oq = OutputQuant.from_scales(x.qparams.scale, rng.uniform(1e-3, 2e-2, size=6),
                                         QuantParams(0.07, out_zero_point))
            y = conv(x, kernel, bias, out_quant=oq, relu=True)
            ref = dense_conv_int(densify(x), x.qparams.zero_point, kernel, bias, oq,
                                 stride=stride, relu_floor=True)
            assert np.array_equal(y.features, masked_dense(y, ref).astype(np.int8))

    def test_int8_requires_plan(self, rng):
        x = random_sparse(rng, 8, 8, 2, int8=True)
        with pytest.raises(ShapeError):
            submanifold_conv(x, np.zeros((3, 3, 2, 2), dtype=np.int8))


class TestOutputQuant:
    # requantization factors s_in * s_w / s_out with s_in = s_out = 1
    EDGES = [1.0, 2.0 ** -32, 0.5 * (1 - 2.0 ** -40), 0.75 * (1 - 2.0 ** -40),
             2.0 ** -32 * (1 - 2.0 ** -40)]

    @staticmethod
    def _per_channel(factors, zero_point):
        return [Requantizer.from_factor(max(f, 2.0 ** -32), zero_point=zero_point)
                for f in factors]

    def test_matches_per_channel_from_factor(self, rng):
        factors = np.concatenate([rng.uniform(0.0, 1.0, 2000),
                                  2.0 ** rng.uniform(-40.0, 0.0, 2000), self.EDGES])
        oq = OutputQuant.from_scales(1.0, factors, QuantParams(1.0, -3))
        rs = self._per_channel(factors.tolist(), -3)
        assert oq.multipliers.dtype == oq.shifts.dtype == np.int64
        assert oq.multipliers.tolist() == [r.multiplier for r in rs]
        assert oq.shifts.tolist() == [r.shift for r in rs]
        assert oq.qparams == QuantParams(1.0, -3)

    def test_carry_at_2_31_moves_into_the_shift(self):
        oq = OutputQuant.from_scales(1.0, [0.5 * (1 - 2.0 ** -40), 1.0], QuantParams(1.0))
        assert oq.multipliers.tolist() == [1 << 30, (1 << 31) - 1]
        assert oq.shifts.tolist() == [0, 0]

    def test_factor_is_in_scale_times_weight_scale_over_out_scale(self):
        oq = OutputQuant.from_scales(0.02, np.float32(0.3), QuantParams(0.5))
        (r,) = self._per_channel([0.02 * float(np.float32(0.3)) / 0.5], 0)
        assert (oq.multipliers.tolist(), oq.shifts.tolist()) == ([r.multiplier], [r.shift])

    @pytest.mark.parametrize("bad", [1.0 + 2.0 ** -52, 1.5, float("nan"), float("inf"),
                                     1 - 2.0 ** -40])
    def test_first_bad_channel_raises_from_factors_error(self, bad):
        with pytest.raises(ParameterError, match=f"factor {re.escape(repr(bad))} cannot"):
            OutputQuant.from_scales(1.0, [0.25, bad, 2.0], QuantParams(1.0))


def tiled_case(rng, n_out, mode, cin, int8=False):
    """A tensor whose conv in mode has exactly n_out output rows, about
    half of the other taps of each output active."""
    if mode == "submanifold":
        side = int(np.ceil(np.sqrt(2 * n_out)))
        flat = rng.choice(side * side, n_out, replace=False)
        width = height = side
        coords = np.column_stack([flat % side, flat // side])
    else:
        # outputs: the first n_out sites of the output grid; each has its
        # center input, and other inputs join when every output they
        # reach is one of those
        wo = int(np.ceil(np.sqrt(n_out)))
        outs = {(o % wo, o // wo) for o in range(n_out)}
        width, height = 2 * wo, 2 * (-(-n_out // wo))

        def reach(v):
            return (v // 2,) if v % 2 == 0 else ((v - 1) // 2, (v + 1) // 2)

        coords = [(2 * i, 2 * j) for i, j in outs]
        for j in range(height):
            for i in range(width):
                if (i % 2 or j % 2) and rng.random() < 0.5 \
                        and {(a, b) for a in reach(i) for b in reach(j)} <= outs:
                    coords.append((i, j))
        coords = np.array(coords)
    if int8:
        feats = rng.integers(-128, 128, size=(len(coords), cin)).astype(np.int8)
        return SparseTensor2D.build(width, height, coords, feats,
                                    qparams=QuantParams(0.05, int(rng.integers(-20, 20))))
    return SparseTensor2D.build(width, height, coords, rng.normal(size=(len(coords), cin)))


# the detector's conv shapes: 3x3 stage and head convs, 1x1 head outputs
TILED_SHAPES = [(3, 64, 64, "submanifold"), (3, 128, 128, "submanifold"),
                (3, 64, 128, "stride2"), (3, 128, 128, "stride2"),
                (1, 128, 10, "submanifold"), (1, 128, 8, "submanifold")]
TILED_ROWS = [1, TILE_ROWS - 1, TILE_ROWS, 2 * TILE_ROWS - 1, 3 * TILE_ROWS + 618]


class TestTiling:
    def test_remainder_joins_the_last_tile(self):
        assert _tiles(0) == []
        assert _tiles(1) == [(0, 1)]
        assert _tiles(2 * TILE_ROWS - 1) == [(0, 2 * TILE_ROWS - 1)]
        assert _tiles(2 * TILE_ROWS) == [(0, TILE_ROWS), (TILE_ROWS, 2 * TILE_ROWS)]
        assert _tiles(3 * TILE_ROWS + 618) == [(0, TILE_ROWS), (TILE_ROWS, 2 * TILE_ROWS),
                                               (2 * TILE_ROWS, 4 * TILE_ROWS - 406)]

    def test_split_tiles_are_near_equal_and_one_per_thread_past_the_split(self):
        assert _split_tiles(0, 2) == []
        assert _split_tiles(1, 4) == [(0, 1)]
        assert _split_tiles(2 * TILE_ROWS + 5, 1) == [(0, 1026), (1026, 2053)]
        # below threads * SPLIT_ROWS (768) rows, BLAS's threads take the conv
        assert _split_tiles(1535, 2) == [(0, 1535)]
        assert _split_tiles(1536, 2) == [(0, 768), (768, 1536)]
        assert _split_tiles(2025, 2) == [(0, 1012), (1012, 2025)]
        assert _split_tiles(2025, 3) == [(0, 2025)]
        assert _split_tiles(3 * TILE_ROWS + 618, 2) == [(0, 1230), (1230, 2460), (2460, 3690)]
        assert _split_tiles(3 * TILE_ROWS + 618, 4) == [(0, 922), (922, 1845), (1845, 2767),
                                                       (2767, 3690)]

    @pytest.mark.parametrize("exact", [True, False])
    def test_float_tiles_follow_the_thread_count_only_where_gemm_rows_are_exact(
            self, rng, monkeypatch, exact):
        monkeypatch.setattr(sparse, "_gemm_rows_exact", lambda cin, cout: exact)
        run_tiles, seen = sparse._run_tiles, []
        monkeypatch.setattr(sparse, "_run_tiles", lambda tile, tiles, threads:
                            seen.append(tiles) or run_tiles(tile, tiles, threads))
        x = tiled_case(rng, 2025, "submanifold", 16)
        for threads, split in ((1, [(0, 2025)]), (2, [(0, 1012), (1012, 2025)]), (3, [(0, 2025)])):
            submanifold_conv(x, rng.normal(size=(1, 1, 16, 8)), threads=threads)
            assert seen[-1] == (split if exact else [(0, 2025)])

    def test_a_float_conv_whose_rows_are_not_exact_keeps_its_tiles_at_any_thread_count(
            self, rng):
        # at Cout 3, GEMM rows past about 2,100 differ between 1,024-row and
        # near-equal tiles (sparse module docstring); 2,500 rows split into
        # 2 near-equal tiles at threads 1 and 2, and into 3 at threads 3
        x = tiled_case(rng, 2500, "submanifold", 128)
        kernel, bias = rng.normal(size=(1, 1, 128, 3)), rng.normal(size=3)
        want = np.concatenate([x.features[lo:hi] @ kernel[0, 0] + bias
                               for lo, hi in _tiles(len(x))])
        for threads in (1, 2, 3):
            y = submanifold_conv(x, kernel, bias, threads=threads)
            assert y.features.tobytes() == want.tobytes()

    def test_a_passed_gemm_row_probe_holds_for_other_rows_and_heights(self, rng):
        # what hit-only float offsets rest on (sparse module docstring):
        # where the probe passes a shape, any row set of any height >= 2
        # multiplies to the bits of the same rows in a taller GEMM
        for cin, cout in ((1, 8), (3, 16), (64, 64), (64, 128), (128, 128), (128, 10), (64, 3)):
            a, w = rng.normal(size=(2100, cin)), rng.normal(size=(cin, cout))
            full = a @ w
            subsets = [np.sort(rng.choice(2100, h, replace=False))
                       for h in (2, 3, 7, 100, 767, 1013, 2047)]
            same = all((a[rows] @ w).tobytes() == full[rows].tobytes() for rows in subsets)
            assert same or not sparse._gemm_rows_exact(cin, cout)

    @pytest.mark.parametrize("n_out", [767, 768, 1535, 1536, 2025, 2047, 2048])
    @pytest.mark.parametrize("k, cin, cout, mode", TILED_SHAPES)
    def test_float_bytes_hold_at_the_tile_rule_boundaries(self, rng, k, cin, cout, mode, n_out):
        x = tiled_case(rng, n_out, mode, cin)
        kernel = rng.normal(size=(k, k, cin, cout))
        bias = rng.normal(size=cout)
        ref = scatter_conv(x, kernel, bias, stride=1 if mode == "submanifold" else 2)
        conv = submanifold_conv if mode == "submanifold" else sparse_conv_stride2
        for threads in (1, 2, 3, 4):
            assert conv(x, kernel, bias, threads=threads).features.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n_out", TILED_ROWS)
    @pytest.mark.parametrize("k, cin, cout, mode", TILED_SHAPES)
    def test_float_matches_per_offset_scatter_bitwise(self, rng, k, cin, cout, mode, n_out):
        x = tiled_case(rng, n_out, mode, cin)
        kernel = rng.normal(size=(k, k, cin, cout))
        bias = rng.normal(size=cout)
        stride = 1 if mode == "submanifold" else 2
        ref = scatter_conv(x, kernel, bias, stride=stride)
        conv = submanifold_conv if mode == "submanifold" else sparse_conv_stride2
        for threads in (1, 2, 4):
            y = conv(x, kernel, bias, threads=threads)
            assert len(y) == n_out
            assert y.features.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("k, cin, cout, mode", TILED_SHAPES)
    def test_float_relu_matches_rectified_conv_bytes(self, rng, k, cin, cout, mode):
        x = tiled_case(rng, 3 * TILE_ROWS + 618, mode, cin)
        kernel = rng.normal(size=(k, k, cin, cout))
        bias = rng.normal(size=cout)
        conv = submanifold_conv if mode == "submanifold" else sparse_conv_stride2
        ref = np.maximum(conv(x, kernel, bias).features, 0)
        for threads in (1, 2, 4):
            y = conv(x, kernel, bias, threads=threads, relu=True)
            assert y.features.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n_out", TILED_ROWS)
    @pytest.mark.parametrize("k, cin, cout, mode", TILED_SHAPES)
    def test_int8_matches_dense_oracle_bitwise(self, rng, k, cin, cout, mode, n_out):
        x = tiled_case(rng, n_out, mode, cin, int8=True)
        kernel = rng.integers(-128, 128, size=(k, k, cin, cout)).astype(np.int8)
        bias = rng.integers(-10 ** 6, 10 ** 6, size=cout).astype(np.float64)
        oq = OutputQuant.from_scales(x.qparams.scale, rng.uniform(5e-4, 2e-3, size=cout),
                                     QuantParams(0.5, int(rng.integers(-10, 10))))
        stride = 1 if mode == "submanifold" else 2
        ref = dense_conv_int_fast(densify(x), x.qparams.zero_point, kernel,
                                  bias.astype(np.int64), oq, stride=stride)
        conv = submanifold_conv if mode == "submanifold" else sparse_conv_stride2
        for threads in (1, 2, 4):
            y = conv(x, kernel, bias, out_quant=oq, threads=threads)
            assert len(y) == n_out
            assert np.array_equal(y.features, masked_dense(y, ref).astype(np.int8))


def int8_case(rng, n_out, cin=64, cout=64):
    x = tiled_case(rng, n_out, "submanifold", cin, int8=True)
    kernel = rng.integers(-128, 128, size=(3, 3, cin, cout)).astype(np.int8)
    bias = rng.integers(-10 ** 6, 10 ** 6, size=cout).astype(np.float64)
    oq = OutputQuant.from_scales(x.qparams.scale, rng.uniform(5e-4, 2e-3, size=cout),
                                 QuantParams(0.5, 3))
    return x, kernel, bias, oq


@pytest.fixture
def blas():
    """The real BLAS thread handle; its count is put back after the test."""
    handle = sparse.blas_thread_handle()
    if handle is None:
        pytest.skip("numpy's bundled OpenBLAS has no thread setter here")
    found = handle[0]()
    yield handle
    handle[1](found)


class TestBlasSwitch:
    """Multi-tile convs at threads > 1 hold BLAS at one thread and restore
    the count they found; nothing else touches BLAS."""

    @pytest.mark.parametrize("threads", [2, 4])
    def test_count_restored_after_multi_tile_convs(self, rng, blas, monkeypatch, threads):
        get, set_ = blas
        set_(2)
        before = get()
        inside = []
        requantize = OutputQuant.requantize

        def spy(*args, **kwargs):
            inside.append(get())
            return requantize(*args, **kwargs)

        x = tiled_case(rng, 3 * TILE_ROWS + 618, "submanifold", 64)
        kernel, bias = rng.normal(size=(3, 3, 64, 64)), rng.normal(size=64)
        ref = submanifold_conv(x, kernel, bias)
        assert submanifold_conv(x, kernel, bias, threads=threads).features.tobytes() \
            == ref.features.tobytes()
        assert get() == before
        xq, kq, bq, oq = int8_case(rng, 3 * TILE_ROWS + 618)
        ref = submanifold_conv(xq, kq, bq, out_quant=oq)
        monkeypatch.setattr(OutputQuant, "requantize", spy)
        y = submanifold_conv(xq, kq, bq, out_quant=oq, threads=threads)
        assert np.array_equal(y.features, ref.features)
        # int8 tiles: one per TILE_ROWS rows, at least one per thread
        assert inside == [1] * {2: 3, 4: 4}[threads] and get() == before

    def test_count_restored_after_a_tile_raises(self, rng, blas, monkeypatch):
        get, set_ = blas
        set_(2)
        before = get()
        requantize, calls = OutputQuant.requantize, []

        def fail_second(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("tile failed")
            return requantize(*args, **kwargs)

        monkeypatch.setattr(OutputQuant, "requantize", fail_second)
        x, kernel, bias, oq = int8_case(rng, 3 * TILE_ROWS + 618)
        with pytest.raises(RuntimeError, match="tile failed"):
            submanifold_conv(x, kernel, bias, out_quant=oq, threads=2)
        assert get() == before and sparse._blas_users == 0

    def test_single_tile_and_one_thread_never_set_blas(self, rng, recorded):
        x = tiled_case(rng, 2 * TILE_ROWS - 1, "submanifold", 8)
        kernel, bias = rng.normal(size=(3, 3, 8, 8)), rng.normal(size=8)
        submanifold_conv(x, kernel, bias, threads=4)
        x = tiled_case(rng, 3 * TILE_ROWS + 618, "submanifold", 8)
        submanifold_conv(x, kernel, bias, threads=1)
        xq, kq, bq, oq = int8_case(rng, 3 * TILE_ROWS + 618, cin=8, cout=8)
        submanifold_conv(xq, kq, bq, out_quant=oq, threads=1)
        assert recorded == []
        submanifold_conv(x, kernel, bias, threads=2)
        assert recorded == [1, 7]

    def test_every_tile_of_a_split_2025_row_int8_conv_reads_one(self, rng, blas,
                                                                monkeypatch):
        get, set_ = blas
        set_(2)
        inside, requantize = [], OutputQuant.requantize

        def spy(*args, **kwargs):
            inside.append(get())
            return requantize(*args, **kwargs)

        x, kernel, bias, oq = int8_case(rng, 2025, cin=128, cout=128)
        ref = submanifold_conv(x, kernel, bias, out_quant=oq)
        monkeypatch.setattr(OutputQuant, "requantize", spy)
        y = submanifold_conv(x, kernel, bias, out_quant=oq, threads=2)
        assert y.features.tobytes() == ref.features.tobytes()
        assert inside == [1, 1] and get() == 2

    def test_nested_switches_restore_the_outermost_count(self, recorded):
        with sparse.one_blas_thread():
            with sparse.one_blas_thread():
                assert recorded == [1]
            assert recorded == [1]
        assert recorded == [1, 7]

    def test_concurrent_convs_share_one_switch_under_stress(self, monkeypatch):
        """More callers than cores, each running multi-tile work at a short
        switch interval: every tile runs once, BLAS reads 1 inside every
        tile, and the count found comes back once the last caller leaves."""
        state = {"threads": 7}
        monkeypatch.setattr(sparse, "blas_thread_handle",
                            lambda: (lambda: state["threads"],
                                     lambda n: state.__setitem__("threads", n)))
        done, seen = [], []

        def tile(rows):
            seen.append(state["threads"])
            done.append(rows)

        tiles = [(k, k + 1) for k in range(50)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=sparse._run_tiles, args=(tile, tiles, 3))
                       for _ in range(8)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert sorted(done) == sorted(tiles * 8) and set(seen) == {1}
        assert state["threads"] == 7 and sparse._blas_users == 0

    def test_without_the_setter_default_is_one_and_bytes_hold(self, rng, monkeypatch):
        handle = sparse.blas_thread_handle()
        found = handle[0]() if handle else None
        monkeypatch.setattr(sparse, "blas_thread_handle", lambda: None)
        monkeypatch.delenv("LIFT_THREADS", raising=False)
        assert cli._threads(None) == 1
        x = tiled_case(rng, 3 * TILE_ROWS + 618, "stride2", 64)
        kernel, bias = rng.normal(size=(3, 3, 64, 64)), rng.normal(size=64)
        ref = sparse_conv_stride2(x, kernel, bias, threads=1)
        y = sparse_conv_stride2(x, kernel, bias, threads=2)
        assert y.features.tobytes() == ref.features.tobytes()
        if handle:
            assert handle[0]() == found


class TestMaxPool:
    def test_single_site(self):
        x = SparseTensor2D.build(8, 8, [(3, 3)], [[2.5, -1.0]])
        y = sparse_max_pool(x)
        assert np.array_equal(y.features, x.features)

    def test_adjacent_sites_share_max(self):
        x = SparseTensor2D.build(8, 8, [(3, 3), (4, 3)], [[1.0], [5.0]])
        y = sparse_max_pool(x)
        assert list(y.features[:, 0]) == [5.0, 5.0]

    def test_brute_force_oracle(self, rng):
        x = random_sparse(rng, 10, 10, 3, occupancy=0.4)
        y = sparse_max_pool(x, 3)
        active = {tuple(c): f for c, f in zip(map(tuple, x.coords), x.features)}
        for (i, j), row in zip(y.coords, y.features):
            neighbors = [active[(i + di, j + dj)] for di in (-1, 0, 1)
                         for dj in (-1, 0, 1) if (i + di, j + dj) in active]
            assert np.array_equal(row, np.max(neighbors, axis=0))

    def test_all_negative_features_match_dense_oracle(self, rng):
        # a missing neighbor must never win, not even against values below 0
        x = random_sparse(rng, 40, 30, 4, occupancy=0.3)
        x.features[:] = -1.0 - np.abs(x.features)
        y = sparse_max_pool(x)
        assert np.array_equal(y.features, dense_max_pool(x))
        assert (y.features < -1.0).all()

    def test_int8_at_the_minimum_matches_dense_oracle(self, rng):
        x = random_sparse(rng, 40, 30, 4, occupancy=0.3, int8=True)
        x.features[:] = -128
        x.features[::7, 1] = rng.integers(-128, 128, size=x.features[::7, 1].shape)
        y = sparse_max_pool(x)
        assert y.features.dtype == np.int8 and y.qparams == x.qparams
        assert np.array_equal(y.features, dense_max_pool(x).astype(np.int8))


class TestAddProjected:
    def test_empty_other_is_identity(self, rng):
        base = random_sparse(rng, 8, 8, 4, occupancy=0.4)
        other = SparseTensor2D.build(4, 4, [], np.empty((0, 4)))
        y = sparse_add_projected(base, other, 2)
        assert np.array_equal(y.features, base.features)

    def test_hand_projection_factor2(self):
        base = SparseTensor2D.build(8, 8, [(4, 6)], [[1.0, 2.0]])
        other = SparseTensor2D.build(4, 4, [(2, 3)], [[10.0, 20.0]])
        y = sparse_add_projected(base, other, 2)
        assert list(y.features[0]) == [11.0, 22.0]

    def test_hand_projection_factor4_miss(self):
        base = SparseTensor2D.build(8, 8, [(5, 5)], [[1.0]])
        other = SparseTensor2D.build(2, 2, [(0, 0)], [[10.0]])
        y = sparse_add_projected(base, other, 4)
        assert list(y.features[0]) == [1.0]  # floor(5/4) = 1 != 0

    def test_never_adds_coordinates(self, rng):
        base = random_sparse(rng, 16, 12, 2, occupancy=0.3)
        other = random_sparse(rng, 8, 6, 2, occupancy=0.9)
        y = sparse_add_projected(base, other, 2)
        assert np.array_equal(y.coords, base.coords)

    @staticmethod
    def _operand_requantizers(base, other, out_qp):
        """The scalar oracle's plan per operand, factor s_in / s_out."""
        return [Requantizer.from_factor(max(t.qparams.scale / out_qp.scale, 2.0 ** -32))
                for t in (base, other)]

    @staticmethod
    def _oracle(base, other, factor, out_qp):
        """Per site and channel: each centered operand through its scalar
        Requantizer (a missing other reads 0), summed onto the output zero
        point and clamped."""
        r_base, r_other = TestAddProjected._operand_requantizers(base, other, out_qp)
        other_map = {tuple(c): f for c, f in zip(other.coords.tolist(), other.features)}
        want = np.empty(base.features.shape, dtype=np.int64)
        for row, ((i, j), brow) in enumerate(zip(base.coords.tolist(), base.features)):
            orow = other_map.get((i // factor, j // factor))
            for ch in range(base.channels):
                rb = requantize(int(brow[ch]) - base.qparams.zero_point, r_base)
                ro = 0 if orow is None else \
                    requantize(int(orow[ch]) - other.qparams.zero_point, r_other)
                want[row, ch] = max(-128, min(127, rb + ro + out_qp.zero_point))
        return want

    def test_int8_matches_per_site_oracle(self, rng):
        base = random_sparse(rng, 8, 8, 3, occupancy=0.6, int8=True,
                             qparams=QuantParams(0.1, 4))
        other = random_sparse(rng, 4, 4, 3, occupancy=0.8, int8=True,
                              qparams=QuantParams(0.05, -3))
        out_qp = QuantParams(0.12, 1)
        y = sparse_add_projected(base, other, 2, qparams=out_qp)
        assert y.qparams == out_qp and y.features.dtype == np.int8
        assert y.features.tolist() == self._oracle(base, other, 2, out_qp).tolist()

    @pytest.mark.parametrize("int8", [False, True])
    def test_mostly_missing_other_matches_per_site_oracle(self, rng, int8):
        base = random_sparse(rng, 60, 44, 3, occupancy=0.5, int8=int8,
                             qparams=QuantParams(0.1, -7) if int8 else None)
        other = random_sparse(rng, 15, 11, 3, occupancy=0.05, int8=int8,
                              qparams=QuantParams(0.3, 9) if int8 else None)
        other.features[0] = 127 if int8 else -0.0
        base.features[::5, 0] = -128 if int8 else -0.0   # signed zeros stay as they are
        out_qp = QuantParams(0.4, 2) if int8 else None
        y = sparse_add_projected(base, other, 4, qparams=out_qp)
        other_map = {tuple(c): f for c, f in zip(other.coords.tolist(), other.features)}
        missing = sum(other_map.get((i // 4, j // 4)) is None for i, j in base.coords.tolist())
        assert missing > 0.8 * len(base)
        if int8:
            assert y.features.tolist() == self._oracle(base, other, 4, out_qp).tolist()
            return
        for (i, j), brow, yrow in zip(base.coords.tolist(), base.features, y.features):
            orow = other_map.get((i // 4, j // 4))
            want = brow if orow is None else brow + orow
            assert yrow.tobytes() == want.tobytes()

    @pytest.mark.parametrize("int8", [False, True])
    def test_a_sum_over_several_tiles_matches_the_per_site_oracle(self, rng, int8):
        base = random_sparse(rng, 100, 56, 3, occupancy=0.5, int8=int8,
                             qparams=QuantParams(0.1, -7) if int8 else None)
        other = random_sparse(rng, 50, 28, 3, occupancy=0.5, int8=int8,
                              qparams=QuantParams(0.3, 9) if int8 else None)
        assert len(base) > 2 * TILE_ROWS
        out_qp = QuantParams(0.4, 2) if int8 else None
        y = sparse_add_projected(base, other, 2, qparams=out_qp)
        if int8:
            assert y.features.tolist() == self._oracle(base, other, 2, out_qp).tolist()
            return
        other_map = {tuple(c): f for c, f in zip(other.coords.tolist(), other.features)}
        for (i, j), brow, yrow in zip(base.coords.tolist(), base.features, y.features):
            orow = other_map.get((i // 2, j // 2))
            assert yrow.tobytes() == (brow if orow is None else brow + orow).tobytes()

    def test_int8_add_matches_the_scalar_oracle_at_the_edges(self):
        # operand factors s_in / s_out with s_out = 1: the 2^-32 floor (a
        # factor below it is raised to it), the carry at 2^31 and the
        # saturated mantissa of exactly 1; the operands hold every int8 byte
        cases = {(2.0 ** -40, 2.0 ** -32): ([1 << 30, 1 << 30], [31, 31]),
                 (0.5 * (1 - 2.0 ** -40), 1.0): ([1 << 30, (1 << 31) - 1], [0, 0])}
        byte = np.arange(-128, 128, dtype=np.int8)
        grid = lambda n: np.column_stack(np.divmod(np.arange(n * n), n)[::-1])
        out_qp = QuantParams(1.0, 3)
        for factors, (multipliers, shifts) in cases.items():
            base = SparseTensor2D.build(16, 16, grid(16),
                                        np.stack([np.roll(byte, c) for c in range(4)], axis=1),
                                        qparams=QuantParams(factors[0], 5))
            other = SparseTensor2D.build(8, 8, grid(8), byte.reshape(64, 4),
                                         qparams=QuantParams(factors[1], -7))
            rs = self._operand_requantizers(base, other, out_qp)
            assert [r.multiplier for r in rs] == multipliers
            assert [r.shift for r in rs] == shifts
            y = sparse_add_projected(base, other, 2, qparams=out_qp)
            assert y.features.tolist() == self._oracle(base, other, 2, out_qp).tolist()

    def test_int8_add_rejects_a_factor_above_1(self, rng):
        base = random_sparse(rng, 8, 8, 2, int8=True, qparams=QuantParams(0.3))
        other = random_sparse(rng, 4, 4, 2, int8=True, qparams=QuantParams(1.5))
        with pytest.raises(ParameterError, match="factor 1.5 cannot"):
            sparse_add_projected(base, other, 2, qparams=QuantParams(1.0))

    def test_dim_mismatch_rejected(self, rng):
        base = random_sparse(rng, 8, 8, 2)
        other = random_sparse(rng, 3, 3, 2)
        with pytest.raises(ShapeError):
            sparse_add_projected(base, other, 2)


@pytest.mark.parametrize("k, mode, message", [
    (3, "dilated", "unknown conv mode 'dilated'"),
    (2, "submanifold", "must be odd"),
    (4, "stride2", "must be odd"),
])
def test_build_rulebook_refuses_an_unknown_mode_or_an_even_kernel(rng, k, mode, message):
    x = random_sparse(rng, 8, 8, 2, occupancy=0.4)
    with pytest.raises(ParameterError, match=message):
        build_rulebook(x, k, mode)


def _guard_cases():
    rng = np.random.default_rng(5)
    base, other = random_sparse(rng, 8, 8, 2), random_sparse(rng, 4, 4, 2)
    base8 = random_sparse(rng, 8, 8, 2, int8=True)
    other8 = random_sparse(rng, 4, 4, 2, int8=True)
    x, x8 = random_sparse(rng, 8, 8, 3), random_sparse(rng, 8, 8, 2, int8=True)
    return {
        "add factor 3": (lambda: sparse_add_projected(base, other, 3),
                         ParameterError, "projection factor must be 2 or 4"),
        "add channels": (lambda: sparse_add_projected(base, random_sparse(rng, 4, 4, 3), 2),
                         ShapeError, "channel mismatch in projected add"),
        "int8 add without qparams": (lambda: sparse_add_projected(base8, other8, 2),
                                     ShapeError, "int8 projected add requires int8 operands"),
        "int8 add of a float other": (
            lambda: sparse_add_projected(base8, other, 2, qparams=QuantParams(1.0)),
            ShapeError, "int8 projected add requires int8 operands and output qparams"),
        "submanifold channels": (lambda: submanifold_conv(x, np.zeros((3, 3, 4, 2))),
                                 ShapeError, "input has 3 channels, kernel expects 4"),
        "stride-2 channels": (lambda: sparse_conv_stride2(x, np.zeros((3, 3, 4, 2))),
                              ShapeError, "input has 3 channels, kernel expects 4"),
        "int8 submanifold without a plan": (
            lambda: submanifold_conv(x8, np.zeros((3, 3, 2, 2), dtype=np.int8)),
            ShapeError, "int8 convolution requires an OutputQuant"),
        "int8 stride-2 without a plan": (
            lambda: sparse_conv_stride2(x8, np.zeros((3, 3, 2, 2), dtype=np.int8)),
            ShapeError, "int8 convolution requires an OutputQuant"),
        "5x5 submanifold": (lambda: submanifold_conv(x, np.zeros((5, 5, 3, 2))),
                            ParameterError, "submanifold kernel must be 1x1 or 3x3"),
        "5x5 stride-2 table": (lambda: build_rulebook(x, 5, "stride2"),
                               ParameterError, "stride-2 convolution is defined for k = 3"),
        "1x1 stride-2 table": (lambda: build_rulebook(x, 1, "stride2"),
                               ParameterError, "stride-2 convolution is defined for k = 3"),
    }


@pytest.mark.parametrize("case", list(_guard_cases()))
def test_sparse_guards_name_their_cause(case):
    call, error, message = _guard_cases()[case]
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("conv", [submanifold_conv, sparse_conv_stride2])
def test_a_rank_3_kernel_is_refused(rng, conv):
    x = random_sparse(rng, 8, 8, 2, occupancy=0.4)
    with pytest.raises(ShapeError, match="kernel must be KxKxCinxCout"):
        conv(x, np.zeros((3, 3, 2)))


def test_rulebook_pair_count_consistency(rng):
    x = random_sparse(rng, 10, 10, 1, occupancy=0.35)
    rb = build_rulebook(x, 3, "submanifold")
    assert rb.nbr.shape == (9, len(x))
    active = {tuple(c): row for row, c in enumerate(x.coords.tolist())}
    total = 0
    for d in range(9):
        for o, (i, j) in enumerate(x.coords.tolist()):
            want = active.get((i + d % 3 - 1, j + d // 3 - 1), len(x))
            assert rb.nbr[d, o] == want
            total += want < len(x)
    assert rb.pair_count() == total


def test_rulebook_derived_arrays_match_the_table(rng):
    for mode in ("submanifold", "stride2"):
        x = random_sparse(rng, 17, 12, 1, occupancy=0.1)
        rb = build_rulebook(x, 3, mode)
        hit = rb.nbr < rb.n_in
        assert rb.hits.tolist() == hit.sum(axis=1).tolist()
        assert rb.pair_count() == hit.sum()
        for d, (rows, inputs) in enumerate(rb.hit_pairs):
            assert rows.tolist() == np.flatnonzero(hit[d]).tolist()
            assert inputs.tolist() == rb.nbr[d, rows].tolist()


@pytest.mark.parametrize("width, height", [(1, 1), (2, 7), (9, 4), (13, 13), (16, 11)])
@pytest.mark.parametrize("k, mode", [(1, "submanifold"), (3, "submanifold"), (3, "stride2")])
def test_each_offset_row_of_the_table_matches_the_brute_force_taps(rng, width, height, k,
                                                                     mode):
    # every border site is active, and about a third of the others
    border = {(i, j) for i in range(width) for j in range(height)
              if i in (0, width - 1) or j in (0, height - 1)}
    inner = [(i, j) for i in range(1, width - 1) for j in range(1, height - 1)
             if rng.random() < 0.35]
    coords = np.array(sorted(border | set(inner)))
    x = SparseTensor2D.build(width, height, coords, np.zeros((len(coords), 1)))
    rb = build_rulebook(x, k, mode)
    rows = {(i, j): r for r, (i, j) in enumerate(x.coords.tolist())}
    step, pad = (1, k // 2) if mode == "submanifold" else (2, 1)
    for d in range(k * k):
        dy, dx = divmod(d, k)
        want = [rows.get((step * oi + dx - pad, step * oj + dy - pad), len(x))
                for oi, oj in rb.out_coords.tolist()]
        assert rb.nbr[d].tolist() == want
    assert rb.pair_count() == brute_force_taps(set(rows), width, height, k, mode)


class TestInt8Gather:
    """An int8 conv centers, tile by tile, the input rows the tile reads
    and a padding row at the zero point into the GEMM dtype: a missing
    tap reads exactly 0 at any zero point, and no float copy of the whole
    input is made."""

    # (mode, k, cin): a 1x1 conv and a 3x3 conv whose center offset runs
    # alone (the center-slice path), and a stride-2 conv
    CASES = [("submanifold", 1, 16), ("submanifold", 3, 260), ("stride2", 3, 16)]

    @pytest.mark.parametrize("zero_point", [-128, 0, 127])
    @pytest.mark.parametrize("mode, k, cin", CASES)
    def test_bitwise_vs_dense_oracle_at_the_int8_zero_point_edges(self, rng, mode, k, cin,
                                                                 zero_point):
        n_out = 3 * SPLIT_ROWS + 5   # one tile per thread at threads 2 and 3
        x = tiled_case(rng, n_out, mode, cin, int8=True)
        x = x.with_features(x.features, QuantParams(0.05, zero_point))
        if cin > 128:
            # 255 * 127 * cin per offset: one offset stays below 2^24, two do not
            kernel = rng.choice(np.array([-127, 127], dtype=np.int8), size=(k, k, cin, 8))
        else:
            kernel = rng.integers(-128, 128, size=(k, k, cin, 8)).astype(np.int8)
        bias = rng.integers(-10 ** 6, 10 ** 6, size=8).astype(np.float64)
        groups = int8_gemms(kernel, bias)[0]
        assert (k * k // 2,) in groups if mode == "submanifold" else len(groups) == 1
        oq = OutputQuant.from_scales(x.qparams.scale, rng.uniform(5e-4, 2e-3, size=8),
                                     QuantParams(0.5, 3))
        stride = 1 if mode == "submanifold" else 2
        ref = dense_conv_int_fast(densify(x), zero_point, kernel, bias.astype(np.int64), oq,
                                  stride=stride)
        conv = submanifold_conv if mode == "submanifold" else sparse_conv_stride2
        for threads in (1, 2, 3):
            y = conv(x, kernel, bias, out_quant=oq, threads=threads)
            assert len(y) == n_out
            assert y.features.tobytes() == masked_dense(y, ref).astype(np.int8).tobytes()
        assert len(np.unique(y.features)) > 20

    def test_an_int8_conv_holds_no_float_copy_of_its_input(self, rng):
        cin = 64
        x = random_sparse(rng, 300, 300, cin, occupancy=0.67, int8=True)
        kernel = rng.integers(-128, 128, size=(3, 3, cin, 8)).astype(np.int8)
        oq = OutputQuant.from_scales(x.qparams.scale, np.full(8, 1e-3), QuantParams(0.5, 0))
        build_rulebook(x, 3, "submanifold")   # the input's table, kept with it
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            submanifold_conv(x, kernel, np.zeros(8), out_quant=oq)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the output and one tile's centered input rows, gather and GEMM
        # operands stay under one (n_in + 1) x Cin float32 array
        assert peak < (len(x) + 1) * cin * np.dtype(np.float32).itemsize


class TestSharedTables:
    def test_tensors_that_keep_the_active_set_share_its_tables(self, rng):
        x = random_sparse(rng, 12, 9, 2, occupancy=0.4)
        rb = build_rulebook(x, 3, "submanifold")
        y = submanifold_conv(x, rng.normal(size=(3, 3, 2, 2)), relu=True)
        kept = [y, sparse.relu(y), sparse_max_pool(y),
                sparse_add_projected(y, random_sparse(rng, 6, 5, 2), 2)]
        assert all(build_rulebook(t, 3, "submanifold") is rb for t in kept)
        assert build_rulebook(x, 1, "submanifold") is build_rulebook(y, 1, "submanifold")
        # a new active set starts without tables; stride-2 tables are never kept
        down = sparse_conv_stride2(y, rng.normal(size=(3, 3, 2, 2)))
        assert down._tables == {}
        assert build_rulebook(y, 3, "stride2") is not build_rulebook(y, 3, "stride2")
        assert sorted(x._tables) == [1, 3]

    def test_one_build_per_distinct_table(self, rng, monkeypatch):
        built, build = [], sparse._build_table
        monkeypatch.setattr(sparse, "_build_table",
                            lambda *args: built.append(args[1:]) or build(*args))
        x = random_sparse(rng, 12, 9, 2, occupancy=0.4)
        for _ in range(3):
            x = submanifold_conv(x, rng.normal(size=(3, 3, 2, 2)))
        sparse_max_pool(x)
        assert built == [(3, "submanifold")]


class TestSpareZeroRow:
    """Float conv and add outputs are the first rows of a buffer whose spare
    last row is +0.0, which the next float conv reads in place of a copy."""

    KERNELS = (("submanifold", (3, 3, 8, 8)), ("stride2", (3, 3, 8, 16)),
               ("submanifold", (1, 1, 16, 16)), ("submanifold", (3, 3, 16, 4)))

    def chain(self, x, kernels, copy):
        for mode, kernel in kernels:
            if copy:
                x = x.with_features(x.features.copy())
            conv = sparse_conv_stride2 if mode == "stride2" else submanifold_conv
            x = conv(x, kernel, threads=2, relu=True)
        return x

    def test_a_float_conv_chain_copies_only_its_input(self, rng, monkeypatch):
        x = random_sparse(rng, 90, 60, 8, occupancy=0.5)   # multi-tile convs
        kernels = [(mode, rng.normal(size=shape)) for mode, shape in self.KERNELS]
        copied = self.chain(x, kernels, copy=True)
        padded, calls = sparse._padded, []
        monkeypatch.setattr(sparse, "_padded",
                            lambda features, *args: calls.append(features.shape)
                            or padded(features, *args))
        y = self.chain(x, kernels, copy=False)
        assert calls == [x.features.shape]
        assert np.array_equal(y.coords, copied.coords)
        assert y.features.tobytes() == copied.features.tobytes()

    @pytest.mark.parametrize("hidden", [0.0, -0.0, 1.0, np.nan])
    def test_only_a_bitwise_plus_zero_hidden_row_is_trusted(self, rng, hidden):
        x = random_sparse(rng, 20, 16, 4, occupancy=0.5)
        buf = np.vstack([x.features, np.full((1, 4), hidden)])
        view = x.with_features(buf[:-1])
        trusted = sparse._zero_padded(view.features) is buf
        assert trusted == (np.signbit(hidden) == 0 and hidden == 0.0)
        kernel = rng.normal(size=(3, 3, 4, 4))
        assert submanifold_conv(view, kernel).features.tobytes() == \
            submanifold_conv(x, kernel).features.tobytes()

    def test_a_view_past_the_buffers_first_row_is_copied(self, rng):
        x = random_sparse(rng, 20, 16, 4, occupancy=0.5)
        x.features[-1] = 0.0
        # n + 1 rows ending in +0.0, but the features start at its second row
        buf = np.vstack([rng.normal(size=(1, 4)), x.features])
        view = x.with_features(buf[1:])
        assert sparse._zero_padded(view.features) is not buf
        kernel = rng.normal(size=(3, 3, 4, 4))
        assert submanifold_conv(view, kernel).features.tobytes() == \
            submanifold_conv(x, kernel).features.tobytes()

    def test_the_tiled_float_add_equals_the_padded_gather(self, rng):
        base = random_sparse(rng, 120, 90, 16, occupancy=0.5)
        base.features[::3] = -0.0
        other = submanifold_conv(random_sparse(rng, 30, 23, 16, occupancy=0.3),
                                 rng.normal(size=(3, 3, 16, 16)))
        kept = other.features.copy()
        y = sparse_add_projected(base, other, 4)
        rows = sparse._rows_at(other, base.coords[:, 0] // 4, base.coords[:, 1] // 4)
        want = base.features + sparse._padded(other.features, -0.0)[rows]
        assert len(_tiles(len(base))) > 1
        assert y.features.tobytes() == want.tobytes()
        # -0.0 stays -0.0 where there is no other; other's buffer is only read
        zeros_alone = (rows == len(other)) & (np.arange(len(base)) % 3 == 0)
        assert zeros_alone.any() and np.signbit(y.features[zeros_alone]).all()
        assert other.features.tobytes() == kept.tobytes()
        assert sparse._zero_padded(other.features) is other.features.base
        assert sparse._zero_padded(y.features) is y.features.base


class TestFloat64Epilogue:
    """OutputQuant.requantize against the Python-int Requantizer oracle."""

    @staticmethod
    def _check(acc, multipliers, shifts, zero_point, relu, dtype=np.float64):
        oq = OutputQuant(qparams=QuantParams(1.0, zero_point),
                         multipliers=np.asarray(multipliers, dtype=np.int64),
                         shifts=np.asarray(shifts, dtype=np.int64))
        assert oq.factors is not None
        out = np.empty(acc.shape, dtype=np.int8)
        held = acc.astype(dtype)
        assert held.tolist() == acc.tolist()   # exact integers in dtype
        oq.requantize(held.astype(np.float64), out, relu=relu)   # a tile's exact copy
        floor = zero_point if relu else -128
        rs = [Requantizer(int(m), int(s), zero_point) for m, s in zip(multipliers, shifts)]
        want = [[max(floor, requantize(int(a), r)) for a, r in zip(row, rs)]
                for row in acc.tolist()]
        assert out.tolist() == want

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("zero_point", [-128, 0, 127])
    def test_matches_the_scalar_oracle_at_every_exact_shift(self, rng, zero_point, relu):
        shifts = np.arange(EXACT_F64_SHIFT + 1)
        multipliers = rng.integers(1 << 30, 1 << 31, size=shifts.size)
        multipliers[:2] = [1 << 30, (1 << 31) - 1]
        edges = [0, 1, -1, 2 ** 31 - 1, -(2 ** 31 - 1)]
        acc = np.concatenate([np.tile(edges, (shifts.size, 1)).T,
                              rng.integers(-(2 ** 31) + 1, 2 ** 31, size=(200, shifts.size)),
                              rng.integers(-(2 ** 16), 2 ** 16, size=(200, shifts.size))])
        self._check(acc, multipliers, shifts, zero_point, relu)

    @staticmethod
    def _ties(rng, limit, ts):
        """(acc, multipliers, shifts) whose every product acc * M lies
        exactly halfway between two multiples of 2^(31 + s), |acc| < limit.
        With M = m * 2^t (m odd) and acc = a * 2^(30 + s - t) (a odd),
        acc * M = a * m * 2^(30 + s); |acc| < limit needs |a| < limit /
        2^(30 + s - t), and t with no such a is left out."""
        cases = [(s, t) for s in range(EXACT_F64_SHIFT + 1) for t in ts(s)
                 if limit >> (31 + s - t)]
        shifts = np.array([s for s, _ in cases])
        multipliers = np.array([int(rng.integers(1 << (29 - t), 1 << (30 - t))) * 2 + 1 << t
                                if t < 30 else 1 << 30 for _, t in cases])
        bound = np.array([min(limit >> (31 + s - t), 300) for s, t in cases])
        odd = (rng.integers(-bound, bound, size=(64, len(cases))) * 2 + 1)
        acc = odd * np.array([2 ** (30 + s - t) for s, t in cases])
        acc[0], acc[1] = acc.max(axis=0), acc.min(axis=0)
        sh = 31 + shifts
        assert np.all(np.abs(acc) < limit)
        assert np.all((acc * multipliers) % (1 << sh) == 1 << (sh - 1))
        return acc, multipliers, shifts

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("zero_point", [-128, 127])
    def test_exact_ties_round_toward_plus_infinity(self, rng, zero_point, relu):
        acc, multipliers, shifts = self._ties(rng, 2 ** 31, lambda s: (s, s + 3, 30))
        self._check(acc, multipliers, shifts, zero_point, relu)

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("zero_point", [-128, 0, 127])
    def test_float32_accumulators_match_the_scalar_oracle(self, rng, zero_point, relu):
        # the one-GEMM tile's accumulators: integers of magnitude below 2^24
        shifts = np.arange(EXACT_F64_SHIFT + 1)
        multipliers = rng.integers(1 << 30, 1 << 31, size=shifts.size)
        multipliers[:2] = [1 << 30, (1 << 31) - 1]
        edges = [0, 1, -1, F32_EXACT - 1, -(F32_EXACT - 1)]
        acc = np.concatenate([np.tile(edges, (shifts.size, 1)).T,
                              rng.integers(-F32_EXACT + 1, F32_EXACT, size=(200, shifts.size)),
                              rng.integers(-(2 ** 12), 2 ** 12, size=(200, shifts.size))])
        self._check(acc, multipliers, shifts, zero_point, relu, np.float32)

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("zero_point", [-128, 0, 127])
    def test_float32_exact_ties_round_toward_plus_infinity(self, rng, zero_point, relu):
        acc, multipliers, shifts = self._ties(rng, F32_EXACT, lambda s: (s + 7, s + 12, 30))
        self._check(acc, multipliers, shifts, zero_point, relu, np.float32)

    def test_a_shift_past_the_exact_bound_keeps_requantize_array(self, rng, monkeypatch):
        x, kernel, bias, oq = int8_case(rng, 2 * TILE_ROWS + 5, cin=8, cout=8)
        shifts = np.full(8, EXACT_F64_SHIFT)
        multipliers = rng.integers(1 << 30, 1 << 31, size=8)
        ref_args = dict(qparams=QuantParams(0.5, 3), multipliers=multipliers)
        calls, requantize_array = [], sparse.requantize_array
        monkeypatch.setattr(sparse, "requantize_array",
                            lambda *a, **k: calls.append(a[0].shape) or requantize_array(*a, **k))
        for top in (EXACT_F64_SHIFT, EXACT_F64_SHIFT + 1):
            shifts[-1] = top
            oq = OutputQuant(shifts=shifts.copy(), **ref_args)
            assert (oq.factors is None) == (top > EXACT_F64_SHIFT)
            y = submanifold_conv(x, kernel, bias, out_quant=oq, threads=2)
            ref = dense_conv_int_fast(densify(x), x.qparams.zero_point, kernel,
                                      bias.astype(np.int64), oq)
            assert y.features.tobytes() == masked_dense(y, ref).astype(np.int8).tobytes()
        # only the plan with shift 14 ran requantize_array, once per
        # near-equal tile of the 2 * TILE_ROWS + 5 rows
        assert sorted(calls) == [(TILE_ROWS + 2, 8), (TILE_ROWS + 3, 8)]


def mixed_density_case(rng, mode, cin):
    """About 4,000 conv output rows in three bands of j: isolated sites,
    whose non-center offsets hit nothing, but for one adjacent pair, which
    gives two offsets one hit row each; sites at 30 % occupancy; and every
    site of the grid."""
    spacing, sparse_rows, dense_rows = (3, 33, 10) if mode == "submanifold" else (4, 56, 30)
    width = isolated = 40 * spacing
    coords = [(i, j) for j in range(0, isolated, spacing) for i in range(0, width, spacing)]
    coords.append((1, 0))
    coords += [(i, j) for j in range(isolated, isolated + sparse_rows) for i in range(width)
               if rng.random() < 0.3]
    top = isolated + sparse_rows
    coords += [(i, j) for j in range(top, top + dense_rows) for i in range(width)]
    return SparseTensor2D.build(width, top + dense_rows, coords,
                                rng.normal(size=(len(coords), cin)))


def tile_hit_counts(rb, tiles):
    """hits[t, d]: the rows of tile t that offset d feeds."""
    return np.array([np.count_nonzero(rb.nbr[:, lo:hi] < rb.n_in, axis=1)
                     for lo, hi in tiles])


@pytest.fixture
def hit_pair_reads(monkeypatch):
    """The tables whose per-offset hit rows a conv reads."""
    reads, hit_pairs = [], sparse.Rulebook.hit_pairs.func
    monkeypatch.setattr(sparse.Rulebook, "hit_pairs",
                        property(lambda rb: reads.append(rb) or hit_pairs(rb)))
    return reads


class TestFloatHitOnly:
    """A float tile multiplies an offset whose hit rows are more than one
    and under HIT_ONLY_SHARE of the tile over those rows alone, skips one
    without a hit, and runs the rest over the whole tile; the bytes equal
    the per-offset oracle at every thread count."""

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("cin, cout", [(64, 64), (64, 128)])
    @pytest.mark.parametrize("mode", ["submanifold", "stride2"])
    def test_bytes_equal_the_per_offset_oracle(self, rng, mode, cin, cout, threads,
                                              hit_pair_reads):
        x = mixed_density_case(rng, mode, cin)
        rb = build_rulebook(x, 3, mode)
        n_out = len(rb.out_coords)
        hits = tile_hit_counts(rb, _split_tiles(n_out, threads))
        size = np.diff(_split_tiles(n_out, threads), axis=1)
        live = hits.sum(axis=0) > 0
        assert ((hits == 0) & live).any() and (hits == 1).any()
        assert ((hits > 1) & (hits < sparse.HIT_ONLY_SHARE * size)).any()
        assert (hits >= sparse.HIT_ONLY_SHARE * size).any()
        kernel = rng.normal(size=(3, 3, cin, cout))
        bias = rng.normal(size=cout)
        conv = submanifold_conv if mode == "submanifold" else sparse_conv_stride2
        y = conv(x, kernel, bias, threads=threads, relu=True)
        ref = scatter_conv(x, kernel, bias, stride=1 if mode == "submanifold" else 2)
        assert y.features.tobytes() == np.maximum(ref, 0).tobytes()
        assert len(hit_pair_reads) == 1

    @pytest.mark.parametrize("mode", ["submanifold", "stride2"])
    def test_a_negative_zero_bias_runs_every_offset_dense_and_matches(self, rng, mode,
                                                                     hit_pair_reads):
        x = mixed_density_case(rng, mode, 64)
        kernel = rng.normal(size=(3, 3, 64, 64))
        bias = rng.normal(size=64)
        bias[[3, 40]] = -0.0
        ref = scatter_conv(x, kernel, bias, stride=1 if mode == "submanifold" else 2)
        conv = submanifold_conv if mode == "submanifold" else sparse_conv_stride2
        for threads in (1, 2, 3):
            assert conv(x, kernel, bias, threads=threads).features.tobytes() == ref.tobytes()
        assert hit_pair_reads == []
        bias[[3, 40]] = 0.0
        conv(x, kernel, bias)
        assert len(hit_pair_reads) == 1

    def test_a_failed_gemm_row_probe_runs_every_offset_dense(self, rng, monkeypatch,
                                                            hit_pair_reads):
        probed = []
        monkeypatch.setattr(sparse, "_gemm_rows_exact",
                            lambda cin, cout: probed.append((cin, cout)) or False)
        x = mixed_density_case(rng, "submanifold", 64)
        kernel = rng.normal(size=(3, 3, 64, 128))
        bias = rng.normal(size=128)
        y = submanifold_conv(x, kernel, bias, threads=2)
        assert y.features.tobytes() == scatter_conv(x, kernel, bias).tobytes()
        assert probed == [(64, 128)] and hit_pair_reads == []

    def test_a_non_finite_weight_runs_every_offset_dense(self, rng, hit_pair_reads):
        # a missing tap's product is then NaN, not +-0.0, in every row; the
        # caller's error state holds in every tile worker (a warning would
        # fail the test under the suite's filter)
        x = mixed_density_case(rng, "submanifold", 8)
        kernel = rng.normal(size=(3, 3, 8, 8))
        kernel[0, 0, 2, 5] = np.inf
        missing = build_rulebook(x, 3, "submanifold").nbr[0] == len(x)
        for threads in (1, 2, 3):
            with np.errstate(invalid="ignore"):
                y = submanifold_conv(x, kernel, threads=threads)
            assert missing.any() and np.isnan(y.features[missing, 5]).all()
        assert hit_pair_reads == []


class TestHitOnly:
    """Int8 convs on tables with under 30 % hits run the same grouped tile
    as any other: multi-tile, at Cin 64 and 128, both modes and threads 1
    and 2, they equal the dense oracle."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("cin", [64, 128])
    @pytest.mark.parametrize("mode", ["submanifold", "stride2"])
    def test_equal_bytes_to_grouped_gemms(self, rng, mode, cin, threads):
        side = 150 if mode == "submanifold" else 190
        x = random_sparse(rng, side, side, cin, occupancy=0.12, int8=True)
        kernel = rng.integers(-128, 128, size=(3, 3, cin, 16)).astype(np.int8)
        bias = rng.integers(-10 ** 6, 10 ** 6, size=16).astype(np.float64)
        oq = OutputQuant.from_scales(x.qparams.scale, rng.uniform(5e-4, 2e-3, size=16),
                                     QuantParams(0.5, -7))
        rb = build_rulebook(x, 3, mode)
        assert len(_tiles(len(rb.out_coords))) >= 2 and rb.pair_count() < 0.3 * rb.nbr.size
        conv = submanifold_conv if mode == "submanifold" else sparse_conv_stride2
        y = conv(x, kernel, bias, out_quant=oq, threads=threads, relu=True)
        stride = 1 if mode == "submanifold" else 2
        ref = dense_conv_int_fast(densify(x), x.qparams.zero_point, kernel,
                                  bias.astype(np.int64), oq, stride=stride)
        want = np.maximum(masked_dense(y, ref), oq.qparams.zero_point)
        assert y.features.tobytes() == want.astype(np.int8).tobytes()


class TestL1BoundGemms:
    """int8_gemms sizes an int8 conv's GEMMs by each output channel's
    bound 255 * sum |w| + |bias|: below 2^24 one float32 GEMM per tile,
    else the fewest greedy float32 groups summed in float64."""

    @pytest.mark.parametrize("k", [1, 3])
    def test_groups_follow_the_channel_l1_bound(self, rng, k):
        every = (tuple(range(k * k)),)
        small = rng.integers(-128, 128, size=(k, k, 64, 8)).astype(np.int8)
        assert int8_gemms(small, np.zeros(8)) == (every, np.float32, np.float32)
        # the bias counts in the bound of its channel only
        big_bias = np.zeros(8)
        big_bias[5] = F32_EXACT
        assert int8_gemms(small, big_bias) == (every, np.float32, np.float64)
        # 127 * 128 * 255 per offset: 4 offsets stay below 2^24, 5 do not
        wide = np.full((k, k, 128, 4), 127, dtype=np.int8)
        groups = ((0, 1, 2, 3), (4, 5, 6, 7), (8,)) if k == 3 else every
        assert int8_gemms(wide, np.zeros(4)) == (groups, np.float32,
                                                 np.float64 if k == 3 else np.float32)
        # one offset past 2^24 alone: one float64 GEMM holds every int32 sum
        deep = np.full((k, k, 515, 2), -128, dtype=np.int8)
        assert int8_gemms(deep, np.zeros(2)) == (every, np.float64, np.float64)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["submanifold", "stride2"])
    @pytest.mark.parametrize("bound", [F32_EXACT - 1, F32_EXACT, F32_EXACT + 1])
    @pytest.mark.parametrize("cin", [64, 128])
    def test_bytes_at_the_float32_accumulator_bound(self, cin, bound, mode, threads):
        # Every site of a full grid is active and centered to +255.
        # Channel 0's 9 * cin weights are >= 0 and sum to 65,793, so 255 *
        # sum |w| = 2^24 - 1, and its bias bound - (2^24 - 1) >= 0: an
        # output with every tap active accumulates exactly bound. Channel 1
        # is its negation. The factor M * 2^-48 puts channel 0's rounding
        # edge at that accumulator, so its byte there changes if the sum is
        # off by one: a float32 sum of 2^24 + 1 would round to 2^24.
        side = 48 if mode == "submanifold" else 96    # 2,304 output rows
        x = SparseTensor2D.build(side, side, [(i, j) for j in range(side) for i in range(side)],
                                 np.full((side * side, cin), 127, dtype=np.int8),
                                 qparams=QuantParams(1.0, -128))
        base, extra = divmod((F32_EXACT - 1) // 255, 9 * cin)
        w0 = np.full(9 * cin, base)
        w0[:extra] += 1
        kernel = np.stack([w0, -w0], axis=-1).reshape(3, 3, cin, 2).astype(np.int8)
        b = bound - (F32_EXACT - 1)
        bias = np.array([b, -b], dtype=np.float64)
        one_gemm = bound < F32_EXACT
        assert int8_gemms(kernel, bias) == ((tuple(range(9)),), np.float32,
                                            np.float32 if one_gemm else np.float64)
        multiplier = -(-199 * 2 ** 47 // bound)   # ceil(99.5 * 2^48 / bound)
        oq = OutputQuant(qparams=QuantParams(1.0, 0), multipliers=np.full(2, multiplier),
                         shifts=np.full(2, 17))
        conv = submanifold_conv if mode == "submanifold" else sparse_conv_stride2
        y = conv(x, kernel, bias, out_quant=oq, threads=threads)
        stride = 1 if mode == "submanifold" else 2
        ref = dense_conv_int_fast(densify(x), -128, kernel, bias.astype(np.int64), oq,
                                  stride=stride)
        assert ref[1, 1, 0] == 100
        assert y.features.tobytes() == masked_dense(y, ref).astype(np.int8).tobytes()
