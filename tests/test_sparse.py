import numpy as np
import pytest
from conftest import random_sparse
from oracles import (dense_conv, dense_conv_int, densify, conv_loops,
                     max_rel_dev, stride2_active_set)

from lift.errors import ShapeError
from lift.quant import QuantParams, integer_bias
from lift.sparse import (AddQuant, OutputQuant, SparseTensor2D, build_rulebook,
                         sparse_add_projected,
                         sparse_conv_stride2, sparse_max_pool, submanifold_conv)


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


class TestSubmanifold:
    def test_empty_input(self):
        x = SparseTensor2D.empty(8, 8, 4)
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
        x = SparseTensor2D.empty(8, 8, 4)
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

    def test_int8_requires_plan(self, rng):
        x = random_sparse(rng, 8, 8, 2, int8=True)
        with pytest.raises(ShapeError):
            submanifold_conv(x, np.zeros((3, 3, 2, 2), dtype=np.int8))


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


class TestAddProjected:
    def test_empty_other_is_identity(self, rng):
        base = random_sparse(rng, 8, 8, 4, occupancy=0.4)
        other = SparseTensor2D.empty(4, 4, 4)
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

    def test_int8_matches_per_site_oracle(self, rng):
        from lift.quant import requantize
        base = random_sparse(rng, 8, 8, 3, occupancy=0.6, int8=True,
                             qparams=QuantParams(0.1, 4))
        other = random_sparse(rng, 4, 4, 3, occupancy=0.8, int8=True,
                              qparams=QuantParams(0.05, -3))
        out_qp = QuantParams(0.12, 1)
        aq = AddQuant.from_scales(base.qparams, other.qparams, out_qp)
        y = sparse_add_projected(base, other, 2, add_quant=aq)
        other_map = {tuple(c): f for c, f in zip(map(tuple, other.coords), other.features)}
        for (i, j), brow, yrow in zip(base.coords, base.features, y.features):
            orow = other_map.get((i // 2, j // 2))
            for ch in range(3):
                rb = requantize(int(brow[ch]) - 4, aq.base)
                ro = requantize(int(orow[ch]) + 3, aq.other) if orow is not None else 0
                want = max(-128, min(127, rb + ro + 1))
                assert yrow[ch] == want

    def test_dim_mismatch_rejected(self, rng):
        base = random_sparse(rng, 8, 8, 2)
        other = random_sparse(rng, 3, 3, 2)
        with pytest.raises(ShapeError):
            sparse_add_projected(base, other, 2)


def test_rulebook_pair_count_consistency(rng):
    x = random_sparse(rng, 10, 10, 1, occupancy=0.35)
    rb = build_rulebook(x, 3, "submanifold")
    total = sum(in_rows.size for in_rows, _ in rb.pairs)
    assert rb.pair_count() == total
