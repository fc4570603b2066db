import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from conftest import random_cloud, random_sparse
from oracles import dense_conv, densify, max_rel_dev, sigmoid

from lift.errors import ShapeError
from lift.network import (ENCODER_SITE, DbpfnParams, NetworkConfig, dbpfn_encode,
                          decode, fuse_network, fuse_scales, fusion_probe_deviation,
                          random_network_weights, residual_adds, run_backbone, run_encoded,
                          run_head, run_network)
from lift.pillarizer import GridConfig, PillarSet, pillarize
from lift.sparse import SparseTensor2D


def manual_pillars(width, height, entries, n_features):
    """entries: list of ((i, j), per-point feature rows)."""
    entries = sorted(entries, key=lambda e: e[0][1] * width + e[0][0])
    coords = np.array([ij for ij, _ in entries], dtype=np.int64)
    features = np.concatenate([np.asarray(rows, dtype=np.float64)
                               for _, rows in entries]) if entries \
        else np.empty((0, n_features))
    counts = [len(rows) for _, rows in entries]
    offsets = np.r_[0, np.cumsum(counts)].astype(np.int64)
    return PillarSet(width=width, height=height, coords=coords,
                     features=features, offsets=offsets)


class TestDbpfn:
    def test_single_point_pillar_halves_match(self, rng):
        params = DbpfnParams(weight=rng.normal(size=(4, 3)), bias=rng.normal(size=3))
        pillars = manual_pillars(8, 8, [((2, 3), [rng.normal(size=4)])], 4)
        out = dbpfn_encode(pillars, params)
        assert out.channels == 6
        assert np.array_equal(out.features[0, :3], out.features[0, 3:])

    def test_hand_max_min_concat(self):
        # two points whose mapped vectors are [1, -2] and [3, -5]
        params = DbpfnParams(weight=np.eye(2), bias=np.zeros(2))
        pillars = manual_pillars(4, 4, [((1, 1), [[1.0, -2.0], [3.0, -5.0]])], 2)
        out = dbpfn_encode(pillars, params)
        assert list(out.features[0]) == [3.0, -2.0, 1.0, -5.0]

    def test_permutation_invariance(self, rng):
        params = DbpfnParams(weight=rng.normal(size=(5, 4)), bias=rng.normal(size=4))
        rows = rng.normal(size=(7, 5))
        a = dbpfn_encode(manual_pillars(4, 4, [((0, 0), rows)], 5), params)
        b = dbpfn_encode(manual_pillars(4, 4, [((0, 0), rows[::-1])], 5), params)
        assert np.array_equal(a.features, b.features)

    def test_output_width_is_twice_hidden(self, rng):
        params = DbpfnParams(weight=rng.normal(size=(9, 32)), bias=np.zeros(32))
        pillars = manual_pillars(4, 4, [((0, 0), rng.normal(size=(3, 9)))], 9)
        assert dbpfn_encode(pillars, params).channels == 64

    def test_feature_length_mismatch(self, rng):
        params = DbpfnParams(weight=rng.normal(size=(7, 4)), bias=np.zeros(4))
        pillars = manual_pillars(4, 4, [((0, 0), rng.normal(size=(2, 9)))], 9)
        with pytest.raises(ShapeError):
            dbpfn_encode(pillars, params)

    def test_empty(self, rng):
        params = DbpfnParams(weight=rng.normal(size=(9, 8)), bias=np.zeros(8))
        out = dbpfn_encode(manual_pillars(6, 6, [], 9), params)
        assert len(out) == 0 and out.channels == 16


def tiny_network(rng, seed=0, form="fused"):
    cfg = NetworkConfig(encoder_out=8, stage_channels=(8, 8, 16, 16),
                        stage_depths=(1, 2, 1, 1), align_channels=16,
                        num_classes=3, class_names=("a", "b", "c"))
    return cfg, random_network_weights(cfg, 9, seed, form)


class TestBackbone:
    def test_empty_input(self, rng):
        cfg, weights = tiny_network(rng)
        s2, s3, s4 = run_backbone(SparseTensor2D.build(32, 32, [], np.empty((0, 8))), weights)
        assert len(s2) == len(s3) == len(s4) == 0
        assert (s2.width, s3.width, s4.width) == (8, 4, 2)

    def test_stage_strides_and_channels(self, rng):
        cfg, weights = tiny_network(rng)
        x = random_sparse(rng, 32, 32, 8, occupancy=0.2)
        s2, s3, s4 = run_backbone(x, weights)
        assert (s2.width, s3.width, s4.width) == (8, 4, 2)
        assert (s2.channels, s3.channels, s4.channels) == (8, 16, 16)

    def test_fused_matches_training_form(self, rng):
        cfg, train = tiny_network(rng, seed=5, form="train")
        fused = fuse_network(train)
        x = random_sparse(rng, 32, 32, 8, occupancy=0.15)
        outs_t = run_backbone(x, train)
        outs_f = run_backbone(x, fused)
        for a, b in zip(outs_t, outs_f):
            assert np.array_equal(a.coords, b.coords)
            assert max_rel_dev(a.features, b.features) < 1e-3


class TestFuseScales:
    def test_empty_others_returns_aligned_s2(self, rng):
        cfg, weights = tiny_network(rng)
        s2 = random_sparse(rng, 8, 8, 8, occupancy=0.4)
        s3 = SparseTensor2D.build(4, 4, [], np.empty((0, 16)))
        s4 = SparseTensor2D.build(2, 2, [], np.empty((0, 16)))
        out = fuse_scales(s2, s3, s4, weights)
        align = weights.layers["align"]
        expected = s2.features @ align.kernel[0, 0] + align.bias
        assert np.allclose(out.features, expected)

    def test_active_set_is_s2(self, rng):
        cfg, weights = tiny_network(rng)
        s2 = random_sparse(rng, 8, 8, 8, occupancy=0.5)
        s3 = random_sparse(rng, 4, 4, 16, occupancy=0.7)
        s4 = random_sparse(rng, 2, 2, 16, occupancy=0.9)
        out = fuse_scales(s2, s3, s4, weights)
        assert np.array_equal(out.coords, s2.coords)

    def test_hand_floor_division_addition(self, rng):
        cfg, weights = tiny_network(rng)
        align = weights.layers["align"]
        s2 = SparseTensor2D.build(8, 8, [(4, 6), (5, 5), (0, 0)],
                                  rng.normal(size=(3, 8)))
        s3 = SparseTensor2D.build(4, 4, [(2, 3)], rng.normal(size=(1, 16)))
        s4 = SparseTensor2D.build(2, 2, [(1, 1)], rng.normal(size=(1, 16)))
        out = fuse_scales(s2, s3, s4, weights)
        aligned = {tuple(c): f @ align.kernel[0, 0] + align.bias
                   for c, f in zip(map(tuple, s2.coords), s2.features)}
        want = {
            (0, 0): aligned[(0, 0)],                                     # no matches
            (4, 6): aligned[(4, 6)] + s3.features[0] + s4.features[0],   # (2,3), (1,1)
            (5, 5): aligned[(5, 5)] + s4.features[0],                    # (2,2) miss, (1,1) hit
        }
        for c, f in zip(map(tuple, out.coords), out.features):
            assert np.allclose(f, want[c])


class TestHeadAndDecode:
    def test_head_active_sets(self, rng):
        cfg, weights = tiny_network(rng)
        x = random_sparse(rng, 8, 8, 16, occupancy=0.4)
        heat, reg = run_head(x, weights)
        assert np.array_equal(heat.coords, x.coords)
        assert np.array_equal(reg.coords, x.coords)
        assert heat.channels == 3 and reg.channels == 8

    def test_head_dense_oracle(self, rng):
        cfg, weights = tiny_network(rng)
        x = random_sparse(rng, 16, 16, 16, occupancy=0.3)
        heat, _ = run_head(x, weights)
        cls_conv, cls_out = weights.layers["head.cls.conv"], weights.layers["head.cls.out"]
        hidden = dense_conv(densify(x), cls_conv.kernel, cls_conv.bias)
        hidden = np.maximum(hidden, 0.0)
        mask = np.zeros((16, 16), dtype=bool)
        mask[x.coords[:, 1], x.coords[:, 0]] = True
        hidden[~mask] = 0.0  # submanifold: inactive sites carry nothing
        logits = dense_conv(hidden, cls_out.kernel, cls_out.bias)
        ref = np.stack([logits[j, i] for (i, j) in heat.coords])
        assert max_rel_dev(heat.features, ref) < 1e-10

    def test_decode_empty_and_all_negative(self, rng):
        grid = GridConfig(x_min=-4.8, x_max=4.8, y_min=-4.8, y_max=4.8)
        cfg = NetworkConfig(num_classes=3, class_names=("a", "b", "c"))
        heat = SparseTensor2D.build(8, 8, [(1, 1)], [[-50.0, -60.0, -70.0]])
        reg = SparseTensor2D.build(8, 8, [(1, 1)], [np.zeros(8)])
        assert decode(heat, reg, grid, cfg, 0.4, 10) == []

    def test_decode_sigmoid_half(self):
        grid = GridConfig(x_min=-4.8, x_max=4.8, y_min=-4.8, y_max=4.8)
        cfg = NetworkConfig(num_classes=1, class_names=("a",))
        heat = SparseTensor2D.build(16, 16, [(2, 3)], [[0.0]])
        reg = SparseTensor2D.build(16, 16, [(2, 3)], [np.zeros(8)])
        boxes = decode(heat, reg, grid, cfg, 0.4, 10)
        assert len(boxes) == 1
        b = boxes[0]
        assert b.score == pytest.approx(0.5)
        # cell-center convention at stride 4: (i + 0.5) * 0.6 - 4.8
        assert b.x == pytest.approx((2 + 0.5) * 0.6 - 4.8)
        assert b.y == pytest.approx((3 + 0.5) * 0.6 - 4.8)

    def test_decode_local_maximum_suppression(self):
        grid = GridConfig(x_min=-4.8, x_max=4.8, y_min=-4.8, y_max=4.8)
        cfg = NetworkConfig(num_classes=1, class_names=("a",))
        # two peaks inside one 3x3 window: only the dominant survives
        coords = [(4, 4), (5, 4), (10, 10)]
        heat = SparseTensor2D.build(16, 16, coords, [[2.0], [1.0], [0.5]])
        reg = SparseTensor2D.build(16, 16, coords, np.zeros((3, 8)))
        boxes = decode(heat, reg, grid, cfg, 0.1, 10)
        assert len(boxes) == 2
        assert {round(b.score, 6) for b in boxes} == \
            {round(sigmoid(2.0), 6), round(sigmoid(0.5), 6)}

    def test_decode_centers_stay_near_grid(self, rng):
        grid = GridConfig(x_min=-4.8, x_max=4.8, y_min=-4.8, y_max=4.8)
        cfg = NetworkConfig(num_classes=2, class_names=("a", "b"))
        coords = [(0, 0), (15, 15)]
        heat = SparseTensor2D.build(16, 16, coords, rng.normal(size=(2, 2)) + 3)
        reg = SparseTensor2D.build(16, 16, coords, rng.normal(size=(2, 8)) * 100)
        cell = grid.pillar_size_x * 4
        for b in decode(heat, reg, grid, cfg, 0.0, 10):
            assert grid.x_min - cell <= b.x <= grid.x_max + cell
            assert grid.y_min - cell <= b.y <= grid.y_max + cell
            assert b.l > 0 and b.w > 0 and b.h > 0
            assert -np.pi < b.yaw <= np.pi

    def test_decode_centers_bounded_on_overhanging_grid(self, rng):
        # 13 pillars per axis: the stride-4 map overhangs the range
        grid = GridConfig(x_min=0.0, x_max=13 * 0.15, y_min=0.0, y_max=13 * 0.15)
        cfg = NetworkConfig(num_classes=1, class_names=("a",))
        coords = [(3, 3)]  # last site of the 4x4 stride-4 grid
        heat = SparseTensor2D.build(4, 4, coords, [[5.0]])
        reg = SparseTensor2D.build(4, 4, coords, [np.full(8, 50.0)])
        cell = grid.pillar_size_x * 4
        (box,) = decode(heat, reg, grid, cfg, 0.0, 5)
        assert box.x <= grid.x_max + cell and box.y <= grid.y_max + cell

    def test_decode_topk_tiebreak(self):
        grid = GridConfig(x_min=-4.8, x_max=4.8, y_min=-4.8, y_max=4.8)
        cfg = NetworkConfig(num_classes=2, class_names=("a", "b"))
        # equal logits far apart; tie broken by (class, j, i) ascending
        coords = [(9, 2), (3, 7)]
        heat = SparseTensor2D.build(16, 16, coords, [[1.0, 1.0], [1.0, 1.0]])
        reg = SparseTensor2D.build(16, 16, coords, np.zeros((2, 8)))
        boxes = decode(heat, reg, grid, cfg, 0.1, 3)
        assert [(b.class_id, b.y, b.x) for b in boxes] == sorted(
            (b.class_id, b.y, b.x) for b in boxes)


class TestWholeNetwork:
    def test_end_to_end_and_fusion_equivalence(self, rng, small_config):
        cfg = small_config
        cloud = random_cloud(rng, 700, cfg.grid)
        pillars = pillarize(cloud, cfg.grid)
        train = random_network_weights(cfg.network, cfg.feature_length, 11, "train")
        fused = fuse_network(train)
        res_t = run_network(pillars, train, cfg.grid, cfg.network, 0.05, 32)
        res_f = run_network(pillars, fused, cfg.grid, cfg.network, 0.05, 32)
        assert max_rel_dev(res_t.heatmap.features, res_f.heatmap.features) < 1e-3
        assert res_f.stage_sizes["fused"] == res_f.stage_sizes["stage2"]

    def test_probe_deviation_small(self, rng):
        cfg, train = tiny_network(rng, seed=2, form="train")
        fused = fuse_network(train)
        assert fusion_probe_deviation(train, fused, probes=4) < 1e-4

    def test_graph_audit(self, rng):
        cfg, train = tiny_network(rng, seed=2, form="train")
        fused = fuse_network(train)
        assert residual_adds(fused) == ["fusion.add3", "fusion.add4"]
        assert len(residual_adds(train)) > 2

    def test_head_active_set_equals_stage2(self, rng, small_config):
        cfg = small_config
        cloud = random_cloud(rng, 400, cfg.grid)
        pillars = pillarize(cloud, cfg.grid)
        weights = random_network_weights(cfg.network, cfg.feature_length, 1, "fused")
        res = run_network(pillars, weights, cfg.grid, cfg.network, 0.05, 32)
        assert res.stage_sizes["fused"] == res.stage_sizes["stage2"]
        assert len(res.heatmap) == res.stage_sizes["stage2"]

    def test_head_active_set_is_twice_applied_stride2_law(self, rng, small_config):
        from oracles import stride2_active_set

        cfg = small_config
        cloud = random_cloud(rng, 250, cfg.grid)
        pillars = pillarize(cloud, cfg.grid)
        weights = random_network_weights(cfg.network, cfg.feature_length, 1, "fused")
        res = run_network(pillars, weights, cfg.grid, cfg.network, 0.05, 32)
        w = cfg.grid.width
        once = stride2_active_set({tuple(c) for c in pillars.coords}, w, w)
        twice = stride2_active_set(once, -(-w // 2), -(-w // 2))
        assert {tuple(c) for c in res.heatmap.coords} == twice


class TestOpListDerivations:
    def test_sites_act_tensors_and_mac_layers_follow_the_executor(
            self, rng, small_config, monkeypatch):
        from lift import quantize
        from lift.analysis import count_macs_network
        from lift.network import NetworkWeights
        from lift.weights_io import int8_network_records

        cfg = small_config
        cloud = random_cloud(rng, 600, cfg.grid)
        pillars = pillarize(cloud, cfg.grid)
        weights = random_network_weights(cfg.network, cfg.feature_length, 3, "fused")
        ran = {"float": [], "int8": []}

        def recording(cls, path):
            apply = cls.apply

            def wrapper(self, op, xs, threads=1):
                ran[path].append(op.name)
                return apply(self, op, xs, threads)
            monkeypatch.setattr(cls, "apply", wrapper)

        recording(NetworkWeights, "float")
        recording(quantize.Int8Network, "int8")
        sites = []
        collector = quantize.CalibrationCollector()
        collector(quantize.INPUT_FEATURES_SITE, pillars.features)

        def observer(site, values):
            sites.append(site)
            collector(site, values)

        run_network(pillars, weights, cfg.grid, cfg.network, 0.05, 32, observer=observer)
        assert sites == quantize.activation_sites(cfg.network)

        act = {s: collector.qparams(s) for s in sites}
        net8 = quantize.quantize_network(weights, collector.feature_qparams(), act)
        act_tensors = [r.name[len("act."):-len(".scale")]
                       for r in int8_network_records(net8)
                       if r.name.startswith("act.") and r.name.endswith(".scale")]
        assert act_tensors == sites

        quantize.run_int8_network(pillars, net8, cfg.grid, cfg.network, 0.05, 32)
        assert ran["int8"] == ran["float"]
        convs = [name for name in ran["float"] if name in weights.layers]
        report = count_macs_network(cloud, cfg.grid, cfg.network)
        assert [layer.name for layer in report.layers if layer.kind != "linear"] == convs


# Fixed activation params, not calibrated ones: quantize_network then does
# only elementwise float work, so the int8 network (and this digest) is the
# same on every platform and BLAS build.
GOLDEN_FEATURE_QPS = [(0.0375, 0), (1.5e-4, -128), (0.0375, 0), (1.5e-4, -128),
                      (0.03125, 32), (1.25e-4, -128), (1.0, -128), (6e-4, 0), (6e-4, 0)]
GOLDEN_STAGE_SCALES = (0.25, 0.06, 0.02, 0.006)
# sha256 of the int8 heatmap and regression coords and features below; a
# change to int8 arithmetic that alters any output changes it
GOLDEN_INT8_DIGEST = "c96d3c172f5e1165adeb92d730904650d6b1f63913e1a8de87434c85b5ef003c"


def golden_act(site):
    from lift.quant import QuantParams

    if site == "dbpfn.out":
        return QuantParams(0.75, 0)
    if site.startswith("stage"):
        return QuantParams(GOLDEN_STAGE_SCALES[int(site[len("stage")]) - 1], -128)
    return QuantParams(0.03, -128) if ".conv." in site else QuantParams(0.05, -16)


def test_int8_outputs_match_the_golden_digest(small_config):
    import hashlib

    from lift import quantize
    from lift.quant import QuantParams

    cfg = small_config
    weights = random_network_weights(cfg.network, cfg.feature_length, 0, "fused")
    net8 = quantize.quantize_network(
        weights, [QuantParams(s, z) for s, z in GOLDEN_FEATURE_QPS],
        {site: golden_act(site) for site in quantize.activation_sites(cfg.network)})
    pillars = pillarize(random_cloud(np.random.default_rng(5), 2000, cfg.grid), cfg.grid)
    res = quantize.run_int8_network(pillars, net8, cfg.grid, cfg.network, 0.05, 32)
    # the digest covers real work: many sites, many distinct int8 values
    assert len(res.heatmap) > 100 and np.unique(res.heatmap.features).size > 50
    assert np.unique(res.regression.features).size > 50
    digest = hashlib.sha256()
    for t in (res.heatmap, res.regression):
        digest.update(np.ascontiguousarray(t.coords, dtype="<i8").tobytes())
        digest.update(np.ascontiguousarray(t.features).tobytes())
    assert digest.hexdigest() == GOLDEN_INT8_DIGEST


ORACLE_CONFIG_DOC = {
    # 176 x 176 pillars, so stage 2 has 1,935 rows; stage 3 has no
    # submanifold layer
    "grid": {"x_min": -4.4, "x_max": 4.4, "y_min": -4.4, "y_max": 4.4,
             "pillar_size_x": 0.05, "pillar_size_y": 0.05},
    "network": {"encoder_out": 16, "stage_channels": [16, 16, 32, 32], "align_channels": 32,
                "num_classes": 3, "stage_depths": [1, 1, 0, 1]},
    "decode": {"score_threshold": 0.05, "top_k": 32},
}
# zero points set over calibrated scales; the rest keep theirs (-128 after a ReLU)
ORACLE_ZERO_POINTS = {"dbpfn.out": 0, "align.out": 127, "fusion.add3.out": 0}


@pytest.fixture(scope="module")
def oracle_case():
    """An int8 network and a sparse cloud that reach the tile edge cases:
    a multi-tile stride-2 conv under 30 % hits, convs whose last tile
    carries a remainder, a plan with a shift past EXACT_F64_SHIFT, zero
    points -128, 0 and 127, a stage of depth 0, convs that run one float32
    GEMM per tile and one that falls back to float64 accumulators, and
    convs that split below TILE_ROWS rows at threads 2."""
    from lift import quantize
    from lift.config import config_from_dict
    from lift.quant import QuantParams

    cfg = config_from_dict(ORACLE_CONFIG_DOC)
    weights = random_network_weights(cfg.network, cfg.feature_length, 0, "fused")
    # one output channel far below the rest: its plan's shift passes 13
    layer = weights.layers["stage2.layer1"]
    layer.kernel[..., 0] *= 2.0 ** -10
    layer.bias[0] *= 2.0 ** -10
    # one head channel's kernel far below its bias: its integer bias passes
    # the float32 accumulator bound
    weights.layers["head.reg.conv"].kernel[..., 5] *= 2.0 ** -17
    pillars = pillarize(random_cloud(np.random.default_rng(7), 5000, cfg.grid), cfg.grid)
    collector = quantize.CalibrationCollector()
    collector(quantize.INPUT_FEATURES_SITE, pillars.features)
    run_network(pillars, weights, cfg.grid, cfg.network, observer=collector)
    act = {s: QuantParams(collector.qparams(s).scale,
                          ORACLE_ZERO_POINTS.get(s, collector.qparams(s).zero_point))
           for s in quantize.activation_sites(cfg.network)}
    net = quantize.quantize_network(weights, collector.feature_qparams(), act)
    return cfg, pillars, net


def test_int8_oracle_case_reaches_the_tile_edge_cases(oracle_case, monkeypatch):
    from lift import quantize, sparse
    from lift.sparse import EXACT_F64_SHIFT, TILE_ROWS, OutputQuant, build_rulebook

    cfg, pillars, net = oracle_case
    rb = build_rulebook(quantize.encode_int8(pillars, net), 3, "stride2")
    # stage 1's rows: several tiles, the last with a remainder; under 30 % hits
    n_out = len(rb.out_coords)
    assert n_out >= 2 * TILE_ROWS and n_out % TILE_ROWS
    assert rb.pair_count() < 0.3 * rb.nbr.size
    shifts = [OutputQuant.from_scales(net.act[op.inputs[0]].scale,
                                      net.layers[op.name].weight_scales,
                                      net.act[op.output]).shifts.max()
              for op in net.ops if op.kind == "conv"]
    assert max(shifts) > EXACT_F64_SHIFT
    assert {-128, 0, 127} <= {qp.zero_point for qp in net.act.values()}
    assert 0 in cfg.network.stage_depths
    # one float32 GEMM per tile, and the float64 fallback
    gemms = [sparse.int8_gemms(net.layers[op.name].q_weight, net.bias_q[op.name])
             for op in net.ops if op.kind == "conv"]
    assert {gemm[1:] for gemm in gemms} == {(np.float32, np.float32), (np.float32, np.float64)}
    # at threads 2, convs split into tiles below TILE_ROWS rows
    split_tiles, splits = sparse._split_tiles, []
    monkeypatch.setattr(sparse, "_split_tiles",
                        lambda n, threads: splits.append(split_tiles(n, threads)) or splits[-1])
    quantize.run_int8_network(pillars, net, cfg.grid, cfg.network, 0.05, 32, 2)
    assert any(len(tiles) > 1 and max(hi - lo for lo, hi in tiles) < TILE_ROWS
               for tiles in splits)


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("points", [5000, 0])
def test_int8_network_equals_the_dense_oracle(oracle_case, threads, points):
    from oracles import run_int8_reference

    from lift import quantize

    cfg, pillars, net = oracle_case
    if points == 0:
        pillars = pillarize(random_cloud(np.random.default_rng(7), 0, cfg.grid), cfg.grid)
    boxes, heatmap, regression = run_int8_reference(pillars, net, cfg.grid, cfg.network,
                                                    0.05, 32)
    res = quantize.run_int8_network(pillars, net, cfg.grid, cfg.network, 0.05, 32, threads)
    for got, want in ((res.heatmap, heatmap), (res.regression, regression)):
        assert np.array_equal(got.coords, want.coords)
        assert got.features.tobytes() == want.features.tobytes()
    assert res.boxes == boxes
    assert len(boxes) == (32 if points else 0)


def test_int8_network_holds_blas_at_one_thread_in_the_encoder_and_split_convs(
        oracle_case, monkeypatch):
    """At threads 2, BLAS reads 1 in the encoder and in every tile of a
    split conv, and single-tile convs keep its count; the count found
    comes back after the run, also when a tile raises. At threads 1,
    nothing touches BLAS."""
    from lift import quantize, sparse
    from lift.sparse import OutputQuant

    cfg, pillars, net = oracle_case
    handle = sparse.blas_thread_handle()
    if handle is None:
        pytest.skip("numpy's bundled OpenBLAS has no thread setter here")
    get, set_ = handle
    found = get()
    encode, run_tiles, requantize = quantize.encode_int8, sparse._run_tiles, \
        OutputQuant.requantize
    encoders, convs = [], []

    def spy_encode(*args):
        encoders.append(get())
        return encode(*args)

    def spy_run_tiles(tile, tiles, threads):
        seen = []
        convs.append((len(tiles), seen))
        return run_tiles(lambda rows: seen.append(get()) or tile(rows), tiles, threads)

    monkeypatch.setattr(quantize, "encode_int8", spy_encode)
    monkeypatch.setattr(sparse, "_run_tiles", spy_run_tiles)
    try:
        set_(2)
        quantize.run_int8_network(pillars, net, cfg.grid, cfg.network, 0.05, 32, 2)
        assert encoders == [1] and get() == 2
        assert {n for n, _ in convs} > {1}
        assert all(seen == ([1] * n if n > 1 else [2]) for n, seen in convs)

        calls = []

        def fail_third(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("tile failed")
            return requantize(*args, **kwargs)

        monkeypatch.setattr(OutputQuant, "requantize", fail_third)
        with pytest.raises(RuntimeError, match="tile failed"):
            quantize.run_int8_network(pillars, net, cfg.grid, cfg.network, 0.05, 32, 2)
        assert convs[-1][0] > 1   # the third tile belongs to a split conv
        assert get() == 2 and sparse._blas_users == 0
    finally:
        set_(found)

    recorded = []
    monkeypatch.setattr(sparse, "blas_thread_handle", lambda: (lambda: 7, recorded.append))
    monkeypatch.setattr(OutputQuant, "requantize", requantize)
    quantize.run_int8_network(pillars, net, cfg.grid, cfg.network, 0.05, 32, 1)
    assert recorded == []


def test_the_float_encoder_output_keeps_a_spare_zero_row(rng, small_config, monkeypatch):
    """So no float conv pads a copy: only decode's max pool pads its input."""
    from lift import sparse
    from lift.network import dual_bound_pool

    cfg = small_config
    weights = random_network_weights(cfg.network, cfg.feature_length, 0, "fused")
    pillars = pillarize(random_cloud(rng, 2000, cfg.grid), cfg.grid)
    x = dbpfn_encode(pillars, weights.dbpfn)
    mapped = pillars.features @ weights.dbpfn.weight.astype(np.float64) + weights.dbpfn.bias
    assert x.features.tobytes() == dual_bound_pool(mapped, pillars.offsets).tobytes()
    assert sparse._zero_padded(x.features) is x.features.base
    padded, calls = sparse._padded, []
    monkeypatch.setattr(sparse, "_padded",
                        lambda features, *args: calls.append(features.shape)
                        or padded(features, *args))
    res = run_network(pillars, weights, cfg.grid, cfg.network, 0.05, 32, threads=2)
    assert calls == [res.heatmap.features.shape]


def test_float_network_holds_blas_at_one_thread_in_the_encoder(rng, small_config, recorded,
                                                              monkeypatch):
    """At threads 2 the float encoder runs with BLAS set to 1, and the
    count found comes back once it returns; at threads 1 nothing touches
    BLAS."""
    from lift import network, sparse

    cfg = small_config
    weights = random_network_weights(cfg.network, cfg.feature_length, 0, "fused")
    pillars = pillarize(random_cloud(rng, 2000, cfg.grid), cfg.grid)
    encode, inside = network.dbpfn_encode, []
    monkeypatch.setattr(network, "dbpfn_encode",
                        lambda *args: inside.append(list(recorded)) or encode(*args))
    run_network(pillars, weights, cfg.grid, cfg.network, 0.05, 32, threads=2)
    assert inside == [[1]] and recorded[:2] == [1, 7]
    assert recorded == [1, 7] * (len(recorded) // 2) and sparse._blas_users == 0
    recorded.clear()
    run_network(pillars, weights, cfg.grid, cfg.network, 0.05, 32, threads=1)
    assert inside == [[1], []] and recorded == []


@pytest.mark.parametrize("mode", ["float", "int8"])
def test_default_config_cloud_builds_nine_tables_for_forty_lookups(rng, monkeypatch, mode):
    from lift import quantize, sparse
    from lift.config import config_from_dict

    cfg = config_from_dict({})
    weights = random_network_weights(cfg.network, cfg.feature_length, 0, "fused")
    pillars = pillarize(random_cloud(rng, 3000, cfg.grid), cfg.grid)
    run, net = run_network, weights
    if mode == "int8":
        collector = quantize.CalibrationCollector()
        collector(quantize.INPUT_FEATURES_SITE, pillars.features)
        run_network(pillars, weights, cfg.grid, cfg.network, observer=collector)
        net = quantize.quantize_network(
            weights, collector.feature_qparams(),
            {s: collector.qparams(s) for s in quantize.activation_sites(cfg.network)})
        run = quantize.run_int8_network
    calls, built = [], []
    build_rulebook, build_table = sparse.build_rulebook, sparse._build_table
    monkeypatch.setattr(sparse, "build_rulebook",
                        lambda *args: calls.append(args[1:]) or build_rulebook(*args))
    monkeypatch.setattr(sparse, "_build_table",
                        lambda *args: built.append(args[1:]) or build_table(*args))
    res = run(pillars, net, cfg.grid, cfg.network)
    # 34 backbone convs, align, 4 head convs and decode's max pool look up
    # 4 stride-2 tables, a 3x3 table per stage's active set and stage 2's 1x1
    assert len(calls) == 40 and all(res.stage_sizes.values())
    assert sorted(built) == [(1, "submanifold")] + [(3, "stride2")] * 4 \
        + [(3, "submanifold")] * 4
    # the result keeps no table past its cloud
    assert res.heatmap._tables == {}


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before 3.11, CPython keeps a call's arguments alive in the "
                           "caller until the call returns")
@pytest.mark.parametrize("mode", ["float", "int8"])
def test_each_site_is_freed_after_its_last_reader(rng, small_config, mode):
    from lift import quantize
    from lift.quant import QuantParams

    cfg = small_config
    weights = random_network_weights(cfg.network, cfg.feature_length, 0, "fused")
    pillars = pillarize(random_cloud(rng, 2000, cfg.grid), cfg.grid)
    refs, freed = {}, {}

    def observer(site, features):
        freed[site] = {s for s, ref in refs.items() if ref() is None}
        refs[site] = weakref.ref(features)

    if mode == "float":
        run_network(pillars, weights, cfg.grid, cfg.network, 0.05, 32, observer=observer)
    else:
        net8 = quantize.quantize_network(
            weights, [QuantParams(s, z) for s, z in GOLDEN_FEATURE_QPS],
            {site: golden_act(site) for site in quantize.activation_sites(cfg.network)})
        run_encoded(lambda: quantize.encode_int8(pillars, net8), pillars, net8, cfg.grid,
                    cfg.network, 0.05, 32, 1, observer)
    depths = cfg.network.stage_depths
    s2, s3, s4 = (f"stage{s}.layer{depths[s - 1]}.out" for s in (2, 3, 4))
    assert ENCODER_SITE in freed["stage1.layer1.out"]
    assert {"align.out", s2, s3, s4} <= freed["head.cls.conv.out"]
    # the head's input lives until its last reader, the second branch's conv
    assert "fusion.out" not in freed["head.cls.out"]
    assert "fusion.out" in freed["head.reg.out"]


def test_one_float_cloud_keeps_only_live_activations(rng):
    from lift.config import config_from_dict

    cfg = config_from_dict({})
    weights = random_network_weights(cfg.network, cfg.feature_length, 0, "fused")
    pillars = pillarize(random_cloud(rng, 6000, cfg.grid), cfg.grid)
    shapes = {}
    tracemalloc.start()
    try:
        run_network(pillars, weights, cfg.grid, cfg.network, threads=1,
                    observer=lambda site, features: shapes.setdefault(site, features.shape))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    def nbytes(site):   # float64 rows and a spare row
        rows, channels = shapes[site]
        return (rows + 1) * channels * 8

    # a conv holds its input, its output and its table (k * k intp per output row)
    largest = max(nbytes(op.inputs[0]) + nbytes(op.output) + op.k ** 2 * 8 * shapes[op.output][0]
                  for op in weights.ops if op.kind == "conv")
    pillar_bytes = sum(a.nbytes for a in (pillars.features, pillars.coords, pillars.offsets))
    # the first fusion add holds a head conv's input and output beside the
    # stage 3 and 4 outputs; the 25 % covers each tile's gather and product,
    # kernels widened to float64 and the tables of live active sets
    depths = cfg.network.stage_depths
    coarse = nbytes(f"stage3.layer{depths[2]}.out") + nbytes(f"stage4.layer{depths[3]}.out")
    budget = 1.25 * (largest + pillar_bytes + coarse)
    assert peak <= budget, f"peak {peak / 1e6:.1f} MB over a budget of {budget / 1e6:.1f} MB"
