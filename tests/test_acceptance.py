"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or -rP to see them).

Detection-accuracy metrics (mAP/NDS on a real dataset) need trained
weights and are out of scope; criteria 3-9 plus the int8-vs-float
agreement check in criterion 10 stand in for them. See README.
"""

import json

import numpy as np
from conftest import random_sparse
from oracles import (brute_force_taps, dense_conv, dense_conv_int_fast,
                     dense_stride2_taps, dense_submanifold_taps, densify,
                     max_rel_dev)

from lift.analysis import DEFAULT_BUDGET_GMAC, count_macs_network, dpu_budget
from lift.cli import main
from lift.config import config_from_dict
from lift.network import (DbpfnParams, dbpfn_encode, fuse_network, random_network_weights,
                          residual_adds, run_network)
from lift.pcd_io import PointCloud
from lift.pillarizer import (coarse_detail_split, coarse_resolution,
                             effective_detail_step, pillarize)
from lift.quant import QuantParams
from lift.reparam import apply_fused, apply_training_form, fuse
from lift.sparse import OutputQuant, build_rulebook, sparse_conv_stride2, submanifold_conv
from lift import quantize

from test_reparam import random_layer


def report(number, description, ok):
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {description}"
    print(line)
    assert ok, line


ACCEPT_CONFIG = {
    "grid": {"x_min": -9.6, "x_max": 9.6, "y_min": -9.6, "y_max": 9.6,
             "pillar_size_x": 0.15, "pillar_size_y": 0.15},
    "decode": {"score_threshold": 0.05, "top_k": 50},
}


def accept_cloud(rng, n=2500):
    pts = np.column_stack([rng.uniform(-9.6, 9.6, n), rng.uniform(-9.6, 9.6, n),
                           rng.uniform(-5, 3, n), rng.uniform(0, 255, n)])
    return PointCloud(data=pts.astype(np.float32))


def test_criterion_1_ocm_constants(capsys):
    assert main(["ocm", "--dims", "640,720,40", "--context", "3,3,3"]) == 0
    got_3d = capsys.readouterr().out.strip()
    assert main(["ocm", "--dims", "640,720", "--context", "3,3"]) == 0
    got_2d = capsys.readouterr().out.strip()
    with capsys.disabled():
        report(1, f"line-buffer constants 52483/1283 (got {got_3d}/{got_2d})",
               got_3d == "52483" and got_2d == "1283")


def test_criterion_2_dpu_budget(capsys):
    got = dpu_budget(2048, 300e6, 10.0)
    with capsys.disabled():
        report(2, f"DPU budget 2048 MAC/cycle @300MHz @10Hz = 61.44 GMAC (got {got})",
               got == 61.44)


def test_criterion_3_dense_oracle_equivalence(capsys):
    rng = np.random.default_rng(2024)
    cases_per_flavor = 500
    worst_real = 0.0
    for flavor in ("submanifold", "stride2"):
        for case in range(cases_per_flavor):
            w = int(rng.integers(4, 33))
            h = int(rng.integers(4, 33))
            occ = float(rng.uniform(0.05, 0.95))
            cin = int(rng.integers(1, 17))
            cout = int(rng.integers(1, 17))
            kernel = rng.normal(size=(3, 3, cin, cout))
            bias = rng.normal(size=cout)

            # real path
            x = random_sparse(rng, w, h, cin, occupancy=occ)
            if flavor == "submanifold":
                y = submanifold_conv(x, kernel, bias)
                ref = dense_conv(densify(x), kernel, bias)
            else:
                y = sparse_conv_stride2(x, kernel, bias)
                ref = dense_conv(densify(x), kernel, bias, stride=2)
            masked = np.stack([ref[j, i] for (i, j) in y.coords]) if len(y) \
                else np.zeros((0, cout))
            worst_real = max(worst_real, max_rel_dev(y.features, masked))

            # int8 path, bitwise
            xq = random_sparse(rng, w, h, cin, occupancy=occ, int8=True,
                               qparams=QuantParams(scale=0.04,
                                                   zero_point=int(rng.integers(-30, 30))))
            kq = rng.integers(-127, 128, size=(3, 3, cin, cout)).astype(np.int8)
            bq = rng.integers(-2000, 2000, size=cout).astype(np.int64)
            oq = OutputQuant.from_scales(xq.qparams.scale,
                                         rng.uniform(1e-3, 3e-2, size=cout),
                                         QuantParams(scale=0.05,
                                                     zero_point=int(rng.integers(-10, 10))))
            if flavor == "submanifold":
                yq = submanifold_conv(xq, kq, bq, out_quant=oq)
                refq = dense_conv_int_fast(densify(xq), xq.qparams.zero_point, kq, bq, oq)
            else:
                yq = sparse_conv_stride2(xq, kq, bq, out_quant=oq)
                refq = dense_conv_int_fast(densify(xq), xq.qparams.zero_point, kq, bq, oq,
                                           stride=2)
            maskedq = np.stack([refq[j, i] for (i, j) in yq.coords]) if len(yq) \
                else np.zeros((0, cout))
            assert np.array_equal(yq.features.astype(np.int64), maskedq), \
                f"int8 mismatch: flavor={flavor} case={case}"
    with capsys.disabled():
        report(3, f"dense-oracle equivalence, {cases_per_flavor}/flavor: int8 bitwise, "
                  f"real worst rel dev {worst_real:.2e} <= 1e-5", worst_real <= 1e-5)


def test_criterion_4_reparameterization_equivalence(capsys):
    rng = np.random.default_rng(7)
    worst_layer = 0.0
    for case in range(1000):
        mode = ("submanifold", "stride2")[case % 2]
        cin = int(rng.integers(1, 9))
        # half of the submanifold layers keep their width, so they carry
        # an identity branch
        cout = cin if (mode == "submanifold" and case % 4 == 0) else int(rng.integers(1, 9))
        layer = random_layer(rng, cin, cout, mode)
        x = random_sparse(rng, 10, 10, cin, occupancy=float(rng.uniform(0.1, 0.7)))
        fused = fuse(layer)
        dev = max_rel_dev(apply_training_form(layer, x, mode).features,
                          apply_fused(fused, x, mode).features)
        worst_layer = max(worst_layer, dev)

    cfg = config_from_dict(ACCEPT_CONFIG)
    pillars = pillarize(accept_cloud(np.random.default_rng(0)), cfg.grid)
    train = random_network_weights(cfg.network, cfg.feature_length, 21, "train")
    fused_net = fuse_network(train)
    res_t = run_network(pillars, train, cfg.grid, cfg.network, 0.05, 50)
    res_f = run_network(pillars, fused_net, cfg.grid, cfg.network, 0.05, 50)
    net_dev = max_rel_dev(res_t.heatmap.features, res_f.heatmap.features)
    with capsys.disabled():
        report(4, f"fusion equivalence: 1000 layers worst {worst_layer:.2e} <= 1e-4, "
                  f"4-stage network {net_dev:.2e} <= 1e-3",
               worst_layer <= 1e-4 and net_dev <= 1e-3)


def test_criterion_5_coarse_detail_scheme(capsys):
    rng = np.random.default_rng(5)
    v = rng.uniform(-54.0, 54.0, size=1_000_000)
    v = np.minimum(v, np.nextafter(54.0, 0.0))
    coarse, detail = coarse_detail_split(v, -54.0, 54.0)
    worst = float(np.abs(coarse + detail - v).max())
    detail_step = effective_detail_step(-54.0, 54.0)
    single_step = coarse_resolution(-54.0, 54.0)
    ok = (worst <= 1e-6
          and detail_step == 108.0 / 65536.0 and detail_step < 0.002
          and 0.3 < single_step < 0.5)
    with capsys.disabled():
        report(5, f"coarse/detail: reconstruction worst {worst:.1e} <= 1e-6 over 1e6 "
                  f"coords; detail step {detail_step * 1000:.3f} mm < 2 mm; "
                  f"single-feature step {single_step:.4f} m ~ 0.4 m", ok)


def test_criterion_6_mac_counter(capsys):
    rng = np.random.default_rng(6)
    for case in range(200):
        w = int(rng.integers(4, 33))
        h = int(rng.integers(4, 33))
        occ = float(rng.uniform(0.05, 0.95))
        x = random_sparse(rng, w, h, 1, occupancy=occ)
        active = {tuple(c) for c in x.coords}
        mode = "submanifold" if case % 2 == 0 else "stride2"
        assert build_rulebook(x, 3, mode).pair_count() == \
            brute_force_taps(active, w, h, 3, mode), f"case {case} ({mode})"

    # fully dense grid must match the closed-form dense counts per layer
    cfg = config_from_dict({
        "grid": {"x_min": 0.0, "x_max": 2.4, "y_min": 0.0, "y_max": 2.4,
                 "pillar_size_x": 0.15, "pillar_size_y": 0.15,
                 "max_points_per_pillar": 1},
        "network": {"num_classes": 2, "stage_depths": [1, 1, 1, 1]},
    })
    w = cfg.grid.width
    xs = (np.arange(w) + 0.5) * 0.15
    pts = np.array([[x, y, 0.0, 1.0] for x in xs for y in xs], dtype=np.float32)
    report_obj = count_macs_network(PointCloud(data=pts), cfg.grid, cfg.network)
    by_name = {l.name: l for l in report_obj.layers}
    dims = w
    cin = cfg.network.encoder_out
    dense_ok = by_name["dbpfn"].macs == w * w * 9 * cfg.network.encoder_hidden
    for s in range(1, 5):
        cout = cfg.network.stage_channels[s - 1]
        dense_ok &= by_name[f"stage{s}.layer0"].macs == \
            dense_stride2_taps(dims, dims) * cin * cout
        dims = -(-dims // 2)
        dense_ok &= by_name[f"stage{s}.layer1"].macs == \
            dense_submanifold_taps(dims, dims) * cout * cout
        cin = cout

    budget_ok = (DEFAULT_BUDGET_GMAC == 30.0
                 and report_obj.within_budget == (report_obj.total_gmacs <= 30.0))
    with capsys.disabled():
        report(6, "MAC counter: 200 brute-force matches, dense closed form "
                  f"({report_obj.total_gmacs:.4f} GMAC), 30 GMAC budget flag",
               dense_ok and budget_ok)


def test_criterion_7_infer_determinism(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(ACCEPT_CONFIG))
    cloud_path = tmp_path / "cloud.bin"
    rng = np.random.default_rng(77)
    pts = np.column_stack([rng.uniform(-9.6, 9.6, 2000), rng.uniform(-9.6, 9.6, 2000),
                           rng.uniform(-5, 3, 2000), rng.uniform(0, 255, 2000),
                           rng.uniform(0, 31, 2000)]).astype("<f4")
    pts.tofile(cloud_path)
    weights = tmp_path / "w.bin"
    assert main(["gen-weights", "--config", str(cfg_path), "--seed", "0",
                 "--form", "fused", "--out", str(weights)]) == 0
    outputs = []
    runs = [None, None, None, None, None, "1", "4", "8"]
    for k, threads in enumerate(runs):
        out = tmp_path / f"det{k}.jsonl"
        argv = ["infer", "--weights", str(weights), "--cloud", str(cloud_path),
                "--config", str(cfg_path), "--out", str(out)]
        if threads:
            argv += ["--threads", threads]
        assert main(argv) == 0
        outputs.append(out.read_bytes())
    identical = all(o == outputs[0] for o in outputs)
    with capsys.disabled():
        report(7, f"infer byte-identical over {len(runs)} runs incl. threads 1/4/8 "
                  f"({len(outputs[0])} bytes each)", identical and len(outputs[0]) > 0)


def test_criterion_8_dual_bound_encoder(capsys):
    rng = np.random.default_rng(8)
    from test_network import manual_pillars

    params = DbpfnParams(weight=rng.normal(size=(9, 32)), bias=rng.normal(size=32))
    rows = rng.normal(size=(15, 9))
    perm_ok = True
    for _ in range(20):
        perm = rng.permutation(15)
        a = dbpfn_encode(manual_pillars(4, 4, [((1, 2), rows)], 9), params)
        b = dbpfn_encode(manual_pillars(4, 4, [((1, 2), rows[perm])], 9), params)
        perm_ok &= bool(np.array_equal(a.features, b.features))

    single = dbpfn_encode(manual_pillars(4, 4, [((0, 0), rows[:1])], 9), params)
    single_ok = np.array_equal(single.features[0, :32], single.features[0, 32:])
    width_ok = single.channels == 2 * 32
    with capsys.disabled():
        report(8, "dual-bound encoder: permutation-invariant, single-point max==min, "
                  "output width 2H", perm_ok and single_ok and width_ok)


def test_criterion_9_skip_connection_audit(capsys):
    cfg = config_from_dict(ACCEPT_CONFIG)
    train = random_network_weights(cfg.network, cfg.feature_length, 3, "train")
    fused = fuse_network(train)
    train_adds = residual_adds(train)
    ok = residual_adds(fused) == ["fusion.add3", "fusion.add4"] and len(train_adds) > 2
    with capsys.disabled():
        report(9, f"fused graph has exactly 2 residual adds (multi-scale fusion), "
                  f"training graph has {len(train_adds)}", ok)


def test_criterion_10_int8_float_agreement(capsys):
    cfg = config_from_dict(ACCEPT_CONFIG)
    rng = np.random.default_rng(10)
    pillars = pillarize(accept_cloud(rng), cfg.grid)
    weights = random_network_weights(cfg.network, cfg.feature_length, 9, "fused")
    collector = quantize.CalibrationCollector()
    collector(quantize.INPUT_FEATURES_SITE, pillars.features)
    res_f = run_network(pillars, weights, cfg.grid, cfg.network, 0.05, 50,
                        observer=collector)
    act = {s: collector.qparams(s) for s in quantize.activation_sites(cfg.network)}
    net8 = quantize.quantize_network(weights, collector.feature_qparams(), act)
    res_q = quantize.run_int8_network(pillars, net8, cfg.grid, cfg.network, 0.05, 50)
    qp = res_q.heatmap.qparams
    dequant = (res_q.heatmap.features.astype(np.float64) - qp.zero_point) * qp.scale
    mean_dev = float(np.abs(res_f.heatmap.features - dequant).mean()) / qp.scale
    with capsys.disabled():
        report(10, "trained-weights metrics not reproducible at desk scale; "
                   f"substitute int8-vs-float heatmap agreement: mean abs dev "
                   f"{mean_dev:.3f} scale units <= 3 (see README)", mean_dev <= 3.0)
