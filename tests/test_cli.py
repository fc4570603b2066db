import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lift import sparse
from lift.cli import main

CONFIG_DOC = {
    "grid": {"x_min": -4.8, "x_max": 4.8, "y_min": -4.8, "y_max": 4.8,
             "pillar_size_x": 0.15, "pillar_size_y": 0.15},
    "network": {"num_classes": 3, "stage_depths": [1, 2, 1, 1]},
    "decode": {"score_threshold": 0.05, "top_k": 16},
}


def write_cloud(path, n=400, seed=0, stride=5):
    rng = np.random.default_rng(seed)
    cols = [rng.uniform(-4.8, 4.8, n), rng.uniform(-4.8, 4.8, n),
            rng.uniform(-5, 3, n), rng.uniform(0, 255, n)]
    if stride == 5:
        cols.append(rng.uniform(0, 31, n))
    np.column_stack(cols).astype("<f4").tofile(path)


@pytest.fixture
def workspace(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(CONFIG_DOC))
    cloud_path = tmp_path / "cloud.bin"
    write_cloud(cloud_path)
    return tmp_path, str(cfg_path), str(cloud_path)


def gen(tmp_path, cfg_path, form, seed=0, name=None):
    out = tmp_path / (name or f"{form}{seed}.w")
    assert main(["gen-weights", "--config", cfg_path, "--seed", str(seed),
                 "--form", form, "--out", str(out)]) == 0
    return str(out)


class TestGenWeights:
    def test_same_seed_same_bytes(self, workspace):
        tmp_path, cfg_path, _ = workspace
        a = gen(tmp_path, cfg_path, "fused", 0, "a.w")
        b = gen(tmp_path, cfg_path, "fused", 0, "b.w")
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_different_seed_different_bytes(self, workspace):
        tmp_path, cfg_path, _ = workspace
        a = gen(tmp_path, cfg_path, "fused", 0, "a.w")
        b = gen(tmp_path, cfg_path, "fused", 1, "b.w")
        assert open(a, "rb").read() != open(b, "rb").read()

    def test_generated_file_loads(self, workspace):
        from lift.weights_io import read_weight_file, records_to_float_network
        tmp_path, cfg_path, _ = workspace
        path = gen(tmp_path, cfg_path, "train")
        weights = records_to_float_network(read_weight_file(path))
        assert weights.form == "train"


class TestInfer:
    def test_empty_cloud(self, workspace, tmp_path):
        _, cfg_path, _ = workspace
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        weights = gen(tmp_path, cfg_path, "fused")
        out = tmp_path / "det.jsonl"
        assert main(["infer", "--weights", weights, "--cloud", str(empty),
                     "--config", cfg_path, "--out", str(out)]) == 0
        assert out.read_bytes() == b""

    def test_detections_written(self, workspace):
        tmp_path, cfg_path, cloud = workspace
        weights = gen(tmp_path, cfg_path, "fused")
        out = tmp_path / "det.jsonl"
        assert main(["infer", "--weights", weights, "--cloud", cloud,
                     "--config", cfg_path, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert 0 < len(lines) <= 16
        first = json.loads(lines[0])
        assert set(first) == {"class_id", "class_name", "score", "x", "y", "z",
                              "l", "w", "h", "yaw"}

    def test_deterministic_across_runs_and_threads(self, workspace):
        tmp_path, cfg_path, cloud = workspace
        weights = gen(tmp_path, cfg_path, "fused")
        outputs = []
        for run, threads in enumerate(["1", "4", "1", "8", "1"]):
            out = tmp_path / f"det{run}.jsonl"
            assert main(["infer", "--weights", weights, "--cloud", cloud,
                         "--config", cfg_path, "--out", str(out),
                         "--threads", threads]) == 0
            outputs.append(out.read_bytes())
        assert all(o == outputs[0] for o in outputs)

    def test_multi_tile_convs_byte_identical_across_threads(self, tmp_path, monkeypatch):
        """Stage 1 runs ~4k rows here (several tiles), so threads > 1
        takes the path where workers split the tiles and BLAS runs one
        thread; float and int8 must give the same bytes at every count."""
        from test_acceptance import ACCEPT_CONFIG
        run_tiles, split = sparse._run_tiles, []

        def spy(tile, tiles, threads):
            split.append(threads > 1 and len(tiles) > 1)
            return run_tiles(tile, tiles, threads)

        monkeypatch.setattr(sparse, "_run_tiles", spy)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(ACCEPT_CONFIG))
        (tmp_path / "cal").mkdir()
        cloud = tmp_path / "cal" / "cloud.bin"
        rng = np.random.default_rng(9)
        n = 8000
        np.column_stack([rng.uniform(-9.6, 9.6, n), rng.uniform(-9.6, 9.6, n),
                         rng.uniform(-5, 3, n), rng.uniform(0, 255, n),
                         rng.uniform(0, 31, n)]).astype("<f4").tofile(cloud)
        weights = gen(tmp_path, str(cfg_path), "fused")
        int8 = tmp_path / "int8.w"
        assert main(["calibrate", "--weights", weights, "--clouds", str(tmp_path / "cal"),
                     "--config", str(cfg_path), "--out", str(int8)]) == 0
        for path in (weights, str(int8)):
            outputs = []
            for threads in ("1", "2", "4", None):
                out = tmp_path / "det.jsonl"
                argv = ["infer", "--weights", path, "--cloud", str(cloud),
                        "--config", str(cfg_path), "--out", str(out)]
                assert main(argv + (["--threads", threads] if threads else [])) == 0
                outputs.append(out.read_bytes())
            assert outputs[0] and all(o == outputs[0] for o in outputs)
        # at least two multi-tile stage-1 convs at --threads 2 and 4, float and int8
        assert sum(split) >= 2 * 2 * 2

    def test_shape_mismatch_exit2_names_tensor(self, workspace, capsys):
        tmp_path, cfg_path, cloud = workspace
        other_doc = dict(CONFIG_DOC, network={"num_classes": 5,
                                              "stage_depths": [1, 2, 1, 1]})
        other_cfg = tmp_path / "other.json"
        other_cfg.write_text(json.dumps(other_doc))
        weights = gen(tmp_path, cfg_path, "fused")
        out = tmp_path / "det.jsonl"
        assert main(["infer", "--weights", weights, "--cloud", cloud,
                     "--config", str(other_cfg), "--out", str(out)]) == 2
        assert "head.cls.out.kernel" in capsys.readouterr().err

    def test_int8_flag_on_float_file_fails(self, workspace):
        tmp_path, cfg_path, cloud = workspace
        weights = gen(tmp_path, cfg_path, "fused")
        assert main(["infer", "--weights", weights, "--cloud", cloud,
                     "--config", cfg_path, "--out", str(tmp_path / "d.jsonl"),
                     "--int8"]) == 2

    def test_training_form_inference_works(self, workspace):
        tmp_path, cfg_path, cloud = workspace
        weights = gen(tmp_path, cfg_path, "train")
        out = tmp_path / "det.jsonl"
        assert main(["infer", "--weights", weights, "--cloud", cloud,
                     "--config", cfg_path, "--out", str(out)]) == 0


class TestFuse:
    def test_fuse_writes_and_reports_deviation(self, workspace, capsys):
        tmp_path, cfg_path, _ = workspace
        train = gen(tmp_path, cfg_path, "train")
        fused = tmp_path / "fused.w"
        assert main(["fuse", "--weights-train", train, "--out", str(fused)]) == 0
        printed = capsys.readouterr().out
        deviation = float(printed.strip().rsplit(" ", 1)[-1])
        assert deviation <= 1e-4

    def test_fused_output_matches_training_inference(self, workspace):
        tmp_path, cfg_path, cloud = workspace
        train = gen(tmp_path, cfg_path, "train")
        fused = tmp_path / "fused.w"
        main(["fuse", "--weights-train", train, "--out", str(fused)])
        out_t = tmp_path / "t.jsonl"
        out_f = tmp_path / "f.jsonl"
        main(["infer", "--weights", train, "--cloud", cloud,
              "--config", cfg_path, "--out", str(out_t)])
        main(["infer", "--weights", str(fused), "--cloud", cloud,
              "--config", cfg_path, "--out", str(out_f)])
        rows_t = [json.loads(l) for l in out_t.read_text().splitlines()]
        rows_f = [json.loads(l) for l in out_f.read_text().splitlines()]
        assert [r["class_id"] for r in rows_t] == [r["class_id"] for r in rows_f]
        for a, b in zip(rows_t, rows_f):
            assert a["score"] == pytest.approx(b["score"], rel=1e-3, abs=1e-6)

    def test_refuse_already_fused(self, workspace):
        tmp_path, cfg_path, _ = workspace
        fused_src = gen(tmp_path, cfg_path, "fused")
        assert main(["fuse", "--weights-train", fused_src,
                     "--out", str(tmp_path / "x.w")]) == 2

    def test_identity_initialized_layers_fuse_exactly(self, workspace, capsys):
        import lift.network as network
        from lift.config import load_config
        from lift.reparam import BnParams, RepConvLayer
        from lift.weights_io import float_network_records, write_weight_file

        tmp_path, cfg_path, _ = workspace
        cfg = load_config(cfg_path)
        seeded = network.random_network_weights(cfg.network, cfg.feature_length,
                                                0, "train")
        layers = {}
        for name, layer in seeded.layers.items():
            if not isinstance(layer, RepConvLayer):
                layers[name] = layer
                continue
            cin, cout = layer.cin, layer.cout
            layers[name] = RepConvLayer(
                kernel3=np.zeros((3, 3, cin, cout)),
                bn3=BnParams.identity(cout),
                kernel1=np.zeros((1, 1, cin, cout)),
                bn1=BnParams.identity(cout),
                identity_bn=None if layer.identity_bn is None
                else BnParams.identity(cout))
        identity_net = network.NetworkWeights(form="train", dbpfn=seeded.dbpfn,
                                              ops=seeded.ops, layers=layers)
        train_path = tmp_path / "identity.w"
        write_weight_file(train_path, float_network_records(identity_net))
        assert main(["fuse", "--weights-train", str(train_path),
                     "--out", str(tmp_path / "identity_fused.w")]) == 0
        deviation = float(capsys.readouterr().out.strip().rsplit(" ", 1)[-1])
        assert deviation == 0.0

    @pytest.mark.parametrize("command", ["infer", "fuse"])
    def test_identity_branch_on_a_stride2_layer_is_named(self, workspace, capsys,
                                                         command):
        from lift.weights_io import TensorRecord, read_weight_file, write_weight_file

        tmp_path, cfg_path, cloud = workspace
        records = read_weight_file(gen(tmp_path, cfg_path, "train"))
        kernel = next(r for r in records if r.name == "stage1.layer0.branch3x3.kernel")
        records += [TensorRecord(f"stage1.layer0.identity.bn.{p}",
                                 np.ones(kernel.data.shape[3], dtype=np.float32))
                    for p in ("gamma", "beta", "mean", "var")]
        path = tmp_path / "stray.w"
        write_weight_file(path, records)
        capsys.readouterr()
        out = str(tmp_path / "out")
        argv = (["infer", "--weights", str(path), "--cloud", cloud,
                 "--config", cfg_path, "--out", out] if command == "infer"
                else ["fuse", "--weights-train", str(path), "--out", out])
        assert main(argv) == 2
        assert "unexpected tensor 'stage1.layer0.identity.bn.beta'" in \
            capsys.readouterr().err


@pytest.mark.parametrize("command, form, name, value", [
    ("infer", "fused", "stage2.layer1.fused.kernel", np.inf),
    ("fuse", "train", "stage2.layer1.branch1x1.bn.var", np.nan),
])
def test_non_finite_float_tensor_exit2_names_it(workspace, capsys, command, form, name,
                                                value):
    from lift.weights_io import read_weight_file, write_weight_file

    tmp_path, cfg_path, _ = workspace
    records = read_weight_file(gen(tmp_path, cfg_path, form))
    next(r for r in records if r.name == name).data.flat[5] = value
    path = tmp_path / "non-finite.w"
    write_weight_file(path, records)
    capsys.readouterr()
    out = str(tmp_path / "out")
    # the cloud is absent: the file is refused before any cloud is read
    argv = (["infer", "--weights", str(path), "--cloud", str(tmp_path / "absent.bin"),
             "--config", cfg_path, "--out", out] if command == "infer"
            else ["fuse", "--weights-train", str(path), "--out", out])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"tensor {name!r}" in err and "not finite" in err
    assert "absent.bin" not in err and "Traceback" not in err


class TestMacs:
    def test_empty_cloud_passes(self, workspace, tmp_path, capsys):
        _, cfg_path, _ = workspace
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        assert main(["macs", "--cloud", str(empty), "--config", cfg_path]) == 0
        assert "0.00 GMAC" in capsys.readouterr().out

    def test_json_output(self, workspace, capsys):
        _, cfg_path, cloud = workspace
        assert main(["macs", "--cloud", cloud, "--config", cfg_path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["within_budget"] is True
        assert doc["budget_gmacs"] == 30.0
        layers = doc["clouds"][0]["layers"]
        assert layers[0]["name"] == "dbpfn"

    def test_directory_aggregation(self, workspace, tmp_path, capsys):
        _, cfg_path, _ = workspace
        clouds = tmp_path / "clouds"
        clouds.mkdir()
        write_cloud(clouds / "a.bin", n=100, seed=1)
        write_cloud(clouds / "b.bin", n=200, seed=2)
        assert main(["macs", "--cloud", str(clouds), "--config", cfg_path]) == 0
        assert "mean over 2 clouds" in capsys.readouterr().out

    def test_over_budget_exits_1(self, tmp_path, capsys):
        # a fully dense default-range grid costs ~68 GMAC, over the 30 budget
        cfg_path = tmp_path / "default.json"
        cfg_path.write_text("{}")
        w = 720
        ii, jj = np.meshgrid(np.arange(w), np.arange(w))
        pts = np.column_stack([
            -54.0 + (ii.ravel() + 0.5) * 0.15, -54.0 + (jj.ravel() + 0.5) * 0.15,
            np.zeros(w * w), np.ones(w * w)]).astype("<f4")
        cloud = tmp_path / "dense.bin"
        pts.tofile(cloud)
        assert main(["macs", "--cloud", str(cloud), "--config", str(cfg_path),
                     "--stride", "4"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestOcm:
    def test_reference_constants(self, capsys):
        assert main(["ocm", "--dims", "640,720,40", "--context", "3,3,3"]) == 0
        assert capsys.readouterr().out.strip() == "52483"
        assert main(["ocm", "--dims", "640,720", "--context", "3,3"]) == 0
        assert capsys.readouterr().out.strip() == "1283"

    def test_even_context_exit2(self):
        assert main(["ocm", "--dims", "64,64", "--context", "2,3"]) == 2

    def test_a_zero_dimension_exit2_names_the_cause(self, capsys):
        assert main(["ocm", "--dims", "0,720", "--context", "3,3"]) == 2
        assert capsys.readouterr().err == "error: dims and context must be positive\n"


class TestCalibrate:
    def run_calibrate(self, workspace, tmp_path):
        _, cfg_path, cloud = workspace
        clouds = tmp_path / "cal"
        clouds.mkdir()
        write_cloud(clouds / "a.bin", n=500, seed=3)
        weights = gen(tmp_path, cfg_path, "fused")
        int8_path = tmp_path / "int8.w"
        code = main(["calibrate", "--weights", weights, "--clouds", str(clouds),
                     "--config", cfg_path, "--out", str(int8_path)])
        return code, cfg_path, cloud, str(int8_path)

    def test_calibrated_file_infers_deterministically(self, workspace, tmp_path):
        code, cfg_path, cloud, int8_path = self.run_calibrate(workspace, tmp_path)
        assert code == 0
        outputs = []
        for run, threads in enumerate(["1", "4", "1"]):
            out = tmp_path / f"det8_{run}.jsonl"
            assert main(["infer", "--weights", int8_path, "--cloud", cloud,
                         "--config", cfg_path, "--out", str(out),
                         "--threads", threads]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] and all(o == outputs[0] for o in outputs)

    def test_empty_directory_exit2(self, workspace, tmp_path):
        _, cfg_path, _ = workspace
        empty_dir = tmp_path / "none"
        empty_dir.mkdir()
        weights = gen(tmp_path, cfg_path, "fused")
        assert main(["calibrate", "--weights", weights, "--clouds", str(empty_dir),
                     "--config", cfg_path, "--out", str(tmp_path / "x.w")]) == 2

    def test_a_directory_of_empty_clouds_exit2_names_the_site(self, workspace, tmp_path,
                                                              capsys):
        _, cfg_path, _ = workspace
        clouds = tmp_path / "empty_clouds"
        clouds.mkdir()
        for name in ("a.bin", "b.bin"):
            (clouds / name).write_bytes(b"")
        weights = gen(tmp_path, cfg_path, "fused")
        capsys.readouterr()
        assert main(["calibrate", "--weights", weights, "--clouds", str(clouds),
                     "--config", cfg_path, "--out", str(tmp_path / "x.w")]) == 2
        assert capsys.readouterr().err.startswith(
            "error: activation site 'dbpfn.out' was never observed")
        assert not (tmp_path / "x.w").exists()

    def test_float_flag_on_int8_file_fails(self, workspace, tmp_path):
        code, cfg_path, cloud, int8_path = self.run_calibrate(workspace, tmp_path)
        assert code == 0
        assert main(["infer", "--weights", int8_path, "--cloud", cloud,
                     "--config", cfg_path, "--out", str(tmp_path / "d.jsonl"),
                     "--float"]) == 2

    def test_deterministic(self, workspace, tmp_path):
        _, cfg_path, _ = workspace
        clouds = tmp_path / "cal"
        clouds.mkdir()
        write_cloud(clouds / "a.bin", n=300, seed=3)
        write_cloud(clouds / "b.bin", n=300, seed=4)
        weights = gen(tmp_path, cfg_path, "fused")
        p1, p2 = tmp_path / "c1.w", tmp_path / "c2.w"
        assert main(["calibrate", "--weights", weights, "--clouds", str(clouds),
                     "--config", cfg_path, "--out", str(p1)]) == 0
        assert main(["calibrate", "--weights", weights, "--clouds", str(clouds),
                     "--config", cfg_path, "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_percentile_mode_calibrates_and_infers(self, workspace, tmp_path, monkeypatch):
        from lift import quantize
        from lift.config import load_config
        from lift.quant import calibrate

        _, _, cloud = workspace
        cfg_path = tmp_path / "percentile.json"
        cfg_path.write_text(json.dumps(dict(CONFIG_DOC, calibration={
            "mode": "percentile", "percentile": 99.0})))
        clouds = tmp_path / "cal"
        clouds.mkdir()
        write_cloud(clouds / "a.bin", n=500, seed=3)
        write_cloud(clouds / "b.bin", n=500, seed=4)
        made, collector = [], quantize.CalibrationCollector
        monkeypatch.setattr(quantize, "CalibrationCollector",
                            lambda **kw: made.append(collector(**kw)) or made[-1])
        int8_path = tmp_path / "int8.w"
        assert main(["calibrate", "--weights", gen(tmp_path, str(cfg_path), "fused"),
                     "--clouds", str(clouds), "--config", str(cfg_path),
                     "--out", str(int8_path)]) == 0
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"det8_{threads}.jsonl"
            assert main(["infer", "--weights", str(int8_path), "--cloud", cloud,
                         "--config", str(cfg_path), "--out", str(out),
                         "--threads", threads]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] and outputs[0] == outputs[1]
        # clipping |values| at a percentile only narrows each site's range
        (c,) = made
        assert (c.mode, c.percentile) == ("percentile", 99.0)
        pairs = [(c.qparams(site).scale, calibrate([c.lo[site], c.hi[site]]).scale)
                 for site in quantize.activation_sites(load_config(cfg_path).network)]
        lo, hi = c.lo[quantize.INPUT_FEATURES_SITE], c.hi[quantize.INPUT_FEATURES_SITE]
        pairs += [(qp.scale, calibrate([lo[f], hi[f]]).scale)
                  for f, qp in enumerate(c.feature_qparams())]
        assert all(p <= m for p, m in pairs)
        assert any(p < m for p, m in pairs)

    def test_training_form_file_calibrates(self, workspace, tmp_path):
        # calibrate fuses in float64; `lift fuse` rounds its output to f32
        # first, so the two int8 files differ and are not compared here
        _, cfg_path, cloud = workspace
        clouds = tmp_path / "cal"
        clouds.mkdir()
        write_cloud(clouds / "a.bin", n=500, seed=3)
        int8_path = tmp_path / "int8.w"
        assert main(["calibrate", "--weights", gen(tmp_path, cfg_path, "train"),
                     "--clouds", str(clouds), "--config", cfg_path,
                     "--out", str(int8_path)]) == 0
        assert main(["infer", "--weights", str(int8_path), "--cloud", cloud,
                     "--config", cfg_path, "--out", str(tmp_path / "d.jsonl"),
                     "--int8"]) == 0

    def test_int8_file_is_refused(self, workspace, tmp_path, capsys):
        code, cfg_path, _, int8_path = self.run_calibrate(workspace, tmp_path)
        assert code == 0
        capsys.readouterr()
        out = tmp_path / "again.w"
        assert main(["calibrate", "--weights", int8_path, "--clouds", str(tmp_path / "cal"),
                     "--config", cfg_path, "--out", str(out)]) == 2
        assert "already int8-quantized" in capsys.readouterr().err and not out.exists()


def test_module_entry_point(workspace):
    def run(*argv):
        return subprocess.run([sys.executable, "-m", "lift", *argv],
                              capture_output=True, text=True)

    proc = run("ocm", "--dims", "640,720,40", "--context", "3,3,3")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "52483"
    proc = run("ocm", "--dims", "640,720", "--context", "3,3")   # the README's example
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1283"
    proc = run("--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: lift")


def test_env_var_thread_fallback(workspace, monkeypatch):
    tmp_path, cfg_path, cloud = workspace
    weights = gen(tmp_path, cfg_path, "fused")
    out1 = tmp_path / "e1.jsonl"
    out2 = tmp_path / "e2.jsonl"
    monkeypatch.setenv("LIFT_THREADS", "3")
    assert main(["infer", "--weights", weights, "--cloud", cloud,
                 "--config", cfg_path, "--out", str(out1)]) == 0
    monkeypatch.delenv("LIFT_THREADS")
    assert main(["infer", "--weights", weights, "--cloud", cloud,
                 "--config", cfg_path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_threads_default_to_usable_cores_with_the_blas_switch(workspace, monkeypatch, capsys):
    tmp_path, cfg_path, cloud = workspace
    monkeypatch.delenv("LIFT_THREADS", raising=False)
    weights = gen(tmp_path, cfg_path, "fused")
    argv = ["infer", "--weights", weights, "--cloud", cloud, "--config", cfg_path,
            "--out", str(tmp_path / "d.jsonl")]
    cores = len(os.sched_getaffinity(0)) if sparse.blas_thread_handle() else 1
    assert main(argv) == 0
    assert f"(float, {cores} thread(s))" in capsys.readouterr().err
    monkeypatch.setattr(sparse, "blas_thread_handle", lambda: None)
    assert main(argv) == 0
    assert "(float, 1 thread(s))" in capsys.readouterr().err


@pytest.mark.parametrize("flag, env, source", [
    ("0", None, "--threads"), ("-3", None, "--threads"),
    (None, "0", "LIFT_THREADS"), (None, "abc", "LIFT_THREADS"), (None, "-2", "LIFT_THREADS")])
@pytest.mark.parametrize("command", ["infer", "calibrate"])
def test_invalid_thread_count_exit2_names_its_source(workspace, monkeypatch, capsys,
                                                     flag, env, source, command):
    tmp_path, cfg_path, cloud = workspace
    weights = gen(tmp_path, cfg_path, "fused")
    monkeypatch.delenv("LIFT_THREADS", raising=False)
    if env is not None:
        monkeypatch.setenv("LIFT_THREADS", env)
    argv = ["--weights", weights, "--config", cfg_path, "--out", str(tmp_path / "o")]
    argv = [command] + argv + (["--cloud", cloud] if command == "infer"
                               else ["--clouds", str(tmp_path)])
    if flag is not None:
        argv += ["--threads", flag]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{source} must be a positive integer" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_non_integer_threads_flag_exit2_names_it(workspace, capsys):
    tmp_path, cfg_path, cloud = workspace
    with pytest.raises(SystemExit) as exc:
        main(["infer", "--weights", "w", "--cloud", cloud, "--config", cfg_path,
              "--out", str(tmp_path / "o"), "--threads", "abc"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


class TestInt8Contract:
    """Int8 files that break the weight contract or the op wiring are
    rejected at load with exit 2 and the tensor named."""

    def infer_mutated(self, workspace, tmp_path, capsys, name, mutate, cloud=None):
        from lift.weights_io import read_weight_file, write_weight_file

        code, cfg_path, cal_cloud, int8_path = TestCalibrate().run_calibrate(workspace,
                                                                             tmp_path)
        assert code == 0
        cloud = cloud or cal_cloud
        records = read_weight_file(int8_path)
        by_name = {r.name: r for r in records}
        mutate(by_name)
        path = tmp_path / "mutated.w"
        write_weight_file(path, records)
        capsys.readouterr()
        code = main(["infer", "--weights", str(path), "--cloud", cloud,
                     "--config", cfg_path, "--out", str(tmp_path / "d.jsonl")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert name in err and "Traceback" not in err
        return err

    def test_nonzero_weight_zero_point(self, workspace, tmp_path, capsys):
        from lift.weights_io import TensorQuant

        name = "stage1.layer1.fused.kernel"

        def mutate(recs):
            q = recs[name].quant
            recs[name].quant = TensorQuant(axis=q.axis, scales=q.scales,
                                           zero_points=np.full_like(q.zero_points, 7))
        self.infer_mutated(workspace, tmp_path, capsys, name, mutate)

    def test_negative_weight_scales(self, workspace, tmp_path, capsys):
        from lift.weights_io import TensorQuant

        name = "head.cls.out.kernel"

        def mutate(recs):
            q = recs[name].quant
            recs[name].quant = TensorQuant(axis=q.axis, scales=-q.scales,
                                           zero_points=q.zero_points)
        self.infer_mutated(workspace, tmp_path, capsys, name, mutate)

    def test_3x3_align_kernel(self, workspace, tmp_path, capsys):
        name = "align.kernel"

        def mutate(recs):
            _, _, cin, cout = recs[name].data.shape
            recs[name].data = np.ones((3, 3, cin, cout), dtype=np.int8)
        self.infer_mutated(workspace, tmp_path, capsys, name, mutate)

    def test_six_channel_regression_output(self, workspace, tmp_path, capsys):
        from lift.weights_io import TensorQuant

        name = "head.reg.out.kernel"

        def mutate(recs):
            kernel, bias = recs[name], recs["head.reg.out.bias"]
            kernel.data = kernel.data[..., :6].copy()
            kernel.quant = TensorQuant(axis=3, scales=kernel.quant.scales[:6],
                                       zero_points=kernel.quant.zero_points[:6])
            bias.data = bias.data[:6].copy()
        self.infer_mutated(workspace, tmp_path, capsys, name, mutate)

    @pytest.mark.parametrize("name, cause", [
        ("stage2.layer1.fused.bias", "expected dims (64,), got (63,)"),
        ("dbpfn.linear.weight", "expected rank 2")])
    def test_tensor_of_the_wrong_shape(self, workspace, tmp_path, capsys, name, cause):
        def mutate(recs):
            data = recs[name].data
            recs[name].data = data[:-1].copy() if data.ndim == 1 else data[None]
        err = self.infer_mutated(workspace, tmp_path, capsys, name, mutate)
        assert cause in err

    def test_act_site_with_two_values(self, workspace, tmp_path, capsys):
        name = "act.stage2.layer1.out.scale"

        def mutate(recs):
            for param in ("scale", "zero_point"):
                rec = recs[f"act.stage2.layer1.out.{param}"]
                rec.data = np.repeat(rec.data, 2)
        err = self.infer_mutated(workspace, tmp_path, capsys, name, mutate)
        assert "expected 1 value, got 2" in err

    @pytest.mark.parametrize("change, cause", [
        ("scale_count", "63 scales for 64 channels"),
        ("axis", "expected channel axis 3"),
        ("f32_data", "expected quantized int8 data")])
    def test_kernel_breaking_the_int8_layout(self, workspace, tmp_path, capsys, change,
                                             cause):
        from lift.weights_io import TensorQuant

        name = "stage1.layer1.fused.kernel"

        def mutate(recs):
            rec = recs[name]
            q = rec.quant
            if change == "scale_count":
                rec.quant = TensorQuant(axis=3, scales=q.scales[:-1],
                                        zero_points=q.zero_points[:-1])
            elif change == "axis":
                rec.quant = TensorQuant(axis=2, scales=q.scales, zero_points=q.zero_points)
            else:
                rec.data, rec.quant = rec.data.astype(np.float32), None
        err = self.infer_mutated(workspace, tmp_path, capsys, name, mutate)
        assert cause in err

    @pytest.mark.parametrize("name, value", [
        ("act.align.out.zero_point", 1.6),
        ("act.stage2.layer1.out.zero_point", 300.0),
        ("input_features.zero_point", np.nan),
        ("act.dbpfn.out.scale", -1.0),
        ("input_features.scale", np.inf),
        ("stage2.layer1.fused.bias", 1e6),
        ("head.cls.conv.bias", np.nan),
        ("dbpfn.linear.bias", 1e30),
    ])
    def test_bad_quant_param_or_bias(self, workspace, tmp_path, capsys, name, value):
        def mutate(recs):
            recs[name].data[0] = value
        self.infer_mutated(workspace, tmp_path, capsys, name, mutate)

    @pytest.mark.parametrize("site, op", [("dbpfn.out", "dbpfn"),
                                          ("stage3.layer1.out", "stage3.layer1"),
                                          ("fusion.add3.out", "fusion.add3")])
    def test_act_scale_giving_a_factor_above_1(self, workspace, tmp_path, capsys, site, op):
        # shrinking an op's output scale 10^6-fold pushes its requantization
        # factors s_in * s_w / s_out above 1; the reader refuses the file
        # before the cloud (absent here) is read
        name = f"act.{site}.scale"

        def mutate(recs):
            recs[name].data[0] /= 1e6
        err = self.infer_mutated(workspace, tmp_path, capsys, name, mutate,
                                 cloud=str(tmp_path / "absent.bin"))
        assert f"op {op!r}" in err and "above 1" in err and "absent.bin" not in err

    def test_act_scale_giving_a_factor_just_below_1(self, workspace, tmp_path, capsys):
        # every value f32: s_in = (1 - 2^-20) * 2^m, s_w = 1 + 2^-20 and
        # s_out = 2^m give head.reg.out the factor 1 - 2^-40, which no Q31
        # multiplier with a right shift encodes; rejected at load, not run
        name = "act.head.reg.out.scale"

        def mutate(recs):
            in_scale = recs["act.head.reg.conv.out.scale"].data
            m = int(np.ceil(np.log2(float(in_scale[0])))) + 1
            in_scale[0] = (1 - 2.0 ** -20) * 2.0 ** m
            kernel = recs["head.reg.out.kernel"]
            kernel.quant.scales[:] = 1 + 2.0 ** -20
            recs[name].data[0] = 2.0 ** m
            factor = float(in_scale[0]) * float(kernel.quant.scales[0]) / 2.0 ** m
            assert factor == 1 - 2.0 ** -40
        err = self.infer_mutated(workspace, tmp_path, capsys, name, mutate,
                                 cloud=str(tmp_path / "absent.bin"))
        assert "op 'head.reg.out'" in err and "absent.bin" not in err


def test_calibrate_rejects_a_bias_past_the_accumulator_bound(workspace, tmp_path, capsys):
    from lift.weights_io import read_weight_file, write_weight_file

    tmp_path, cfg_path, _ = workspace
    clouds = tmp_path / "cal"
    clouds.mkdir()
    write_cloud(clouds / "a.bin", n=500, seed=3)
    records = read_weight_file(gen(tmp_path, cfg_path, "fused"))
    {r.name: r for r in records}["stage2.layer1.fused.bias"].data[0] = 1e6
    weights, out = tmp_path / "big_bias.w", tmp_path / "int8.w"
    write_weight_file(weights, records)
    assert main(["calibrate", "--weights", str(weights), "--clouds", str(clouds),
                 "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "op 'stage2.layer1'" in err and "Traceback" not in err
    assert not out.exists()


def test_calibrate_reads_back_what_it_would_write(workspace, tmp_path, capsys, monkeypatch):
    # the file holds f32 copies of the scales: a bias the float64 scales
    # keep inside the accumulator bound, but the stored ones do not, is
    # refused by calibrate as infer would refuse it, and nothing is written
    from lift import quantize
    from lift.weights_io import read_weight_file, write_weight_file

    tmp_path, cfg_path, _ = workspace
    clouds = tmp_path / "cal"
    clouds.mkdir()
    write_cloud(clouds / "a.bin", n=500, seed=3)
    path = gen(tmp_path, cfg_path, "fused")
    built = []
    quantize_network = quantize.quantize_network
    monkeypatch.setattr(quantize, "quantize_network",
                        lambda *args: built.append(quantize_network(*args)) or built[-1])
    argv = ["calibrate", "--clouds", str(clouds), "--config", cfg_path]
    assert main(argv + ["--weights", path, "--out", str(tmp_path / "int8.w")]) == 0

    op = "stage2.layer1"
    layer, in_scale = built[0].layers[op], built[0].act["stage2.layer0.out"].scale
    limit = 2 ** 31 - layer.q_weight.size // layer.cout * 255 * 128

    def stored_only(c):
        """The largest f32 bias of channel c the float64 check passes, if
        the stored check refuses it."""
        step = in_scale * layer.weight_scales[c]
        step32 = float(np.float32(in_scale)) * float(np.float32(layer.weight_scales[c]))
        b = np.float32(limit * step)
        while np.rint(float(b) / step) >= limit:
            b = np.nextafter(b, np.float32(0))
        return float(b) if np.rint(float(b) / step32) >= limit else None

    c, bias = next((c, b) for c in range(layer.cout) if (b := stored_only(c)) is not None)
    records = read_weight_file(path)
    {r.name: r for r in records}[f"{op}.fused.bias"].data[c] = bias
    write_weight_file(path, records)
    capsys.readouterr()
    out = tmp_path / "refused.w"
    assert main(argv + ["--weights", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"tensor '{op}.fused.bias': op '{op}'" in err and "int32 accumulator" in err
    assert len(built) == 2 and not out.exists()


TINY_CONFIG_DOC = dict(CONFIG_DOC, network={
    "encoder_out": 8, "stage_channels": [8, 8, 8, 8], "align_channels": 8,
    "num_classes": 3, "stage_depths": [1, 1, 1, 1]})


@pytest.fixture(scope="module")
def tiny_int8_file(tmp_path_factory):
    """A calibrated int8 file small enough that byte mutations often land
    in headers, quant blocks and f32 tensors, not only kernel payloads."""
    tmp_path = tmp_path_factory.mktemp("fuzz")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG_DOC))
    (tmp_path / "cal").mkdir()
    write_cloud(tmp_path / "cal" / "a.bin", n=500, seed=3)
    write_cloud(tmp_path / "cloud.bin")
    int8_path = tmp_path / "int8.w"
    assert main(["calibrate", "--weights", gen(tmp_path, str(cfg_path), "fused"),
                 "--clouds", str(tmp_path / "cal"), "--config", str(cfg_path),
                 "--out", str(int8_path)]) == 0
    return tmp_path, int8_path.read_bytes()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2 ** 31), st.integers(1, 255)),
                min_size=1, max_size=4))
def test_mutated_int8_file_exits_0_or_2(tiny_int8_file, mutations):
    tmp_path, raw = tiny_int8_file
    data = bytearray(raw)
    for pos, flip in mutations:
        data[pos % len(data)] ^= flip
    path = tmp_path / "mutated.w"
    path.write_bytes(data)
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(["infer", "--weights", str(path), "--cloud", str(tmp_path / "cloud.bin"),
                     "--config", str(tmp_path / "config.json"),
                     "--out", str(tmp_path / "d.jsonl"), "--threads", "1"])
    assert code in (0, 2)


def test_a_per_tensor_int8_block_exit2_names_file_and_tensor(tiny_int8_file, capsys):
    tmp_path, raw = tiny_int8_file
    name = "dbpfn.linear.weight"
    data = bytearray(raw)
    at = data.index(name.encode()) + len(name) + 2 + 4 * 2   # dtype, rank, two dims
    assert data[at] == 1
    data[at] = 0
    path = tmp_path / "per_tensor.w"
    path.write_bytes(data)
    capsys.readouterr()
    assert main(["infer", "--weights", str(path), "--cloud", str(tmp_path / "cloud.bin"),
                 "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / "per_tensor.jsonl")]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {path}: tensor {name!r}: bad per_channel flag 0")
    assert not (tmp_path / "per_tensor.jsonl").exists()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("mode", ["float", "int8"])
@pytest.mark.parametrize("cloud", ["empty.bin", "comments.txt", "out_of_range.bin"])
def test_a_cloud_without_pillars_writes_no_detections(tiny_int8_file, capsys, cloud, mode,
                                                      threads):
    tmp_path, _ = tiny_int8_file
    path = tmp_path / cloud
    if cloud == "empty.bin":
        path.write_bytes(b"")
    elif cloud == "comments.txt":
        path.write_text("# x y z intensity\n\n# no points\n")
    else:   # past x_max, below y_min and above z_max
        np.array([[9.0, 0, 0, 1, 0], [0, -9.0, 0, 1, 0], [0, 0, 7.0, 1, 0]],
                 dtype="<f4").tofile(path)
    weights = tmp_path / ("int8.w" if mode == "int8" else "fused0.w")
    out = tmp_path / f"{cloud}.{mode}.{threads}.jsonl"
    capsys.readouterr()
    assert main(["infer", "--weights", str(weights), "--cloud", str(path),
                 "--config", str(tmp_path / "config.json"), "--out", str(out),
                 f"--{mode}", "--threads", threads]) == 0
    assert out.read_bytes() == b""
    err = capsys.readouterr().err.splitlines()
    assert err[:7] == [f"{site}: 0 active" for site in
                       ("pillars", "encoder", "stage2", "stage3", "stage4", "fused")] + ["boxes: 0"]
    assert err[7].startswith("latency: ") and len(err) == 8


@pytest.fixture(scope="module")
def tiny_float_files(tiny_int8_file):
    """The fused file the int8 one was calibrated from, and the training
    form of the same seed."""
    tmp_path = tiny_int8_file[0]
    gen(tmp_path, str(tmp_path / "config.json"), "train")
    return {form: (tmp_path / f"{form}0.w").read_bytes() for form in ("fused", "train")}


@pytest.mark.parametrize("form, command", [("fused", "infer"), ("train", "infer"),
                                           ("train", "fuse")])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2 ** 31), st.integers(1, 255)),
                min_size=1, max_size=4))
def test_mutated_float_file_exits_0_or_2(tiny_int8_file, tiny_float_files, form, command,
                                         mutations):
    tmp_path = tiny_int8_file[0]
    data = bytearray(tiny_float_files[form])
    for pos, flip in mutations:
        data[pos % len(data)] ^= flip
    path = tmp_path / "mutated-float.w"
    path.write_bytes(data)
    argv = ["fuse", "--weights-train", str(path), "--out", str(tmp_path / "fused.w")] \
        if command == "fuse" else \
        ["infer", "--weights", str(path), "--cloud", str(tmp_path / "cloud.bin"),
         "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "d.jsonl"),
         "--threads", "1"]
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (0, 2)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(["cloud.bin", "config.json"]),
       st.lists(st.tuples(st.integers(0, 2 ** 31), st.integers(1, 255)),
                min_size=1, max_size=4))
def test_mutated_cloud_or_config_exits_0_or_2(tiny_int8_file, target, mutations):
    tmp_path = tiny_int8_file[0]
    data = bytearray((tmp_path / target).read_bytes())
    for pos, flip in mutations:
        data[pos % len(data)] ^= flip
    inputs = {"cloud.bin": tmp_path / "cloud.bin", "config.json": tmp_path / "config.json"}
    inputs[target] = tmp_path / f"mutated-{target}"
    inputs[target].write_bytes(data)
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(["infer", "--weights", str(tmp_path / "int8.w"),
                     "--cloud", str(inputs["cloud.bin"]),
                     "--config", str(inputs["config.json"]),
                     "--out", str(tmp_path / "d.jsonl"), "--threads", "1"])
    assert code in (0, 2)


@pytest.mark.parametrize("section, key, value", [
    ("decode", "top_k", -1), ("decode", "score_threshold", float("nan")),
    ("network", "stage_depths", [1, -1, 1, 1]), ("grid", "pillar_size_x", float("nan")),
    ("calibration", "percentile", 150)])
def test_malformed_config_value_exit2_names_the_key(workspace, capsys, section, key, value):
    tmp_path, cfg_path, cloud_path = workspace
    weights = gen(tmp_path, cfg_path, "fused")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**CONFIG_DOC, section: {**CONFIG_DOC.get(section, {}),
                                                       key: value}}))
    capsys.readouterr()
    assert main(["gen-weights", "--config", str(bad), "--seed", "0", "--form", "fused",
                 "--out", str(tmp_path / "refused.w")]) == 2
    assert main(["infer", "--weights", weights, "--cloud", cloud_path, "--config", str(bad),
                 "--out", str(tmp_path / "d.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.count(f"error: config key {section}.{key}: expected") == 2
    assert not (tmp_path / "refused.w").exists() and not (tmp_path / "d.jsonl").exists()


def test_inconsistent_network_section_exit2_names_it(workspace, capsys):
    # every cause: test_config.py::test_inconsistent_network_section_is_rejected_naming_it
    tmp_path, cfg_path, cloud_path = workspace
    weights = gen(tmp_path, cfg_path, "fused")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(CONFIG_DOC, network={"align_channels": 64})))
    capsys.readouterr()
    assert main(["gen-weights", "--config", str(bad), "--seed", "0", "--form", "fused",
                 "--out", str(tmp_path / "refused.w")]) == 2
    assert main(["infer", "--weights", weights, "--cloud", cloud_path, "--config", str(bad),
                 "--out", str(tmp_path / "d.jsonl")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith(
        "error: config section network: align_channels (64) must equal") for line in err)
    assert not (tmp_path / "refused.w").exists() and not (tmp_path / "d.jsonl").exists()


@pytest.mark.parametrize("grid, cause", [
    ({"x_max": -4.8}, "x_max must exceed x_min"),
    ({"pillar_size_y": 0.0}, "pillar sizes must be positive"),
    ({"pillar_size_x": -0.15}, "pillar sizes must be positive")])
def test_inconsistent_grid_section_exit2_names_it(workspace, capsys, grid, cause):
    tmp_path, cfg_path, cloud_path = workspace
    weights = gen(tmp_path, cfg_path, "fused")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(CONFIG_DOC, grid={**CONFIG_DOC["grid"], **grid})))
    capsys.readouterr()
    assert main(["gen-weights", "--config", str(bad), "--seed", "0", "--form", "fused",
                 "--out", str(tmp_path / "refused.w")]) == 2
    assert main(["infer", "--weights", weights, "--cloud", cloud_path, "--config", str(bad),
                 "--out", str(tmp_path / "d.jsonl")]) == 2
    assert capsys.readouterr().err == f"error: config section grid: {cause}\n" * 2
    assert not (tmp_path / "refused.w").exists() and not (tmp_path / "d.jsonl").exists()


def test_negative_batch_norm_variance_exit2_names_the_tensor(workspace, capsys):
    from lift.weights_io import read_weight_file, write_weight_file

    tmp_path, cfg_path, cloud_path = workspace
    name = "stage2.layer1.branch3x3.bn.var"
    records = read_weight_file(gen(tmp_path, cfg_path, "train"))
    next(r for r in records if r.name == name).data[5] = -0.25
    path = tmp_path / "negative_var.w"
    write_weight_file(path, records)
    capsys.readouterr()
    assert main(["infer", "--weights", str(path), "--cloud", cloud_path,
                 "--config", cfg_path, "--out", str(tmp_path / "d.jsonl")]) == 2
    assert main(["fuse", "--weights-train", str(path), "--out", str(tmp_path / "f.w")]) == 2
    cause = f"error: tensor {name!r}: running_var must be elementwise non-negative\n"
    assert capsys.readouterr().err == cause * 2
    assert not (tmp_path / "d.jsonl").exists() and not (tmp_path / "f.w").exists()


@pytest.mark.parametrize("network, cause", [
    ({"stage_depths": [1, 1, 1, 1]},
     "stage2 has 2 submanifold layers, config key network.stage_depths expects 1"),
    ({"encoder_out": 32}, "tensor 'dbpfn.linear.weight': expected dims (9, 16)")])
def test_file_and_config_structures_differ_exit2(workspace, tmp_path, capsys, network, cause):
    code, _, cloud, int8_path = TestCalibrate().run_calibrate(workspace, tmp_path)
    assert code == 0
    other = tmp_path / "other.json"
    other.write_text(json.dumps(dict(CONFIG_DOC, network={**CONFIG_DOC["network"],
                                                          **network})))
    capsys.readouterr()
    for weights in (str(tmp_path / "fused0.w"), int8_path):
        assert main(["infer", "--weights", weights, "--cloud", cloud, "--config", str(other),
                     "--out", str(tmp_path / "d.jsonl")]) == 2
    assert capsys.readouterr().err.count(cause) == 2

def test_infer_validates_weights_before_reading_the_cloud(workspace, tmp_path, capsys):
    tmp_path, cfg_path, _ = workspace
    other_cfg = tmp_path / "other.json"
    other_cfg.write_text(json.dumps(dict(CONFIG_DOC, network={
        "num_classes": 5, "stage_depths": [1, 2, 1, 1]})))
    weights = gen(tmp_path, cfg_path, "fused")
    assert main(["infer", "--weights", weights, "--cloud", str(tmp_path / "absent.bin"),
                 "--config", str(other_cfg), "--out", str(tmp_path / "d.jsonl")]) == 2
    err = capsys.readouterr().err
    assert "head.cls.out.kernel" in err and "absent.bin" not in err


@pytest.mark.parametrize("form, name, cause", [
    ("fused", "stage2.layer1.fused.bias", "expected dims (64,), got (63,)"),
    ("train", "stage1.layer0.branch3x3.bn.var", "expected dims (64,), got (63,)"),
    ("fused", "dbpfn.linear.weight", "expected rank 2")])
def test_float_tensor_of_the_wrong_shape_exit2_names_it(workspace, capsys, form, name, cause):
    from lift.weights_io import read_weight_file, write_weight_file

    tmp_path, cfg_path, _ = workspace
    records = read_weight_file(gen(tmp_path, cfg_path, form))
    rec = next(r for r in records if r.name == name)
    rec.data = rec.data[:-1].copy() if rec.data.ndim == 1 else rec.data[None]
    path = tmp_path / "misshapen.w"
    write_weight_file(path, records)
    capsys.readouterr()
    # the cloud is absent: the file is refused before any cloud is read
    assert main(["infer", "--weights", str(path), "--cloud", str(tmp_path / "absent.bin"),
                 "--config", cfg_path, "--out", str(tmp_path / "d.jsonl")]) == 2
    err = capsys.readouterr().err
    assert f"tensor {name!r}: {cause}" in err and "Traceback" not in err


def test_text_cloud_infers_as_its_binary_twin(workspace, capsys):
    tmp_path, cfg_path, _ = workspace
    weights = gen(tmp_path, cfg_path, "fused")
    binary = tmp_path / "cloud4.bin"
    write_cloud(binary, stride=4)
    rows = np.fromfile(binary, dtype="<f4").reshape(-1, 4)
    text = tmp_path / "cloud.txt"
    text.write_text("# x y z intensity\n" + "".join(
        " ".join(repr(float(v)) for v in row) + "\n" for row in rows))
    for cloud, out in ((binary, "b.jsonl"), (text, "t.jsonl")):
        assert main(["infer", "--weights", weights, "--cloud", str(cloud), "--stride", "4",
                     "--config", cfg_path, "--out", str(tmp_path / out)]) == 0
    assert (tmp_path / "t.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    text.write_text("0 0 0 1\n1.0, 2.0, 3.0\n")
    capsys.readouterr()
    assert main(["infer", "--weights", weights, "--cloud", str(text),
                 "--config", cfg_path, "--out", str(tmp_path / "x.jsonl")]) == 2
    assert f"{text}: line 2: expected >=4 fields, got 3" in capsys.readouterr().err


def test_infer_reports_the_non_finite_points_it_drops(workspace, capsys):
    tmp_path, cfg_path, _ = workspace
    weights = gen(tmp_path, cfg_path, "fused")
    cloud = tmp_path / "holes.bin"
    write_cloud(cloud)
    data = np.fromfile(cloud, dtype="<f4").reshape(-1, 5)
    data[[3, 7], [0, 3]] = [np.nan, np.inf]   # x and intensity (a non-finite ring drops nothing)
    data.tofile(cloud)
    capsys.readouterr()
    assert main(["infer", "--weights", weights, "--cloud", str(cloud),
                 "--config", cfg_path, "--out", str(tmp_path / "d.jsonl")]) == 0
    assert f"{cloud}: dropped 2 non-finite point(s)" in capsys.readouterr().err


def test_macs_on_a_directory_without_clouds_exit2(workspace, capsys):
    tmp_path, cfg_path, _ = workspace
    empty = tmp_path / "none"
    empty.mkdir()
    (empty / "notes.md").write_text("not a cloud")
    assert main(["macs", "--cloud", str(empty), "--config", cfg_path]) == 2
    assert f"error: {empty}: no cloud files found" in capsys.readouterr().err


@pytest.mark.parametrize("doc, cause", [
    ([], "config root must be a JSON object"),
    ({"grid": 5}, "config section 'grid' must be an object"),
    ({"network": {"stage_depths": 3}}, "config key network.stage_depths: expected a list"),
    ({"network": {"class_names": ["car", 2]}},
     "config key network.class_names: expected a list of strings")])
def test_config_of_the_wrong_structure_exit2_names_it(tmp_path, capsys, doc, cause):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["gen-weights", "--config", str(cfg_path), "--seed", "0", "--form", "fused",
                 "--out", str(tmp_path / "refused.w")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cause}") and not (tmp_path / "refused.w").exists()
