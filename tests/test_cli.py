import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
                else BnParams.identity(cout),
                stride=layer.stride, kind=layer.kind)
        identity_net = network.NetworkWeights(form="train", dbpfn=seeded.dbpfn,
                                              ops=seeded.ops, layers=layers)
        train_path = tmp_path / "identity.w"
        write_weight_file(train_path, float_network_records(identity_net))
        assert main(["fuse", "--weights-train", str(train_path),
                     "--out", str(tmp_path / "identity_fused.w")]) == 0
        deviation = float(capsys.readouterr().out.strip().rsplit(" ", 1)[-1])
        assert deviation == 0.0


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


def test_module_entry_point(workspace):
    tmp_path, cfg_path, _ = workspace
    proc = subprocess.run([sys.executable, "-m", "lift", "ocm",
                           "--dims", "640,720,40", "--context", "3,3,3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "52483"


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


class TestInt8Contract:
    """Int8 files that break the weight contract or the op wiring are
    rejected at load with exit 2 and the tensor named."""

    def infer_mutated(self, workspace, tmp_path, capsys, name, mutate):
        from lift.weights_io import read_weight_file, write_weight_file

        code, cfg_path, cloud, int8_path = TestCalibrate().run_calibrate(workspace, tmp_path)
        assert code == 0
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
