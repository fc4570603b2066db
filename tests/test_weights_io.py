import re

import numpy as np
import pytest
from conftest import random_cloud

from lift.config import config_from_dict
from lift.errors import CalibrationError, FormatError
from lift.network import fuse_network, network_ops, random_network_weights, run_network
from lift.pillarizer import pillarize
from lift import quantize
from lift.weights_io import (TensorQuant, TensorRecord, file_kind,
                             float_network_records, int8_network_records,
                             read_weight_file, records_to_float_network,
                             records_to_int8_network,
                             validate_float_against_config,
                             validate_int8_against_config, write_weight_file)


def sample_records():
    return [
        TensorRecord("alpha", np.arange(6, dtype=np.float32).reshape(2, 3)),
        TensorRecord("beta.q", np.arange(-4, 4, dtype=np.int8).reshape(2, 4),
                     TensorQuant(axis=None, scales=np.array([0.5], dtype=np.float32),
                                 zero_points=np.array([3], dtype=np.int32))),
        TensorRecord("gamma.q", np.ones((2, 2, 3), dtype=np.int8),
                     TensorQuant(axis=2,
                                 scales=np.array([0.1, 0.2, 0.3], dtype=np.float32),
                                 zero_points=np.zeros(3, dtype=np.int32))),
    ]


class TestRawFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "w.bin"
        write_weight_file(path, sample_records())
        back = read_weight_file(path)
        assert [r.name for r in back] == ["alpha", "beta.q", "gamma.q"]
        assert np.array_equal(back[0].data, sample_records()[0].data)
        assert back[1].quant.axis is None
        assert back[1].quant.zero_points[0] == 3
        assert back[2].quant.axis == 2
        assert np.allclose(back[2].quant.scales, [0.1, 0.2, 0.3])

    def test_rewrite_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_weight_file(p1, sample_records())
        write_weight_file(p2, read_weight_file(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_magic_and_header(self, tmp_path):
        path = tmp_path / "w.bin"
        write_weight_file(path, sample_records())
        raw = path.read_bytes()
        assert raw[:4] == b"LIFW"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert int.from_bytes(raw[8:12], "little") == 3

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "w.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            read_weight_file(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "w.bin"
        write_weight_file(path, sample_records())
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            read_weight_file(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "w.bin"
        write_weight_file(path, sample_records())
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(FormatError, match="truncated"):
            read_weight_file(path)


@pytest.fixture
def cfg():
    return config_from_dict({
        "grid": {"x_min": -4.8, "x_max": 4.8, "y_min": -4.8, "y_max": 4.8,
                 "pillar_size_x": 0.15, "pillar_size_y": 0.15},
        "network": {"num_classes": 3, "stage_depths": [1, 2, 1, 1]},
    })


class TestNetworkBinding:
    @pytest.mark.parametrize("form", ["train", "fused"])
    def test_float_round_trip_preserves_outputs(self, tmp_path, rng, cfg, form):
        weights = random_network_weights(cfg.network, cfg.feature_length, 5, form)
        path = tmp_path / "w.bin"
        write_weight_file(path, float_network_records(weights))
        back = records_to_float_network(read_weight_file(path))
        assert back.form == form
        validate_float_against_config(back, cfg)
        cloud = random_cloud(rng, 300, cfg.grid)
        pillars = pillarize(cloud, cfg.grid)
        a = run_network(pillars, weights, cfg.grid, cfg.network, 0.05, 16)
        b = run_network(pillars, back, cfg.grid, cfg.network, 0.05, 16)
        # file stores f32, so outputs agree to f32 precision only
        assert np.allclose(a.heatmap.features, b.heatmap.features,
                           rtol=1e-4, atol=1e-4)

    def test_missing_tensor_named(self, cfg):
        weights = random_network_weights(cfg.network, cfg.feature_length, 5, "fused")
        records = [r for r in float_network_records(weights)
                   if r.name != "align.bias"]
        with pytest.raises(FormatError, match="align.bias"):
            records_to_float_network(records)

    def test_unexpected_tensor_named(self, cfg):
        records = float_network_records(
            random_network_weights(cfg.network, cfg.feature_length, 5, "fused"))
        records.append(TensorRecord("rogue", np.zeros(3, dtype=np.float32)))
        with pytest.raises(FormatError, match="rogue"):
            records_to_float_network(records)

    def test_config_mismatch_names_tensor(self, cfg):
        other = config_from_dict({
            "grid": {"x_min": -4.8, "x_max": 4.8, "y_min": -4.8, "y_max": 4.8,
                     "pillar_size_x": 0.15, "pillar_size_y": 0.15},
            "network": {"num_classes": 5, "stage_depths": [1, 2, 1, 1]},
        })
        weights = random_network_weights(cfg.network, cfg.feature_length, 5, "fused")
        back = records_to_float_network(float_network_records(weights))
        with pytest.raises(FormatError, match="head.cls.out.kernel"):
            validate_float_against_config(back, other)

    def test_file_kind_detection(self, cfg):
        train = random_network_weights(cfg.network, cfg.feature_length, 5, "train")
        assert file_kind(float_network_records(train)) == "train"
        fused = fuse_network(train)
        assert file_kind(float_network_records(fused)) == "fused"


class TestInt8Binding:
    def calibrate(self, rng, cfg):
        weights = random_network_weights(cfg.network, cfg.feature_length, 5, "fused")
        cloud = random_cloud(rng, 500, cfg.grid)
        pillars = pillarize(cloud, cfg.grid)
        collector = quantize.CalibrationCollector()
        collector(quantize.INPUT_FEATURES_SITE, pillars.features)
        run_network(pillars, weights, cfg.grid, cfg.network, 0.05, 16,
                    observer=collector)
        act = {s: collector.qparams(s)
               for s in quantize.activation_sites(cfg.network)}
        return weights, collector.feature_qparams(), act, pillars

    def build_int8(self, rng, cfg):
        weights, feature_qps, act, pillars = self.calibrate(rng, cfg)
        return quantize.quantize_network(weights, feature_qps, act), pillars

    @pytest.mark.parametrize("op", ["dbpfn", "stage2.layer1", "head.reg.out"])
    def test_quantize_rejects_a_bias_past_the_accumulator_bound(self, rng, cfg, op):
        weights, feature_qps, act, _ = self.calibrate(rng, cfg)
        layer = weights.dbpfn if op == "dbpfn" else weights.layers[op]
        layer.bias[0] = 1e30 if op == "dbpfn" else 1e6
        with pytest.raises(CalibrationError, match=f"op '{op}'.*int32 accumulator"):
            quantize.quantize_network(weights, feature_qps, act)

    def test_int8_round_trip_bitwise(self, tmp_path, rng, cfg):
        net, pillars = self.build_int8(rng, cfg)
        path = tmp_path / "w8.bin"
        write_weight_file(path, int8_network_records(net))
        records = read_weight_file(path)
        assert file_kind(records) == "int8"
        back = records_to_int8_network(records)
        validate_int8_against_config(back, cfg)
        a = quantize.run_int8_network(pillars, net, cfg.grid, cfg.network, 0.05, 16)
        b = quantize.run_int8_network(pillars, back, cfg.grid, cfg.network, 0.05, 16)
        assert np.array_equal(a.heatmap.features, b.heatmap.features)
        assert np.array_equal(a.regression.features, b.regression.features)

    def test_act_sites_survive_round_trip(self, tmp_path, rng, cfg):
        net, _ = self.build_int8(rng, cfg)
        path = tmp_path / "w8.bin"
        write_weight_file(path, int8_network_records(net))
        back = records_to_int8_network(read_weight_file(path))
        for site, qp in net.act.items():
            got = back.act[site]
            assert got.zero_point == qp.zero_point
            assert got.scale == pytest.approx(qp.scale, rel=1e-6)  # f32 storage

    def test_int8_validation_catches_class_mismatch(self, rng, cfg):
        net, _ = self.build_int8(rng, cfg)
        other = config_from_dict({
            "grid": {"x_min": -4.8, "x_max": 4.8, "y_min": -4.8, "y_max": 4.8,
                     "pillar_size_x": 0.15, "pillar_size_y": 0.15},
            "network": {"num_classes": 7, "stage_depths": [1, 2, 1, 1]},
        })
        with pytest.raises(FormatError, match="head.cls.out.kernel"):
            validate_int8_against_config(net, other)


def test_quantparams_tensor_shape_mismatch():
    records = [TensorRecord("input_features.scale", np.ones(9, dtype=np.float32)),
               TensorRecord("input_features.zero_point", np.zeros(4, dtype=np.float32))]
    with pytest.raises(FormatError):
        records_to_int8_network(records)


SMALL_DEPTHS = (1, 2, 1, 1)
CONV_OPS = [op for op in network_ops(SMALL_DEPTHS) if op.kind == "conv"]


@pytest.fixture(scope="module")
def float_and_int8_records():
    cfg = config_from_dict({
        "grid": {"x_min": -4.8, "x_max": 4.8, "y_min": -4.8, "y_max": 4.8},
        "network": {"num_classes": 3, "stage_depths": list(SMALL_DEPTHS)},
    })
    weights = random_network_weights(cfg.network, cfg.feature_length, 5, "fused")
    pillars = pillarize(random_cloud(np.random.default_rng(4), 500, cfg.grid), cfg.grid)
    collector = quantize.CalibrationCollector()
    collector(quantize.INPUT_FEATURES_SITE, pillars.features)
    run_network(pillars, weights, cfg.grid, cfg.network, observer=collector)
    act = {s: collector.qparams(s) for s in quantize.activation_sites(cfg.network)}
    net = quantize.quantize_network(weights, collector.feature_qparams(), act)
    return float_network_records(weights), int8_network_records(net)


@pytest.mark.parametrize("mutation", ["k", "cin"])
@pytest.mark.parametrize("op", CONV_OPS, ids=[op.name for op in CONV_OPS])
def test_float_and_int8_readers_reject_the_same_kernel_dims(float_and_int8_records,
                                                             op, mutation):
    messages = []
    for records, reader in zip(float_and_int8_records,
                               (records_to_float_network, records_to_int8_network)):
        (kernel,) = [r for r in records
                     if r.name.startswith(f"{op.name}.") and r.name.endswith(".kernel")]
        k, _, cin, cout = kernel.data.shape
        shape = (4 - k, 4 - k, cin, cout) if mutation == "k" else (k, k, cin + 1, cout)
        mutated = TensorRecord(kernel.name, np.zeros(shape, dtype=kernel.data.dtype),
                               kernel.quant)
        with pytest.raises(FormatError, match=re.escape(kernel.name)) as err:
            reader([mutated if r is kernel else r for r in records])
        messages.append(str(err.value))
    assert messages[0] == messages[1]
