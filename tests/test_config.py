import json
from pathlib import Path

import pytest

from lift.config import EngineConfig, config_from_dict, load_config
from lift.errors import FormatError
from lift.network import NetworkConfig


def test_defaults_match_reference_setup():
    cfg = EngineConfig()
    assert cfg.grid.pillar_size_x == 0.15 and cfg.grid.pillar_size_y == 0.15
    assert (cfg.grid.x_min, cfg.grid.x_max) == (-54.0, 54.0)
    assert (cfg.grid.y_min, cfg.grid.y_max) == (-54.0, 54.0)
    assert (cfg.grid.z_min, cfg.grid.z_max) == (-5.0, 3.0)
    assert cfg.network.stage_channels == (64, 64, 128, 128)
    assert cfg.network.stage_depths == (6, 12, 6, 6)
    assert cfg.network.encoder_out == 64
    assert cfg.network.align_channels == 128
    assert cfg.network.num_classes == 10
    assert cfg.grid.width == cfg.grid.height == 720


def test_empty_document_is_all_defaults():
    assert config_from_dict({}) == EngineConfig()


def test_readme_default_document_is_the_default_config():
    # every key, each through its parser
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("### Configuration"):]
    doc = json.loads(section[section.index("```json") + 7:section.index("\n```\n")])
    assert {k: sorted(v) for k, v in doc.items()} == {
        "grid": ["max_points_per_pillar", "pillar_size_x", "pillar_size_y", "x_max",
                 "x_min", "y_max", "y_min", "z_max", "z_min"],
        "features": ["include_pillar_offsets", "normalize_intensity"],
        "network": ["align_channels", "encoder_out", "num_classes", "stage_channels",
                    "stage_depths"],
        "decode": ["score_threshold", "top_k"],
        "calibration": ["mode", "percentile"]}
    assert config_from_dict(doc) == EngineConfig()


def test_unknown_section_rejected():
    with pytest.raises(FormatError, match="pillars"):
        config_from_dict({"pillars": {}})


def test_unknown_key_rejected():
    with pytest.raises(FormatError, match="grid.x_mn"):
        config_from_dict({"grid": {"x_mn": -54.0}})


def test_unknown_calibration_mode_rejected():
    with pytest.raises(FormatError):
        config_from_dict({"calibration": {"mode": "entropy"}})


def test_wrongly_typed_values_rejected():
    with pytest.raises(FormatError, match="features.normalize_intensity"):
        config_from_dict({"features": {"normalize_intensity": "false"}})
    with pytest.raises(FormatError, match="decode.top_k"):
        config_from_dict({"decode": {"top_k": 1.5}})
    with pytest.raises(FormatError, match="grid.x_min"):
        config_from_dict({"grid": {"x_min": True}})


def test_generated_class_names():
    cfg = config_from_dict({"network": {"num_classes": 3}})
    assert cfg.network.class_names == ("class_0", "class_1", "class_2")


def test_class_names_default_with_the_network_section_itself():
    assert NetworkConfig(num_classes=3) == config_from_dict({"network": {"num_classes": 3}}).network
    assert NetworkConfig(num_classes=3).class_names == ("class_0", "class_1", "class_2")
    assert NetworkConfig().class_names[:2] == ("car", "truck")


def test_a_key_the_document_leaves_out_keeps_the_engine_default():
    assert config_from_dict({"decode": {"top_k": 3}}) == EngineConfig(top_k=3)
    assert config_from_dict({"decode": {"score_threshold": 0.5}}) == \
        EngineConfig(score_threshold=0.5)
    assert config_from_dict({"calibration": {"mode": "percentile"}}) == \
        EngineConfig(calibration_mode="percentile")
    assert config_from_dict({"calibration": {"percentile": 99.0}}) == \
        EngineConfig(calibration_percentile=99.0)


def test_feature_length_follows_offset_flag():
    assert EngineConfig().feature_length == 9
    cfg = config_from_dict({"features": {"include_pillar_offsets": False}})
    assert cfg.feature_length == 7


def test_load_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"decode": {"top_k": 7}}))
    assert load_config(path).top_k == 7


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        load_config(path)


@pytest.mark.parametrize("section, key, value", [
    ("decode", "top_k", -1), ("decode", "top_k", 0), ("decode", "top_k", float("inf")),
    ("decode", "score_threshold", float("nan")), ("grid", "pillar_size_x", float("nan")),
    ("grid", "x_max", float("inf")), ("grid", "x_min", 10 ** 400),
    ("grid", "max_points_per_pillar", 0), ("network", "stage_depths", [1, -1, 1, 1]),
    ("network", "stage_channels", [64, 0, 128, 128]), ("network", "encoder_out", 0),
    ("network", "align_channels", -8), ("network", "num_classes", 0),
    ("calibration", "percentile", 150), ("calibration", "percentile", 0),
    ("calibration", "percentile", float("nan"))])
def test_values_no_run_can_use_are_rejected_naming_the_key(section, key, value):
    with pytest.raises(FormatError, match=rf"^config key {section}\.{key}: expected"):
        config_from_dict({section: {key: value}})


def test_values_at_the_edge_of_their_range_parse():
    cfg = config_from_dict({"decode": {"top_k": 1, "score_threshold": -1e300},
                            "network": {"stage_depths": [0, 0, 0, 0]},
                            "calibration": {"percentile": 100}})
    assert (cfg.top_k, cfg.network.stage_depths, cfg.calibration_percentile) == \
        (1, (0, 0, 0, 0), 100.0)


@pytest.mark.parametrize("network, cause", [
    ({"stage_depths": [1, 1, 1]}, "stage_channels and stage_depths need 4 values each"),
    ({"stage_channels": [8, 8, 128, 128, 128]}, "stage_channels and stage_depths need 4"),
    ({"encoder_out": 63}, "encoder_out must be even"),
    ({"align_channels": 64}, r"align_channels \(64\) must equal the stage 3/4 stage_channels"),
    ({"num_classes": 3, "class_names": ["a", "b"]}, "class_names has 2 names, num_classes is 3")])
def test_inconsistent_network_section_is_rejected_naming_it(network, cause):
    with pytest.raises(FormatError, match=rf"^config section network: {cause}"):
        config_from_dict({"network": network})
