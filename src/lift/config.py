"""Engine configuration: one JSON document covering grid, features,
network shape, decoding and calibration. Unknown keys and unusable values
are rejected, naming the key, so a typo fails fast and never runs silently.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import partial

from .errors import FormatError, ParameterError, StructuralError
from .network import NetworkConfig
from .pillarizer import FEATURE_NAMES, GridConfig


@dataclass(frozen=True)
class FeatureFlags:
    normalize_intensity: bool = False
    include_pillar_offsets: bool = True


@dataclass(frozen=True)
class EngineConfig:
    grid: GridConfig = GridConfig()
    features: FeatureFlags = FeatureFlags()
    network: NetworkConfig = NetworkConfig()
    score_threshold: float = 0.1
    top_k: int = 500
    calibration_mode: str = "minmax"
    calibration_percentile: float = 99.9

    @property
    def feature_length(self) -> int:
        return len(FEATURE_NAMES) if self.features.include_pillar_offsets \
            else len(FEATURE_NAMES) - 2


def _bool(v):
    if not isinstance(v, bool):
        raise FormatError(f"expected true/false, got {v!r}")
    return v


def _int(v, lo=-math.inf):
    if isinstance(v, bool) or not isinstance(v, (int, float)) \
            or not -math.inf < v < math.inf or int(v) != v:   # NaN fails the range
        raise FormatError(f"expected an integer, got {v!r}")
    if v < lo:
        raise FormatError(f"expected an integer >= {lo}, got {v!r}")
    return int(v)


def _float(v):
    if isinstance(v, bool) or not isinstance(v, (int, float)) \
            or not -sys.float_info.max <= v <= sys.float_info.max:   # NaN fails too
        raise FormatError(f"expected a finite number, got {v!r}")
    return float(v)


def _int_list(v, lo=-math.inf):
    if not isinstance(v, (list, tuple)):
        raise FormatError(f"expected a list, got {v!r}")
    return tuple(_int(x, lo) for x in v)


def _str_list(v):
    if not isinstance(v, (list, tuple)) or not all(isinstance(x, str) for x in v):
        raise FormatError(f"expected a list of strings, got {v!r}")
    return tuple(v)


def _take(section: dict, name: str, allowed: dict) -> dict:
    """Pop known keys with type validation; reject anything else."""
    if not isinstance(section, dict):
        raise FormatError(f"config section {name!r} must be an object")
    result = {}
    for key, value in section.items():
        if key not in allowed:
            raise FormatError(f"unknown config key {name}.{key}")
        try:
            result[key] = allowed[key](value)
        except FormatError as e:
            raise FormatError(f"config key {name}.{key}: {e}") from None
    return result


def _section(name: str, make, kwargs: dict):
    """make(**kwargs), naming the section when its values disagree."""
    try:
        return make(**kwargs)
    except (ParameterError, StructuralError) as e:
        raise FormatError(f"config section {name}: {e}") from None


def config_from_dict(doc: dict) -> EngineConfig:
    if not isinstance(doc, dict):
        raise FormatError("config root must be a JSON object")
    unknown = set(doc) - {"grid", "features", "network", "decode", "calibration"}
    if unknown:
        raise FormatError(f"unknown config section(s): {sorted(unknown)}")

    grid_kwargs = _take(doc.get("grid", {}), "grid", {
        "x_min": _float, "x_max": _float, "y_min": _float, "y_max": _float,
        "z_min": _float, "z_max": _float,
        "pillar_size_x": _float, "pillar_size_y": _float,
        "max_points_per_pillar": partial(_int, lo=1),
    })
    feat_kwargs = _take(doc.get("features", {}), "features", {
        "normalize_intensity": _bool, "include_pillar_offsets": _bool,
    })
    net_kwargs = _take(doc.get("network", {}), "network", {
        "encoder_out": partial(_int, lo=1), "stage_channels": partial(_int_list, lo=1),
        "stage_depths": partial(_int_list, lo=0), "align_channels": partial(_int, lo=1),
        "num_classes": partial(_int, lo=1), "class_names": _str_list,
    })
    decode_kwargs = _take(doc.get("decode", {}), "decode", {
        "score_threshold": _float, "top_k": partial(_int, lo=1),
    })
    calib_kwargs = _take(doc.get("calibration", {}), "calibration", {
        "mode": str, "percentile": _float,
    })
    if "mode" in calib_kwargs and calib_kwargs["mode"] not in ("minmax", "percentile"):
        raise FormatError(f"unknown calibration mode {calib_kwargs['mode']!r}")
    if not 0 < calib_kwargs.get("percentile", 100) <= 100:
        raise FormatError("config key calibration.percentile: expected a value in (0, 100], "
                          f"got {calib_kwargs['percentile']!r}")

    return EngineConfig(
        grid=_section("grid", GridConfig, grid_kwargs),
        features=FeatureFlags(**feat_kwargs),
        network=_section("network", NetworkConfig, net_kwargs),
        **decode_kwargs,
        **{f"calibration_{key}": value for key, value in calib_kwargs.items()},
    )


def load_config(path) -> EngineConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: invalid JSON: {e}") from None
    return config_from_dict(doc)

