"""Tests of the benchmark's own code: self-time arithmetic, tracer
coverage, MAC agreement with ``count_macs_network`` and the output checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

workloads.import_lift(HERE.parent)

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from lift import analysis, network, pcd_io, pillarizer, quantize  # noqa: E402
from lift.config import config_from_dict  # noqa: E402
from tracer import TARGETS, Span, Tracer, instrument, lift_modules, original  # noqa: E402

SMALL = {"grid": {"x_min": -4.8, "x_max": 4.8, "y_min": -4.8, "y_max": 4.8},
         "network": {"num_classes": 3, "stage_depths": [2, 2, 2, 2]},
         "decode": {"score_threshold": 0.05, "top_k": 32}}


def tree(spec, parent=None):
    """(name, start, end, [children]) -> Span tree."""
    name, start, end, kids = spec
    span = Span(name=name, start=start, end=end, parent=parent)
    span.children = [tree(k, span) for k in kids]
    return span


def test_self_time_subtracts_union_of_children():
    root = tree(("root", 0.0, 10.0, [
        ("a", 1.0, 3.0, [("a1", 1.5, 2.0, [])]),
        ("b", 2.0, 5.0, []),     # overlaps a: covered once
        ("c", 8.0, 12.0, []),    # clipped to the parent's end
    ]))
    assert root.self_time() == pytest.approx(10.0 - 4.0 - 2.0)
    a = root.children[0]
    assert a.self_time() == pytest.approx(1.5)
    assert root.children[2].self_time() == pytest.approx(4.0)
    assert [s.name for s in root.walk()] == ["root", "a", "a1", "b", "c"]


def test_closed_loop_keeps_pauses_off_the_clock():
    calls = []

    def step(k):
        calls.append("step")
        return k

    def pause():
        time.sleep(0.1)
        calls.append("pause")

    records, wall = run.closed_loop(step, 0.0, pause)
    assert records == list(range(run.MIN_CLOUDS))
    assert calls == ["step", "pause"] * (run.MIN_CLOUDS - 1) + ["step"]
    assert wall < 0.1


def test_tracer_nests_spans():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner"):
            pass
    assert tracer.roots == [outer]
    assert [c.name for c in outer.children] == ["inner"]
    assert outer.children[0].parent is outer
    assert outer.start <= outer.children[0].start <= outer.children[0].end <= outer.end


def _traced_functions():
    return {id(original(module, attr)): f"{module}.{attr}"
            for module, attr, _, _ in TARGETS if "." not in attr}


def test_instrument_rebinds_every_namespace_and_restores():
    originals = _traced_functions()
    seen = {name: [] for name in originals.values()}
    for mod in lift_modules():
        for key, value in vars(mod).items():
            if id(value) in originals:
                seen[originals[id(value)]].append(f"{mod.__name__}.{key}")
    # imported by name into other modules: the reason for rebinding everywhere
    assert len(seen["sparse.submanifold_conv"]) >= 4
    assert "lift.quantize.requantize_array" in seen["quant.requantize_array"]

    from_scales = vars(sys.modules["lift.sparse"].OutputQuant)["from_scales"]
    with instrument(Tracer()):
        for mod in lift_modules():
            leaked = [k for k, v in vars(mod).items() if id(v) in originals]
            assert not leaked, f"{mod.__name__} still holds untraced {leaked}"
        assert vars(sys.modules["lift.sparse"].OutputQuant)["from_scales"] is not from_scales
    for name, places in seen.items():
        for place in places:
            mod, key = place.rsplit(".", 1)
            assert id(vars(sys.modules[mod])[key]) in originals
    assert vars(sys.modules["lift.sparse"].OutputQuant)["from_scales"] is from_scales


def _cloud(rng, grid, n=1500):
    return pcd_io.PointCloud(data=np.column_stack([
        rng.uniform(grid.x_min, grid.x_max, n), rng.uniform(grid.y_min, grid.y_max, n),
        rng.uniform(-5.0, 3.0, n), rng.uniform(0.0, 255.0, n)]).astype(np.float32))


@pytest.fixture(scope="module")
def small():
    cfg = config_from_dict(SMALL)
    weights = network.random_network_weights(cfg.network, cfg.feature_length, 3)
    rng = np.random.default_rng(5)
    collector = quantize.CalibrationCollector()
    for _ in range(2):
        pillars = pillarizer.pillarize(_cloud(rng, cfg.grid), cfg.grid)
        collector(quantize.INPUT_FEATURES_SITE, pillars.features)
        network.run_network(pillars, weights, cfg.grid, cfg.network, observer=collector)
    act = {s: collector.qparams(s) for s in quantize.activation_sites(cfg.network)}
    net8 = quantize.quantize_network(weights, collector.feature_qparams(), act)
    return cfg, weights, net8, _cloud(rng, cfg.grid)


@pytest.mark.parametrize("mode", ["float", "int8"])
def test_traced_conv_macs_equal_count_macs_network(small, mode):
    cfg, weights, net8, cloud = small
    tracer = Tracer()
    with instrument(tracer), tracer.span("cloud") as root:
        pillars = pillarizer.pillarize(cloud, cfg.grid)
        run = quantize.run_int8_network if mode == "int8" else network.run_network
        result = run(pillars, net8 if mode == "int8" else weights, cfg.grid, cfg.network,
                     cfg.score_threshold, cfg.top_k)
    report = analysis.count_macs_network(cloud, cfg.grid, cfg.network)
    metrics = layers.cloud_metrics(root, layers.stage_widths(cfg.grid.width), 1.0)
    conv = sum(layer.macs for layer in report.layers if layer.kind != "linear")
    assert metrics["sparse.conv.macs"] == conv > 0
    assert metrics["encoder.macs"] == report.total_macs - conv
    assert all(metrics[f"sparse.conv.stage{s}.ms"] > 0 for s in range(1, 5))
    # backbone (depth + 1 per stage), align and 4 head convs; decode's max
    # pool builds one more rulebook; int8 builds one more plan for the encoder
    convs = sum(cfg.network.stage_depths) + 4 + 1 + 4
    assert len(result.heatmap) > 0
    assert metrics["sparse.build_rulebook.calls"] == convs + 1
    assert metrics["sparse.OutputQuant.from_scales.calls"] == (convs + 1 if mode == "int8"
                                                               else 0)


def test_missed_conv_shows_as_mac_shortfall(small):
    cfg, weights, _, cloud = small
    tracer = Tracer()
    with instrument(tracer), tracer.span("cloud") as root:
        pillars = pillarizer.pillarize(cloud, cfg.grid)
        # align and head convs escape through an untraced binding; leaving
        # the block restores the original binding
        network.submanifold_conv = original("sparse", "submanifold_conv")
        network.run_network(pillars, weights, cfg.grid, cfg.network)
    report = analysis.count_macs_network(cloud, cfg.grid, cfg.network)
    metrics = layers.cloud_metrics(root, layers.stage_widths(cfg.grid.width), 1.0)
    conv = sum(layer.macs for layer in report.layers if layer.kind != "linear")
    assert metrics["sparse.conv.macs"] < conv


def _line(**over):
    rec = {"class_id": 0, "class_name": "car", "score": 0.9, "x": 1.0, "y": 2.0, "z": 0.0,
           "l": 4.0, "w": 2.0, "h": 1.5, "yaw": 0.1}
    rec.update(over)
    return json.dumps(rec) + "\n"


NAMES = ("car", "truck")


def test_detection_contract_accepts_engine_output(small, tmp_path):
    cfg, weights, _, cloud = small
    pillars = pillarizer.pillarize(cloud, cfg.grid)
    result = network.run_network(pillars, weights, cfg.grid, cfg.network,
                                 cfg.score_threshold, cfg.top_k)
    out = tmp_path / "det.jsonl"
    pcd_io.write_detections(result.boxes, out)
    assert checks.detection_problems(out.read_bytes(), cfg.network.class_names,
                                     cfg.top_k) == []


@pytest.mark.parametrize("text, fragment", [
    (_line(score=0.5) + _line(score=0.9), "out of order"),
    (_line(x=2.0) + _line(x=1.0), "out of order"),
    (_line().replace('"yaw"', '"heading"'), "keys"),
    (_line(score=float("nan")), "non-finite"),
    (_line(class_id=1, class_name="car"), "class"),
    (_line(class_id=5, class_name="bus"), "class"),
    (_line(l=0.0), "size"),
    (_line().rstrip("\n"), "LF"),
    (_line() * 3, "top_k"),
])
def test_detection_contract_rejects(text, fragment):
    problems = checks.detection_problems(text.encode(), NAMES, top_k=2)
    assert any(fragment in p for p in problems), problems


def test_detection_contract_accepts_ties_in_order():
    text = _line(score=0.9, x=1.0) + _line(score=0.9, x=1.5) + _line(score=0.2)
    assert checks.detection_problems(text.encode(), NAMES, top_k=3) == []
