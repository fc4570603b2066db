#!/usr/bin/env python3
"""Which stage of a cloud raises the process's peak memory, float and int8.

Writes a default-config workspace (seeded LiDAR-like scans, seed-0
fused weights and an int8 file calibrated on one more scan), then, for
each path, starts a fresh process that loads the engine and runs every
cloud through the public stages one call at a time: read_cloud,
pillarize, the encoder (dbpfn_encode or encode_int8), run_backbone,
fuse_scales, run_head, decode and write_detections. After each stage
it reads the process's high-water RSS (ru_maxrss) and prints how much
the stage raised it. The workspace is written and each path run in a
fresh process: Linux carries a parent's high-water mark into the
children it starts, so this process stays small.

    python scripts/peak_memory.py [--points 60000] [--clouds 3] [--threads 2]
"""

import argparse
import json
import resource
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from lift import network, pcd_io, quantize, weights_io
from lift.config import load_config
from lift.pillarizer import pillarize
from lift.sparse import one_blas_thread

STAGES = ("read_cloud", "pillarize", "encoder", "run_backbone", "fuse_scales", "run_head",
          "decode", "write_detections")


def scan_points(rng, n):
    """A scan-like cloud: range log-uniform on [2, 80] m around the
    sensor, ground returns near z = -1.8 with a tail of taller ones."""
    r = 2.0 * 40.0 ** rng.random(n)
    azimuth = rng.uniform(-np.pi, np.pi, n)
    z = np.minimum(-1.8 + np.abs(rng.normal(0.0, 0.4, n)), 2.9)
    return np.column_stack([r * np.cos(azimuth), r * np.sin(azimuth), z,
                            rng.uniform(0.0, 255.0, n), rng.integers(0, 64, n)])


def prepare(work: Path, points: int, clouds: int):
    """Config, clouds, and the fused and int8 weight files."""
    work.mkdir(parents=True, exist_ok=True)
    (work / "config.json").write_text("{}")
    cfg = load_config(work / "config.json")
    for k in range(clouds + 1):   # the last one calibrates
        scan_points(np.random.default_rng([k, 0]), points).astype("<f4").tofile(
            work / f"cloud{k}.bin")
    weights = network.random_network_weights(cfg.network, cfg.feature_length, 0)
    weights_io.write_weight_file(work / "fused.lifw", weights_io.float_network_records(weights))
    collector = quantize.CalibrationCollector()
    pillars = pillarize(pcd_io.read_cloud(work / f"cloud{clouds}.bin"), cfg.grid)
    collector(quantize.INPUT_FEATURES_SITE, pillars.features)
    network.run_network(pillars, weights, cfg.grid, cfg.network, observer=collector)
    act = {site: collector.qparams(site) for site in quantize.activation_sites(cfg.network)}
    net = quantize.quantize_network(weights, collector.feature_qparams(), act)
    weights_io.write_weight_file(work / "int8.lifw", weights_io.int8_network_records(net))


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


def measure(mode: str, work: Path, clouds: int, threads: int) -> dict:
    """Per cloud, the high-water RSS after each stage, in this process."""
    cfg = load_config(work / "config.json")
    records = weights_io.read_weight_file(work / ("int8.lifw" if mode == "int8" else "fused.lifw"))
    if mode == "int8":
        net, encode = weights_io.records_to_int8_network(records), quantize.encode_int8
    else:
        net = weights_io.records_to_float_network(records)
        encode = lambda pillars, weights: network.dbpfn_encode(pillars, weights.dbpfn)  # noqa: E731
    del records
    result = {"loaded": max_rss_mb(), "clouds": []}
    for k in range(clouds):
        marks = []
        cloud = pcd_io.read_cloud(work / f"cloud{k}.bin")
        marks.append(max_rss_mb())
        pillars = pillarize(cloud, cfg.grid)
        marks.append(max_rss_mb())
        # as network.run_encoded does: the encoder under one BLAS thread,
        # and each stage given the only reference to what it reads
        with one_blas_thread() if threads > 1 else nullcontext():
            live = [encode(pillars, net)]
        marks.append(max_rss_mb())
        live = list(network.run_backbone(live.pop(), net, threads=threads))
        marks.append(max_rss_mb())
        live = [network.fuse_scales(live.pop(0), live.pop(0), live.pop(0), net,
                                    threads=threads)]
        marks.append(max_rss_mb())
        heatmap, regression = network.run_head(live.pop(), net, threads=threads)
        marks.append(max_rss_mb())
        boxes = network.decode(heatmap, regression, cfg.grid, cfg.network,
                               cfg.score_threshold, cfg.top_k)
        marks.append(max_rss_mb())
        pcd_io.write_detections(boxes, work / f"{mode}{k}.jsonl")
        marks.append(max_rss_mb())
        result["clouds"].append(dict(zip(STAGES, marks)))
        del cloud, pillars, heatmap, regression, boxes
    return result


def report(mode: str, threads: int, result: dict) -> None:
    print(f"{mode} (threads {threads}): engine loaded at {result['loaded']:.1f} MB")
    before = result["loaded"]
    for k, marks in enumerate(result["clouds"]):
        raised = [(stage, mb - prev) for stage, prev, mb in
                  zip(STAGES, [before] + list(marks.values())[:-1], marks.values())
                  if mb > prev]
        top = max(raised, key=lambda r: r[1])[0] if raised else "none"
        steps = ", ".join(f"{stage} +{mb:.1f}" for stage, mb in raised) or "no stage"
        print(f"  cloud {k}: {steps} MB; peak {marks[STAGES[-1]]:.1f} MB, "
              f"raised most by {top}")
        before = marks[STAGES[-1]]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--points", type=int, default=60000)
    parser.add_argument("--clouds", type=int, default=3)
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--workdir", default="peak_memory_out")
    parser.add_argument("--child", choices=("prepare", "float", "int8"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    work = Path(args.workdir)
    if args.child == "prepare":
        prepare(work, args.points, args.clouds)
    elif args.child:
        print(json.dumps(measure(args.child, work, args.clouds, args.threads)))
    else:
        for child in ("prepare", "float", "int8"):
            proc = subprocess.run([sys.executable, __file__, "--child", child,
                                   "--workdir", str(work), "--points", str(args.points),
                                   "--clouds", str(args.clouds), "--threads", str(args.threads)],
                                  capture_output=True, text=True, check=False)
            if proc.returncode:
                sys.exit(f"{child} run failed:\n{proc.stderr}")
            if child != "prepare":
                report(child, args.threads, json.loads(proc.stdout))


if __name__ == "__main__":
    main()
