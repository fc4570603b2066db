"""Command-line surface.

Subcommands: infer, fuse, gen-weights, macs, ocm, calibrate.
Exit codes: 0 success, 1 over MAC budget (macs only), 2 any error.
--threads (or the LIFT_THREADS environment variable) sets how many
threads split a convolution's output tiles: the calling thread and
threads - 1 workers. Results are identical regardless. It must be a
positive integer, and defaults to the number of usable cores when the
engine can set the thread count of numpy's bundled OpenBLAS: BLAS then
runs one thread inside each multi-tile convolution, so the gathers, adds
and epilogues around its GEMMs run on every core too. Without that
switch it defaults to 1, since engine workers on top of BLAS's own
threads oversubscribe the cores.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import analysis, network, pcd_io, quantize, sparse, weights_io
from .config import load_config
from .errors import LiftError, ParameterError, StructuralError
from .pillarizer import pillarize

CLOUD_EXTENSIONS = (".bin", ".txt", ".csv", ".xyz")


def _threads(value) -> int:
    """--threads, else LIFT_THREADS, else the usable cores when BLAS can
    be held at one thread inside the engine's workers, else 1."""
    source = "--threads"
    if value is None:
        value, source = os.environ.get("LIFT_THREADS"), "LIFT_THREADS"
        if not value:
            return 1 if sparse.blas_thread_handle() is None else _usable_cores()
    try:
        count = int(value)
    except ValueError:
        count = 0
    if count < 1:
        raise ParameterError(f"{source} must be a positive integer, got {value!r}")
    return count


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _read_cloud(path, stride):
    cloud = pcd_io.read_cloud(path, stride=stride)
    if cloud.dropped:
        print(f"{path}: dropped {cloud.dropped} non-finite point(s)", file=sys.stderr)
    return cloud


def cmd_infer(args) -> int:
    threads = _threads(args.threads)
    cfg = load_config(args.config)
    records = weights_io.read_weight_file(args.weights)
    kind = weights_io.file_kind(records)
    mode = "int8" if kind == "int8" else "float"
    if args.float and kind == "int8":
        raise StructuralError("--float requires a float weight file "
                              "(this file is int8-quantized)")
    if args.int8 and kind != "int8":
        raise StructuralError("--int8 requires a calibrated int8 weight file; "
                              "run the calibrate command first")

    # weights are decoded and validated before any cloud I/O, so the
    # latency below covers pillarize -> network -> decode only
    if mode == "int8":
        net = weights_io.records_to_int8_network(records)
        weights_io.validate_int8_against_config(net, cfg)
        run = quantize.run_int8_network
    else:
        net = weights_io.records_to_float_network(records)
        weights_io.validate_float_against_config(net, cfg)
        run = network.run_network

    cloud = _read_cloud(args.cloud, args.stride)
    start = time.perf_counter()
    pillars = pillarize(cloud, cfg.grid,
                        include_offsets=cfg.features.include_pillar_offsets,
                        normalize_intensity=cfg.features.normalize_intensity)
    result = run(pillars, net, cfg.grid, cfg.network, cfg.score_threshold, cfg.top_k,
                 threads)
    elapsed = time.perf_counter() - start
    pcd_io.write_detections(result.boxes, args.out)
    for name, size in result.stage_sizes.items():
        print(f"{name}: {size} active", file=sys.stderr)
    print(f"boxes: {len(result.boxes)}", file=sys.stderr)
    print(f"latency: {elapsed * 1000.0:.1f} ms ({mode}, {threads} thread(s))",
          file=sys.stderr)
    return 0


def cmd_fuse(args) -> int:
    records = weights_io.read_weight_file(args.weights_train)
    if weights_io.file_kind(records) != "train":
        raise StructuralError(f"{args.weights_train}: no branch tensors found; "
                              "file is not in training form")
    train = weights_io.records_to_float_network(records)
    fused = network.fuse_network(train)
    weights_io.write_weight_file(args.out, weights_io.float_network_records(fused))
    deviation = network.fusion_probe_deviation(train, fused)
    print(f"max relative deviation over probe inputs: {deviation:.3e}")
    return 0


def cmd_gen_weights(args) -> int:
    cfg = load_config(args.config)
    weights = network.random_network_weights(cfg.network, cfg.feature_length,
                                             args.seed, args.form)
    weights_io.write_weight_file(args.out, weights_io.float_network_records(weights))
    print(f"wrote {args.form} weights for seed {args.seed} to {args.out}")
    return 0


def _cloud_paths(path) -> list:
    p = Path(path)
    if p.is_dir():
        return sorted(q for q in p.iterdir()
                      if q.suffix.lower() in CLOUD_EXTENSIONS)
    return [p]


def cmd_macs(args) -> int:
    cfg = load_config(args.config)
    paths = _cloud_paths(args.cloud)
    if not paths:
        raise LiftError(f"{args.cloud}: no cloud files found")
    reports = []
    for path in paths:
        cloud = _read_cloud(path, args.stride)
        reports.append((path, analysis.count_macs_network(
            cloud, cfg.grid, cfg.network,
            include_offsets=cfg.features.include_pillar_offsets)))
    mean_gmacs = sum(r.total_gmacs for _, r in reports) / len(reports)
    budget = reports[0][1].budget_gmacs
    if args.json:
        doc = {"clouds": [{"path": str(p), **r.to_dict()} for p, r in reports],
               "mean_gmacs": mean_gmacs, "budget_gmacs": budget,
               "within_budget": mean_gmacs <= budget}
        print(json.dumps(doc, indent=2))
    else:
        for path, report in reports:
            if len(reports) > 1:
                print(f"== {path}")
            print(report.format_table())
        if len(reports) > 1:
            print(f"mean over {len(reports)} clouds: {mean_gmacs:.2f} GMAC")
    return 0 if mean_gmacs <= budget else 1


def cmd_ocm(args) -> int:
    dims = [int(v) for v in args.dims.split(",")]
    context = [int(v) for v in args.context.split(",")]
    print(analysis.im2col_buffer_cells(dims, context))
    return 0


def cmd_calibrate(args) -> int:
    threads = _threads(args.threads)
    cfg = load_config(args.config)
    paths = _cloud_paths(args.clouds)
    if not Path(args.clouds).is_dir() or not paths:
        raise LiftError(f"{args.clouds}: need a directory with at least one cloud")
    records = weights_io.read_weight_file(args.weights)
    kind = weights_io.file_kind(records)
    if kind == "int8":
        raise StructuralError("weights are already int8-quantized")
    weights = weights_io.records_to_float_network(records)
    if weights.form == "train":
        weights = network.fuse_network(weights)
    weights_io.validate_float_against_config(weights, cfg)

    collector = quantize.CalibrationCollector(mode=cfg.calibration_mode,
                                              percentile=cfg.calibration_percentile)
    for path in paths:
        cloud = _read_cloud(path, args.stride)
        pillars = pillarize(cloud, cfg.grid,
                            include_offsets=cfg.features.include_pillar_offsets,
                            normalize_intensity=cfg.features.normalize_intensity)
        collector(quantize.INPUT_FEATURES_SITE, pillars.features)
        network.run_network(pillars, weights, cfg.grid, cfg.network,
                            cfg.score_threshold, cfg.top_k, threads,
                            observer=collector)
    act = {site: collector.qparams(site)
           for site in quantize.activation_sites(cfg.network)}
    net = quantize.quantize_network(weights, collector.feature_qparams(), act)
    records = weights_io.int8_network_records(net)
    weights_io.records_to_int8_network(records)   # its f32 values, as infer reads them
    weights_io.write_weight_file(args.out, records)
    print(f"calibrated on {len(paths)} cloud(s) -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lift",
        description="Fully sparse INT8 pillar detector: inference and analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("infer", help="run detection on one cloud")
    p.add_argument("--weights", required=True)
    p.add_argument("--cloud", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--float", action="store_true")
    mode.add_argument("--int8", action="store_true")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--stride", type=int, choices=(4, 5), default=5,
                   help="floats per binary cloud record")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("fuse", help="fold training-form branches into single kernels")
    p.add_argument("--weights-train", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("gen-weights", help="deterministic random weight file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--form", choices=("train", "fused"), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_weights)

    p = sub.add_parser("macs", help="count multiply-accumulates for a cloud")
    p.add_argument("--cloud", required=True, help="cloud file or directory")
    p.add_argument("--config", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--stride", type=int, choices=(4, 5), default=5)
    p.set_defaults(func=cmd_macs)

    p = sub.add_parser("ocm", help="Im2Col line-buffer cells for a grid")
    p.add_argument("--dims", required=True, help="X,Y or X,Y,Z")
    p.add_argument("--context", required=True, help="KX,KY or KX,KY,KZ")
    p.set_defaults(func=cmd_ocm)

    p = sub.add_parser("calibrate", help="post-training int8 calibration")
    p.add_argument("--weights", required=True)
    p.add_argument("--clouds", required=True, help="directory of calibration clouds")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--stride", type=int, choices=(4, 5), default=5)
    p.set_defaults(func=cmd_calibrate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LiftError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
