#!/usr/bin/env python3
"""Closed-loop benchmark of the lift engine, one workload per run.

Run from the root of a lift checkout:

    python3 perfbench/run.py --workload scan-float --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

One client drives the engine through its public library calls in the
order ``lift infer`` uses: config, weight file, decode and validation once
(set-up), then per cloud ``read_cloud -> pillarize -> run_network |
run_int8_network -> write_detections``. The next cloud starts only after
the previous cloud's detections are written. The engine runs with the
thread count ``lift infer`` picks when neither ``--threads`` nor
``LIFT_THREADS`` is set; BLAS keeps its own default.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace
1`` runs every cloud once plain and once traced, in alternating order, and
reports the per-layer metrics. The last stdout line is the result JSON;
the line before it holds input properties and the environment.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import workloads
from workloads import WORKLOADS, BenchError

# set-up is timed in windows spread over the whole run: one before and one
# after the measured loop, each of at least SETUP_MIN_REPEATS loads and
# SETUP_MIN_SECONDS, and SETUP_PAUSE_REPEATS loads between clouds at most
# every SETUP_PAUSE_EVERY_S. The host's speed swings for seconds at a time,
# so setup_s is the fastest load: interference can only slow a load down.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
SETUP_PAUSE_REPEATS = 5
SETUP_PAUSE_EVERY_S = 0.5
MIN_CLOUDS = 3                # measured even when they overrun --seconds
TRACED_SETUPS = 9             # their median per span gives the weights_io metrics
GEMM_SHAPE = (4000, 576, 64)   # (rows, Cin*9, Cout) of a typical stage-1 conv
P90_MIN_CLOUDS = 100           # p90 needs ten samples beyond it


@dataclass
class Record:
    """One cloud of the measured loop."""

    index: int
    latency_s: float = 0.0
    props: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    error: str | None = None


class Engine:
    """The engine loaded once, as ``lift infer`` loads it."""

    def __init__(self, lift, config_path: Path, weights_path: Path, mode: str, threads: int):
        self.lift = lift
        self.cfg = lift.config.load_config(config_path)
        records = lift.weights_io.read_weight_file(weights_path)
        if mode == "int8":
            self.net = lift.weights_io.records_to_int8_network(records)
            lift.weights_io.validate_int8_against_config(self.net, self.cfg)
        else:
            self.net = lift.weights_io.records_to_float_network(records)
            lift.weights_io.validate_float_against_config(self.net, self.cfg)
        self.mode = mode
        self.threads = threads

    def process(self, cloud_path: Path, out_path: Path) -> tuple:
        """Run one cloud; returns (latency in s, input properties)."""
        lift, cfg = self.lift, self.cfg
        start = time.perf_counter()
        cloud = lift.pcd_io.read_cloud(cloud_path, stride=5)
        pillars = lift.pillarizer.pillarize(
            cloud, cfg.grid, include_offsets=cfg.features.include_pillar_offsets,
            normalize_intensity=cfg.features.normalize_intensity)
        run = lift.quantize.run_int8_network if self.mode == "int8" \
            else lift.network.run_network
        result = run(pillars, self.net, cfg.grid, cfg.network, cfg.score_threshold,
                     cfg.top_k, self.threads)
        lift.pcd_io.write_detections(result.boxes, out_path)
        latency = time.perf_counter() - start
        props = {"points": len(cloud), "in_range": len(cloud) - pillars.out_of_range,
                 "pillars": len(pillars), "truncated": pillars.truncated,
                 "boxes": len(result.boxes)}
        props.update({f"active.{k}": v for k, v in result.stage_sizes.items()})
        return latency, props


def load_lift(root: Path):
    lift = workloads.import_lift(root)
    for module in ("analysis", "cli", "config", "network", "pcd_io", "pillarizer",
                   "quantize", "weights_io"):
        importlib.import_module(f"lift.{module}")
    return lift


def engine_threads(lift) -> int:
    """What ``lift infer`` uses with neither --threads nor LIFT_THREADS."""
    os.environ.pop("LIFT_THREADS", None)
    return lift.cli._threads(None)


def blas_info() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def gemm_ceiling(dtype, seconds: float = 0.4) -> float:
    """GMAC/s of one (rows x K) @ (K x Cout) BLAS product, best of the
    calls made in ``seconds``: interference can only slow a call down."""
    rows, k, cout = GEMM_SHAPE
    rng = np.random.default_rng(0)
    a = rng.standard_normal((rows, k)).astype(dtype)
    b = rng.standard_normal((k, cout)).astype(dtype)
    a @ b
    times = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(times) < 5:
        t = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t)
    return rows * k * cout / min(times) / 1e9


def closed_loop(step, seconds: float, pause=None) -> tuple:
    """Call step(k) back to back; stop once the next call would end past
    ``seconds`` and at least MIN_CLOUDS ran. ``pause()``, if given, runs
    between calls off the clock. Returns (records, wall s of the calls)."""
    records = []
    wall = 0.0
    while True:
        t = time.perf_counter()
        records.append(step(len(records)))
        took = time.perf_counter() - t
        wall += took
        if len(records) >= MIN_CLOUDS and wall + took > seconds:
            return records, wall
        if pause is not None:
            pause()


def run_cloud(engine: Engine, path: Path, out: Path, rec: Record) -> bytes | None:
    """Process one cloud into rec; returns the detection bytes, or None
    after recording the error."""
    try:
        rec.latency_s, rec.props = engine.process(path, out)
        return out.read_bytes()
    except Exception as e:  # a failing cloud is counted; the run goes on
        rec.error = f"{type(e).__name__}: {e}"
        return None


def check_output(rec: Record, data: bytes, cfg, expected: str | None) -> None:
    problems = checks.detection_problems(data, cfg.network.class_names, cfg.top_k)
    if expected is not None and checks.sha256(data) != expected:
        problems.append("sha256 differs from the recorded digest")
    if problems and rec.error is None:
        rec.error = "; ".join(problems[:3])


def expected_digests(workload: str, seed: int) -> list:
    return checks.load_digests(workload) if seed == checks.DIGEST_SEED else []


class SetupTimer:
    """Times full engine loads in windows; ``times`` holds every load."""

    def __init__(self, lift, fx, workload, threads: int):
        self.load = functools.partial(Engine, lift, fx.config, fx.weights(workload),
                                      workload.mode, threads)
        self.times = []
        self.last = time.perf_counter()

    def window(self, repeats: int, seconds: float = 0.0) -> Engine:
        """At least ``repeats`` loads taking ``seconds``; returns the last engine."""
        start = len(self.times)
        while len(self.times) - start < repeats or sum(self.times[start:]) < seconds:
            t = time.perf_counter()
            engine = self.load()
            self.times.append(time.perf_counter() - t)
        self.last = time.perf_counter()
        return engine

    def pause(self) -> None:
        """A short window, unless one ran within SETUP_PAUSE_EVERY_S."""
        if time.perf_counter() - self.last >= SETUP_PAUSE_EVERY_S:
            self.window(SETUP_PAUSE_REPEATS)


def untraced_run(engine, paths, warmup, run_dir, args, digests, pause) -> tuple:
    warm = Record(index=-1)
    run_cloud(engine, warmup, run_dir / "warmup.jsonl", warm)

    def step(k):
        rec = Record(index=k)
        pool = k % len(paths)
        data = run_cloud(engine, paths[pool], run_dir / f"det{pool:03d}.jsonl", rec)
        if data is not None:
            check_output(rec, data, engine.cfg, digests[pool] if pool < len(digests) else None)
        return rec

    records, wall = closed_loop(step, args.seconds, pause)
    return [warm] + records, wall


def traced_run(lift, engine, fx, paths, warmup, run_dir, args, workload, digests) -> tuple:
    """Each cloud runs plain and traced (alternating which goes first),
    then ``count_macs_network`` gives the reference MAC count."""
    import layers
    from tracer import Tracer, instrument

    tracer = Tracer()
    stages = layers.stage_widths(engine.cfg.grid.width)
    ceiling = {"f64": gemm_ceiling(np.float64), "f32": gemm_ceiling(np.float32)}

    def traced(path, out, rec):
        with instrument(tracer), tracer.span("cloud") as root:
            data = run_cloud(engine, path, out, rec)
        return data, root

    warm = Record(index=-1)
    run_cloud(engine, warmup, run_dir / "warmup.jsonl", warm)
    traced(warmup, run_dir / "warmup.jsonl", warm)

    def step(k):
        tracer.roots.clear()
        pool = k % len(paths)
        plain_rec, rec = Record(index=k), Record(index=k)
        plain_out, out = run_dir / f"det{pool:03d}.jsonl", run_dir / f"det{pool:03d}.t.jsonl"
        if k % 2 == 0:
            plain = run_cloud(engine, paths[pool], plain_out, plain_rec)
            data, root = traced(paths[pool], out, rec)
        else:
            data, root = traced(paths[pool], out, rec)
            plain = run_cloud(engine, paths[pool], plain_out, plain_rec)
        rec.error = rec.error or plain_rec.error
        if rec.error is not None:
            return rec
        check_output(rec, plain, engine.cfg, digests[pool] if pool < len(digests) else None)
        if data != plain:
            rec.error = "traced detections differ from untraced ones"
            return rec
        cfg = engine.cfg
        cloud = lift.pcd_io.read_cloud(paths[pool], stride=5)
        with instrument(tracer):
            report = lift.analysis.count_macs_network(
                cloud, cfg.grid, cfg.network, include_offsets=cfg.features.include_pillar_offsets)
        rec.layers = layers.cloud_metrics(root, stages, ceiling["f64"])
        conv_ref = sum(layer.macs for layer in report.layers if layer.kind != "linear")
        encoder_ref = report.total_macs - conv_ref
        if (rec.layers["sparse.conv.macs"], rec.layers["encoder.macs"]) != (conv_ref, encoder_ref):
            rec.error = (f"traced MACs conv {rec.layers['sparse.conv.macs']:.0f} / encoder "
                         f"{rec.layers['encoder.macs']:.0f} != count_macs_network "
                         f"{conv_ref} / {encoder_ref}")
        rec.layers["analysis.count_macs_network.ms"] = tracer.roots[-1].duration * 1e3
        rec.layers["analysis.gmac_per_cloud"] = report.total_gmacs
        rec.layers["trace.overhead_ms"] = (rec.latency_s - plain_rec.latency_s) * 1e3
        return rec

    records, wall = closed_loop(step, args.seconds)

    setups = []
    for _ in range(TRACED_SETUPS):
        tracer.roots.clear()
        with instrument(tracer):
            Engine(lift, fx.config, fx.weights(workload), workload.mode, engine.threads)
        totals = {}
        for span in tracer.roots:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration * 1e3
        setups.append(totals)
    run_level = {f"{name}.ms": statistics.median(s.get(name, 0.0) for s in setups)
                 for name in ("weights_io.read_weight_file", "weights_io.records_to_network",
                              "weights_io.validate")}
    run_level["ceiling.gemm_f64.gmac_per_s"] = ceiling["f64"]
    run_level["ceiling.gemm_f32.gmac_per_s"] = ceiling["f32"]
    return [warm] + records, wall, run_level


def summarize(records, key) -> dict:
    """Median over successful measured clouds of each numeric entry."""
    ok = [getattr(r, key) for r in records if r.error is None and r.index >= 0]
    names = sorted({n for d in ok for n in d})
    return {n: statistics.median(d[n] for d in ok if n in d) for n in names}


def run_workload(args) -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    lift = load_lift(root)
    workload = WORKLOADS[args.workload]
    run_dir = workloads.WORK / f"run-{os.getpid()}"
    try:
        fx, (paths, warmup) = workloads.prepare(root, workload, args.seed, run_dir)
        threads = engine_threads(lift)
        digests = expected_digests(workload.name, args.seed)
        setup = SetupTimer(lift, fx, workload, threads)
        engine = setup.window(SETUP_MIN_REPEATS, SETUP_MIN_SECONDS)
        if args.trace:
            records, wall, run_level = traced_run(lift, engine, fx, paths, warmup, run_dir,
                                                  args, workload, digests)
        else:
            records, wall = untraced_run(engine, paths, warmup, run_dir, args, digests,
                                         setup.pause)
            setup.window(SETUP_MIN_REPEATS, SETUP_MIN_SECONDS)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = [r for r in records if r.error is not None]
    measured = [r for r in records if r.index >= 0 and r.error is None]
    latencies_ms = [r.latency_s * 1e3 for r in measured]
    detail = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "clouds_measured": len(measured),
        "inputs": summarize(records, "props"),
        "environment": {
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "engine_threads": threads, "blas": blas_info(), "numpy": np.__version__,
            "python": platform.python_version(), "machine": platform.machine()},
        "errors": [f"cloud {r.index}: {r.error}" for r in failed][:10],
    }
    if not args.trace:
        detail["latency_ms"] = latencies_ms
        detail["setup_ms"] = [t * 1e3 for t in setup.times]
        if len(latencies_ms) >= P90_MIN_CLOUDS:
            detail["latency_ms.p90"] = statistics.quantiles(latencies_ms, n=10)[-1]

    if not measured:
        values = {}
    elif args.trace:
        values = summarize(records, "layers")
        detail["inputs"]["gmac_per_cloud"] = values["analysis.gmac_per_cloud"]
        values.update(run_level)
    else:
        values = {"latency_ms.p50": statistics.median(latencies_ms),
                  "clouds_per_s": len(measured) / wall,
                  "setup_s": min(setup.times), "peak_rss_mb": peak_rss_mb}
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in section if m["name"] in values}
    correct = not failed and len(metrics) == len(section)
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failed),
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; a table, then one JSON line."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines else {"correct": False}
        res = results[name]
        print(f"== {name}: correct={res.get('correct')} attempted={res.get('attempted')} "
              f"failed={res.get('failed')}")
        for metric, m in res.get("metrics", {}).items():
            print(f"  {metric:<40} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r.get("correct") for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            load_lift(Path.cwd())
            return run_all(args)
        return run_workload(args)
    except (BenchError, OSError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
