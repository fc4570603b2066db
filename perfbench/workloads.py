"""Seeded workloads and the fixtures they run on.

Every input the engine sees is a generated stride-5 ``.bin`` cloud; the
benchmark's ``--seed`` picks the clouds. Weights do not depend on the seed:
float weights are ``random_network_weights`` seed 0 in training form, fused
by ``lift fuse``; int8 weights are those fused weights calibrated by
``lift calibrate`` on clouds of the workload's own generator, drawn from a
stream disjoint from every measured cloud.

``prepare`` runs this file in a child process, which writes the run's
clouds and, once per checkout, builds the weights; neither the generators
nor calibration count toward the peak RSS of the measured process. Weights
are cached under ``perfbench/.work`` keyed by a digest of ``src/lift`` and
this file, so a change to the engine rebuilds them.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
WEIGHT_SEED = 0
PREPARE_TIMEOUT_S = 850

# random streams: the first entropy word keeps measured, warm-up and
# calibration clouds disjoint for every seed
MEASURED, WARMUP, CALIBRATION = 0, 1, 2


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def import_lift(root: Path):
    """Import the engine from ``<root>/src`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "lift" / "__init__.py").is_file():
        raise BenchError(f"{src / 'lift'} not found; run from the root of a lift checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import lift
    if Path(lift.__file__).resolve().parent != src / "lift":
        raise BenchError(f"imported lift from {lift.__file__}, expected {src / 'lift'}")
    return lift


def scan_cloud(rng: np.random.Generator, n: int = 60000) -> np.ndarray:
    """LiDAR-like scan: range log-uniform on [2, 80] m, so point density
    per square metre falls as 1/r^2; ground returns near z = -1.8 with a
    tail of taller structure. About 37k pillars and 33 GMAC under the
    default config, with almost no truncation."""
    r = 2.0 * (80.0 / 2.0) ** rng.random(n)
    azimuth = rng.uniform(-np.pi, np.pi, n)
    z = np.minimum(-1.8 + np.abs(rng.normal(0.0, 0.4, n)), 2.9)
    return np.column_stack([r * np.cos(azimuth), r * np.sin(azimuth), z,
                            rng.uniform(0.0, 255.0, n), rng.integers(0, 64, n)])


def objects_cloud(rng: np.random.Generator, n: int = 120000, boxes: int = 22) -> np.ndarray:
    """Point-dense objects: 22 clusters at random poses, each with points
    normal around its centre (sigma 0.5 x 0.23 m, clipped to a 3.0 x 1.4 m
    box). About 4k pillars, 1 GMAC under the default config; the dense
    cores put most points over the 20-point cap (about 37 % are kept)."""
    cx = rng.uniform(-50.0, 50.0, boxes)
    cy = rng.uniform(-50.0, 50.0, boxes)
    yaw = rng.uniform(0.0, np.pi, boxes)
    owner = np.arange(n) % boxes
    u = np.clip(rng.normal(0.0, 0.5, n), -1.5, 1.5)
    v = np.clip(rng.normal(0.0, 0.7 / 3.0, n), -0.7, 0.7)
    c, s = np.cos(yaw[owner]), np.sin(yaw[owner])
    return np.column_stack([cx[owner] + c * u - s * v, cy[owner] + s * u + c * v,
                            rng.uniform(-1.8, 0.0, n), rng.uniform(0.0, 255.0, n),
                            rng.integers(0, 64, n)])


GENERATORS = {"scan": scan_cloud, "objects": objects_cloud}


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str
    mode: str          # float | int8
    pool: int          # distinct clouds per run; a longer run cycles through them


WORKLOADS = {w.name: w for w in (
    Workload("scan-float", "scan", "float", 16),
    Workload("scan-int8", "scan", "int8", 16),
    Workload("objects-int8", "objects", "int8", 64),
)}

CALIBRATION_CLOUDS = {"scan": 2, "objects": 4}


def cloud_rng(stream: int, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([stream, seed, index])


def write_cloud(path: Path, points: np.ndarray) -> None:
    points.astype("<f4").tofile(path)


def write_clouds(workload: Workload, seed: int, directory: Path) -> None:
    """Write the measured pool and a warm-up cloud (every tenth point of
    one more cloud), which runs every code path before timing starts."""
    directory.mkdir(parents=True, exist_ok=True)
    gen = GENERATORS[workload.generator]
    paths, warmup = cloud_paths(workload, directory)
    for k, path in enumerate(paths):
        write_cloud(path, gen(cloud_rng(MEASURED, seed, k)))
    write_cloud(warmup, gen(cloud_rng(WARMUP, seed, 0))[::10])


def fixture_key(root: Path) -> str:
    """Digest of the engine sources and of this file."""
    h = hashlib.sha256()
    files = sorted((root / "src" / "lift").rglob("*.py")) + [Path(__file__).resolve()]
    for path in files:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class Fixtures:
    directory: Path

    @property
    def config(self) -> Path:
        return self.directory / "config.json"

    def weights(self, workload: Workload) -> Path:
        if workload.mode == "float":
            return self.directory / "fused.lifw"
        return self.directory / f"{workload.generator}-int8.lifw"


def fixtures_for(root: Path) -> Fixtures:
    return Fixtures(WORK / f"fixtures-{fixture_key(root)}")


def prepare(root: Path, workload: Workload, seed: int, run_dir: Path):
    """Fixtures and this run's clouds, made by a child process."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), workload.name,
                           str(seed), str(run_dir)], cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=PREPARE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"preparing inputs failed:\n{proc.stdout}")
    return fixtures_for(root), cloud_paths(workload, run_dir)


def cloud_paths(workload: Workload, directory: Path) -> tuple:
    """(measured pool, warm-up cloud) file names in a run directory."""
    return [directory / f"cloud{k:03d}.bin" for k in range(workload.pool)], \
        directory / "warmup.bin"


def ensure_fixtures(root: Path) -> None:
    """Build this engine version's fixtures unless they are cached; older
    versions' fixtures are removed."""
    fx = fixtures_for(root)
    if fx.directory.is_dir():
        return
    staging = WORK / f"building-{os.getpid()}"
    try:
        build_fixtures(staging)
        for stale in WORK.glob("fixtures-*"):
            shutil.rmtree(stale, ignore_errors=True)
        os.replace(staging, fx.directory)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def build_fixtures(directory: Path) -> None:
    """Weights for every workload, made with the engine's own CLI."""
    from lift.cli import main as lift_main

    def lift(*argv):
        code = lift_main([str(a) for a in argv])
        if code != 0:
            raise BenchError(f"lift {argv[0]} exited {code}")

    directory.mkdir(parents=True)
    fx = Fixtures(directory)
    fx.config.write_text("{}\n")  # the default config
    train = directory / "train.lifw"
    lift("gen-weights", "--config", fx.config, "--seed", WEIGHT_SEED, "--form", "train",
         "--out", train)
    fused = directory / "fused.lifw"
    lift("fuse", "--weights-train", train, "--out", fused)
    train.unlink()
    for generator, count in CALIBRATION_CLOUDS.items():
        clouds = directory / f"calibration-{generator}"
        clouds.mkdir()
        for k in range(count):
            write_cloud(clouds / f"cal{k}.bin",
                        GENERATORS[generator](cloud_rng(CALIBRATION, 0, k)))
        lift("calibrate", "--weights", fused, "--clouds", clouds, "--config", fx.config,
             "--out", directory / f"{generator}-int8.lifw")
        shutil.rmtree(clouds)


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in WORKLOADS:
        sys.exit("usage: workloads.py <workload> <seed> <run directory>")
    import_lift(Path.cwd())
    ensure_fixtures(Path.cwd())
    write_clouds(WORKLOADS[sys.argv[1]], int(sys.argv[2]), Path(sys.argv[3]))
