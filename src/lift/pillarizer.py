"""Pillar grid binning and per-point input features.

Each retained point yields a feature row

    [x_coarse, x_detail, y_coarse, y_detail, z_coarse, z_detail,
     intensity, dx_center, dy_center]

where every coordinate is split into a coarse lattice position (a
multiple of 1/256 of the axis range, so it fits one signed byte when
divided by that step) and a sub-step detail remainder. The split keeps
8-bit feature quantization from destroying localization: with the
default +-54 m range the detail step after its own 8-bit quantization
is 108/65536 m ~ 1.65 mm, versus ~0.42 m for a naive single feature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, RangeError
from .pcd_io import PointCloud

COARSE_LEVELS = 256  # one signed byte of lattice positions per axis
# the sparse engine indexes a grid densely, one machine word per cell
MAX_GRID_CELLS = 4096 * 4096

FEATURE_NAMES = (
    "x_coarse", "x_detail", "y_coarse", "y_detail", "z_coarse", "z_detail",
    "intensity", "dx_center", "dy_center",
)


@dataclass(frozen=True)
class GridConfig:
    x_min: float = -54.0
    x_max: float = 54.0
    y_min: float = -54.0
    y_max: float = 54.0
    z_min: float = -5.0
    z_max: float = 3.0
    pillar_size_x: float = 0.15
    pillar_size_y: float = 0.15
    max_points_per_pillar: int = 20

    def __post_init__(self):
        for lo, hi, axis in ((self.x_min, self.x_max, "x"), (self.y_min, self.y_max, "y"),
                             (self.z_min, self.z_max, "z")):
            if not hi > lo:
                raise ParameterError(f"{axis}_max must exceed {axis}_min")
        if self.pillar_size_x <= 0 or self.pillar_size_y <= 0:
            raise ParameterError("pillar sizes must be positive")
        if self.max_points_per_pillar < 1:
            raise ParameterError("max_points_per_pillar must be >= 1")
        for span, size, axis in (((self.x_max - self.x_min), self.pillar_size_x, "x"),
                                 ((self.y_max - self.y_min), self.pillar_size_y, "y")):
            cells = round(span / size)
            if cells < 1 or abs(cells * size - span) > 1e-9:
                raise ParameterError(
                    f"{axis} range {span} is not an exact multiple of pillar size {size}")
        if self.width * self.height > MAX_GRID_CELLS:
            raise ParameterError(f"grid of {self.width} x {self.height} pillars exceeds "
                                 f"{MAX_GRID_CELLS} cells")

    @property
    def width(self) -> int:
        return round((self.x_max - self.x_min) / self.pillar_size_x)

    @property
    def height(self) -> int:
        return round((self.y_max - self.y_min) / self.pillar_size_y)


def coarse_resolution(v_min: float, v_max: float) -> float:
    """Lattice step of the coarse feature: (v_max - v_min) / 256."""
    return (v_max - v_min) / COARSE_LEVELS


def effective_detail_step(v_min: float, v_max: float) -> float:
    """Localization step after quantizing the detail feature to 8 bits."""
    return coarse_resolution(v_min, v_max) / 256.0


def coarse_detail_split(v, v_min: float, v_max: float):
    """Split a coordinate into (coarse, detail) with coarse + detail == v.

    coarse = floor(v / resolution) * resolution snaps to the 256-level
    lattice over [v_min, v_max); detail = v - coarse lies in
    [0, resolution). Accepts scalars or arrays. Callers must have
    range-filtered: v outside [v_min, v_max) raises.
    """
    arr = np.asarray(v, dtype=np.float64)
    if np.any(arr < v_min) or np.any(arr >= v_max):
        raise RangeError(f"coordinate outside [{v_min}, {v_max})")
    res = coarse_resolution(v_min, v_max)
    steps = np.floor(arr / res)
    coarse = steps * res
    detail = arr - coarse
    # float edges: keep detail in [0, res) while coarse stays on the lattice;
    # the final clip covers values for which v - coarse rounds to res itself
    # (costs at most one ulp of reconstruction accuracy)
    high = detail >= res
    coarse = np.where(high, coarse + res, coarse)
    detail = np.where(high, arr - coarse, detail)
    low = detail < 0
    coarse = np.where(low, coarse - res, coarse)
    detail = np.where(low, arr - coarse, detail)
    detail = np.clip(detail, 0.0, np.nextafter(res, 0.0))
    if arr.ndim == 0:
        return float(coarse), float(detail)
    return coarse, detail


@dataclass
class PillarSet:
    """Non-empty pillars in canonical row-major (by j, then i) order.

    coords[m] = (i, j) for pillar m; features holds the per-point rows
    of all pillars concatenated in pillar order, sliced by offsets
    (pillar m owns features[offsets[m]:offsets[m + 1]]). Bookkeeping
    counters make the conservation law checkable:
    kept + out_of_range + truncated == len(cloud).
    """

    width: int
    height: int
    coords: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))
    features: np.ndarray = field(default_factory=lambda: np.empty((0, len(FEATURE_NAMES))))
    offsets: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.int64))
    out_of_range: int = 0
    truncated: int = 0

    def __len__(self) -> int:
        return self.coords.shape[0]

    @property
    def point_count(self) -> int:
        return self.features.shape[0]

    @property
    def feature_length(self) -> int:
        return self.features.shape[1]


def pillarize(cloud: PointCloud, cfg: GridConfig, *, include_offsets: bool = True,
              normalize_intensity: bool = False) -> PillarSet:
    """Bin a cloud into pillars and compute per-point features.

    Points outside the half-open XYZ ranges are discarded; within a
    pillar the cloud order is preserved and entries past
    max_points_per_pillar are dropped from the tail, so output is
    deterministic regardless of how the work is scheduled.
    """
    width, height = cfg.width, cfg.height
    pts = cloud.data.astype(np.float64)
    x, y, z, intensity = pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3]
    # clipped: a far-off point would overflow the cast, and is dropped anyway
    i = np.floor(np.clip((x - cfg.x_min) / cfg.pillar_size_x, -1, width)).astype(np.int64)
    j = np.floor(np.clip((y - cfg.y_min) / cfg.pillar_size_y, -1, height)).astype(np.int64)
    in_range = (
        (x >= cfg.x_min) & (x < cfg.x_max)
        & (y >= cfg.y_min) & (y < cfg.y_max)
        & (z >= cfg.z_min) & (z < cfg.z_max)
        & (i >= 0) & (i < width) & (j >= 0) & (j < height)
    )
    out_of_range = int((~in_range).sum())
    keep = np.nonzero(in_range)[0]

    # canonical pillar order is ascending key = j * width + i, and cloud
    # order inside each pillar: one sort of (key << b) | rank, where b
    # bits hold every rank, keeps both. Keys are below MAX_GRID_CELLS =
    # 2^24, so the packed values fit int64, and they are all distinct, so
    # any sort gives this one order.
    key = j[keep] * width + i[keep]
    bits = int(keep.size).bit_length()
    packed = np.sort((key << bits) | np.arange(keep.size))
    keep = keep[packed & ((1 << bits) - 1)]
    key = packed >> bits

    # pillar runs of equal keys; entries past the cap are cut from each tail
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    counts = np.diff(starts, append=key.size)
    within_cap = np.arange(key.size) - np.repeat(starts, counts) < cfg.max_points_per_pillar
    truncated = int(key.size - within_cap.sum())
    keep = keep[within_cap]

    xk, yk, zk = x[keep], y[keep], z[keep]
    ik, jk = i[keep], j[keep]
    x_coarse, x_detail = coarse_detail_split(xk, cfg.x_min, cfg.x_max)
    y_coarse, y_detail = coarse_detail_split(yk, cfg.y_min, cfg.y_max)
    z_coarse, z_detail = coarse_detail_split(zk, cfg.z_min, cfg.z_max)
    inten = intensity[keep] / 255.0 if normalize_intensity else intensity[keep]
    columns = [x_coarse, x_detail, y_coarse, y_detail, z_coarse, z_detail, inten]
    if include_offsets:
        cx = cfg.x_min + (ik + 0.5) * cfg.pillar_size_x
        cy = cfg.y_min + (jk + 0.5) * cfg.pillar_size_y
        columns += [xk - cx, yk - cy]
    features = np.column_stack(columns)

    offsets = np.r_[0, np.cumsum(np.minimum(counts, cfg.max_points_per_pillar))]
    pillar_keys = key[starts]
    coords = np.column_stack([pillar_keys % width, pillar_keys // width])

    return PillarSet(width=width, height=height, coords=coords, features=features,
                     offsets=offsets, out_of_range=out_of_range, truncated=truncated)
