"""Hardware-budget arithmetic: MAC counting and line-buffer sizing.

MACs are counted from actual rulebooks: every (offset, input, output)
pair of a sparse convolution costs Cin * Cout multiply-accumulates.
Rulebook construction, pooling comparisons and requantization are not
multiply-accumulates and are excluded. The line-buffer model sizes the
on-chip memory a streaming Im2Col stage needs: k_y - 1 full rows plus
k_x leading cells (times the Z extent for 3D grids), which is why 2D
cell grids beat 3D voxel grids by two orders of magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .network import ENCODER_SITE, NetworkConfig, network_ops
from .pcd_io import PointCloud
from .pillarizer import GridConfig, pillarize
from .sparse import SparseTensor2D, build_rulebook

GMAC = 10 ** 9
DEFAULT_BUDGET_GMAC = 30.0


@dataclass(frozen=True)
class LayerMacs:
    name: str
    kind: str
    taps: int          # rulebook pairs (or points for the encoder)
    macs: int


@dataclass
class MacReport:
    layers: list = field(default_factory=list)
    budget_gmacs: float = DEFAULT_BUDGET_GMAC

    def add(self, name: str, kind: str, taps: int, cin: int, cout: int):
        self.layers.append(LayerMacs(name=name, kind=kind, taps=taps,
                                     macs=taps * cin * cout))

    @property
    def total_macs(self) -> int:
        return sum(layer.macs for layer in self.layers)

    @property
    def total_gmacs(self) -> float:
        return self.total_macs / GMAC

    @property
    def within_budget(self) -> bool:
        return self.total_gmacs <= self.budget_gmacs

    def to_dict(self) -> dict:
        return {
            "layers": [vars(l) for l in self.layers],
            "total_macs": self.total_macs,
            "total_gmacs": self.total_gmacs,
            "budget_gmacs": self.budget_gmacs,
            "within_budget": self.within_budget,
        }

    def format_table(self) -> str:
        width = max([len(l.name) for l in self.layers] + [5])
        lines = [f"{'layer':<{width}}  {'kind':<12} {'taps':>12} {'macs':>16}"]
        for l in self.layers:
            lines.append(f"{l.name:<{width}}  {l.kind:<12} {l.taps:>12} {l.macs:>16}")
        lines.append(f"total: {self.total_macs} MAC = {self.total_gmacs:.2f} GMAC "
                     f"(budget {self.budget_gmacs:.2f} GMAC: "
                     f"{'PASS' if self.within_budget else 'FAIL'})")
        return "\n".join(lines)


def count_macs_network(cloud: PointCloud, grid: GridConfig, cfg: NetworkConfig,
                       *, include_offsets: bool = True) -> MacReport:
    """Walk the network's op list building only rulebooks (no
    arithmetic) and total the multiply-accumulates, encoder and head
    included. Submanifold convs on one active set share its table, as
    the executors' do (sparse.build_rulebook)."""
    pillars = pillarize(cloud, grid, include_offsets=include_offsets)
    report = MacReport()
    report.add("dbpfn", "linear", pillars.point_count,
               pillars.feature_length, cfg.encoder_hidden)

    active = {ENCODER_SITE: _active(pillars.width, pillars.height, pillars.coords)}
    widths = {ENCODER_SITE: cfg.encoder_out}
    for op in network_ops(cfg.stage_depths, cfg):
        x = active[op.inputs[0]]
        cin = widths[op.inputs[0]]
        cout = widths[op.output] = op.out_width(cin)
        if op.kind == "add":
            active[op.output] = x
            continue
        rb = build_rulebook(x, op.k, op.mode)
        report.add(op.name, "downsample" if op.mode == "stride2" else "submanifold",
                   rb.pair_count(), cin, cout)
        active[op.output] = x if op.mode == "submanifold" else \
            _active(rb.out_width, rb.out_height, rb.out_coords)
    return report


def _active(width: int, height: int, coords: np.ndarray) -> SparseTensor2D:
    """Zero-channel tensor carrying just an active set."""
    return SparseTensor2D(width=width, height=height, coords=coords,
                          features=np.empty((coords.shape[0], 0)))


def im2col_buffer_cells(dims, context) -> int:
    """Line-buffer cells a streaming Im2Col stage must hold on chip.

    2D [X, Y] with context [kx, ky]:      X * (ky - 1) + kx
    3D [X, Y, Z] with [kx, ky, kz]:       Z * X * (ky - 1) + X * (kz - 1) + kx

    i.e. ky - 1 buffered rows (each X cells wide, times Z in 3D) plus
    the partially filled leading row. Context sizes must be odd.
    """
    dims = tuple(int(d) for d in dims)
    context = tuple(int(k) for k in context)
    if len(dims) != len(context) or len(dims) not in (2, 3):
        raise ParameterError("dims and context must both have 2 or 3 axes")
    if any(d < 1 for d in dims) or any(k < 1 for k in context):
        raise ParameterError("dims and context must be positive")
    if any(k % 2 == 0 for k in context):
        raise ParameterError("context sizes must be odd")
    x = dims[0]
    kx, ky = context[0], context[1]
    if len(dims) == 2:
        return x * (ky - 1) + kx
    z = dims[2]
    kz = context[2]
    return z * x * (ky - 1) + x * (kz - 1) + kx


def dpu_budget(macs_per_cycle: int, clock_hz: float, cloud_rate_hz: float) -> float:
    """GMAC available per cloud: macs_per_cycle * clock / rate / 1e9."""
    if macs_per_cycle <= 0 or clock_hz <= 0 or cloud_rate_hz <= 0:
        raise ParameterError("all budget parameters must be positive")
    return macs_per_cycle * clock_hz / cloud_rate_hz / GMAC
