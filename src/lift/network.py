"""Full detector graph: dual-bound pillar encoder, 4-stage sparse
backbone, multi-scale fusion, sparse center head, box decoding.

The encoder maps every point through one linear layer (no ReLU -- the
min half would otherwise collapse to zeros) and concatenates per-pillar
max pooling with min pooling, so each output feature is tied to the two
extreme points of its pillar instead of one. Each backbone stage is a
stride-2 reparameterizable conv followed by a run of submanifold ones;
stages 3 and 4 are added back onto stage 2's active set for the head.

Everything after the encoder is written down once, as the op list of
``network_ops``. The float and int8 executors, MAC counting, the
residual-add audit, calibration sites and weight-file tensor names are
all derived from it.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import ShapeError, StructuralError
from .pillarizer import GridConfig, PillarSet
from .quant import dequantize
from .reparam import (BN_EPSILON, BnParams, FusedConvLayer, RepConvLayer, apply_fused,
                      apply_training_form, fuse)
from .sparse import (SparseTensor2D, empty_zero_row, one_blas_thread, relu,
                     sparse_add_projected, sparse_conv_stride2, sparse_max_pool,
                     submanifold_conv)

DEFAULT_CLASS_NAMES = (
    "car", "truck", "construction_vehicle", "bus", "trailer",
    "barrier", "motorcycle", "pedestrian", "traffic_cone", "bicycle",
)

# regression row: [offset_x, offset_y, z, log_l, log_w, log_h, sin_yaw, cos_yaw]
REGRESSION_CHANNELS = 8
OFFSET_CLAMP = 1.0     # cells; keeps decoded centers near their site
LOG_SIZE_CLAMP = 8.0   # keeps exp() finite for arbitrary regressions
HEAD_STRIDE = 4        # the head maps' pillar stride (stage 2's resolution)


@dataclass(frozen=True)
class NetworkConfig:
    encoder_out: int = 64
    stage_channels: tuple = (64, 64, 128, 128)
    stage_depths: tuple = (6, 12, 6, 6)
    align_channels: int = 128
    num_classes: int = 10
    # None: DEFAULT_CLASS_NAMES for 10 classes, else class_0, class_1, ...
    class_names: tuple | None = None

    def __post_init__(self):
        if len(self.stage_channels) != 4 or len(self.stage_depths) != 4:
            raise StructuralError("stage_channels and stage_depths need 4 values each")
        if self.encoder_out % 2 != 0:
            raise StructuralError(f"encoder_out must be even, got {self.encoder_out}")
        if not (self.stage_channels[2] == self.stage_channels[3] == self.align_channels):
            raise StructuralError(f"align_channels ({self.align_channels}) must equal the "
                                  f"stage 3/4 stage_channels {self.stage_channels[2:]}")
        if self.num_classes < 1:
            raise StructuralError("need at least one class")
        if self.class_names is None:
            object.__setattr__(self, "class_names", DEFAULT_CLASS_NAMES
                               if self.num_classes == len(DEFAULT_CLASS_NAMES)
                               else tuple(f"class_{k}" for k in range(self.num_classes)))
        if len(self.class_names) != self.num_classes:
            raise StructuralError(f"class_names has {len(self.class_names)} names, "
                                  f"num_classes is {self.num_classes}")

    @property
    def encoder_hidden(self) -> int:
        """Width of the per-point linear map; pooling concat doubles it."""
        return self.encoder_out // 2


# ---------------------------------------------------------------------------
# the op list: the one description of the detector's wiring

ENCODER_SITE = "dbpfn.out"


@dataclass(frozen=True)
class Op:
    """One step after the encoder, reading and writing named sites.

    A conv reads one site; a projected add reads a base site and one
    ``factor`` times coarser and keeps the base's active set. ``cout``
    is the output width where something fixes it (the regression
    layout, or the config the list was built with); ``keeps_width``
    ops are as wide as their input. Backbone ops (``stage`` > 0) are
    the reparameterizable layers. ``mode`` is the only record of how a
    conv runs (layers hold weights only).
    """

    name: str
    kind: str                    # conv | add
    segment: str                 # backbone | fusion | head
    inputs: tuple
    output: str
    k: int = 1
    mode: str = "submanifold"    # submanifold | stride2
    relu: bool = False
    factor: int = 1
    stage: int = 0
    cout: int | None = None
    keeps_width: bool = False

    def out_width(self, cin: int) -> int | None:
        return cin if self.keeps_width else self.cout

    @property
    def tensor_prefix(self) -> str:
        """Name prefix of a fused or int8 conv op's tensors; backbone
        layers name their branch, as training-form files do."""
        return f"{self.name}.fused" if self.stage else self.name


def _layer_name(stage: int, idx: int) -> str:
    return f"stage{stage}.layer{idx}"


@lru_cache(maxsize=16)  # op lists are immutable; weight loading asks twice
def network_ops(stage_depths: tuple, cfg: NetworkConfig | None = None) -> tuple:
    """The detector after the encoder, as ops in execution order.

    Each stage is a stride-2 3x3 conv followed by ``depth`` submanifold
    ones, all with ReLU. A 1x1 conv aligns stage 2 to the fusion width;
    stages 3 and 4 are added onto it; two head branches (3x3 conv and
    ReLU, then 1x1 conv) give the class heatmap and the box regression.
    With a config, every conv op carries the output width it gives.
    """
    ops = []
    site = ENCODER_SITE
    stage_outs = []
    for s, depth in enumerate(stage_depths, start=1):
        for idx in range(depth + 1):
            name = _layer_name(s, idx)
            ops.append(Op(name, "conv", "backbone", (site,), f"{name}.out", k=3,
                          mode="stride2" if idx == 0 else "submanifold", relu=True,
                          stage=s, cout=None if cfg is None else cfg.stage_channels[s - 1]))
            site = f"{name}.out"
        stage_outs.append(site)
    ops += [
        Op("align", "conv", "fusion", (stage_outs[1],), "align.out",
           cout=None if cfg is None else cfg.align_channels),
        Op("fusion.add3", "add", "fusion", ("align.out", stage_outs[2]), "fusion.add3.out",
           factor=2, keeps_width=True),
        Op("fusion.add4", "add", "fusion", ("fusion.add3.out", stage_outs[3]), "fusion.out",
           factor=4, keeps_width=True),
    ]
    for tag, cout in (("cls", None if cfg is None else cfg.num_classes),
                      ("reg", REGRESSION_CHANNELS)):
        ops += [
            Op(f"head.{tag}.conv", "conv", "head", ("fusion.out",), f"head.{tag}.conv.out",
               k=3, relu=True, keeps_width=True),
            Op(f"head.{tag}.out", "conv", "head", (f"head.{tag}.conv.out",),
               f"head.{tag}.out", cout=cout),
        ]
    return tuple(ops)


def present_stage_depths(present) -> tuple:
    """Stage depths of a network whose backbone ops are those with
    present(op name); a stage with no layer reads as depth 0, so its
    missing stride-2 layer is what a reader reports."""
    depths = []
    for s in range(1, 5):
        n = 0
        while present(_layer_name(s, n)):
            n += 1
        depths.append(max(n - 1, 0))
    return tuple(depths)


# ---------------------------------------------------------------------------
# weights and the executor


@dataclass(frozen=True)
class DbpfnParams:
    """Per-point linear map of the dual-bound encoder."""

    weight: np.ndarray           # (F_in, H)
    bias: np.ndarray             # (H,)
    bn: BnParams | None = None


@dataclass(frozen=True)
class NetworkWeights:
    form: str                    # "train" | "fused"
    dbpfn: DbpfnParams
    ops: tuple                   # network_ops of the stage depths
    layers: dict                 # conv op name -> RepConvLayer | FusedConvLayer

    def apply(self, op: Op, xs: list, threads: int = 1) -> SparseTensor2D:
        """One op on real tensors, its ReLU included: fused convs rectify
        each output tile, training-form layers their branch sum."""
        if op.kind == "add":
            return sparse_add_projected(xs[0], xs[1], op.factor)
        layer = self.layers[op.name]
        if isinstance(layer, RepConvLayer):
            y = apply_training_form(layer, xs[0], op.mode, threads=threads)
            return relu(y) if op.relu else y
        conv = sparse_conv_stride2 if op.mode == "stride2" else submanifold_conv
        return conv(xs[0], layer.kernel, layer.bias, threads=threads, relu=op.relu)


@dataclass(frozen=True)
class DetectionBox:
    class_id: int
    class_name: str
    score: float
    x: float
    y: float
    z: float
    l: float
    w: float
    h: float
    yaw: float

    def __post_init__(self):
        if not (self.l > 0 and self.w > 0 and self.h > 0):
            raise StructuralError("box sizes must be positive")
        if not math.isfinite(self.score):
            raise StructuralError("box score must be finite")


def dbpfn_encode(pillars: PillarSet, params: DbpfnParams) -> SparseTensor2D:
    """Dual-bound pillar encoding: linear map per point, then
    concat(max-pool, min-pool) over each pillar. No ReLU before the
    pooling, so the min half carries real lower-bound information. Like a
    float conv's, the output buffer has a spare +0.0 row that the first
    conv reads in place of a padded copy."""
    if pillars.feature_length != params.weight.shape[0]:
        raise ShapeError(
            f"pillar features have length {pillars.feature_length}, "
            f"encoder expects {params.weight.shape[0]}")
    hidden = params.weight.shape[1]
    mapped = pillars.features @ params.weight.astype(np.float64) + params.bias
    if params.bn is not None:
        mapped = params.bn.apply(mapped)
    pooled = dual_bound_pool(mapped, pillars.offsets, empty_zero_row(len(pillars), 2 * hidden))
    return SparseTensor2D.build(pillars.width, pillars.height, pillars.coords, pooled)


def dual_bound_pool(values: np.ndarray, offsets: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """concat(max, min) of values over each pillar's rows
    offsets[m]:offsets[m + 1] (all non-empty), as one (P, 2H) array of
    values' dtype, written into out when given.

    Equal, bit for bit, to np.maximum.reduceat and np.minimum.reduceat:
    each pillar's bounds start at its first row and take np.maximum /
    np.minimum with its later rows in order, so even ties between signed
    zeros resolve the same. The pillars of two or more points are
    visited in descending point count, so those still holding a point at
    rank p are a prefix of that order, and each rank updates one
    contiguous block of bounds in place.
    """
    hidden = values.shape[1]
    starts = offsets[:-1]
    counts = np.diff(offsets)
    if out is None:
        out = np.empty((starts.size, 2 * hidden), dtype=values.dtype)
    out[:, :hidden] = np.take(values, starts, axis=0)
    out[:, hidden:] = out[:, :hidden]
    # alive[p]: pillars holding more than p points
    alive = starts.size - np.cumsum(np.bincount(counts, minlength=2))
    multi = np.argsort(-counts)[:alive[1]]
    first = starts[multi]
    hi = np.take(values, first, axis=0)
    lo = hi.copy()
    rows = np.empty_like(hi)
    for p in range(1, alive.size - 1):
        m = alive[p]
        # indices are in range: "clip" only lets take fill rows unbuffered
        np.take(values, first[:m] + p, axis=0, out=rows[:m], mode="clip")
        np.maximum(hi[:m], rows[:m], out=hi[:m])
        np.minimum(lo[:m], rows[:m], out=lo[:m])
    out[multi, :hidden] = hi
    out[multi, hidden:] = lo
    return out


def _run(weights, segment: str, inputs: list, threads: int, observer) -> tuple:
    """Run one segment of weights.ops, for either path; weights.apply
    runs an op and its ReLU.

    inputs hold the sites the segment reads from earlier segments, in
    reading order. _run empties the list and drops each site after its
    last reader in the whole network, which frees it unless the caller
    kept a reference; what is left is returned in the order it was made.
    """
    ops = [op for op in weights.ops if op.segment == segment]
    made = {op.output for op in ops}
    sites = dict(zip(dict.fromkeys(s for op in ops for s in op.inputs if s not in made),
                     inputs))
    inputs.clear()
    last_reader = {s: op.name for op in weights.ops for s in op.inputs}
    for op in ops:
        y = weights.apply(op, [sites[s] for s in op.inputs], threads)
        for s in op.inputs:
            if last_reader[s] == op.name:
                del sites[s]
        sites[op.output] = y
        if observer is not None:
            observer(op.output, y.features)
    return tuple(sites.values())


def run_backbone(x: SparseTensor2D, weights, threads: int = 1, observer=None):
    """Run the 4 stages; returns stage 2, 3, 4 outputs (strides 4, 8, 16)."""
    inputs = [x]
    del x   # so that _run holds the only reference this call makes
    return _run(weights, "backbone", inputs, threads, observer)


def fuse_scales(s2: SparseTensor2D, s3: SparseTensor2D, s4: SparseTensor2D, weights,
                threads: int = 1, observer=None) -> SparseTensor2D:
    """Project stages 3 and 4 onto stage 2's active set and add.

    s2 first passes a 1x1 submanifold alignment conv to the fusion
    width. The result keeps exactly s2's active pixels.
    """
    inputs = [s2, s3, s4]
    del s2, s3, s4
    return _run(weights, "fusion", inputs, threads, observer)[0]


def run_head(x: SparseTensor2D, weights, threads: int = 1, observer=None):
    """Two shallow submanifold branches: class logits and box regression."""
    inputs = [x]
    del x
    return _run(weights, "head", inputs, threads, observer)


def _sigmoid(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _centers(cells, offsets, v_min, v_max, cell):
    """(cells + 0.5 + offsets) * cell + v_min, clamped to [v_min - cell,
    v_max + cell]: the downsampled grid can overhang the range when the
    pillar count is not a multiple of the stride. The wheres pick as
    min(max(v, lo), hi) does, signed zeros and NaN included."""
    v = (cells + 0.5 + offsets) * cell + v_min
    lo, hi = v_min - cell, v_max + cell
    v = np.where(lo > v, lo, v)
    return np.where(hi < v, hi, v)


def decode(heatmap: SparseTensor2D, regression: SparseTensor2D, grid: GridConfig,
           cfg: NetworkConfig, score_threshold: float, top_k: int) -> list:
    """Turn head maps into boxes.

    Per class, a site survives if its score is a local maximum over the
    3x3 window of active neighbors and clears the threshold; the global
    top_k by score is kept, ties broken by ascending (class, j, i).
    Box centers use the cell-center convention (i + 0.5 + offset) with
    offsets clamped to one cell, so centers stay within the grid
    expanded by one cell at HEAD_STRIDE.
    """
    heatmap, regression = (
        replace(m, features=dequantize(m.features, m.qparams), qparams=None)
        if m.is_int8 else m for m in (heatmap, regression))
    if not np.array_equal(heatmap.coords, regression.coords):
        raise ShapeError("heatmap and regression maps must share an active set")

    logits = heatmap.features
    pooled = sparse_max_pool(heatmap, 3).features
    scores = _sigmoid(logits)
    candidate = (logits == pooled) & (scores >= score_threshold)
    rows, cls = np.nonzero(candidate)
    cand_scores = scores[rows, cls]
    ii = heatmap.coords[rows, 0]
    jj = heatmap.coords[rows, 1]
    order = np.lexsort((ii, jj, cls, -cand_scores))[:top_k]
    ii, jj, cls, cand_scores = ii[order], jj[order], cls[order], cand_scores[order]
    reg = regression.features[rows[order]]

    cell_x = grid.pillar_size_x * HEAD_STRIDE
    cell_y = grid.pillar_size_y * HEAD_STRIDE
    off = np.clip(reg[:, :2], -OFFSET_CLAMP, OFFSET_CLAMP)
    xs = _centers(ii, off[:, 0], grid.x_min, grid.x_max, cell_x).tolist()
    ys = _centers(jj, off[:, 1], grid.y_min, grid.y_max, cell_y).tolist()
    sizes = np.exp(np.clip(reg[:, 3:6], -LOG_SIZE_CLAMP, LOG_SIZE_CLAMP)).tolist()
    boxes = []
    for c, score, x, y, (l, w, h), (z, sin_yaw, cos_yaw) in zip(
            cls.tolist(), cand_scores.tolist(), xs, ys, sizes, reg[:, [2, 6, 7]].tolist()):
        # math.atan2, not np.arctan2: the two differ in the last bit
        yaw = math.atan2(sin_yaw, cos_yaw)
        if yaw <= -math.pi:
            yaw += 2.0 * math.pi
        boxes.append(DetectionBox(class_id=c, class_name=cfg.class_names[c], score=score,
                                  x=x, y=y, z=z, l=l, w=w, h=h, yaw=yaw))
    return boxes


@dataclass
class InferenceResult:
    boxes: list
    heatmap: SparseTensor2D
    regression: SparseTensor2D
    stage_sizes: dict = field(default_factory=dict)


def run_encoded(encode, pillars: PillarSet, weights, grid: GridConfig,
                cfg: NetworkConfig, score_threshold: float, top_k: int, threads: int,
                observer=None) -> InferenceResult:
    """encode() to boxes on either path, recording active-set sizes. At
    threads > 1 the encoder runs with BLAS at one thread, so that no BLAS
    thread spins beside the conv tiles that follow (sparse module
    docstring). Each segment gets the only references to what it reads
    (CPython 3.11+ moves popped call arguments into the callee): no site
    outlives its last reader."""
    with one_blas_thread() if threads > 1 else nullcontext():
        live = [encode()]
    if observer is not None:
        observer(ENCODER_SITE, live[0].features)
    sizes = {"pillars": len(pillars), "encoder": len(live[0])}
    live = list(run_backbone(live.pop(), weights, threads=threads, observer=observer))
    sizes.update(zip(("stage2", "stage3", "stage4"), map(len, live)))
    live = [fuse_scales(live.pop(0), live.pop(0), live.pop(0), weights, threads=threads,
                        observer=observer)]
    sizes["fused"] = len(live[0])
    heatmap, regression = run_head(live.pop(), weights, threads=threads, observer=observer)
    boxes = decode(heatmap, regression, grid, cfg, score_threshold, top_k)
    heatmap._tables.clear()   # the tables serve this cloud only, not its result
    return InferenceResult(boxes=boxes, heatmap=heatmap, regression=regression,
                           stage_sizes=sizes)


def run_network(pillars: PillarSet, weights: NetworkWeights, grid: GridConfig,
                cfg: NetworkConfig, score_threshold: float = 0.1, top_k: int = 500,
                threads: int = 1, observer=None) -> InferenceResult:
    """Float path, pillars to boxes, recording active-set sizes."""
    return run_encoded(lambda: dbpfn_encode(pillars, weights.dbpfn), pillars, weights, grid,
                       cfg, score_threshold, top_k, threads, observer)


# ---------------------------------------------------------------------------
# structure: fusion of a whole network, residual-add audit, random weights


def fuse_network(weights: NetworkWeights) -> NetworkWeights:
    """Fold every training-form layer (and the encoder BN) for inference."""
    if weights.form != "train":
        raise StructuralError("network is not in training form")
    dbpfn = weights.dbpfn
    if dbpfn.bn is not None:
        w, b = fold_linear_bn(dbpfn.weight, dbpfn.bias, dbpfn.bn)
        dbpfn = DbpfnParams(weight=w, bias=b, bn=None)
    layers = {name: fuse(layer) if isinstance(layer, RepConvLayer) else layer
              for name, layer in weights.layers.items()}
    return NetworkWeights(form="fused", dbpfn=dbpfn, ops=weights.ops, layers=layers)


def fold_linear_bn(weight: np.ndarray, bias: np.ndarray, bn: BnParams):
    inv = bn.gamma / np.sqrt(bn.running_var + BN_EPSILON)
    return weight * inv, (bias - bn.running_mean) * inv + bn.beta


def residual_adds(weights: NetworkWeights) -> list:
    """Names of the adds the network runs, in order: the projected adds and
    one per extra branch of each training-form layer, so a fused network
    adds only at the two multi-scale fusion points."""
    adds = []
    for op in weights.ops:
        layer = weights.layers.get(op.name)
        if isinstance(layer, RepConvLayer):
            branches = 3 if layer.identity_bn is not None else 2
            adds += [f"{op.name}.branch_sum{b}" for b in range(branches - 1)]
        elif op.kind == "add":
            adds.append(op.name)
    return adds


def fusion_probe_deviation(train: NetworkWeights, fused: NetworkWeights,
                           probes: int = 16, seed: int = 0, grid: int = 16) -> float:
    """Max relative deviation of fused vs training-form layer outputs
    over random sparse probe inputs, layer by layer."""
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for op in train.ops:
        layer_t = train.layers.get(op.name)
        if not isinstance(layer_t, RepConvLayer):
            continue
        layer_f = fused.layers[op.name]
        for _ in range(probes):
            n = int(rng.integers(1, grid * grid // 3))
            flat = rng.choice(grid * grid, size=n, replace=False)
            coords = np.column_stack([flat % grid, flat // grid])
            feats = rng.normal(size=(n, layer_t.cin))
            x = SparseTensor2D.build(grid, grid, coords, feats)
            out_t = apply_training_form(layer_t, x, op.mode)
            out_f = apply_fused(layer_f, x, op.mode)
            scale = max(np.abs(out_t.features).max(initial=0.0), 1e-30)
            dev = np.abs(out_t.features - out_f.features).max(initial=0.0) / scale
            worst = max(worst, float(dev))
    return worst


def _xavier(rng, shape, fan_in, fan_out):
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def _random_bn(rng, channels) -> BnParams:
    return BnParams(gamma=rng.uniform(0.5, 1.5, channels),
                    beta=rng.uniform(-0.5, 0.5, channels),
                    running_mean=rng.uniform(-0.5, 0.5, channels),
                    running_var=rng.uniform(0.5, 1.5, channels))


def random_network_weights(cfg: NetworkConfig, feature_length: int, seed: int,
                           form: str = "fused") -> NetworkWeights:
    """Deterministic pseudo-random weights (PCG64 stream from the seed).

    Kernels, linear maps and biases draw uniform from [-b, b] with
    b = sqrt(6 / (fan_in + fan_out)). Training-form BN statistics draw
    gamma/var from [0.5, 1.5] and beta/mean from [-0.5, 0.5]. Tensors
    are drawn in serialization order, so one seed gives one file.
    """
    if form not in ("train", "fused"):
        raise StructuralError(f"unknown weight form {form!r}")
    rng = np.random.Generator(np.random.PCG64(seed))
    hidden = cfg.encoder_hidden
    dbpfn = DbpfnParams(
        weight=_xavier(rng, (feature_length, hidden), feature_length, hidden),
        bias=_xavier(rng, (hidden,), feature_length, hidden),
        bn=_random_bn(rng, hidden) if form == "train" else None)

    ops = network_ops(cfg.stage_depths, cfg)
    widths = {ENCODER_SITE: cfg.encoder_out}
    layers = {}
    for op in ops:
        cin = widths[op.inputs[0]]
        cout = widths[op.output] = op.out_width(cin)
        if op.kind != "conv":
            continue
        if op.stage and form == "train":
            k3 = _xavier(rng, (3, 3, cin, cout), 9 * cin, 9 * cout)
            k1 = _xavier(rng, (1, 1, cin, cout), cin, cout)
            layers[op.name] = RepConvLayer(
                kernel3=k3, bn3=_random_bn(rng, cout),
                kernel1=k1, bn1=_random_bn(rng, cout),
                identity_bn=None if op.mode == "stride2" else _random_bn(rng, cout))
        else:
            fan_in, fan_out = op.k * op.k * cin, op.k * op.k * cout
            layers[op.name] = FusedConvLayer(
                kernel=_xavier(rng, (op.k, op.k, cin, cout), fan_in, fan_out),
                bias=_xavier(rng, (cout,), fan_in, fan_out))
    return NetworkWeights(form=form, dbpfn=dbpfn, ops=ops, layers=layers)
