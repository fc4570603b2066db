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
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import ShapeError, StructuralError
from .pillarizer import GridConfig, PillarSet
from .quant import dequantize
from .reparam import (BnParams, FusedConvLayer, RepConvLayer, apply_fused,
                      apply_training_form, fuse)
from .sparse import (SparseTensor2D, relu, sparse_add_projected, sparse_conv_stride2,
                     sparse_max_pool, submanifold_conv)

DEFAULT_CLASS_NAMES = (
    "car", "truck", "construction_vehicle", "bus", "trailer",
    "barrier", "motorcycle", "pedestrian", "traffic_cone", "bicycle",
)

# regression row: [offset_x, offset_y, z, log_l, log_w, log_h, sin_yaw, cos_yaw]
REGRESSION_CHANNELS = 8
OFFSET_CLAMP = 1.0     # cells; keeps decoded centers near their site
LOG_SIZE_CLAMP = 8.0   # keeps exp() finite for arbitrary regressions


@dataclass(frozen=True)
class NetworkConfig:
    encoder_out: int = 64
    stage_channels: tuple = (64, 64, 128, 128)
    stage_depths: tuple = (6, 12, 6, 6)
    align_channels: int = 128
    num_classes: int = 10
    class_names: tuple = DEFAULT_CLASS_NAMES

    def __post_init__(self):
        if len(self.stage_channels) != 4 or len(self.stage_depths) != 4:
            raise StructuralError("backbone has exactly 4 stages")
        if self.encoder_out % 2 != 0:
            raise StructuralError("encoder output width must be even (max/min halves)")
        if not (self.stage_channels[2] == self.stage_channels[3] == self.align_channels):
            raise StructuralError("fusion requires align_channels == stage 3/4 channels")
        if self.num_classes < 1:
            raise StructuralError("need at least one class")
        if len(self.class_names) != self.num_classes:
            raise StructuralError("class_names length must equal num_classes")

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
    the reparameterizable layers.
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

    def layer_args(self) -> dict:
        """stride and kind of the reparam layer that runs this op."""
        if self.mode == "stride2":
            return {"stride": 2, "kind": "downsample"}
        return {"stride": 1, "kind": "submanifold"}


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
        """One op on real tensors (its ReLU is the executor's)."""
        if op.kind == "add":
            return sparse_add_projected(xs[0], xs[1], op.factor)
        layer = self.layers[op.name]
        if isinstance(layer, RepConvLayer):
            return apply_training_form(layer, xs[0], threads=threads)
        conv = sparse_conv_stride2 if op.mode == "stride2" else submanifold_conv
        return conv(xs[0], layer.kernel, layer.bias, threads=threads)


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
    pooling, so the min half carries real lower-bound information."""
    if pillars.feature_length != params.weight.shape[0]:
        raise ShapeError(
            f"pillar features have length {pillars.feature_length}, "
            f"encoder expects {params.weight.shape[0]}")
    hidden = params.weight.shape[1]
    if len(pillars) == 0:
        return SparseTensor2D.empty(pillars.width, pillars.height, 2 * hidden)
    mapped = pillars.features @ params.weight.astype(np.float64) + params.bias
    if params.bn is not None:
        mapped = params.bn.apply(mapped)
    starts = pillars.offsets[:-1]
    maxs = np.maximum.reduceat(mapped, starts, axis=0)
    mins = np.minimum.reduceat(mapped, starts, axis=0)
    return SparseTensor2D.build(pillars.width, pillars.height, pillars.coords,
                                np.concatenate([maxs, mins], axis=1))


def _run(weights, segment: str, inputs: tuple, threads: int, observer) -> tuple:
    """Run one segment of weights.ops, for either path.

    inputs fill the sites the segment reads from earlier segments, in
    reading order. Each site is dropped after its last reader in the
    whole network, so what is left -- returned in the order it was
    made -- is what later segments (or decoding) read.
    """
    ops = [op for op in weights.ops if op.segment == segment]
    made = {op.output for op in ops}
    sites = dict(zip(dict.fromkeys(s for op in ops for s in op.inputs if s not in made),
                     inputs))
    last_reader = {s: op.name for op in weights.ops for s in op.inputs}
    for op in ops:
        y = weights.apply(op, [sites[s] for s in op.inputs], threads)
        if op.relu:
            y = relu(y)
        for s in op.inputs:
            if last_reader[s] == op.name:
                del sites[s]
        sites[op.output] = y
        if observer is not None:
            observer(op.output, y.features)
    return tuple(sites.values())


def run_backbone(x: SparseTensor2D, weights, threads: int = 1, observer=None):
    """Run the 4 stages; returns stage 2, 3, 4 outputs (strides 4, 8, 16)."""
    return _run(weights, "backbone", (x,), threads, observer)


def fuse_scales(s2: SparseTensor2D, s3: SparseTensor2D, s4: SparseTensor2D, weights,
                threads: int = 1, observer=None) -> SparseTensor2D:
    """Project stages 3 and 4 onto stage 2's active set and add.

    s2 first passes a 1x1 submanifold alignment conv to the fusion
    width. The result keeps exactly s2's active pixels.
    """
    (fused,) = _run(weights, "fusion", (s2, s3, s4), threads, observer)
    return fused


def run_head(x: SparseTensor2D, weights, threads: int = 1, observer=None):
    """Two shallow submanifold branches: class logits and box regression."""
    heatmap, regression = _run(weights, "head", (x,), threads, observer)
    return heatmap, regression


def _sigmoid(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def decode(heatmap: SparseTensor2D, regression: SparseTensor2D, grid: GridConfig,
           cfg: NetworkConfig, score_threshold: float, top_k: int,
           stride: int = 4) -> list:
    """Turn head maps into boxes.

    Per class, a site survives if its score is a local maximum over the
    3x3 window of active neighbors and clears the threshold; the global
    top_k by score is kept, ties broken by ascending (class, j, i).
    Box centers use the cell-center convention (i + 0.5 + offset) with
    offsets clamped to one cell, so centers stay within the grid
    expanded by one cell at this stride.
    """
    if len(heatmap) == 0:
        return []
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
    if rows.size == 0:
        return []
    cand_scores = scores[rows, cls]
    ii = heatmap.coords[rows, 0]
    jj = heatmap.coords[rows, 1]
    order = np.lexsort((ii, jj, cls, -cand_scores))[:top_k]

    cell_x = grid.pillar_size_x * stride
    cell_y = grid.pillar_size_y * stride
    boxes = []
    for idx in order:
        r, c = rows[idx], cls[idx]
        reg = regression.features[r]
        off_x = float(np.clip(reg[0], -OFFSET_CLAMP, OFFSET_CLAMP))
        off_y = float(np.clip(reg[1], -OFFSET_CLAMP, OFFSET_CLAMP))
        # the downsampled grid can overhang the range when the pillar count
        # is not a multiple of the stride; clamp centers to range + one cell
        x = (float(ii[idx]) + 0.5 + off_x) * cell_x + grid.x_min
        y = (float(jj[idx]) + 0.5 + off_y) * cell_y + grid.y_min
        x = min(max(x, grid.x_min - cell_x), grid.x_max + cell_x)
        y = min(max(y, grid.y_min - cell_y), grid.y_max + cell_y)
        sizes = np.exp(np.clip(reg[3:6], -LOG_SIZE_CLAMP, LOG_SIZE_CLAMP))
        yaw = math.atan2(reg[6], reg[7])
        if yaw <= -math.pi:
            yaw += 2.0 * math.pi
        boxes.append(DetectionBox(
            class_id=int(c),
            class_name=cfg.class_names[c],
            score=float(cand_scores[idx]),
            x=x, y=y, z=float(reg[2]),
            l=float(sizes[0]), w=float(sizes[1]), h=float(sizes[2]),
            yaw=yaw,
        ))
    return boxes


@dataclass
class InferenceResult:
    boxes: list
    heatmap: SparseTensor2D
    regression: SparseTensor2D
    stage_sizes: dict = field(default_factory=dict)


def run_encoded(x: SparseTensor2D, pillars: PillarSet, weights, grid: GridConfig,
                cfg: NetworkConfig, score_threshold: float, top_k: int, threads: int,
                observer=None) -> InferenceResult:
    """Encoder output to boxes on either path, recording active-set sizes."""
    s2, s3, s4 = run_backbone(x, weights, threads=threads, observer=observer)
    fused = fuse_scales(s2, s3, s4, weights, threads=threads, observer=observer)
    heatmap, regression = run_head(fused, weights, threads=threads, observer=observer)
    boxes = decode(heatmap, regression, grid, cfg, score_threshold, top_k)
    sizes = {"pillars": len(pillars), "encoder": len(x), "stage2": len(s2),
             "stage3": len(s3), "stage4": len(s4), "fused": len(fused)}
    return InferenceResult(boxes=boxes, heatmap=heatmap, regression=regression,
                           stage_sizes=sizes)


def run_network(pillars: PillarSet, weights: NetworkWeights, grid: GridConfig,
                cfg: NetworkConfig, score_threshold: float = 0.1, top_k: int = 500,
                threads: int = 1, observer=None) -> InferenceResult:
    """Float path, pillars to boxes, recording active-set sizes."""
    x = dbpfn_encode(pillars, weights.dbpfn)
    if observer is not None:
        observer(ENCODER_SITE, x.features)
    return run_encoded(x, pillars, weights, grid, cfg, score_threshold, top_k, threads,
                       observer)


# ---------------------------------------------------------------------------
# structure: fusion of a whole network, graph audit, random weights


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
    inv = bn.gamma / np.sqrt(bn.running_var + bn.epsilon)
    return weight * inv, (bias - bn.running_mean) * inv + bn.beta


@dataclass(frozen=True)
class GraphOp:
    name: str
    kind: str                    # conv | add | relu | encode


def inference_graph(weights: NetworkWeights) -> list:
    """Structural op list of the network as it would execute.

    Training-form layers expand into one conv per branch and one add
    per extra branch; fused layers are one conv, so a fused graph
    carries residual adds only at the two multi-scale fusion points.
    """
    graph = [GraphOp("dbpfn", "encode")]
    for op in weights.ops:
        layer = weights.layers.get(op.name)
        if isinstance(layer, RepConvLayer):
            branches = 3 if layer.identity_bn is not None else 2
            graph += [GraphOp(f"{op.name}.branch{b}", "conv") for b in range(branches)]
            graph += [GraphOp(f"{op.name}.branch_sum{b}", "add") for b in range(branches - 1)]
        else:
            graph.append(GraphOp(op.name, op.kind))
        if op.relu:
            graph.append(GraphOp(f"{op.name}.relu", "relu"))
    return graph


def residual_add_count(weights: NetworkWeights) -> int:
    return sum(1 for op in inference_graph(weights) if op.kind == "add")


def fusion_probe_deviation(train: NetworkWeights, fused: NetworkWeights,
                           probes: int = 16, seed: int = 0, grid: int = 16) -> float:
    """Max relative deviation of fused vs training-form layer outputs
    over random sparse probe inputs, layer by layer."""
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for name, layer_t in train.layers.items():
        if not isinstance(layer_t, RepConvLayer):
            continue
        layer_f = fused.layers[name]
        for _ in range(probes):
            n = int(rng.integers(1, grid * grid // 3))
            flat = rng.choice(grid * grid, size=n, replace=False)
            coords = np.column_stack([flat % grid, flat // grid])
            feats = rng.normal(size=(n, layer_t.cin))
            x = SparseTensor2D.build(grid, grid, coords, feats)
            out_t = apply_training_form(layer_t, x)
            out_f = apply_fused(layer_f, x)
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
                identity_bn=None if op.mode == "stride2" else _random_bn(rng, cout),
                **op.layer_args())
        else:
            fan_in, fan_out = op.k * op.k * cin, op.k * op.k * cout
            layers[op.name] = FusedConvLayer(
                kernel=_xavier(rng, (op.k, op.k, cin, cout), fan_in, fan_out),
                bias=_xavier(rng, (cout,), fan_in, fan_out), **op.layer_args())
    return NetworkWeights(form=form, dbpfn=dbpfn, ops=ops, layers=layers)
