"""Post-training calibration and the integer inference path.

Calibration runs the float network over sample clouds, records value
ranges at every activation site, and derives per-tensor QuantParams.
Input features get per-feature params (their ranges differ by orders of
magnitude by construction); those scales are folded into the encoder
weights before weight quantization so the integer pipeline still sees a
single accumulator scale per output channel. Everything downstream is
per-tensor activations + per-output-channel weights, with fixed-point
requantizers derived from the stored scales as each op runs. Whoever
makes an Int8Network gets the int8 contract checked once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import CalibrationError, ParameterError, RangeError, ShapeError
from .network import (ENCODER_SITE, InferenceResult, NetworkConfig, NetworkWeights, Op,
                      dual_bound_pool, network_ops, run_encoded)
from .pillarizer import GridConfig, PillarSet
from .quant import (INT8_MAX, INT8_MIN, QuantParams, calibrate, encode_factors,
                    integer_bias, requantize_array)
from .sparse import (OutputQuant, SparseTensor2D, int8_gemms, sparse_add_projected,
                     sparse_conv_stride2, submanifold_conv)

INPUT_FEATURES_SITE = "input_features"


def activation_sites(cfg: NetworkConfig) -> list:
    """Per-tensor activation sites, in network order: the encoder
    output, then every op's output."""
    return [ENCODER_SITE] + [op.output for op in network_ops(cfg.stage_depths)]


@dataclass
class CalibrationCollector:
    """Observer accumulating activation ranges across clouds.

    minmax mode keeps running extremes only; percentile mode keeps the
    observed values per site (calibration sets are small by design) and
    clips at the requested percentile of |values| when finalizing.
    """

    mode: str = "minmax"
    percentile: float = 99.9
    lo: dict = field(default_factory=dict)
    hi: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)

    def __call__(self, site: str, values: np.ndarray):
        if values.size == 0:
            return
        axis = 0 if site == INPUT_FEATURES_SITE else None
        lo = values.min(axis=axis)
        hi = values.max(axis=axis)
        if site in self.lo:
            self.lo[site] = np.minimum(self.lo[site], lo)
            self.hi[site] = np.maximum(self.hi[site], hi)
        else:
            self.lo[site], self.hi[site] = lo, hi
        if self.mode == "percentile":
            self.values.setdefault(site, []).append(np.asarray(values, dtype=np.float64))

    def _qp_from_samples(self, samples) -> QuantParams:
        return calibrate(samples, mode=self.mode, percentile=self.percentile)

    def qparams(self, site: str) -> QuantParams:
        if site not in self.lo:
            raise CalibrationError(f"activation site {site!r} was never observed; "
                                   "use calibration clouds that reach every stage")
        if self.mode == "percentile":
            return self._qp_from_samples(np.concatenate(
                [v.ravel() for v in self.values[site]]))
        return self._qp_from_samples([float(self.lo[site]), float(self.hi[site])])

    def feature_qparams(self) -> list:
        if INPUT_FEATURES_SITE not in self.lo:
            raise CalibrationError("no input features observed")
        los, his = self.lo[INPUT_FEATURES_SITE], self.hi[INPUT_FEATURES_SITE]
        if self.mode == "percentile":
            stacked = np.concatenate(self.values[INPUT_FEATURES_SITE], axis=0)
            return [self._qp_from_samples(stacked[:, f]) for f in range(los.size)]
        return [self._qp_from_samples([float(los[f]), float(his[f])])
                for f in range(los.size)]


def _quantize_per_channel(kernel: np.ndarray, axis: int):
    """Symmetric int8 per-channel weights: scale = maxabs / 127."""
    reduce_axes = tuple(a for a in range(kernel.ndim) if a != axis)
    maxabs = np.abs(kernel).max(axis=reduce_axes)
    scales = np.where(maxabs > 0, maxabs / 127.0, 1.0 / 127.0)
    shape = [1] * kernel.ndim
    shape[axis] = -1
    q = np.clip(np.rint(kernel / scales.reshape(shape)), -127, 127).astype(np.int8)
    return q, scales


@dataclass(frozen=True)
class Int8Weights:
    """Symmetric int8 weights, channels last: the encoder's (F, H) map,
    input-feature scales folded in, or a conv's (K, K, Cin, Cout) kernel."""

    q_weight: np.ndarray         # int8
    weight_scales: np.ndarray    # (Cout,)
    bias: np.ndarray             # (Cout,) real

    @property
    def cout(self) -> int:
        return self.q_weight.shape[-1]


@dataclass(frozen=True)
class Int8Network:
    """Int8 weights and activation params, checked once, when made: every
    requantization factor encodes (quant.encode_factors, as the ops do)
    and every bias keeps the int32 accumulator bound (quant.integer_bias;
    bias_q keeps them by op name, "dbpfn" for the encoder). RangeError
    names the tensor at fault and its op. Frozen, with read-only mappings
    and arrays (those it is given become so): what was checked is what runs.
    Each conv's GEMM layout (sparse.int8_gemms) is worked out on its first
    run and kept."""

    feature_qps: tuple
    encoder: Int8Weights
    ops: tuple                   # network_ops of the stage depths
    layers: MappingProxyType     # conv op name -> Int8Weights
    act: MappingProxyType        # site -> QuantParams
    bias_q: MappingProxyType = field(init=False, repr=False)   # op name -> int32 (Cout,)
    _gemms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "feature_qps", tuple(self.feature_qps))
        object.__setattr__(self, "layers", MappingProxyType(dict(self.layers)))
        object.__setattr__(self, "act", MappingProxyType(dict(self.act)))
        for w in (self.encoder, *self.layers.values()):
            for array in (w.q_weight, w.weight_scales, w.bias):
                array.setflags(write=False)
        act = self.act
        convs = [("dbpfn", "dbpfn.linear", self.encoder, 1.0, ENCODER_SITE)] + [
            (op.name, op.tensor_prefix, self.layers[op.name], act[op.inputs[0]].scale,
             op.output) for op in self.ops if op.kind == "conv"]
        # (op, output site, s_in, s_w) per conv, and per add operand with s_w = 1
        rescales = [(name, out, s_in, w.weight_scales) for name, _, w, s_in, out in convs] + [
            (op.name, op.output, act[s].scale, np.ones(1))
            for op in self.ops if op.kind == "add" for s in op.inputs]
        # each check is one array pass over every op, on the values the ops use
        sizes = [r[3].size for r in rescales]
        s_in = np.repeat([r[2] for r in rescales], sizes)
        s_w = np.concatenate([r[3] for r in rescales])
        bias = np.concatenate([c[2].bias for c in convs])
        try:
            encode_factors(s_in * s_w / np.repeat([act[r[1]].scale for r in rescales], sizes))
            bias_q = integer_bias(bias, s_in[:bias.size], s_w[:bias.size], np.repeat(
                [c[2].q_weight.size // c[2].cout for c in convs], sizes[:len(convs)]))
        except (ParameterError, RangeError):
            for name, site, s, w in rescales:   # again op by op, to name the first breach
                try:
                    encode_factors(s * w / act[site].scale)
                except ParameterError as e:
                    raise RangeError(f"tensor 'act.{site}.scale': op {name!r}: {e}") from None
            for name, prefix, w, s, _ in convs:
                try:
                    integer_bias(w.bias, s, w.weight_scales, w.q_weight.size // w.cout)
                except RangeError as e:
                    raise RangeError(f"tensor '{prefix}.bias': op {name!r}: {e}") from None
        bias_q = bias_q.astype(np.int32)
        bias_q.setflags(write=False)
        object.__setattr__(self, "bias_q", MappingProxyType(dict(zip(
            [c[0] for c in convs], np.split(bias_q, np.cumsum(sizes)[:len(convs) - 1])))))

    def apply(self, op: Op, xs: list, threads: int = 1) -> SparseTensor2D:
        """One op on int8 tensors, its ReLU included (a conv clamps at the
        output zero point as it requantizes); the requantization factors
        are encoded from the stored scales per call."""
        act = self.act
        if op.kind == "add":
            return sparse_add_projected(xs[0], xs[1], op.factor, qparams=act[op.output])
        conv, bias = self.layers[op.name], self.bias_q[op.name]
        gemms = self._gemms.get(op.name)
        if gemms is None:
            gemms = self._gemms[op.name] = int8_gemms(conv.q_weight, bias)
        in_scale = act[op.inputs[0]].scale
        oq = OutputQuant.from_scales(in_scale, conv.weight_scales, act[op.output])
        fn = sparse_conv_stride2 if op.mode == "stride2" else submanifold_conv
        return fn(xs[0], conv.q_weight, bias, out_quant=oq, threads=threads, relu=op.relu,
                  gemms=gemms)


# requantization factors must stay below 1 to be representable as a Q31
# mantissa with a non-negative shift; calibrated output scales get widened
# by this margin when an upstream scale would push a factor to 1 or above
# (the margin dwarfs f32 storage rounding, so loaded files stay valid)
_SCALE_MARGIN = 1.0 + 1.0 / 64.0


def quantize_network(weights: NetworkWeights, feature_qps: list,
                     act: dict) -> Int8Network:
    """Quantize a fused float network with calibrated activation params."""
    if weights.form != "fused":
        raise ShapeError("quantization requires a fused network")
    act = dict(act)

    def widen(site: str, needed: float):
        qp = act[site]
        if needed >= qp.scale:
            act[site] = QuantParams(scale=needed * _SCALE_MARGIN,
                                    zero_point=qp.zero_point)

    scales = np.array([qp.scale for qp in feature_qps])
    folded = weights.dbpfn.weight * scales[:, None]
    q_w, w_scales = _quantize_per_channel(folded, axis=1)
    widen(ENCODER_SITE, float(w_scales.max()))
    encoder = Int8Weights(q_weight=q_w, weight_scales=w_scales,
                         bias=np.array(weights.dbpfn.bias, dtype=np.float64))
    layers = {}
    for op in weights.ops:
        if op.kind == "add":
            # projected adds rescale both operands onto the output scale
            widen(op.output, max(act[s].scale for s in op.inputs))
            continue
        layer = weights.layers[op.name]
        qk, ws = _quantize_per_channel(np.asarray(layer.kernel, dtype=np.float64), axis=3)
        widen(op.output, act[op.inputs[0]].scale * float(ws.max()))
        layers[op.name] = Int8Weights(q_weight=qk, weight_scales=ws,
                                      bias=np.array(layer.bias, dtype=np.float64))
    try:
        return Int8Network(feature_qps=list(feature_qps), encoder=encoder,
                           ops=weights.ops, layers=layers, act=act)
    except RangeError as e:
        raise CalibrationError(str(e)) from None


def encode_int8(pillars: PillarSet, net: Int8Network) -> SparseTensor2D:
    """Integer dual-bound encoding: one GEMM on centered int8 features,
    pool, add the integer bias in int32, requantize once.

    The GEMM dtype is a 1 x 1 conv's without bias (sparse.int8_gemms):
    float32 where each channel's L1 bound keeps every product and partial
    sum an integer below 2^24, else float64. Pooling comes before the
    bias: max(x + b) = max(x) + b holds exactly for integers, and the
    int32 accumulator bound (quant.integer_bias) keeps every pooled sum
    plus bias inside int32.
    """
    enc_qp = net.act[ENCODER_SITE]
    q_weight = net.encoder.q_weight
    n_features = q_weight.shape[0]
    if pillars.feature_length != n_features:
        raise ShapeError(f"pillar features have length {pillars.feature_length}, "
                         f"encoder expects {n_features}")
    gemm = int8_gemms(q_weight[None, None], 0)[1]
    scales = np.array([qp.scale for qp in net.feature_qps], dtype=np.float64)
    zero_points = np.array([qp.zero_point for qp in net.feature_qps], dtype=np.float64)
    # quantize to int8 (rint(x / scale) + zero point, saturated) and center,
    # every feature at once
    centered = np.rint(pillars.features / scales)
    centered += zero_points
    np.clip(centered, INT8_MIN, INT8_MAX, out=centered)
    centered -= zero_points
    products = centered.astype(gemm) @ q_weight.astype(gemm)
    del centered
    acc = dual_bound_pool(products, pillars.offsets).astype(np.int32)
    del products
    acc += np.tile(net.bias_q["dbpfn"], 2)
    oq = OutputQuant.from_scales(1.0, net.encoder.weight_scales, enc_qp)
    q = requantize_array(acc, np.tile(oq.multipliers, 2), np.tile(oq.shifts, 2),
                         enc_qp.zero_point)
    return SparseTensor2D.build(pillars.width, pillars.height, pillars.coords, q,
                                qparams=enc_qp)


def run_int8_network(pillars: PillarSet, net: Int8Network, grid: GridConfig,
                     cfg: NetworkConfig, score_threshold: float = 0.1,
                     top_k: int = 500, threads: int = 1) -> InferenceResult:
    """Integer path, pillars to boxes; bitwise deterministic."""
    return run_encoded(lambda: encode_int8(pillars, net), pillars, net, grid, cfg,
                       score_threshold, top_k, threads)
