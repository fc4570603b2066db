"""Post-training calibration and the integer inference path.

Calibration runs the float network over sample clouds, records value
ranges at every activation site, and derives per-tensor QuantParams.
Input features get per-feature params (their ranges differ by orders of
magnitude by construction); those scales are folded into the encoder
weights before weight quantization so the integer pipeline still sees a
single accumulator scale per output channel. Everything downstream is
per-tensor activations + per-output-channel weights, with fixed-point
requantizers derived from the stored scales as each op runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CalibrationError, RangeError, ShapeError
from .network import (ENCODER_SITE, InferenceResult, NetworkConfig, NetworkWeights, Op,
                      network_ops, run_encoded)
from .pillarizer import GridConfig, PillarSet
from .quant import QuantParams, calibrate, integer_bias, quantize, requantize_array
from .sparse import (AddQuant, OutputQuant, SparseTensor2D, sparse_add_projected,
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

    def integer_bias(self, in_scale: float) -> np.ndarray:
        """The bias on the accumulator scale; RangeError if it breaks
        the int32 accumulator bound (see quant.integer_bias)."""
        return integer_bias(self.bias, in_scale, self.weight_scales,
                            self.q_weight.size // self.cout)


@dataclass
class Int8Network:
    feature_qps: list
    encoder: Int8Weights
    ops: tuple                   # network_ops of the stage depths
    layers: dict                 # conv op name -> Int8Weights
    act: dict                    # site -> QuantParams

    def apply(self, op: Op, xs: list, threads: int = 1) -> SparseTensor2D:
        """One op on int8 tensors (its ReLU is the executor's); the
        requantization plan is built from the stored scales per call."""
        act = self.act
        if op.kind == "add":
            add_quant = AddQuant.from_scales(act[op.inputs[0]], act[op.inputs[1]],
                                             act[op.output])
            return sparse_add_projected(xs[0], xs[1], op.factor, add_quant=add_quant)
        conv = self.layers[op.name]
        in_scale = act[op.inputs[0]].scale
        oq = OutputQuant.from_scales(in_scale, conv.weight_scales, act[op.output])
        fn = sparse_conv_stride2 if op.mode == "stride2" else submanifold_conv
        return fn(xs[0], conv.q_weight, conv.integer_bias(in_scale), out_quant=oq,
                  threads=threads)


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

    def check_bias(name: str, layer: Int8Weights, in_scale: float):
        try:
            layer.integer_bias(in_scale)
        except RangeError as e:
            raise CalibrationError(f"op {name!r}: {e}") from None

    scales = np.array([qp.scale for qp in feature_qps])
    folded = weights.dbpfn.weight * scales[:, None]
    q_w, w_scales = _quantize_per_channel(folded, axis=1)
    widen(ENCODER_SITE, float(w_scales.max()))
    encoder = Int8Weights(q_weight=q_w, weight_scales=w_scales,
                         bias=np.asarray(weights.dbpfn.bias, dtype=np.float64))

    check_bias("dbpfn", encoder, 1.0)

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
                                      bias=np.asarray(layer.bias, dtype=np.float64))
        check_bias(op.name, layers[op.name], act[op.inputs[0]].scale)
    return Int8Network(feature_qps=list(feature_qps), encoder=encoder, ops=weights.ops,
                       layers=layers, act=act)


def encode_int8(pillars: PillarSet, net: Int8Network) -> SparseTensor2D:
    """Integer dual-bound encoding: int32 accumulate, pool, requantize."""
    enc_qp = net.act[ENCODER_SITE]
    hidden = net.encoder.q_weight.shape[1]
    if len(pillars) == 0:
        return SparseTensor2D.empty(pillars.width, pillars.height, 2 * hidden,
                                    qparams=enc_qp, int8=True)
    if pillars.feature_length != net.encoder.q_weight.shape[0]:
        raise ShapeError("pillar feature length does not match encoder weights")
    centered = np.column_stack([
        np.subtract(quantize(pillars.features[:, f], qp), qp.zero_point, dtype=np.float64)
        for f, qp in enumerate(net.feature_qps)])
    # exact in float64: with the accumulator bound held, every integer
    # operand and sum stays below 2^31, far inside float64's 2^53
    acc = centered @ net.encoder.q_weight.astype(np.float64) + net.encoder.integer_bias(1.0)
    starts = pillars.offsets[:-1]
    oq = OutputQuant.from_scales(1.0, net.encoder.weight_scales, enc_qp)
    q_max = requantize_array(np.maximum.reduceat(acc, starts, axis=0),
                             oq.multipliers, oq.shifts, enc_qp.zero_point)
    q_min = requantize_array(np.minimum.reduceat(acc, starts, axis=0),
                             oq.multipliers, oq.shifts, enc_qp.zero_point)
    return SparseTensor2D.build(pillars.width, pillars.height, pillars.coords,
                                np.concatenate([q_max, q_min], axis=1), qparams=enc_qp)


def run_int8_network(pillars: PillarSet, net: Int8Network, grid: GridConfig,
                     cfg: NetworkConfig, score_threshold: float = 0.1,
                     top_k: int = 500, threads: int = 1) -> InferenceResult:
    """Integer path, pillars to boxes; bitwise deterministic."""
    return run_encoded(encode_int8(pillars, net), pillars, net, grid, cfg,
                       score_threshold, top_k, threads)
