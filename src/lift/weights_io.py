"""Binary weight file format and its binding to network structures.

Layout (all little-endian):

    magic "LIFW" | version u32 = 1 | tensor_count u32
    per tensor:
        name     u16 length + UTF-8 bytes
        dtype    u8 (0 = f32, 1 = i8)
        rank     u8
        dims     u32 x rank
        quant    only when dtype = 1:
                 per_channel u8;
                 0 -> scale f32, zero_point i32
                 1 -> axis u8, count u32, scales f32 x C, zero_points i32 x C
        payload  row-major

Tensor names are unique and start with the name of the op they belong
to (see network.network_ops); backbone layers add their branch, as in
"stage{S}.layer{L}.{branch}.{param}", so the fuse command can locate
branches structurally. Activation quantization parameters ride along
as f32 tensors named "act.{site}.scale" / "act.{site}.zero_point".
The float and int8 readers walk the same op list and check every conv
kernel against its op with one shared check; the int8 reader also
rejects files that break the int8 contract: weights with nonzero zero
points or non-finite or non-positive scales, activation params with
such scales or with zero points that are not integers in [-128, 127],
and biases that break the int32 accumulator bound (quant.integer_bias).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .config import EngineConfig
from .errors import FormatError, RangeError, StructuralError
from .network import (ENCODER_SITE, BnParams, DbpfnParams, FusedConvLayer, NetworkWeights,
                      Op, RepConvLayer, network_ops, present_stage_depths)
from .quant import INT8_MAX, INT8_MIN, QuantParams
from .quantize import INPUT_FEATURES_SITE, Int8Network, Int8Weights

MAGIC = b"LIFW"
VERSION = 1
DTYPE_F32 = 0
DTYPE_I8 = 1

BN_PARAMS = ("gamma", "beta", "mean", "var")


@dataclass(frozen=True)
class TensorQuant:
    axis: int | None             # None = per-tensor
    scales: np.ndarray           # float32 (C,) or (1,)
    zero_points: np.ndarray      # int32, same length


@dataclass
class TensorRecord:
    name: str
    data: np.ndarray             # float32 or int8
    quant: TensorQuant | None = None


def _f32(a) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a), dtype=np.float32)


def write_weight_file(path, records) -> None:
    names = [r.name for r in records]
    if len(set(names)) != len(names):
        raise StructuralError("tensor names must be unique")
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<II", VERSION, len(records))
    for r in records:
        data = r.data
        if data.dtype == np.float32:
            dtype = DTYPE_F32
        elif data.dtype == np.int8:
            dtype = DTYPE_I8
        else:
            raise StructuralError(f"tensor {r.name}: unsupported dtype {data.dtype}")
        if (r.quant is not None) != (dtype == DTYPE_I8):
            raise StructuralError(f"tensor {r.name}: quant block must accompany i8 data")
        name = r.name.encode("utf-8")
        buf += struct.pack("<H", len(name)) + name
        buf += struct.pack("<BB", dtype, data.ndim)
        buf += struct.pack(f"<{data.ndim}I", *data.shape)
        if dtype == DTYPE_I8:
            q = r.quant
            if q.axis is None:
                buf += struct.pack("<Bfi", 0, float(q.scales[0]), int(q.zero_points[0]))
            else:
                buf += struct.pack("<BBI", 1, q.axis, q.scales.size)
                buf += _f32(q.scales).tobytes()
                buf += np.ascontiguousarray(q.zero_points, dtype="<i4").tobytes()
        buf += np.ascontiguousarray(data, dtype="<f4" if dtype == DTYPE_F32 else np.int8
                                    ).tobytes()
    with open(path, "wb") as f:
        f.write(bytes(buf))


class _Reader:
    def __init__(self, raw: bytes, path):
        self.raw = raw
        self.off = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.raw):
            raise FormatError(f"{self.path}: truncated at byte {self.off} "
                              f"(needed {n} more, file has {len(self.raw)})")
        chunk = self.raw[self.off:self.off + n]
        self.off += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def read_weight_file(path) -> list:
    with open(path, "rb") as f:
        raw = f.read()
    r = _Reader(raw, path)
    if r.take(4) != MAGIC:
        raise FormatError(f"{path}: bad magic (not a weight file)")
    version, count = r.unpack("<II")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    records = []
    seen = set()
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        name = r.take(name_len).decode("utf-8")
        if name in seen:
            raise FormatError(f"{path}: duplicate tensor name {name!r}")
        seen.add(name)
        dtype, rank = r.unpack("<BB")
        dims = r.unpack(f"<{rank}I") if rank else ()
        quant = None
        if dtype == DTYPE_I8:
            (per_channel,) = r.unpack("<B")
            if per_channel == 0:
                scale, zp = r.unpack("<fi")
                quant = TensorQuant(axis=None, scales=np.array([scale], dtype=np.float32),
                                    zero_points=np.array([zp], dtype=np.int32))
            elif per_channel == 1:
                axis, c = r.unpack("<BI")
                scales = np.frombuffer(r.take(4 * c), dtype="<f4").copy()
                zps = np.frombuffer(r.take(4 * c), dtype="<i4").copy()
                quant = TensorQuant(axis=int(axis), scales=scales, zero_points=zps)
            else:
                raise FormatError(f"{path}: tensor {name!r}: bad per_channel flag")
        elif dtype != DTYPE_F32:
            raise FormatError(f"{path}: tensor {name!r}: unknown dtype code {dtype}")
        n = int(np.prod(dims, dtype=np.int64)) if dims else 1
        if dtype == DTYPE_F32:
            data = np.frombuffer(r.take(4 * n), dtype="<f4").copy().reshape(dims)
        else:
            data = np.frombuffer(r.take(n), dtype=np.int8).copy().reshape(dims)
        records.append(TensorRecord(name=name, data=data, quant=quant))
    if r.off != len(raw):
        raise FormatError(f"{path}: {len(raw) - r.off} trailing bytes after "
                          "declared payloads")
    return records


def file_kind(records) -> str:
    if any(r.data.dtype == np.int8 for r in records):
        return "int8"
    if any(".branch3x3." in r.name for r in records):
        return "train"
    return "fused"


# ---------------------------------------------------------------------------
# networks <-> records: tensor names are op names, one shared dims check


def _prefix(op: Op) -> str:
    """Name prefix of a fused or int8 conv op's tensors; backbone layers
    name their branch, as training-form files do."""
    return f"{op.name}.fused" if op.stage else op.name


def _bn_records(prefix: str, bn: BnParams) -> list:
    return [TensorRecord(f"{prefix}.gamma", _f32(bn.gamma)),
            TensorRecord(f"{prefix}.beta", _f32(bn.beta)),
            TensorRecord(f"{prefix}.mean", _f32(bn.running_mean)),
            TensorRecord(f"{prefix}.var", _f32(bn.running_var))]


def float_network_records(weights: NetworkWeights) -> list:
    recs = [TensorRecord("dbpfn.linear.weight", _f32(weights.dbpfn.weight)),
            TensorRecord("dbpfn.linear.bias", _f32(weights.dbpfn.bias))]
    if weights.dbpfn.bn is not None:
        recs += _bn_records("dbpfn.bn", weights.dbpfn.bn)
    for op in weights.ops:
        layer = weights.layers.get(op.name)
        if isinstance(layer, RepConvLayer):
            recs.append(TensorRecord(f"{op.name}.branch3x3.kernel", _f32(layer.kernel3)))
            recs += _bn_records(f"{op.name}.branch3x3.bn", layer.bn3)
            recs.append(TensorRecord(f"{op.name}.branch1x1.kernel", _f32(layer.kernel1)))
            recs += _bn_records(f"{op.name}.branch1x1.bn", layer.bn1)
            if layer.identity_bn is not None:
                recs += _bn_records(f"{op.name}.identity.bn", layer.identity_bn)
        elif layer is not None:
            recs.append(TensorRecord(f"{_prefix(op)}.kernel", _f32(layer.kernel)))
            recs.append(TensorRecord(f"{_prefix(op)}.bias", _f32(layer.bias)))
    return recs


class _RecordMap:
    def __init__(self, records):
        self.by_name = {r.name: r for r in records}
        self.used = set()

    def get(self, name: str, dims=None) -> TensorRecord:
        rec = self.by_name.get(name)
        if rec is None:
            raise FormatError(f"missing tensor {name!r}")
        if dims is not None and tuple(rec.data.shape) != tuple(dims):
            raise FormatError(f"tensor {name!r}: expected dims {tuple(dims)}, "
                              f"got {tuple(rec.data.shape)}")
        self.used.add(name)
        return rec

    def has(self, name: str) -> bool:
        return name in self.by_name

    def array(self, name: str, dims=None) -> np.ndarray:
        return self.get(name, dims).data.astype(np.float64)

    def check_all_used(self):
        extra = sorted(set(self.by_name) - self.used)
        if extra:
            raise FormatError(f"unexpected tensor {extra[0]!r}")


def _bn_from(rm: _RecordMap, prefix: str, channels: int) -> BnParams:
    dims = (channels,)
    return BnParams(gamma=rm.array(f"{prefix}.gamma", dims),
                    beta=rm.array(f"{prefix}.beta", dims),
                    running_mean=rm.array(f"{prefix}.mean", dims),
                    running_var=rm.array(f"{prefix}.var", dims))


def _encoder_weight(rm: _RecordMap) -> TensorRecord:
    rec = rm.get("dbpfn.linear.weight")
    if rec.data.ndim != 2:
        raise FormatError("tensor 'dbpfn.linear.weight': expected rank 2")
    return rec


def _conv_kernel(rm: _RecordMap, name: str, op: Op, cin: int) -> TensorRecord:
    """A conv op's kernel tensor, checked against the op: K x K x Cin x
    Cout, with Cout fixed where the op fixes it."""
    rec = rm.get(name)
    cout = op.out_width(cin)
    got = tuple(rec.data.shape)
    if len(got) != 4 or got[:3] != (op.k, op.k, cin) or cout not in (None, got[3]):
        raise FormatError(f"tensor {name!r}: expected dims "
                          f"({op.k}, {op.k}, {cin}, {cout or 'Cout'}), got {got}")
    return rec


def _read_layers(rm: _RecordMap, branch: str, hidden: int, read_conv):
    """The ops of the stage depths the file holds, and their layers:
    read_conv(op, cin) reads one conv once the ops before it have fixed
    its input width."""
    ops = network_ops(present_stage_depths(lambda name: rm.has(f"{name}.{branch}.kernel")))
    widths = {ENCODER_SITE: 2 * hidden}
    layers = {}
    for op in ops:
        cin = widths[op.inputs[0]]
        if op.kind == "conv":
            layers[op.name] = read_conv(op, cin)
            widths[op.output] = layers[op.name].cout
        else:
            widths[op.output] = cin
    return ops, layers


def records_to_float_network(records) -> NetworkWeights:
    """Rebuild a float network from tensors alone (no config needed);
    structure and channel widths come from names and dims."""
    rm = _RecordMap(records)
    form = "train" if any(".branch3x3." in r.name for r in records) else "fused"
    w = _encoder_weight(rm).data
    hidden = w.shape[1]
    dbpfn = DbpfnParams(
        weight=w.astype(np.float64),
        bias=rm.array("dbpfn.linear.bias", (hidden,)),
        bn=_bn_from(rm, "dbpfn.bn", hidden) if rm.has("dbpfn.bn.gamma") else None)

    def read_conv(op: Op, cin: int):
        if form == "fused" or not op.stage:
            kernel = _conv_kernel(rm, f"{_prefix(op)}.kernel", op, cin).data
            return FusedConvLayer(kernel=kernel.astype(np.float64),
                                  bias=rm.array(f"{_prefix(op)}.bias", (kernel.shape[3],)),
                                  **op.layer_args())
        k3 = _conv_kernel(rm, f"{op.name}.branch3x3.kernel", op, cin).data
        cout = k3.shape[3]
        has_id = rm.has(f"{op.name}.identity.bn.gamma")
        return RepConvLayer(
            kernel3=k3.astype(np.float64),
            bn3=_bn_from(rm, f"{op.name}.branch3x3.bn", cout),
            kernel1=rm.array(f"{op.name}.branch1x1.kernel", (1, 1, cin, cout)),
            bn1=_bn_from(rm, f"{op.name}.branch1x1.bn", cout),
            identity_bn=_bn_from(rm, f"{op.name}.identity.bn", cout) if has_id else None,
            **op.layer_args())

    ops, layers = _read_layers(rm, "branch3x3" if form == "train" else "fused", hidden,
                               read_conv)
    rm.check_all_used()
    return NetworkWeights(form=form, dbpfn=dbpfn, ops=ops, layers=layers)


def _validate(ops, layers: dict, encoder_dims, form: str, cfg: EngineConfig) -> None:
    """Shape compatibility between a loaded network and an engine config;
    reports the first offending tensor by name."""
    net = cfg.network
    want = (cfg.feature_length, net.encoder_hidden)
    if tuple(encoder_dims) != want:
        raise FormatError(f"tensor 'dbpfn.linear.weight': expected dims {want}, "
                          f"got {tuple(encoder_dims)}")
    for s, depth in enumerate(net.stage_depths, start=1):
        got = sum(op.stage == s for op in ops) - 1
        if got != depth:
            raise FormatError(f"stage{s} has {got} submanifold layers, "
                              f"config expects {depth}")
    widths = {ENCODER_SITE: net.encoder_out}
    for op in network_ops(net.stage_depths, net):
        cout = widths[op.output] = op.out_width(widths[op.inputs[0]])
        if op.kind == "conv" and layers[op.name].cout != cout:
            kernel = f"{op.name}.branch3x3" if form == "train" and op.stage else _prefix(op)
            raise FormatError(f"tensor '{kernel}.kernel': expected {cout} output "
                              f"channels, got {layers[op.name].cout}")


def validate_float_against_config(weights: NetworkWeights, cfg: EngineConfig) -> None:
    _validate(weights.ops, weights.layers, weights.dbpfn.weight.shape, weights.form, cfg)


def validate_int8_against_config(net: Int8Network, cfg: EngineConfig) -> None:
    _validate(net.ops, net.layers, net.encoder.q_weight.shape, "fused", cfg)


def _qp_records(site: str, qps) -> list:
    qps = [qps] if isinstance(qps, QuantParams) else list(qps)
    return [TensorRecord(f"{site}.scale", _f32([qp.scale for qp in qps])),
            TensorRecord(f"{site}.zero_point", _f32([qp.zero_point for qp in qps]))]


def _i8_record(name: str, q: np.ndarray, axis: int, scales: np.ndarray) -> TensorRecord:
    return TensorRecord(name, np.ascontiguousarray(q, dtype=np.int8),
                        TensorQuant(axis=axis, scales=_f32(scales),
                                    zero_points=np.zeros(scales.size, dtype=np.int32)))


def int8_network_records(net: Int8Network) -> list:
    recs = _qp_records(INPUT_FEATURES_SITE, net.feature_qps)
    recs.append(_i8_record("dbpfn.linear.weight", net.encoder.q_weight, 1,
                           net.encoder.weight_scales))
    recs.append(TensorRecord("dbpfn.linear.bias", _f32(net.encoder.bias)))
    recs += _qp_records(f"act.{ENCODER_SITE}", net.act[ENCODER_SITE])
    for op in net.ops:
        if op.kind == "conv":
            conv = net.layers[op.name]
            recs.append(_i8_record(f"{_prefix(op)}.kernel", conv.q_weight, 3,
                                   conv.weight_scales))
            recs.append(TensorRecord(f"{_prefix(op)}.bias", _f32(conv.bias)))
        recs += _qp_records(f"act.{op.output}", net.act[op.output])
    return recs


def _qp_from(rm: _RecordMap, site: str):
    """Activation params stored as f32 tensors: scales finite and
    positive, zero points integers in the int8 range."""
    scales = rm.get(f"{site}.scale").data
    zps = rm.get(f"{site}.zero_point").data
    if scales.shape != zps.shape:
        raise FormatError(f"tensor '{site}.zero_point': dims differ from scales")
    qps = []
    for s, z in zip(scales.ravel().tolist(), zps.ravel().tolist()):
        if not (math.isfinite(s) and s > 0):
            raise FormatError(f"tensor '{site}.scale': scale {s} is not finite and positive")
        if not (float(z).is_integer() and INT8_MIN <= z <= INT8_MAX):   # NaN fails
            raise FormatError(f"tensor '{site}.zero_point': zero point {z} is not an "
                              f"integer in [{INT8_MIN}, {INT8_MAX}]")
        qps.append(QuantParams(scale=s, zero_point=int(z)))
    return qps


def _act_from(rm: _RecordMap, site: str) -> QuantParams:
    qps = _qp_from(rm, f"act.{site}")
    if len(qps) != 1:
        raise FormatError(f"tensor 'act.{site}.scale': expected 1 value, got {len(qps)}")
    return qps[0]


def _i8_weights(rec: TensorRecord, axis: int):
    """Data and scales of an int8 weight tensor holding the advertised
    contract: per-channel along axis, zero points 0, scales finite and
    positive. The caller has checked the rank."""
    name, q = rec.name, rec.quant
    if rec.data.dtype != np.int8 or q is None:
        raise FormatError(f"tensor {name!r}: expected quantized int8 data")
    if q.axis != axis:
        raise FormatError(f"tensor {name!r}: expected channel axis {axis}")
    if q.scales.size != rec.data.shape[axis]:
        raise FormatError(f"tensor {name!r}: {q.scales.size} scales for "
                          f"{rec.data.shape[axis]} channels")
    # count_nonzero: reductions cost microseconds on these small arrays
    if np.count_nonzero(q.zero_points):
        raise FormatError(f"tensor {name!r}: weight zero points must be 0")
    if np.count_nonzero((q.scales > 0) & (q.scales < np.inf)) != q.scales.size:  # NaN fails
        raise FormatError(f"tensor {name!r}: weight scales must be finite and positive")
    return rec.data, q.scales.astype(np.float64)


def _check_bias(name: str, layer: Int8Weights, in_scale: float) -> None:
    try:
        layer.integer_bias(in_scale)
    except RangeError as e:
        raise FormatError(f"tensor {name!r}: {e}") from None


def records_to_int8_network(records) -> Int8Network:
    rm = _RecordMap(records)
    feature_qps = _qp_from(rm, INPUT_FEATURES_SITE)
    q_w, w_scales = _i8_weights(_encoder_weight(rm), 1)
    encoder = Int8Weights(q_weight=q_w, weight_scales=w_scales,
                         bias=rm.array("dbpfn.linear.bias", (q_w.shape[1],)))

    def read_conv(op: Op, cin: int) -> Int8Weights:
        qk, ws = _i8_weights(_conv_kernel(rm, f"{_prefix(op)}.kernel", op, cin), 3)
        return Int8Weights(q_weight=qk, weight_scales=ws,
                           bias=rm.array(f"{_prefix(op)}.bias", (qk.shape[3],)))

    ops, layers = _read_layers(rm, "fused", q_w.shape[1], read_conv)
    act = {site: _act_from(rm, site) for site in [ENCODER_SITE] + [op.output for op in ops]}
    _check_bias("dbpfn.linear.bias", encoder, 1.0)
    for op in ops:
        if op.kind == "conv":
            _check_bias(f"{_prefix(op)}.bias", layers[op.name], act[op.inputs[0]].scale)
    rm.check_all_used()
    return Int8Network(feature_qps=feature_qps, encoder=encoder, ops=ops, layers=layers,
                       act=act)
