"""Independent reference implementations the engine is checked against.

The conv, pool and tap oracles compute over dense zero-padded arrays
with explicit offset arithmetic -- no rulebooks, no gather/scatter -- so
agreement with the sparse engine is meaningful. The front-end and decode
oracles at the end restate those stages in their plainest form
(reduceat pooling, a stable argsort, a float64 encoder GEMM, one box at
a time), which the engine's array versions must match bit for bit, and
run_int8_reference composes them with the dense conv oracle into a
whole int8 network. The
scalar quantize, Requantizer and requantize at the top are the
Python-int reference for the engine's Q31 encoding (quant.encode_factors)
and requantization (quant.requantize_array).
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from lift.errors import ParameterError
from lift.network import ENCODER_SITE, LOG_SIZE_CLAMP, OFFSET_CLAMP, DetectionBox
from lift.pillarizer import FEATURE_NAMES, PillarSet, coarse_detail_split
from lift.quant import INT8_MAX, INT8_MIN, QuantParams, dequantize, integer_bias
from lift.sparse import OutputQuant, SparseTensor2D, sparse_max_pool


def quantize(x, qp: QuantParams):
    """Map real values to int8: rint(x / scale) + zero_point (half to
    even), saturating. Accepts scalars or arrays; returns np.int8 of
    matching shape."""
    q = np.rint(np.asarray(x, dtype=np.float64) / qp.scale) + qp.zero_point
    q = np.clip(q, INT8_MIN, INT8_MAX).astype(np.int8)
    return q if q.ndim else np.int8(q)


@dataclass(frozen=True)
class Requantizer:
    """Scalar fixed-point rescaling of an int32 accumulator down to int8,
    in Python ints: a real factor as multiplier * 2**-(31 + shift) with
    multiplier in [2^30, 2^31), i.e. a Q31 mantissa plus a right shift."""

    multiplier: int
    shift: int
    zero_point: int = 0

    def __post_init__(self):
        if not (1 << 30) <= self.multiplier < (1 << 31):
            raise ParameterError(f"multiplier {self.multiplier} outside [2^30, 2^31)")
        if not 0 <= self.shift <= 62:
            raise ParameterError(f"shift {self.shift} outside [0, 62]")
        if not INT8_MIN <= self.zero_point <= INT8_MAX:
            raise ParameterError(f"zero_point {self.zero_point} outside int8 range")

    @classmethod
    def from_factor(cls, factor: float, zero_point: int = 0) -> "Requantizer":
        """One factor in [2^-32, 1], encoded with math.frexp. Factor 1.0
        gets the saturated mantissa 2^31 - 1 (off by 2^-31)."""
        if not (math.isfinite(factor) and 2.0 ** -32 <= factor <= 1.0):
            raise ParameterError(f"requantization factor {factor} outside [2^-32, 1]")
        if factor == 1.0:
            return cls(multiplier=(1 << 31) - 1, shift=0, zero_point=zero_point)
        mantissa, exponent = math.frexp(factor)  # factor = mantissa * 2^exponent
        multiplier = round(mantissa * (1 << 31))   # Python's round is half to even
        if multiplier == (1 << 31):
            multiplier >>= 1
            exponent += 1
        r = cls(multiplier=multiplier, shift=-exponent, zero_point=zero_point)
        if abs(r.factor - factor) > factor * 2.0 ** -24:
            raise ParameterError(f"factor {factor} not representable to 2^-24")
        return r

    @property
    def factor(self) -> float:
        return self.multiplier * 2.0 ** -(31 + self.shift)


def requantize(acc: int, r: Requantizer) -> int:
    """Rescale an int32 accumulator to int8 through r, saturating, in
    exact Python ints: multiply by the Q31 mantissa, shift right
    rounding to floor(x + 1/2) (ties toward +inf), add the output zero
    point, clamp."""
    total = int(acc) * r.multiplier
    sh = 31 + r.shift
    rounded = (total + (1 << (sh - 1))) >> sh
    return max(INT8_MIN, min(INT8_MAX, rounded + r.zero_point))


def densify(tensor):
    """(H, W, C) array with inactive sites at 0 (real) or the zero point (int8)."""
    fill = tensor.qparams.zero_point if tensor.is_int8 else 0
    dense = np.full((tensor.height, tensor.width, tensor.channels), fill, dtype=np.float64)
    if tensor.is_int8:
        dense = dense.astype(np.int64)
    for (i, j), row in zip(tensor.coords, tensor.features):
        dense[j, i] = row
    return dense


def dense_conv(dense, kernel, bias=None, stride=1):
    """Zero-padded dense convolution via shifted slabs (float64)."""
    h, w, cin = dense.shape
    k = kernel.shape[0]
    c = k // 2
    cout = kernel.shape[3]
    pad = np.zeros((h + 2 * c, w + 2 * c, cin))
    pad[c:c + h, c:c + w] = dense
    if stride == 1:
        out = np.zeros((h, w, cout))
        for dy in range(k):
            for dx in range(k):
                out += pad[dy:dy + h, dx:dx + w] @ kernel[dy, dx]
    else:
        assert stride == 2 and k == 3
        ho, wo = -(-h // 2), -(-w // 2)
        out = np.zeros((ho, wo, cout))
        for dy in range(3):
            for dx in range(3):
                out += pad[dy:dy + 2 * ho:2, dx:dx + 2 * wo:2] @ kernel[dy, dx]
    if bias is not None:
        out += bias
    return out


def dense_conv_int(dense_q, zp_in, kernel_q, bias_i, out_quant, stride=1,
                   relu_floor=False):
    """Integer dense oracle: accumulate (q - zp) taps in int64, add bias,
    requantize per channel with the scalar fixed-point primitive."""
    h, w, cin = dense_q.shape
    k = kernel_q.shape[0]
    c = k // 2
    cout = kernel_q.shape[3]
    pad = np.full((h + 2 * c, w + 2 * c, cin), 0, dtype=np.int64)
    pad[c:c + h, c:c + w] = dense_q.astype(np.int64) - zp_in
    kq = kernel_q.astype(np.int64)
    if stride == 1:
        acc = np.zeros((h, w, cout), dtype=np.int64)
        for dy in range(k):
            for dx in range(k):
                acc += pad[dy:dy + h, dx:dx + w] @ kq[dy, dx]
    else:
        ho, wo = -(-h // 2), -(-w // 2)
        acc = np.zeros((ho, wo, cout), dtype=np.int64)
        for dy in range(3):
            for dx in range(3):
                acc += pad[dy:dy + 2 * ho:2, dx:dx + 2 * wo:2] @ kq[dy, dx]
    acc += bias_i.astype(np.int64)
    out = np.zeros(acc.shape, dtype=np.int64)
    for ch in range(cout):
        r = Requantizer(multiplier=int(out_quant.multipliers[ch]),
                        shift=int(out_quant.shifts[ch]),
                        zero_point=out_quant.qparams.zero_point)
        for y in range(acc.shape[0]):
            for x in range(acc.shape[1]):
                out[y, x, ch] = requantize(int(acc[y, x, ch]), r)
    if relu_floor:
        out = np.maximum(out, out_quant.qparams.zero_point)
    return out


def requant_ref(acc, multipliers, shifts, zero_point):
    """Vectorized restatement of the documented fixed-point rescaling:
    multiply by the Q31 mantissa, rounding right shift, add zero point,
    clamp. int64 is exact here (|acc| < 2^31, multiplier < 2^31)."""
    total = acc.astype(np.int64) * np.asarray(multipliers, dtype=np.int64)
    sh = (31 + np.asarray(shifts)).astype(np.int64)
    rounded = (total + (np.int64(1) << (sh - 1))) >> sh
    return np.clip(rounded + zero_point, -128, 127).astype(np.int64)


def dense_conv_int_fast(dense_q, zp_in, kernel_q, bias_i, out_quant, stride=1):
    """Integer dense oracle with vectorized requantization (for bulk
    randomized runs; the scalar-loop variant covers small cases)."""
    h, w, cin = dense_q.shape
    k = kernel_q.shape[0]
    c = k // 2
    cout = kernel_q.shape[3]
    pad = np.zeros((h + 2 * c, w + 2 * c, cin), dtype=np.int64)
    pad[c:c + h, c:c + w] = dense_q.astype(np.int64) - zp_in
    kq = kernel_q.astype(np.int64)
    if stride == 1:
        acc = np.zeros((h, w, cout), dtype=np.int64)
        for dy in range(k):
            for dx in range(k):
                acc += pad[dy:dy + h, dx:dx + w] @ kq[dy, dx]
    else:
        ho, wo = -(-h // 2), -(-w // 2)
        acc = np.zeros((ho, wo, cout), dtype=np.int64)
        for dy in range(3):
            for dx in range(3):
                acc += pad[dy:dy + 2 * ho:2, dx:dx + 2 * wo:2] @ kq[dy, dx]
    acc += bias_i.astype(np.int64)
    return requant_ref(acc, out_quant.multipliers, out_quant.shifts,
                       out_quant.qparams.zero_point)


def conv_loops(dense, kernel, bias, stride=1):
    """Slow four-deep loop convolution; the most literal oracle."""
    h, w, cin = dense.shape
    k = kernel.shape[0]
    c = k // 2
    cout = kernel.shape[3]
    if stride == 1:
        ho, wo = h, w
    else:
        ho, wo = -(-h // 2), -(-w // 2)
    out = np.zeros((ho, wo, cout))
    for oy in range(ho):
        for ox in range(wo):
            acc = np.array(bias, dtype=np.float64).copy()
            for dy in range(k):
                for dx in range(k):
                    iy = oy * stride + dy - c if stride == 1 else 2 * oy + dy - 1
                    ix = ox * stride + dx - c if stride == 1 else 2 * ox + dx - 1
                    if 0 <= iy < h and 0 <= ix < w:
                        acc = acc + dense[iy, ix] @ kernel[dy, dx]
            out[oy, ox] = acc
    return out


def scatter_conv(tensor, kernel, bias, stride=1):
    """Per-offset reference over active sites only (float64): for each
    kernel offset in order, one GEMM over the input rows that offset
    reaches, then an indexed add of the products into their output
    rows. Output rows follow the canonical (j, i) order. numpy runs a
    1-row product through gemv, whose bits differ from a GEMM row's, so
    an offset that reaches one row of a multi-row output multiplies it
    inside a 2-row GEMM, as the conv multiplies it inside its tile's."""
    k = kernel.shape[0]
    c = k // 2
    row_of = {(i, j): r for r, (i, j) in enumerate(tensor.coords.tolist())}
    if stride == 1:
        outs = tensor.coords.tolist()
    else:
        outs = sorted(stride2_active_set(set(row_of), tensor.width, tensor.height),
                      key=lambda ij: (ij[1], ij[0]))
    acc = np.tile(np.asarray(bias, dtype=np.float64), (len(outs), 1))
    for dy in range(k):
        for dx in range(k):
            pairs = []
            for o, (i, j) in enumerate(outs):
                src = (i + dx - c, j + dy - c) if stride == 1 else (2 * i + dx - 1, 2 * j + dy - 1)
                if src in row_of:
                    pairs.append((row_of[src], o))
            if pairs:
                rows_in, rows_out = np.array(pairs).T
                if len(pairs) == 1 and len(outs) > 1:
                    rows_in = np.repeat(rows_in, 2)
                acc[rows_out] += (tensor.features[rows_in] @ kernel[dy, dx])[:len(pairs)]
    return acc


def dense_max_pool(tensor, k=3):
    """Per-channel max over the active sites of each k x k window,
    evaluated at every active site (rows in canonical order)."""
    c = k // 2
    h, w = tensor.height, tensor.width
    pad = np.full((h + 2 * c, w + 2 * c, tensor.channels), -np.inf)
    for (i, j), row in zip(tensor.coords.tolist(), tensor.features):
        pad[j + c, i + c] = row
    pooled = np.full((h, w, tensor.channels), -np.inf)
    for dy in range(k):
        for dx in range(k):
            pooled = np.maximum(pooled, pad[dy:dy + h, dx:dx + w])
    return np.stack([pooled[j, i] for (i, j) in tensor.coords.tolist()])


def stride2_coords_unique(x, out_w, out_h):
    """The stride-2 output coords of tensor x as the engine once computed
    them: every candidate output key of every offset, then np.unique."""
    ii, jj = [], []
    for dy in range(3):
        for dx in range(3):
            num_i = x.coords[:, 0] + 1 - dx
            num_j = x.coords[:, 1] + 1 - dy
            ok = (num_i % 2 == 0) & (num_j % 2 == 0)
            oi = num_i[ok] // 2
            oj = num_j[ok] // 2
            ok2 = (oi >= 0) & (oi < out_w) & (oj >= 0) & (oj < out_h)
            ii.append(oi[ok2])
            jj.append(oj[ok2])
    if not any(a.size for a in ii):
        return np.empty((0, 2), dtype=np.int64)
    keys = np.unique(np.concatenate(jj) * out_w + np.concatenate(ii))
    return np.column_stack([keys % out_w, keys // out_w])


def stride2_active_set(active, width, height):
    """Independent computation of the stride-2 output active set."""
    out_w, out_h = -(-width // 2), -(-height // 2)
    result = set()
    for oi in range(out_w):
        for oj in range(out_h):
            for dy in range(3):
                for dx in range(3):
                    ii, jj = 2 * oi + dx - 1, 2 * oj + dy - 1
                    if 0 <= ii < width and 0 <= jj < height and (ii, jj) in active:
                        result.add((oi, oj))
    return result


def brute_force_taps(active, width, height, k, mode):
    """Count (offset, input, output) pairs by scanning output sites."""
    c = k // 2
    if mode == "submanifold":
        outs = [(i, j, i, j) for (i, j) in sorted(active)]
        count = 0
        for (oi, oj, _, _) in outs:
            for dy in range(k):
                for dx in range(k):
                    if (oi + dx - c, oj + dy - c) in active:
                        count += 1
        return count
    assert mode == "stride2"
    count = 0
    for (oi, oj) in stride2_active_set(active, width, height):
        for dy in range(3):
            for dx in range(3):
                if (2 * oi + dx - 1, 2 * oj + dy - 1) in active:
                    count += 1
    return count


def dense_submanifold_taps(width, height):
    """Closed form for a fully dense grid: sum over offsets of in-range
    (input, output) pairs = (3W - 2)(3H - 2)."""
    return (3 * width - 2) * (3 * height - 2)


def dense_stride2_taps(width, height):
    """Closed form per axis: 3*ceil(n/2) - 1 - [n odd] valid taps."""

    def axis(n):
        return 3 * (-(-n // 2)) - 1 - (n % 2)

    return axis(width) * axis(height)


def max_rel_dev(a, b):
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-30)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


# ---------------------------------------------------------------------------
# front end and decode


def reduceat_dual_bound(values, offsets):
    """concat(max, min) per pillar through np.maximum/minimum.reduceat."""
    starts = offsets[:-1]
    return np.concatenate([np.maximum.reduceat(values, starts, axis=0),
                           np.minimum.reduceat(values, starts, axis=0)], axis=1)


def pillarize_stable_argsort(cloud, cfg, include_offsets=True, normalize_intensity=False):
    """Pillar binning with a stable argsort of the keys and run positions
    from a cumulative run id."""
    width, height = cfg.width, cfg.height
    n_features = len(FEATURE_NAMES) if include_offsets else len(FEATURE_NAMES) - 2
    if len(cloud) == 0:
        return PillarSet(width=width, height=height, features=np.empty((0, n_features)))
    pts = cloud.data.astype(np.float64)
    x, y, z, intensity = pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3]
    i = np.floor(np.clip((x - cfg.x_min) / cfg.pillar_size_x, -1, width)).astype(np.int64)
    j = np.floor(np.clip((y - cfg.y_min) / cfg.pillar_size_y, -1, height)).astype(np.int64)
    in_range = ((x >= cfg.x_min) & (x < cfg.x_max) & (y >= cfg.y_min) & (y < cfg.y_max)
                & (z >= cfg.z_min) & (z < cfg.z_max)
                & (i >= 0) & (i < width) & (j >= 0) & (j < height))
    out_of_range = int((~in_range).sum())
    keep = np.nonzero(in_range)[0]
    key = j[keep] * width + i[keep]
    order = np.argsort(key, kind="stable")
    keep, key = keep[order], key[order]
    if keep.size:
        starts = np.r_[0, np.nonzero(np.diff(key))[0] + 1]
        run_id = np.zeros(key.size, dtype=np.int64)
        run_id[starts[1:]] = 1
        run_id = np.cumsum(run_id)
        within_cap = np.arange(key.size) - starts[run_id] < cfg.max_points_per_pillar
    else:
        within_cap = np.zeros(0, dtype=bool)
    truncated = int((~within_cap).sum())
    keep, key = keep[within_cap], key[within_cap]
    xk, yk, zk = x[keep], y[keep], z[keep]
    x_coarse, x_detail = coarse_detail_split(xk, cfg.x_min, cfg.x_max)
    y_coarse, y_detail = coarse_detail_split(yk, cfg.y_min, cfg.y_max)
    z_coarse, z_detail = coarse_detail_split(zk, cfg.z_min, cfg.z_max)
    inten = intensity[keep] / 255.0 if normalize_intensity else intensity[keep]
    columns = [x_coarse, x_detail, y_coarse, y_detail, z_coarse, z_detail, inten]
    if include_offsets:
        columns += [xk - (cfg.x_min + (i[keep] + 0.5) * cfg.pillar_size_x),
                    yk - (cfg.y_min + (j[keep] + 0.5) * cfg.pillar_size_y)]
    features = np.column_stack(columns) if keep.size else np.empty((0, n_features))
    if keep.size:
        starts = np.r_[0, np.nonzero(np.diff(key))[0] + 1]
        pillar_keys = key[starts]
        offsets = np.r_[starts, key.size].astype(np.int64)
        coords = np.column_stack([pillar_keys % width, pillar_keys // width])
    else:
        coords = np.empty((0, 2), dtype=np.int64)
        offsets = np.zeros(1, dtype=np.int64)
    return PillarSet(width=width, height=height, coords=coords, features=features,
                     offsets=offsets, out_of_range=out_of_range, truncated=truncated)


def encode_int8_reference(pillars, net):
    """Int8 encoder features: per-feature quantize and center, float64
    GEMM plus integer bias, reduceat pooling, requantization of each half."""
    centered = np.column_stack([
        np.subtract(quantize(pillars.features[:, f], qp), qp.zero_point, dtype=np.float64)
        for f, qp in enumerate(net.feature_qps)])
    enc, enc_qp = net.encoder, net.act[ENCODER_SITE]
    acc = centered @ enc.q_weight.astype(np.float64) + integer_bias(
        enc.bias, 1.0, enc.weight_scales, enc.q_weight.shape[0])
    oq = OutputQuant.from_scales(1.0, enc.weight_scales, enc_qp)
    starts = pillars.offsets[:-1]
    return np.concatenate([
        requant_ref(pool.reduceat(acc, starts, axis=0), oq.multipliers, oq.shifts,
                    enc_qp.zero_point) for pool in (np.maximum, np.minimum)],
        axis=1).astype(np.int8)


def _stride2_mask(mask):
    """Stride-2 output active set of a dense (H, W) mask: o is active iff
    some input 2o + d - 1, d in {0,1,2}^2, is."""
    h, w = mask.shape
    ho, wo = -(-h // 2), -(-w // 2)
    pad = np.zeros((h + 2, w + 2), dtype=bool)
    pad[1:h + 1, 1:w + 1] = mask
    out = np.zeros((ho, wo), dtype=bool)
    for dy in range(3):
        for dx in range(3):
            out |= pad[dy:dy + 2 * ho:2, dx:dx + 2 * wo:2]
    return out


def _requantize_each(centered, r):
    """requantize(v, r) for every element of an int64 array, one scalar
    call per distinct value."""
    values, inverse = np.unique(centered, return_inverse=True)
    out = np.array([requantize(int(v), r) for v in values], dtype=np.int64)
    return out[inverse].reshape(centered.shape)


def run_int8_reference(pillars, net, grid, cfg, score_threshold=0.1, top_k=500):
    """The int8 network with no neighbour table, tile or thread: every site
    is a dense int64 (H, W, C) grid plus its active mask, and inactive
    sites hold the zero point (0 once centered). The encoder runs by
    encode_int8_reference; each conv by dense_conv_int_fast, with the
    Requantizer encoding and quant.integer_bias of its op, then masked to
    its active set; each projected add requantizes both centered operands
    through the scalar Requantizer. Returns decode_reference's boxes and
    the head maps as SparseTensor2D."""
    h, w = pillars.height, pillars.width
    enc_qp = net.act[ENCODER_SITE]
    dense = np.full((h, w, 2 * net.encoder.cout), enc_qp.zero_point, dtype=np.int64)
    mask = np.zeros((h, w), dtype=bool)
    if len(pillars):
        i, j = pillars.coords.T
        mask[j, i] = True
        dense[j, i] = encode_int8_reference(pillars, net)
    sites = {ENCODER_SITE: (dense, mask)}
    for op in net.ops:
        out_qp = net.act[op.output]
        if op.kind == "conv":
            x, mask = sites[op.inputs[0]]
            in_qp, layer = net.act[op.inputs[0]], net.layers[op.name]
            plan = [Requantizer.from_factor(in_qp.scale * s / out_qp.scale)
                    for s in layer.weight_scales]
            oq = SimpleNamespace(qparams=out_qp, multipliers=[r.multiplier for r in plan],
                                 shifts=[r.shift for r in plan])
            bias = integer_bias(layer.bias, in_qp.scale, layer.weight_scales,
                                layer.q_weight.size // layer.cout)
            stride = 2 if op.mode == "stride2" else 1
            y = dense_conv_int_fast(x, in_qp.zero_point, layer.q_weight, bias, oq, stride)
            if op.relu:
                y = np.maximum(y, out_qp.zero_point)
            if stride == 2:
                mask = _stride2_mask(mask)
        else:
            (base, mask), (other, _) = sites[op.inputs[0]], sites[op.inputs[1]]
            # base site (i, j) reads other at (i // factor, j // factor)
            other = other.repeat(op.factor, axis=0).repeat(op.factor, axis=1)
            other = other[:mask.shape[0], :mask.shape[1]]
            y = out_qp.zero_point
            for operand, s in ((base, op.inputs[0]), (other, op.inputs[1])):
                qp = net.act[s]
                y = y + _requantize_each(operand - qp.zero_point,
                                         Requantizer.from_factor(qp.scale / out_qp.scale))
            y = np.clip(y, INT8_MIN, INT8_MAX)
        y[~mask] = out_qp.zero_point
        sites[op.output] = (y, mask)

    def sparse_site(site):
        y, mask = sites[site]
        jj, ii = np.nonzero(mask)
        return SparseTensor2D(mask.shape[1], mask.shape[0], np.column_stack([ii, jj]),
                              y[jj, ii].astype(np.int8), net.act[site])

    heatmap, regression = sparse_site("head.cls.out"), sparse_site("head.reg.out")
    boxes = decode_reference(heatmap, regression, grid, cfg, score_threshold, top_k)
    return boxes, heatmap, regression


def decode_reference(heatmap, regression, grid, cfg, score_threshold, top_k, stride=4):
    """Boxes from head maps, one box at a time in Python floats."""
    heatmap, regression = (
        SparseTensor2D(m.width, m.height, m.coords, dequantize(m.features, m.qparams))
        if m.is_int8 else m for m in (heatmap, regression))
    logits = heatmap.features
    pooled = sparse_max_pool(heatmap, 3).features
    scores = np.empty_like(logits)
    pos = logits >= 0
    scores[pos] = 1.0 / (1.0 + np.exp(-logits[pos]))
    ex = np.exp(logits[~pos])
    scores[~pos] = ex / (1.0 + ex)
    rows, cls = np.nonzero((logits == pooled) & (scores >= score_threshold))
    cand = scores[rows, cls]
    ii, jj = heatmap.coords[rows, 0], heatmap.coords[rows, 1]
    cell_x, cell_y = grid.pillar_size_x * stride, grid.pillar_size_y * stride
    boxes = []
    for idx in np.lexsort((ii, jj, cls, -cand))[:top_k]:
        reg = regression.features[rows[idx]]
        off_x = float(np.clip(reg[0], -OFFSET_CLAMP, OFFSET_CLAMP))
        off_y = float(np.clip(reg[1], -OFFSET_CLAMP, OFFSET_CLAMP))
        x = (float(ii[idx]) + 0.5 + off_x) * cell_x + grid.x_min
        y = (float(jj[idx]) + 0.5 + off_y) * cell_y + grid.y_min
        x = min(max(x, grid.x_min - cell_x), grid.x_max + cell_x)
        y = min(max(y, grid.y_min - cell_y), grid.y_max + cell_y)
        sizes = np.exp(np.clip(reg[3:6], -LOG_SIZE_CLAMP, LOG_SIZE_CLAMP))
        yaw = math.atan2(reg[6], reg[7])
        if yaw <= -math.pi:
            yaw += 2.0 * math.pi
        c = int(cls[idx])
        boxes.append(DetectionBox(class_id=c, class_name=cfg.class_names[c],
                                  score=float(cand[idx]), x=x, y=y, z=float(reg[2]),
                                  l=float(sizes[0]), w=float(sizes[1]), h=float(sizes[2]),
                                  yaw=yaw))
    return boxes
