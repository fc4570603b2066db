"""Independent reference implementations the engine is checked against.

Everything here computes over dense zero-padded arrays with explicit
offset arithmetic -- no rulebooks, no gather/scatter -- so agreement
with the sparse engine is meaningful.
"""

import math

import numpy as np

from lift.quant import requantize


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
    from lift.quant import Requantizer
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
    rows. Output rows follow the canonical (j, i) order."""
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
                acc[rows_out] += tensor.features[rows_in] @ kernel[dy, dx]
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
