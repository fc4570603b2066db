"""2D sparse tensors, rulebooks, and the convolution flavors.

A sparse tensor stores only its active coordinates plus one feature
row per coordinate, kept in canonical row-major order (by j, then i).
Convolutions run gather/GEMM/scatter over a rulebook: per kernel
offset, the (input row, output row) pairs it connects. Within one
offset every output row appears at most once, so scatter is a plain
indexed add and the accumulation order is fixed by the offset loop --
results are bitwise reproducible for the int8 path and reproducible
under the canonical order for the real path.

The int8 path accumulates in the same float64 lanes as the real path.
Its precondition is the int32 accumulator bound: |bias| + K * K * Cin *
255 * 128 < 2^31 (quant.integer_bias, checked by the int8 weight reader
and by quantize_network). Every operand and partial sum is then an
integer below 2^31, far inside float64's exact range of 2^53, so results
are identical to an int32-accumulator implementation in any summation
order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ShapeError
from .quant import QuantParams, Requantizer, requantize_array

MODES = ("submanifold", "stride2")


@dataclass
class SparseTensor2D:
    """Active (i, j) sites of a width x height grid with feature rows.

    features is float64 for the real path or int8 (with qparams) for
    the quantized path. coords rows are (i, j), unique, in range, and
    sorted by key j * width + i.
    """

    width: int
    height: int
    coords: np.ndarray
    features: np.ndarray
    qparams: QuantParams | None = None
    _keys: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def build(cls, width, height, coords, features, qparams=None) -> "SparseTensor2D":
        """Canonicalize arbitrary coordinate/feature order and validate."""
        coords = np.asarray(coords, dtype=np.int64).reshape(-1, 2)
        features = np.asarray(features)
        if features.dtype != np.int8:
            features = features.astype(np.float64)
        features = features.reshape(coords.shape[0], -1)
        if coords.shape[0] != features.shape[0]:
            raise ShapeError("coords and features row counts differ")
        if coords.size:
            if coords[:, 0].min() < 0 or coords[:, 0].max() >= width \
                    or coords[:, 1].min() < 0 or coords[:, 1].max() >= height:
                raise ShapeError("coordinate outside grid")
        keys = coords[:, 1] * width + coords[:, 0]
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        if keys.size and np.any(np.diff(keys) == 0):
            raise ShapeError("duplicate active coordinate")
        if features.dtype == np.int8 and qparams is None:
            raise ShapeError("int8 tensor requires QuantParams")
        return cls(width=width, height=height, coords=coords[order],
                   features=features[order], qparams=qparams, _keys=keys)

    @classmethod
    def empty(cls, width, height, channels, qparams=None, int8=False) -> "SparseTensor2D":
        dtype = np.int8 if int8 else np.float64
        return cls(width=width, height=height,
                   coords=np.empty((0, 2), dtype=np.int64),
                   features=np.empty((0, channels), dtype=dtype),
                   qparams=qparams, _keys=np.empty(0, dtype=np.int64))

    @property
    def channels(self) -> int:
        return self.features.shape[1]

    @property
    def is_int8(self) -> bool:
        return self.features.dtype == np.int8

    def __len__(self) -> int:
        return self.coords.shape[0]

    def keys(self) -> np.ndarray:
        if self._keys is None:
            self._keys = self.coords[:, 1] * self.width + self.coords[:, 0]
        return self._keys


def _lookup(keys: np.ndarray, cand_i: np.ndarray, cand_j: np.ndarray,
            width: int, height: int):
    """Rows of sorted keys matching candidate coords; returns (hit_mask, rows)."""
    in_range = (cand_i >= 0) & (cand_i < width) & (cand_j >= 0) & (cand_j < height)
    cand_keys = np.where(in_range, cand_j * width + cand_i, -1)
    rows = np.searchsorted(keys, cand_keys)
    rows = np.minimum(rows, max(keys.size - 1, 0))
    hit = in_range & (keys.size > 0)
    if keys.size:
        hit &= keys[rows] == cand_keys
    return hit, rows


@dataclass
class Rulebook:
    """Per kernel offset, the (input row, output row) pairs to process."""

    out_width: int
    out_height: int
    out_coords: np.ndarray
    pairs: list  # index d = dy * k + dx -> (in_rows, out_rows)

    def pair_count(self) -> int:
        return sum(int(in_rows.size) for in_rows, _ in self.pairs)


def build_rulebook(x: SparseTensor2D, k: int, mode: str) -> Rulebook:
    if mode not in MODES:
        raise ParameterError(f"unknown conv mode {mode!r}")
    if k % 2 != 1:
        raise ParameterError("kernel size must be odd")
    center = k // 2

    if mode == "submanifold":
        out_w, out_h = x.width, x.height
        out_coords = x.coords
    else:  # stride2
        if k != 3:
            raise ParameterError("stride-2 convolution is defined for k = 3")
        out_w = -(-x.width // 2)
        out_h = -(-x.height // 2)
        out_coords = _stride2_coords(x, out_w, out_h)

    keys = x.keys()
    pairs = []
    out_rows_all = np.arange(out_coords.shape[0])
    oi, oj = out_coords[:, 0], out_coords[:, 1]
    for dy in range(k):
        for dx in range(k):
            if mode == "stride2":
                ci = 2 * oi + dx - 1
                cj = 2 * oj + dy - 1
            else:
                ci = oi + dx - center
                cj = oj + dy - center
            hit, rows = _lookup(keys, ci, cj, x.width, x.height)
            pairs.append((rows[hit], out_rows_all[hit]))
    return Rulebook(out_width=out_w, out_height=out_h, out_coords=out_coords, pairs=pairs)


def _stride2_coords(x: SparseTensor2D, out_w: int, out_h: int) -> np.ndarray:
    """Outputs o with 2o + d - 1 active for some offset d in {0,1,2}^2."""
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


@dataclass(frozen=True)
class OutputQuant:
    """Requantization plan for an int8 convolution output.

    One multiplier/shift per output channel (factor = s_in * s_w[c] /
    s_out) plus the output tensor's QuantParams.
    """

    qparams: QuantParams
    multipliers: np.ndarray
    shifts: np.ndarray

    @classmethod
    def from_scales(cls, in_scale: float, weight_scales, out_qp: QuantParams) -> "OutputQuant":
        # factors below 2^-32 requantize everything to the zero point anyway;
        # clamping keeps them encodable without changing any output
        rs = [Requantizer.from_factor(
            max(in_scale * float(s) / out_qp.scale, 2.0 ** -32),
            zero_point=out_qp.zero_point) for s in np.atleast_1d(weight_scales)]
        return cls(qparams=out_qp,
                   multipliers=np.array([r.multiplier for r in rs], dtype=np.int64),
                   shifts=np.array([r.shift for r in rs], dtype=np.int64))


def _conv(x: SparseTensor2D, w: np.ndarray, bias, mode: str,
          out_quant: OutputQuant | None = None, threads: int = 1) -> SparseTensor2D:
    w = np.asarray(w)
    if w.ndim != 4 or w.shape[0] != w.shape[1]:
        raise ShapeError(f"kernel must be KxKxCinxCout, got {w.shape}")
    k, _, cin, cout = w.shape
    if x.channels != cin:
        raise ShapeError(f"input has {x.channels} channels, kernel expects {cin}")
    rb = build_rulebook(x, k, mode)
    n_out = rb.out_coords.shape[0]

    if x.is_int8 and out_quant is None:
        raise ShapeError("int8 convolution requires an OutputQuant")
    # int8 GEMMs run in float64 too, for BLAS speed; under the module's
    # accumulator bound they are exact (see the module docstring)
    feats = np.subtract(x.features, x.qparams.zero_point, dtype=np.float64) \
        if x.is_int8 else x.features
    w_f = w.astype(np.float64)
    acc = np.tile(np.zeros(cout) if bias is None else np.asarray(bias, dtype=np.float64),
                  (n_out, 1))

    def partial(d):
        in_rows, out_rows = rb.pairs[d]
        if in_rows.size == 0:
            return d, out_rows, None
        return d, out_rows, feats[in_rows] @ w_f[d // k, d % k]

    for _, out_rows, prod in _offset_products(partial, k * k, threads):
        if prod is not None:
            acc[out_rows] += prod
    if x.is_int8:
        acc = requantize_array(acc, out_quant.multipliers, out_quant.shifts,
                               out_quant.qparams.zero_point)
    return SparseTensor2D(width=rb.out_width, height=rb.out_height, coords=rb.out_coords,
                          features=acc, qparams=out_quant.qparams if x.is_int8 else None)


def _offset_products(partial, n_offsets: int, threads: int):
    """Per-offset gather/GEMM results, always yielded in offset order.

    The scatter stage consumes them sequentially, so results are
    independent of the worker count.
    """
    if threads <= 1 or n_offsets <= 1:
        return [partial(d) for d in range(n_offsets)]
    with ThreadPoolExecutor(max_workers=min(threads, n_offsets)) as pool:
        return sorted(pool.map(partial, range(n_offsets)), key=lambda t: t[0])


def submanifold_conv(x: SparseTensor2D, w, bias=None, k: int | None = None,
                     out_quant: OutputQuant | None = None, threads: int = 1) -> SparseTensor2D:
    """Convolution whose output active set equals the input active set.

    Out-of-range or inactive taps contribute zero (real) / the input
    zero point (int8), matching zero-padded dense semantics. An int8
    call requires the integer bias to keep the int32 accumulator bound,
    |bias| + K * K * Cin * 255 * 128 < 2^31; this function does not
    check it, the int8 weight reader and quantize_network do.
    """
    w = np.asarray(w)
    if k is not None and w.shape[0] != k:
        raise ShapeError(f"kernel size {w.shape[0]} does not match k={k}")
    if w.shape[0] not in (1, 3):
        raise ParameterError("submanifold kernel must be 1x1 or 3x3")
    return _conv(x, w, bias, "submanifold", out_quant=out_quant, threads=threads)


def sparse_conv_stride2(x: SparseTensor2D, w, bias=None,
                        out_quant: OutputQuant | None = None,
                        threads: int = 1) -> SparseTensor2D:
    """3x3 stride-2 downsampling convolution, padding 1.

    Output site o is active iff some input 2o + d - 1 (d in {0,1,2}^2)
    is active; output dims are ceil(input / 2).
    """
    if np.asarray(w).shape[0] != 3:
        raise ParameterError("stride-2 convolution requires a 3x3 kernel")
    return _conv(x, w, bias, "stride2", out_quant=out_quant, threads=threads)


def sparse_max_pool(x: SparseTensor2D, k: int = 3) -> SparseTensor2D:
    """Per-channel max over active neighbors in the k x k window,
    submanifold semantics (active set unchanged). Works for real and
    int8 tensors alike; quantization metadata passes through."""
    if len(x) == 0:
        return x
    rb = build_rulebook(x, k, "submanifold")
    out = x.features.copy()
    center = (k // 2) * k + (k // 2)
    for d, (in_rows, out_rows) in enumerate(rb.pairs):
        if d == center or in_rows.size == 0:
            continue
        np.maximum.at(out, out_rows, x.features[in_rows])
    return SparseTensor2D(width=x.width, height=x.height, coords=x.coords,
                          features=out, qparams=x.qparams, _keys=x.keys())


@dataclass(frozen=True)
class AddQuant:
    """Requantization plan for an int8 projected addition: both
    operands are rescaled to the shared output scale through the
    fixed-point primitive (saturating), then summed."""

    qparams: QuantParams
    base: Requantizer
    other: Requantizer

    @classmethod
    def from_scales(cls, base_qp: QuantParams, other_qp: QuantParams,
                    out_qp: QuantParams) -> "AddQuant":
        return cls(qparams=out_qp,
                   base=Requantizer.from_factor(
                       max(base_qp.scale / out_qp.scale, 2.0 ** -32)),
                   other=Requantizer.from_factor(
                       max(other_qp.scale / out_qp.scale, 2.0 ** -32)))


def sparse_add_projected(base: SparseTensor2D, other: SparseTensor2D, factor: int,
                         add_quant: AddQuant | None = None) -> SparseTensor2D:
    """Add a coarser tensor onto base at floor(coord / factor), keeping
    exactly base's active set."""
    if factor not in (2, 4):
        raise ParameterError("projection factor must be 2 or 4")
    if base.channels != other.channels:
        raise ShapeError("channel mismatch in projected add")
    if other.width != -(-base.width // factor) or other.height != -(-base.height // factor):
        raise ShapeError("other dims must be base dims / factor, rounded up")

    pi = base.coords[:, 0] // factor
    pj = base.coords[:, 1] // factor
    hit, rows = _lookup(other.keys(), pi, pj, other.width, other.height)

    if base.is_int8:
        if add_quant is None or not other.is_int8:
            raise ShapeError("int8 projected add requires int8 operands and an AddQuant")
        b = base.features.astype(np.int64) - base.qparams.zero_point
        rb = requantize_array(b, np.int64(add_quant.base.multiplier),
                              np.int64(add_quant.base.shift), 0).astype(np.int16)
        ro = np.zeros_like(rb)
        if hit.any():
            o = other.features[rows[hit]].astype(np.int64) - other.qparams.zero_point
            ro[hit] = requantize_array(o, np.int64(add_quant.other.multiplier),
                                       np.int64(add_quant.other.shift), 0)
        out = np.clip(rb + ro + add_quant.qparams.zero_point, -128, 127).astype(np.int8)
        return SparseTensor2D(width=base.width, height=base.height, coords=base.coords,
                              features=out, qparams=add_quant.qparams, _keys=base.keys())

    out = base.features.copy()
    if hit.any():
        out[hit] += other.features[rows[hit]]
    return SparseTensor2D(width=base.width, height=base.height, coords=base.coords,
                          features=out, qparams=None, _keys=base.keys())


def relu(x: SparseTensor2D) -> SparseTensor2D:
    """Rectify in place semantics: max(value, 0) for reals, clamp at the
    zero point for int8 (both represent real 0)."""
    floor = x.qparams.zero_point if x.is_int8 else 0
    return SparseTensor2D(width=x.width, height=x.height, coords=x.coords,
                          features=np.maximum(x.features, floor),
                          qparams=x.qparams, _keys=x.keys())
