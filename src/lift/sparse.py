"""2D sparse tensors, neighbour tables, and the convolution flavors.

A sparse tensor stores only its active coordinates plus one feature row
per coordinate, kept in canonical row-major order (by j, then i). A
conv's rulebook is an output-major table: nbr[d, o] is the input row
that kernel offset d feeds into output row o, or n_in where that tap is
missing, and row n_in of the features reads zeros: float conv and add
outputs, and the float encoder's, keep a spare +0.0 row for this, other
inputs are copied and padded. Every conv, float or int8, runs by row
tiles: each group of live offsets gathers its rows side by side and runs
one GEMM, and the products sum onto the bias; the epilogue (a ReLU, or
int8 requantization) then runs while the tile is in cache.

Int8 tiles are near-equal row ranges, one per TILE_ROWS rows, and at
least one per thread once a conv has threads * SPLIT_ROWS rows: int8
sums are exact, so any split gives the same bytes. A float tile groups
one offset per GEMM, so every output row gets its bias and then one
addition per offset, in offset order. Its bytes then hold across tilings
if a product row has the same bits in a GEMM of any height >= 2, which
BLAS does not promise: numpy's bundled OpenBLAS gives it on its SkylakeX
kernels when Cout is a multiple of 8, but at Cin 128 and Cout 10 a GEMM
under about 10^6 multiply-adds takes a small-matrix kernel with other
bits, and a one-row product runs through gemv, with other bits again.
So _gemm_rows_exact probes each (Cin, Cout) once per process. A float
conv whose shape passes takes the int8 tiles and hit-only offsets
(below); one whose shape fails keeps TILE_ROWS-row tiles, the remainder
joining the last, whatever the thread count, and runs every offset
over the whole tile. Those tiles stay even at one thread: at Cout <= 3
(a 2- or 3-class head) GEMM rows differ between the two tilings from
about 2,100 rows, so a fold would change the bytes such convs write.

Hit-only float tiles. A float tile skips an offset with no hit in the
tile, and multiplies one whose hit rows are more than one and fewer than
HIT_ONLY_SHARE of the tile over those rows alone, adding the products
into them; an offset with one hit row, which would be a gemv, runs over
the whole tile. A skipped row would have added the product of the spare
+0.0 row: with finite weights that is +-0.0, and adding +-0.0 changes no
bit of an accumulator that is not -0.0. A round-to-nearest sum is -0.0
only when both addends are, so an accumulator that starts at a bias
without -0.0 never is; a conv whose bias holds a -0.0, or whose weights
are not all finite, runs every offset over the whole tile. Each table
keeps every offset's hit rows and the input rows they read
(Rulebook.hit_pairs), so the convs on one active set share them.

Threads: with threads > 1 and at least two tiles, the calling thread
and threads - 1 pool workers take disjoint tiles from one shared queue
while numpy's bundled OpenBLAS runs one thread (its count is restored
afterwards, also when a tile raises; without that library's thread
setter, BLAS is left alone), so the work around the GEMMs runs on every
core too, and no idle BLAS thread spins against the workers. Workers
run in copies of the caller's context, so its np.errstate holds. A
single-tile conv, and every conv at threads = 1, runs in the calling
thread and never touches BLAS: below threads * SPLIT_ROWS rows, BLAS's
own threads beat a split. At threads > 1 both encoders run with BLAS at
one thread as well (network.run_encoded): after a multi-threaded call,
OpenBLAS's threads busy-wait for a while, and took a core from the
first conv's tile workers.

The int8 path emulates int32 accumulators exactly: the int32 accumulator
bound, |bias| + K * K * Cin * 255 * 128 < 2^31 (quant.integer_bias,
checked when a quantize.Int8Network is made), keeps every sum an
integer below 2^31. The GEMMs run on centered inputs (|q - zero_point|
<= 255) and the weights in float32, which holds every integer up to
2^24. int8_gemms sizes the GEMMs by each output channel's L1 bound (as
A2Q does): a partial sum over a set of offsets is at most 255 times the
sum of |w| over them. Where every channel's 255 * sum |w| + |bias| is
below 2^24, the tile runs one float32 GEMM over all live offsets and
adds the bias in float32, every partial sum exact in any order.
Otherwise the offsets split into the fewest greedy runs whose bound
stays below 2^24, each one exact float32 GEMM summed onto the bias in
float64; where a single offset passes 2^24, one float64 GEMM runs. The
sums end in the thread's float64 buffer (a one-GEMM tile is copied in).

OutputQuant.requantize then writes the buffer as int8. Where every output
channel's shift s is at most EXACT_F64_SHIFT = 13, it computes, in
float64, t = acc * f + (zero_point + 128.5) with f = M * 2^-(31 + s), a
Q31 multiplier M, clips t to [lo + 128, 255] (lo = -128, or the zero
point under a ReLU), truncates it into the output bytes read as uint8,
and flips their sign bit. This is bit for bit quant.requantize_array's
clip(floor(acc * f + zero_point + 1/2), lo, 127): t >= 0 after the clip,
so truncation is floor, floor(v) + 128 = floor(v + 128), clipping
commutes with floor at integer bounds, and u ^ 0x80 is u - 128 as int8.
acc * f is exact while |acc * M| < 2^53, i.e. |acc * f| < B = 2^(22 -
s); then t, a multiple of 2^-(31 + s), is exact while |t| < B as well.
Rounding is monotone and B is representable, so where acc * f or t is
past +-B, the computed value stays past it too, and both clip alike:
with 0 < zero_point + 128.5 <= 255.5 and B >= 512 for s <= 13, acc * f
>= B or t >= B gives t > 255, and acc * f <= -B or t <= -B gives t < 0.
Plans with a larger shift run quant.requantize_array on the same
accumulators.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParameterError, ShapeError
from .quant import INT8_MAX, INT8_MIN, QuantParams, encode_factors, requantize_array

MODES = ("submanifold", "stride2")
TILE_ROWS = 1024
# a split conv of at least threads * SPLIT_ROWS rows runs one tile per thread
SPLIT_ROWS = 768
# a float tile multiplies an offset over its hit rows alone when they are
# more than one and fewer than this share of the tile
HIT_ONLY_SHARE = 0.8
# float32 holds every integer of magnitude up to 2^24
F32_EXACT = 2 ** 24
# the largest shift at which the float64 epilogue is exact (module docstring)
EXACT_F64_SHIFT = 13


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
    _tables: dict = field(default_factory=dict, repr=False, compare=False)  # build_rulebook

    @classmethod
    def build(cls, width, height, coords, features, qparams=None) -> "SparseTensor2D":
        """Canonicalize arbitrary coordinate/feature order and validate.

        features are (N, C) rows, one per coordinate, or (N,) for one
        channel; N may be 0. coords become int64 and features float64
        unless they are int8.
        When the keys already strictly increase, the tensor keeps the
        caller's arrays (after those conversions) without copying them,
        so the caller must not change them afterwards; otherwise it holds
        sorted copies.
        """
        coords = np.asarray(coords, dtype=np.int64).reshape(-1, 2)
        features = np.asarray(features)
        if features.dtype != np.int8:
            features = features.astype(np.float64, copy=False)
        if features.ndim == 1:
            features = features[:, None]
        if coords.shape[0] != features.shape[0]:
            raise ShapeError("coords and features row counts differ")
        if coords.size:
            if coords[:, 0].min() < 0 or coords[:, 0].max() >= width \
                    or coords[:, 1].min() < 0 or coords[:, 1].max() >= height:
                raise ShapeError("coordinate outside grid")
        keys = coords[:, 1] * width + coords[:, 0]
        if not np.all(keys[1:] > keys[:-1]):
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            if np.any(keys[1:] == keys[:-1]):
                raise ShapeError("duplicate active coordinate")
            coords, features = coords[order], features[order]
        if features.dtype == np.int8 and qparams is None:
            raise ShapeError("int8 tensor requires QuantParams")
        return cls(width=width, height=height, coords=coords, features=features,
                   qparams=qparams, _keys=keys)

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

    def with_features(self, features: np.ndarray, qparams=None) -> "SparseTensor2D":
        """A tensor on this one's active set, sharing its keys and tables."""
        return SparseTensor2D(width=self.width, height=self.height, coords=self.coords,
                              features=features, qparams=qparams, _keys=self.keys(),
                              _tables=self._tables)


def _rows_at(x: SparseTensor2D, ci: np.ndarray, cj: np.ndarray) -> np.ndarray:
    """Rows of x at candidate coords, len(x) where a site is inactive or
    off the grid (the extra last entry of the dense key -> row index)."""
    index = np.full(x.width * x.height + 1, len(x), dtype=np.intp)
    index[x.keys()] = np.arange(len(x))
    on_grid = (ci >= 0) & (ci < x.width) & (cj >= 0) & (cj < x.height)
    return index[np.where(on_grid, cj * x.width + ci, x.width * x.height)]


@dataclass
class Rulebook:
    """Output-major neighbour table: nbr[d, o] is the input row that
    kernel offset d = dy * k + dx feeds into output row o, or n_in where
    that tap is missing."""

    out_width: int
    out_height: int
    out_coords: np.ndarray
    nbr: np.ndarray  # (k * k, n_out) intp
    n_in: int

    @functools.cached_property
    def hits(self) -> np.ndarray:  # per offset, the number of output rows it feeds
        return np.count_nonzero(self.nbr < self.n_in, axis=1)

    @functools.cached_property
    def hit_pairs(self) -> list:
        """Per offset, the output rows it feeds (ascending) and the input
        rows they read."""
        rows = [np.flatnonzero(taps < self.n_in) for taps in self.nbr]
        return [(r, taps[r]) for r, taps in zip(rows, self.nbr)]

    def pair_count(self) -> int:
        return int(self.hits.sum())


def build_rulebook(x: SparseTensor2D, k: int, mode: str) -> Rulebook:
    """x's table for a k x k kernel in mode. A submanifold table is built
    once per active set and kept with it, so every tensor that keeps the
    set (submanifold conv outputs, adds, max pool, relu) reads the same
    table; a stride-2 table is built per call, so none outlives its conv."""
    if mode not in MODES:
        raise ParameterError(f"unknown conv mode {mode!r}")
    if k % 2 != 1:
        raise ParameterError("kernel size must be odd")
    if mode == "stride2":
        return _build_table(x, k, mode)
    if k not in x._tables:
        x._tables[k] = _build_table(x, k, mode)
    return x._tables[k]


def _build_table(x: SparseTensor2D, k: int, mode: str) -> Rulebook:
    if mode == "submanifold":
        out_w, out_h = x.width, x.height
        out_coords = x.coords
        step, pad = 1, k // 2
    else:  # stride2
        if k != 3:
            raise ParameterError("stride-2 convolution is defined for k = 3")
        out_w, out_h = -(-x.width // 2), -(-x.height // 2)
        out_coords = _stride2_coords(x, out_w, out_h)
        step, pad = 2, 1

    dy, dx = np.divmod(np.arange(k * k), k)
    ci = step * out_coords[:, 0] + (dx - pad)[:, None]
    cj = step * out_coords[:, 1] + (dy - pad)[:, None]
    return Rulebook(out_width=out_w, out_height=out_h, out_coords=out_coords,
                    nbr=_rows_at(x, ci, cj), n_in=len(x))


def _stride2_coords(x: SparseTensor2D, out_w: int, out_h: int) -> np.ndarray:
    """Outputs o with 2o + d - 1 active for some d in {0,1,2}^2: input i feeds
    outputs i // 2 and (i + 1) // 2 per axis (a spare bitmap edge takes the last)."""
    hit = np.zeros((out_h + 1, out_w + 1), dtype=bool)
    i, j = x.coords[:, 0], x.coords[:, 1]
    for oj in (j // 2, (j + 1) // 2):
        for oi in (i // 2, (i + 1) // 2):
            hit[oj, oi] = True
    keys = np.flatnonzero(hit[:out_h, :out_w])
    return np.column_stack([keys % out_w, keys // out_w])


@dataclass(frozen=True)
class OutputQuant:
    """Requantization plan for an int8 convolution output.

    One multiplier/shift per output channel (factor = s_in * s_w[c] /
    s_out, Q31-encoded by quant.encode_factors) plus the output tensor's
    QuantParams.
    """

    qparams: QuantParams
    multipliers: np.ndarray
    shifts: np.ndarray
    # M * 2^-(31 + s) per channel where the float64 epilogue is exact, else None
    factors: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shifts = np.asarray(self.shifts)
        exact = np.all(shifts <= EXACT_F64_SHIFT)
        factors = np.ldexp(np.asarray(self.multipliers, float), -31 - shifts) if exact else None
        object.__setattr__(self, "factors", factors)

    @classmethod
    def from_scales(cls, in_scale: float, weight_scales, out_qp: QuantParams) -> "OutputQuant":
        multipliers, shifts = encode_factors(
            in_scale * np.asarray(weight_scales, dtype=np.float64) / out_qp.scale)
        return cls(qparams=out_qp, multipliers=multipliers, shifts=shifts)

    def requantize(self, acc: np.ndarray, out: np.ndarray, relu: bool = False) -> None:
        """Write quant.requantize_array's int8 of float64 integer
        accumulators (|acc| < 2^31) into out; by the float64 epilogue
        where it is exact (module docstring), which overwrites acc."""
        zero_point = self.qparams.zero_point
        if self.factors is None:
            out[...] = requantize_array(acc, self.multipliers, self.shifts, zero_point,
                                        relu=relu)
            return
        acc *= self.factors
        acc += zero_point + 128.5
        np.clip(acc, (zero_point if relu else INT8_MIN) + 128, 255, out=acc)
        biased = out.view(np.uint8)
        np.copyto(biased, acc, casting="unsafe")   # truncates: acc >= 0, so floor
        biased ^= 0x80


def _tiles(n: int) -> list:
    """Row ranges of TILE_ROWS rows; the remainder joins the last range.
    The tiles of a float conv whose GEMM rows are not exact."""
    starts = list(range(0, n - TILE_ROWS + 1, TILE_ROWS)) or [0]
    return list(zip(starts, starts[1:] + [n])) if n else []


def _split_tiles(n: int, threads: int) -> list:
    """Near-equal row ranges: one per TILE_ROWS rows, and at least
    threads of them once there are threads * SPLIT_ROWS rows. The tiles
    of an int8 conv, of a float conv whose GEMM rows are exact, and, at
    threads 1, of a projected add, whose sums are elementwise."""
    count = max(n // TILE_ROWS, threads if n >= threads * SPLIT_ROWS else 1)
    bounds = [n * t // count for t in range(count + 1)]
    return list(zip(bounds[:-1], bounds[1:])) if n else []


@functools.cache
def _gemm_rows_exact(cin: int, cout: int) -> bool:
    """Whether a float64 (h, cin) @ (cin, cout) GEMM on this BLAS gave the
    last h rows of a 2 * TILE_ROWS - 1 row GEMM (the tallest float tile)
    the same bits at every probed height h: 2 to 17, and a spread of
    larger ones (module docstring)."""
    rng = np.random.default_rng(0)
    a, w = rng.standard_normal((2 * TILE_ROWS - 1, cin)), rng.standard_normal((cin, cout))
    full = a @ w
    heights = (*range(2, 18), 31, 33, 100, 255, 257, 767, 1023, TILE_ROWS, 1025, 1638)
    return all((a[-h:] @ w).tobytes() == full[-h:].tobytes() for h in heights)


def int8_gemms(w: np.ndarray, bias) -> tuple:
    """(offset groups, GEMM dtype, accumulator dtype) that keep an int8
    (K, K, Cin, Cout) kernel's sums with its integer bias exact, from
    each output channel's L1 bound (module docstring). The groups cover
    every kernel offset in order; with equal dtypes there is one group
    and the bias is added in that dtype."""
    k, cout = w.shape[0], w.shape[3]
    # 255 * sum |w| per offset and output channel
    l1 = np.abs(w.reshape(k * k, -1, cout).astype(np.int64)).sum(axis=1) * 255
    every = (tuple(range(k * k)),)
    if (l1.sum(axis=0) + np.abs(bias)).max() < F32_EXACT:
        return every, np.float32, np.float32
    if l1.max() >= F32_EXACT:   # float64 holds every int32 partial sum
        return every, np.float64, np.float64
    groups, total = [], None
    for d in range(k * k):
        if groups and (total + l1[d]).max() < F32_EXACT:
            groups[-1].append(d)
            total += l1[d]
        else:
            groups.append([d])
            total = l1[d].copy()
    return tuple(map(tuple, groups)), np.float32, np.float64


# (getter, setter) symbol pairs of the OpenBLAS builds numpy wheels bundle
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def blas_thread_handle():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy
    (under numpy.libs), or None where there is none. Looked up on first
    use, never at import or weight load."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for get_name, set_name in _BLAS_THREAD_SYMBOLS:
            get, set_ = getattr(dll, get_name, None), getattr(dll, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


# BLAS's thread count is one per process, and so is the switch over it
_blas_lock = threading.Lock()
_blas_users = 0
_blas_found = 0


@contextmanager
def one_blas_thread():
    """BLAS at one thread for the block. Concurrent or nested blocks share
    one switch: the first in records the count, the last out restores it."""
    global _blas_users, _blas_found
    handle = blas_thread_handle()
    if handle is None:
        yield
        return
    get, set_ = handle
    with _blas_lock:
        if _blas_users == 0:
            _blas_found = get()
            set_(1)
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0:
                set_(_blas_found)


def _run_tiles(tile, tiles: list, threads: int) -> None:
    """tile(rows) for every range: in the calling thread alone, or, with
    threads > 1 and several tiles, by the caller and threads - 1 workers
    taking tiles from one queue while BLAS runs one thread."""
    workers = min(threads, len(tiles)) - 1
    if workers < 1:
        for rows in tiles:
            tile(rows)
        return
    todo, lock = iter(tiles), threading.Lock()

    def drain():
        while True:
            with lock:
                rows = next(todo, None)
            if rows is None:
                return
            tile(rows)

    with one_blas_thread(), ThreadPoolExecutor(max_workers=workers) as pool:
        helpers = [pool.submit(contextvars.copy_context().run, drain) for _ in range(workers)]
        drain()
        for helper in helpers:
            helper.result()


def _padded(features: np.ndarray, fill, dtype=None) -> np.ndarray:
    """features plus one row of fill, the row a missing neighbour reads."""
    out = np.empty((features.shape[0] + 1, features.shape[1]), dtype=dtype or features.dtype)
    out[:-1], out[-1] = features, fill
    return out


def empty_zero_row(n: int, channels: int) -> np.ndarray:
    """(n, channels) float64: the first rows of a buffer whose spare last row is +0.0."""
    buf = np.empty((n + 1, channels))
    buf[n] = 0.0
    return buf[:n]


def _zero_padded(features: np.ndarray) -> np.ndarray:
    """_padded(features, 0.0): the buffer features is a view of when that is
    exactly features and a +0.0 row (float conv and add outputs), else a copy."""
    buf = features.base
    if (isinstance(buf, np.ndarray) and buf.dtype == features.dtype
            and buf.ctypes.data == features.ctypes.data
            and buf.shape == (features.shape[0] + 1, features.shape[1])
            and buf.flags.c_contiguous and features.flags.c_contiguous
            and not buf[-1].view(np.uint8).any()):   # bitwise +0.0
        return buf
    return _padded(features, 0.0)


def _conv(x: SparseTensor2D, w: np.ndarray, bias, mode: str,
          out_quant: OutputQuant | None = None, threads: int = 1,
          relu: bool = False, gemms: tuple | None = None) -> SparseTensor2D:
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
    bias = np.zeros(cout) if bias is None else np.asarray(bias)
    hit_only = None
    if x.is_int8:
        groups, gemm, acc_dtype = gemms or int8_gemms(w, bias)
        feats = _padded(x.features, x.qparams.zero_point, gemm)
        feats -= x.qparams.zero_point   # centered: the padding row reads 0
        out = np.empty((n_out, cout), dtype=np.int8)
        tiles = _split_tiles(n_out, threads)
    else:
        groups, gemm, acc_dtype = [[d] for d in range(k * k)], np.float64, np.float64
        feats = _zero_padded(x.features)
        out = empty_zero_row(n_out, cout)
        # only exact product rows may change GEMM height: then tiles split by
        # thread, and offsets run hit-only unless an accumulator could be
        # -0.0 or a missing tap's product not +-0.0 (module docstring)
        exact_rows = _gemm_rows_exact(cin, cout)
        tiles = _split_tiles(n_out, threads) if exact_rows else _tiles(n_out)
        if exact_rows and np.isfinite(w).all() and not np.signbit(bias[bias == 0]).any():
            # per offset: its hit rows, their input rows, and where each
            # tile bound falls in them
            bounds = [lo for lo, _ in tiles] + [n_out]
            hit_only = [(rows, inputs, dict(zip(bounds, np.searchsorted(rows, bounds).tolist())))
                        for rows, inputs in rb.hit_pairs]
    groups = [g for g in ([d for d in g if rb.hits[d]] for g in groups) if g]
    w_g = w.astype(gemm).reshape(k * k, cin, cout)
    w_groups = [w_g[g].reshape(-1, cout) for g in groups]
    # an int8 GEMM whose dtype is the accumulator's is the tile's only one
    one_gemm = x.is_int8 and gemm == acc_dtype
    if one_gemm:
        bias = bias.astype(acc_dtype)
    # a submanifold conv's center offset maps every row onto itself
    center = [k * k // 2] if mode == "submanifold" else None
    # each thread's float64 accumulator for int8 tiles
    scratch = threading.local()

    def products(g, w_gemm, lo, hi):
        taps = feats[lo:hi] if g == center else \
            feats.take(rb.nbr[g, lo:hi].T, axis=0).reshape(hi - lo, -1)
        return taps @ w_gemm

    def tile(rows):
        lo, hi = rows
        if x.is_int8:
            if not hasattr(scratch, "acc"):
                scratch.acc = np.empty((max(b - a for a, b in tiles), cout))
            acc = scratch.acc[:hi - lo]
        else:
            acc = out[lo:hi]
        if one_gemm:
            summed = products(groups[0], w_groups[0], lo, hi)
            summed += bias
            np.copyto(acc, summed)   # exact; faster than one mixed-dtype add
        else:
            acc[:] = bias
            for g, w_gemm in zip(groups, w_groups):
                if hit_only is not None:
                    hit_rows, in_rows, cut = hit_only[g[0]]
                    s, e = cut[lo], cut[hi]
                    if s == e:
                        continue
                    if 1 < e - s < HIT_ONLY_SHARE * (hi - lo):
                        acc[hit_rows[s:e] - lo] += feats.take(in_rows[s:e], axis=0) @ w_gemm
                        continue
                acc += products(g, w_gemm, lo, hi)
        if x.is_int8:
            out_quant.requantize(acc, out[lo:hi], relu=relu)
        elif relu:
            np.maximum(acc, 0, out=acc)

    # int8 GEMM operands are integers: an invalid flag from OpenBLAS is spurious
    with np.errstate(invalid="ignore") if x.is_int8 else nullcontext():
        _run_tiles(tile, tiles, threads)
    qparams = out_quant.qparams if x.is_int8 else None
    if mode == "submanifold":
        return x.with_features(out, qparams)
    return SparseTensor2D(width=rb.out_width, height=rb.out_height, coords=rb.out_coords,
                          features=out, qparams=qparams)


def submanifold_conv(x: SparseTensor2D, w, bias=None, out_quant: OutputQuant | None = None,
                     threads: int = 1, relu: bool = False,
                     gemms: tuple | None = None) -> SparseTensor2D:
    """Convolution whose output active set equals the input active set.

    Out-of-range or inactive taps contribute zero (real) / the input
    zero point (int8), matching zero-padded dense semantics. relu
    rectifies the output as relu() would. An int8 call requires the int32
    accumulator bound (module docstring), which making an Int8Network
    checks; gemms is int8_gemms(w, bias), computed per call when None.
    """
    if np.asarray(w).shape[0] not in (1, 3):
        raise ParameterError("submanifold kernel must be 1x1 or 3x3")
    return _conv(x, w, bias, "submanifold", out_quant=out_quant, threads=threads, relu=relu,
                 gemms=gemms)


def sparse_conv_stride2(x: SparseTensor2D, w, bias=None, out_quant: OutputQuant | None = None,
                        threads: int = 1, relu: bool = False,
                        gemms: tuple | None = None) -> SparseTensor2D:
    """3x3 stride-2 downsampling convolution, padding 1.

    Output site o is active iff some input 2o + d - 1 (d in {0,1,2}^2)
    is active; output dims are ceil(input / 2). relu and gemms as for
    submanifold_conv.
    """
    return _conv(x, w, bias, "stride2", out_quant=out_quant, threads=threads, relu=relu,
                 gemms=gemms)


def sparse_max_pool(x: SparseTensor2D, k: int = 3) -> SparseTensor2D:
    """Per-channel max over active neighbors in the k x k window,
    submanifold semantics (active set unchanged). Works for real and
    int8 tensors alike; quantization metadata passes through."""
    rb = build_rulebook(x, k, "submanifold")
    # a missing neighbor reads the smallest value, which never wins
    feats = _padded(x.features, INT8_MIN if x.is_int8 else -np.inf)
    out = x.features.copy()
    for d in range(k * k):
        if d != k * k // 2:
            np.maximum(out, feats[rb.nbr[d]], out=out)
    return x.with_features(out, x.qparams)


def sparse_add_projected(base: SparseTensor2D, other: SparseTensor2D, factor: int,
                         qparams: QuantParams | None = None) -> SparseTensor2D:
    """Add a coarser tensor onto base at floor(coord / factor), keeping
    exactly base's active set. int8 operands need the output's qparams:
    each operand is rescaled to the output scale (factor s_in / s_out,
    Q31-encoded like a conv's) and saturated, and their sum onto the
    output zero point is clamped."""
    if factor not in (2, 4):
        raise ParameterError("projection factor must be 2 or 4")
    if base.channels != other.channels:
        raise ShapeError("channel mismatch in projected add")
    if other.width != -(-base.width // factor) or other.height != -(-base.height // factor):
        raise ShapeError("other dims must be base dims / factor, rounded up")

    rows = _rows_at(other, base.coords[:, 0] // factor, base.coords[:, 1] // factor)

    if base.is_int8:
        if qparams is None or not other.is_int8:
            raise ShapeError("int8 projected add requires int8 operands and output qparams")
        multipliers, shifts = encode_factors(
            np.array([base.qparams.scale, other.qparams.scale]) / qparams.scale)
        # a site without other reads other's zero point, which requantizes to 0
        o = _padded(other.features, other.qparams.zero_point)
        # each operand's requantized value of every centered int8 byte, as
        # int16 tables indexed by the byte read as uint8
        q = np.arange(256, dtype=np.uint8).view(np.int8).astype(np.int64)
        centered = q[:, None] - [base.qparams.zero_point, other.qparams.zero_point]
        tables = requantize_array(centered, multipliers, shifts, 0).astype(np.int16)
        out = np.empty_like(base.features)
    else:
        o, out = _zero_padded(other.features), empty_zero_row(len(base), base.channels)
    # by tiles: the rows gathered from other (and int8 byte indices as intp) stay small
    for lo, hi in _split_tiles(len(base), 1):
        taps = o[rows[lo:hi]]
        if not base.is_int8:
            taps[rows[lo:hi] == len(other)] = -0.0   # adding -0.0 changes no value
            np.add(base.features[lo:hi], taps, out=out[lo:hi])
            continue
        acc = tables[:, 0].take(base.features[lo:hi].view(np.uint8))
        acc += tables[:, 1].take(taps.view(np.uint8))
        acc += qparams.zero_point
        out[lo:hi] = np.clip(acc, INT8_MIN, INT8_MAX, out=acc)
    return base.with_features(out, qparams if base.is_int8 else None)


def relu(x: SparseTensor2D) -> SparseTensor2D:
    """Rectify at real 0: max(value, 0), or the zero point for int8. Convs
    rectify their own tiles; this serves training-form layers' branch sums."""
    floor = x.qparams.zero_point if x.is_int8 else 0
    return x.with_features(np.maximum(x.features, floor), x.qparams)
