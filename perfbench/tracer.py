"""Spans around the engine's public functions, recorded from outside.

``instrument(tracer)`` replaces each function in ``TARGETS`` by a wrapper
that records a span, in every ``lift`` module namespace that holds the
function: modules import these functions by name, so patching only the
defining module would let calls through other namespaces escape. Leaving
the ``with`` block restores the originals. Nothing inside ``src/lift``
changes.

A span's self time is its duration minus the part of its interval that
its children cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    children: list = field(default_factory=list)
    attrs: dict = field(default_factory=dict)
    parent: "Span | None" = field(default=None, repr=False)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        """Duration minus the union of the children's intervals, each
        clipped to this span."""
        covered = 0.0
        cursor = self.start
        for child in sorted(self.children, key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, self.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return self.duration - covered

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


class Tracer:
    """Span trees kept in memory; one stack per thread."""

    def __init__(self):
        self.roots = []
        self._local = threading.local()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        s = Span(name=name, start=time.perf_counter(), parent=parent)
        (parent.children if parent is not None else self.roots).append(s)
        stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _note_conv(mode):
    def note(span, args, kwargs, result):
        x, w = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "w")
        # the input active set is kept by reference; its rulebook pairs are
        # counted after the cloud, outside every timed interval
        span.attrs.update(mode=mode, k=w.shape[0], cin=w.shape[2], cout=w.shape[3],
                          coords=x.coords, width=x.width, height=x.height,
                          out_width=result.width)
    return note


def _note_encoder(weight_of):
    def note(span, args, kwargs, result):
        pillars = args[0]
        span.attrs["macs"] = (pillars.point_count * pillars.feature_length
                              * weight_of(args[1]).shape[1])
    return note


def _note_pillarize(span, args, kwargs, result):
    span.attrs.update(in_range=len(args[0]) - result.out_of_range, kept=result.point_count)


def _note_rulebook(span, args, kwargs, result):
    span.attrs["pairs"] = result.pair_count()


def _note_requantize(span, args, kwargs, result):
    span.attrs["elements"] = int(args[0].size)


# (module, attribute, span name, note); a dotted attribute is a classmethod
TARGETS = (
    ("pcd_io", "read_cloud", "pcd_io.read_cloud", None),
    ("pcd_io", "write_detections", "pcd_io.write_detections", None),
    ("pillarizer", "pillarize", "pillarizer.pillarize", _note_pillarize),
    ("network", "run_network", "network.run_network", None),
    ("network", "dbpfn_encode", "network.dbpfn_encode",
     _note_encoder(lambda params: params.weight)),
    ("network", "run_backbone", "network.run_backbone", None),
    ("network", "fuse_scales", "network.fuse_scales", None),
    ("network", "run_head", "network.run_head", None),
    ("network", "decode", "network.decode", None),
    ("quantize", "run_int8_network", "quantize.run_int8_network", None),
    ("quantize", "encode_int8", "quantize.encode_int8",
     _note_encoder(lambda net: net.encoder.q_weight)),
    ("sparse", "build_rulebook", "sparse.build_rulebook", _note_rulebook),
    ("sparse", "submanifold_conv", "sparse.submanifold_conv", _note_conv("submanifold")),
    ("sparse", "sparse_conv_stride2", "sparse.sparse_conv_stride2", _note_conv("stride2")),
    ("sparse", "sparse_add_projected", "sparse.sparse_add_projected", None),
    ("sparse", "sparse_max_pool", "sparse.sparse_max_pool", None),
    ("sparse", "relu", "sparse.relu", None),
    ("sparse", "OutputQuant.from_scales", "sparse.OutputQuant.from_scales", None),
    ("quant", "requantize_array", "quant.requantize_array", _note_requantize),
    ("weights_io", "read_weight_file", "weights_io.read_weight_file", None),
    ("weights_io", "records_to_float_network", "weights_io.records_to_network", None),
    ("weights_io", "records_to_int8_network", "weights_io.records_to_network", None),
    ("weights_io", "validate_float_against_config", "weights_io.validate", None),
    ("weights_io", "validate_int8_against_config", "weights_io.validate", None),
    ("analysis", "count_macs_network", "analysis.count_macs_network", None),
)

CONV_SPANS = ("sparse.submanifold_conv", "sparse.sparse_conv_stride2")


def _wrap(tracer: Tracer, name: str, fn, note):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as s:
            result = fn(*args, **kwargs)
        if note is not None:
            note(s, args, kwargs, result)
        return result
    return wrapper


def lift_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "lift" or n.startswith("lift."))]


def original(module: str, attr: str):
    """The untraced function behind a target (a classmethod's function),
    also while instrumented."""
    owner = importlib.import_module(f"lift.{module}")
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    value = vars(owner)[last]
    value = value.__func__ if isinstance(value, classmethod) else value
    return getattr(value, "__wrapped__", value)


@contextmanager
def instrument(tracer: Tracer):
    """Trace every target for the duration of the block."""
    restore = []
    try:
        for module, attr, name, note in TARGETS:
            fn = original(module, attr)
            wrapper = _wrap(tracer, name, fn, note)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(importlib.import_module(f"lift.{module}"), cls_name)
                restore.append((cls, method, vars(cls)[method]))
                setattr(cls, method, classmethod(wrapper))
                continue
            for mod in lift_modules():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        restore.append((mod, key, value))
                        setattr(mod, key, wrapper)
        yield tracer
    finally:
        for owner, key, value in reversed(restore):
            setattr(owner, key, value)
