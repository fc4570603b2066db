"""Per-layer metrics derived from one traced cloud's span tree.

Times are per cloud in ms: ``.ms`` is the summed duration of every span of
that name (children included), ``.self_ms`` the summed self time. Backbone
convolutions are those called directly by ``network.run_backbone`` (float)
or ``quantize.run_int8_network`` (int8); their stage follows from the
output grid width. Convolution MACs are rulebook pairs x Cin x Cout, with
the pairs counted from each conv's input active set after the cloud has
finished, so the count does not depend on how the engine builds or reuses
rulebooks.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
from lift.sparse import SparseTensor2D

from tracer import CONV_SPANS, original

INCLUSIVE = (
    "pcd_io.read_cloud", "pcd_io.write_detections", "pillarizer.pillarize",
    "network.run_network", "network.dbpfn_encode", "network.run_backbone",
    "network.fuse_scales", "network.run_head", "network.decode",
    "quantize.encode_int8", "quantize.run_int8_network",
    "sparse.build_rulebook", "sparse.sparse_add_projected", "sparse.sparse_max_pool",
    "sparse.relu", "sparse.OutputQuant.from_scales", "quant.requantize_array",
)
BACKBONE_CALLERS = ("network.run_backbone", "quantize.run_int8_network")
ENCODERS = ("network.dbpfn_encode", "quantize.encode_int8")


def stage_widths(grid_width: int) -> dict:
    """Output grid width of each backbone stage -> stage number."""
    return {-(-grid_width // 2 ** s): s for s in range(1, 5)}


class PairCounter:
    """Rulebook pair counts per (active set, mode, kernel), memoized for
    one cloud; active sets are held by reference so their ids stay unique."""

    def __init__(self):
        self._cache = {}
        self._build = original("sparse", "build_rulebook")

    def pairs(self, attrs: dict) -> int:
        coords = attrs["coords"]
        key = (id(coords), attrs["mode"], attrs["k"])
        if key not in self._cache:
            x = SparseTensor2D(width=attrs["width"], height=attrs["height"],
                               coords=coords, features=np.empty((coords.shape[0], 0)))
            self._cache[key] = (coords, self._build(x, attrs["k"], attrs["mode"]).pair_count())
        return self._cache[key][1]


def cloud_metrics(root, stages: dict, ceiling_gmac_per_s: float) -> dict:
    """Layer metrics of one cloud from its root span."""
    ms = defaultdict(float)
    self_ms = defaultdict(float)
    calls = defaultdict(int)
    pairs = PairCounter()
    out = defaultdict(float)
    for name in ("sparse.conv.macs", "encoder.macs", "sparse.rulebook_pairs",
                 "quant.requantize_array.elements", "pillarizer.points_kept_share"):
        out[name] = 0
    conv_s = 0.0
    for s in root.walk():
        if s is root:
            continue
        ms[s.name] += s.duration * 1e3
        self_ms[s.name] += s.self_time() * 1e3
        calls[s.name] += 1
        a = s.attrs
        if s.name in CONV_SPANS:
            out["sparse.conv.macs"] += pairs.pairs(a) * a["cin"] * a["cout"]
            conv_s += s.duration
            if s.parent.name in BACKBONE_CALLERS:
                out[f"sparse.conv.stage{stages[a['out_width']]}.ms"] += s.duration * 1e3
        elif s.name == "sparse.build_rulebook":
            out["sparse.rulebook_pairs"] += a["pairs"]
        elif s.name == "quant.requantize_array":
            out["quant.requantize_array.elements"] += a["elements"]
        elif s.name in ENCODERS:
            out["encoder.macs"] += a["macs"]
        elif s.name == "pillarizer.pillarize":
            out["pillarizer.points_kept_share"] = a["kept"] / max(a["in_range"], 1)
    for name in INCLUSIVE:
        out[f"{name}.ms"] = ms[name]
    for name in CONV_SPANS:
        out[f"{name}.self_ms"] = self_ms[name]
    for stage in range(1, 5):
        out.setdefault(f"sparse.conv.stage{stage}.ms", 0.0)
    out["sparse.build_rulebook.calls"] = calls["sparse.build_rulebook"]
    out["sparse.OutputQuant.from_scales.calls"] = calls["sparse.OutputQuant.from_scales"]
    out["sparse.conv.gmac_per_s"] = out["sparse.conv.macs"] / conv_s / 1e9 if conv_s else 0.0
    out["sparse.conv.ceiling_share"] = out["sparse.conv.gmac_per_s"] / ceiling_gmac_per_s
    return dict(out)
