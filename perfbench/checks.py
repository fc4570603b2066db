"""Output checks: the README's detection-file contract and recorded digests.

``digests.json`` holds the sha256 of every pool cloud's detection file for
seed 0, recorded by ``python3 perfbench/record_digests.py``. The engine
promises byte-identical detections, so any later change that alters an
output of those clouds fails the check.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"
DIGEST_SEED = 0
KEYS = ("class_id", "class_name", "score", "x", "y", "z", "l", "w", "h", "yaw")


def _reject_constant(token):
    raise ValueError(f"non-finite value {token}")


def detection_problems(data: bytes, class_names, top_k: int) -> list:
    """Breaches of the detection-file contract: one JSON object per LF
    line with exactly KEYS in order, finite numbers, a class id and name
    that match the config, positive sizes, descending score with ties by
    ascending (x, y, class_id), and at most top_k lines."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        return [f"not UTF-8: {e}"]
    if text and not text.endswith("\n"):
        return ["last line does not end with LF"]
    lines = text.splitlines(keepends=True)
    problems = []
    if len(lines) > top_k:
        problems.append(f"{len(lines)} boxes, more than top_k = {top_k}")
    prev = None
    for n, line in enumerate(lines, start=1):
        try:
            rec = json.loads(line, parse_constant=_reject_constant)
        except ValueError as e:
            problems.append(f"line {n}: {e}")
            continue
        if not isinstance(rec, dict) or tuple(rec) != KEYS:
            problems.append(f"line {n}: keys are not {', '.join(KEYS)}")
            continue
        cid = rec["class_id"]
        if not isinstance(cid, int) or not 0 <= cid < len(class_names) \
                or rec["class_name"] != class_names[cid]:
            problems.append(f"line {n}: class {cid!r} / {rec['class_name']!r} not in config")
            continue
        values = [rec[k] for k in KEYS[2:]]
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
            problems.append(f"line {n}: non-numeric or non-finite field")
            continue
        if not min(rec["l"], rec["w"], rec["h"]) > 0:
            problems.append(f"line {n}: non-positive box size")
        key = (-rec["score"], rec["x"], rec["y"], cid)
        if prev is not None and key < prev:
            problems.append(f"line {n}: out of order")
        prev = key
    return problems


def load_digests(workload: str) -> list:
    """Recorded digests of the workload's pool clouds for DIGEST_SEED."""
    doc = json.loads(DIGESTS.read_text())
    if doc["seed"] != DIGEST_SEED:
        raise ValueError(f"{DIGESTS} records seed {doc['seed']}, expected {DIGEST_SEED}")
    return doc["workloads"].get(workload, [])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
