"""Point cloud ingestion and detection output.

Binary clouds are flat little-endian float32 records of stride 4
(x, y, z, intensity) or 5 (…, ring); the ring index is discarded.
Detections go out as JSON lines with a deterministic ordering so runs
can be compared byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import FormatError


@dataclass
class PointCloud:
    """Ordered point records plus ingestion bookkeeping.

    data holds float32 rows (x, y, z, intensity) exactly as read;
    order is preserved so downstream truncation stays deterministic.
    dropped counts records removed for non-finite fields.
    """

    data: np.ndarray = field(default_factory=lambda: np.empty((0, 4), dtype=np.float32))
    dropped: int = 0

    def __len__(self) -> int:
        return self.data.shape[0]


def _keep_finite(records: np.ndarray) -> PointCloud:
    """The rows of C-contiguous (N, stride) float32 records whose first
    four fields are finite, as a new (N', 4) array; one isfinite pass
    over the whole buffer, and no row mask unless some field fails it."""
    finite = np.isfinite(records)
    if finite.all():
        return PointCloud(data=records[:, :4].copy())
    kept = finite[:, :4].all(axis=1)
    return PointCloud(data=records[kept, :4], dropped=int(kept.size - np.count_nonzero(kept)))


def read_binary_cloud(path, stride: int = 5) -> PointCloud:
    """Read consecutive little-endian f32 records of the given stride.

    Records with any non-finite retained field (x, y, z, intensity)
    are dropped and counted; a NaN reaching the pooling stages would
    poison whole pillars, so they never pass ingestion.
    """
    if stride not in (4, 5):
        raise FormatError(f"stride must be 4 or 5, got {stride}")
    with open(path, "rb") as f:
        raw = f.read()
    record_bytes = stride * 4
    if len(raw) % record_bytes != 0:
        raise FormatError(
            f"{path}: file length {len(raw)} is not a multiple of {record_bytes} "
            f"(stride {stride} x 4 bytes)"
        )
    return _keep_finite(np.frombuffer(raw, dtype="<f4").reshape(-1, stride))


def read_text_cloud(path) -> PointCloud:
    """Read whitespace- or comma-separated decimal records, >=4 fields per line.

    Blank lines and '#' comments are skipped; extra fields beyond the
    fourth are ignored. Malformed lines report their 1-based number.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            fields = text.replace(",", " ").split()
            if len(fields) < 4:
                raise FormatError(f"{path}: line {lineno}: expected >=4 fields, got {len(fields)}")
            try:
                rows.append([float(v) for v in fields[:4]])
            except ValueError:
                raise FormatError(f"{path}: line {lineno}: non-numeric field") from None
    return _keep_finite(np.asarray(rows, dtype=np.float32).reshape(-1, 4))


def read_cloud(path, stride: int = 5) -> PointCloud:
    """Dispatch on extension: .txt/.csv/.xyz are text, anything else binary."""
    if str(path).lower().endswith((".txt", ".csv", ".xyz")):
        return read_text_cloud(path)
    return read_binary_cloud(path, stride=stride)


def detection_sort_key(box):
    return (-box.score, box.x, box.y, box.class_id)


def write_detections(boxes, path) -> None:
    """Write one JSON object per detection, UTF-8, LF line endings.

    Lines are ordered by descending score, ties broken by ascending
    (x, y, class_id), so identical inputs diff byte-identically.
    Floats use Python's shortest round-trip repr (full precision). Each
    line is json.dumps of the box's dict (NaN, Infinity, ASCII escapes):
    one json.dumps formats every float, one f-string per box its line.
    """
    ordered = sorted(boxes, key=detection_sort_key)
    floats = json.dumps([float(v) for b in ordered
                         for v in (b.score, b.x, b.y, b.z, b.l, b.w, b.h, b.yaw)])
    # no float's text holds ", ": split the list back into 8 per box
    per_box = zip(*[iter(floats[1:-1].split(", "))] * 8)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("".join(
            f'{{"class_id": {int(b.class_id)}, '
            f'"class_name": {encode_basestring_ascii(b.class_name)}, "score": {score}, '
            f'"x": {x}, "y": {y}, "z": {z}, "l": {l}, "w": {w}, "h": {h}, "yaw": {yaw}}}\n'
            for b, (score, x, y, z, l, w, h, yaw) in zip(ordered, per_box)))
