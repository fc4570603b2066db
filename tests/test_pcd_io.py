import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lift.errors import FormatError
from lift.network import DetectionBox
from lift.pcd_io import (detection_sort_key, read_binary_cloud, read_text_cloud,
                         write_detections)


def pack_records(rows, stride):
    return b"".join(struct.pack(f"<{stride}f", *row) for row in rows)


def test_empty_binary_file(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    cloud = read_binary_cloud(path, stride=5)
    assert len(cloud) == 0
    assert cloud.dropped == 0


def test_single_record_stride5(tmp_path):
    path = tmp_path / "one.bin"
    path.write_bytes(pack_records([(1.0, 2.0, 3.0, 0.5, 7.0)], 5))
    assert path.stat().st_size == 20
    cloud = read_binary_cloud(path, stride=5)
    assert len(cloud) == 1
    assert tuple(cloud.data[0]) == (1.0, 2.0, 3.0, 0.5)  # ring discarded


def test_length_mismatch_names_byte_count(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x00" * 20)
    with pytest.raises(FormatError, match="20"):
        read_binary_cloud(path, stride=4)


def test_nonfinite_records_dropped_and_counted(tmp_path):
    rows = [(1.0, 2.0, 3.0, 0.5), (float("nan"), 0.0, 0.0, 0.0),
            (4.0, 5.0, 6.0, 0.1), (0.0, float("inf"), 0.0, 0.0)]
    path = tmp_path / "nf.bin"
    path.write_bytes(pack_records(rows, 4))
    cloud = read_binary_cloud(path, stride=4)
    assert len(cloud) == 2
    assert cloud.dropped == 2
    assert len(cloud) + cloud.dropped == len(rows)


@pytest.mark.parametrize("stride", [4, 5])
@pytest.mark.parametrize("column", [0, 1, 2, 3])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_any_nonfinite_field_drops_its_row(tmp_path, stride, column, bad):
    rng = np.random.default_rng(column)
    rows = rng.uniform(-50.0, 50.0, size=(9, stride)).astype(np.float32)
    rows[[2, 7], column] = bad
    path = tmp_path / "nf.bin"
    path.write_bytes(rows.astype("<f4").tobytes())
    cloud = read_binary_cloud(path, stride=stride)
    assert cloud.dropped == 2
    kept = np.delete(rows, [2, 7], axis=0)[:, :4]
    assert cloud.data.dtype == np.float32 and cloud.data.flags.c_contiguous
    assert cloud.data.tobytes() == kept.tobytes()


def test_nonfinite_ring_drops_nothing(tmp_path):
    rows = np.arange(30, dtype=np.float32).reshape(6, 5)
    rows[1, 4] = np.nan
    rows[4, 4] = np.inf
    path = tmp_path / "ring.bin"
    path.write_bytes(rows.astype("<f4").tobytes())
    cloud = read_binary_cloud(path, stride=5)
    assert cloud.dropped == 0
    assert cloud.data.flags.c_contiguous and cloud.data.flags.writeable
    assert cloud.data.tobytes() == rows[:, :4].tobytes()


@given(st.lists(st.tuples(*[st.floats(-1e6, 1e6, width=32)] * 4),
                min_size=0, max_size=50))
def test_binary_round_trip_bit_exact(rows):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "cloud.bin"
        path.write_bytes(pack_records(rows, 4))
        cloud = read_binary_cloud(path, stride=4)
    expected = np.array(rows, dtype="<f4").reshape(-1, 4)
    assert np.array_equal(cloud.data, expected)


def test_text_cloud_basic(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("# header\n1.0 2.0 3.0 0.5\n4.0,5.0,6.0,0.25,99\n\n")
    cloud = read_text_cloud(path)
    assert len(cloud) == 2
    assert cloud.data[1, 3] == 0.25  # intensity


def test_text_cloud_comment_only(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("# header\n")
    assert len(read_text_cloud(path)) == 0


def test_text_cloud_malformed_line_number(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a b c d\n")
    with pytest.raises(FormatError, match="line 1"):
        read_text_cloud(path)


def _box(score, x=0.0, y=0.0, class_id=0):
    return DetectionBox(class_id=class_id, class_name=f"class_{class_id}",
                        score=score, x=x, y=y, z=0.0, l=1.0, w=1.0, h=1.0, yaw=0.0)


def test_write_detections_empty(tmp_path):
    path = tmp_path / "det.jsonl"
    write_detections([], path)
    assert path.read_bytes() == b""


def test_write_detections_schema(tmp_path):
    path = tmp_path / "det.jsonl"
    write_detections([_box(0.5)], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert set(record) == {"class_id", "class_name", "score", "x", "y", "z",
                           "l", "w", "h", "yaw"}


def test_write_detections_matches_json_dumps_byte_for_byte(tmp_path):
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, 0.1, -2.5]
    names = ["car", "Fu\u00dfg\u00e4nger", "\u81ea\u8ee2\u8eca \U0001f6b2", 'cone "q" \\ \t']
    boxes = [DetectionBox(class_id=k % 4, class_name=names[k % 4], score=(k % 7) / 7,
                          x=specials[k % 9], y=specials[(k + 2) % 9], z=specials[(k + 4) % 9],
                          l=1.5 + k, w=2.0 ** -k, h=1e-300 * (k + 1), yaw=specials[(k + 7) % 9])
             for k in range(45)]
    boxes.append(DetectionBox(class_id=np.int64(1), class_name="truck", score=np.float32(0.3),
                              x=np.float32(0.1), y=np.float64(-0.0), z=0, l=1, w=2, h=3,
                              yaw=np.float32(np.nan)))
    path = tmp_path / "det.jsonl"
    write_detections(boxes, path)
    want = "".join(json.dumps({"class_id": int(b.class_id), "class_name": b.class_name,
                               **{k: float(getattr(b, k)) for k in
                                  ("score", "x", "y", "z", "l", "w", "h", "yaw")}}) + "\n"
                   for b in sorted(boxes, key=detection_sort_key))
    assert path.read_bytes() == want.encode("utf-8")
    assert "NaN" in want and "-Infinity" in want and "-0.0" in want and "\\u00df" in want


def test_write_detections_ordering(tmp_path):
    path = tmp_path / "det.jsonl"
    boxes = [_box(0.5, x=2.0), _box(0.9, x=9.0), _box(0.5, x=1.0)]
    write_detections(boxes, path)
    got = [json.loads(line) for line in path.read_text().splitlines()]
    assert [b["score"] for b in got] == [0.9, 0.5, 0.5]
    assert [b["x"] for b in got] == [9.0, 1.0, 2.0]  # tie broken by ascending x
