import numpy as np
import pytest

from lift.config import config_from_dict
from lift.pcd_io import PointCloud
from lift import sparse
from lift.quant import QuantParams
from lift.sparse import SparseTensor2D


def random_sparse(rng, width, height, channels, occupancy=0.3, int8=False,
                  qparams=None):
    """Random sparse tensor with the requested occupancy."""
    n = max(1, int(round(width * height * occupancy)))
    flat = rng.choice(width * height, size=min(n, width * height), replace=False)
    coords = np.column_stack([flat % width, flat // width])
    if int8:
        qparams = qparams or QuantParams(scale=0.05, zero_point=int(rng.integers(-20, 20)))
        feats = rng.integers(-128, 128, size=(coords.shape[0], channels)).astype(np.int8)
        return SparseTensor2D.build(width, height, coords, feats, qparams=qparams)
    feats = rng.normal(size=(coords.shape[0], channels))
    return SparseTensor2D.build(width, height, coords, feats)


def random_cloud(rng, n, grid, z_span=None, spill=0.0):
    """Synthetic cloud inside (or spilling past) the configured ranges."""
    mx = (grid.x_max - grid.x_min) * spill
    my = (grid.y_max - grid.y_min) * spill
    z_lo, z_hi = (grid.z_min, grid.z_max) if z_span is None else z_span
    pts = np.column_stack([
        rng.uniform(grid.x_min - mx, grid.x_max + mx, n),
        rng.uniform(grid.y_min - my, grid.y_max + my, n),
        rng.uniform(z_lo, z_hi, n),
        rng.uniform(0.0, 255.0, n),
    ]).astype(np.float32)
    return PointCloud(data=pts)


SMALL_CONFIG_DOC = {
    "grid": {"x_min": -4.8, "x_max": 4.8, "y_min": -4.8, "y_max": 4.8,
             "pillar_size_x": 0.15, "pillar_size_y": 0.15},
    "network": {"num_classes": 3, "stage_depths": [2, 2, 2, 2]},
    "decode": {"score_threshold": 0.05, "top_k": 32},
}


@pytest.fixture
def small_config():
    return config_from_dict(SMALL_CONFIG_DOC)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def recorded(monkeypatch):
    """A fake BLAS handle reporting 7 threads that records every set call."""
    calls = []
    monkeypatch.setattr(sparse, "blas_thread_handle", lambda: (lambda: 7, calls.append))
    return calls
