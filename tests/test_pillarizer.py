import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lift.errors import ParameterError, RangeError
from lift.pcd_io import PointCloud
from lift.pillarizer import (GridConfig, coarse_detail_split, coarse_resolution,
                             effective_detail_step, pillarize)


def test_grid_config_defaults_give_720_grid():
    cfg = GridConfig()
    assert cfg.width == 720 and cfg.height == 720


def test_grid_config_rejects_non_multiple_range():
    with pytest.raises(ParameterError):
        GridConfig(x_min=0.0, x_max=1.0, pillar_size_x=0.3)


def test_grid_config_caps_the_cell_count():
    GridConfig(x_min=0.0, x_max=4096 * 0.25, y_min=0.0, y_max=4096 * 0.25,
               pillar_size_x=0.25, pillar_size_y=0.25)
    with pytest.raises(ParameterError, match="4097 x 4096 pillars"):
        GridConfig(x_min=0.0, x_max=4097 * 0.25, y_min=0.0, y_max=4096 * 0.25,
                   pillar_size_x=0.25, pillar_size_y=0.25)


def test_split_lattice_point():
    coarse, detail = coarse_detail_split(0.0, -54.0, 54.0)
    assert coarse == 0.0 and detail == 0.0


def test_split_hand_computed_value():
    # resolution = 108 / 256 = 0.421875; floor(10 / res) = 23
    coarse, detail = coarse_detail_split(10.0, -54.0, 54.0)
    assert coarse_resolution(-54.0, 54.0) == 0.421875
    assert coarse == 23 * 0.421875 == 9.703125
    assert detail == 0.296875


def test_split_lower_boundary():
    coarse, detail = coarse_detail_split(-54.0, -54.0, 54.0)
    assert coarse == -54.0 and detail == 0.0


def test_split_range_checked():
    with pytest.raises(RangeError):
        coarse_detail_split(54.0, -54.0, 54.0)
    with pytest.raises(RangeError):
        coarse_detail_split(-54.001, -54.0, 54.0)


@settings(max_examples=300)
@given(st.floats(-54.0, 54.0, exclude_max=True))
def test_split_reconstruction_and_detail_bounds(v):
    coarse, detail = coarse_detail_split(v, -54.0, 54.0)
    res = coarse_resolution(-54.0, 54.0)
    assert abs(coarse + detail - v) <= 1e-6
    assert 0.0 <= detail < res


def test_effective_steps_default_range():
    assert effective_detail_step(-54.0, 54.0) == 108.0 / 65536.0
    assert coarse_resolution(-54.0, 54.0) == 108.0 / 256.0


def test_pillarize_empty_cloud():
    pillars = pillarize(PointCloud(), GridConfig())
    assert len(pillars) == 0 and pillars.point_count == 0


def test_pillarize_single_point_index():
    cloud = PointCloud(data=np.array([[-53.95, -53.95, 0.0, 0.5]], dtype=np.float32))
    pillars = pillarize(cloud, GridConfig())
    assert pillars.coords.tolist() == [[0, 0]]
    assert pillars.offsets.tolist() == [0, 1]


def test_pillarize_truncates_tail():
    cfg = GridConfig()
    rows = np.tile(np.array([[1.0, 1.0, 0.0, 0.0]], dtype=np.float32), (25, 1))
    rows[:, 3] = np.arange(25)  # intensity marks cloud order
    pillars = pillarize(PointCloud(data=rows), cfg)
    assert pillars.coords.tolist() == [[366, 366]]
    feats = pillars.features[pillars.offsets[0]:pillars.offsets[1]]
    assert feats.shape[0] == 20
    assert list(feats[:, 6]) == list(range(20))  # first 20 kept, in order
    assert pillars.truncated == 5


def test_pillarize_conservation(rng):
    cfg = GridConfig(x_min=-4.8, x_max=4.8, y_min=-4.8, y_max=4.8,
                     max_points_per_pillar=3)
    n = 2000
    pts = np.column_stack([
        rng.uniform(-6, 6, n), rng.uniform(-6, 6, n),
        rng.uniform(-6, 4, n), rng.uniform(0, 1, n)]).astype(np.float32)
    pillars = pillarize(PointCloud(data=pts), cfg)
    assert pillars.point_count + pillars.out_of_range + pillars.truncated == n
    assert all(pillars.offsets[m + 1] - pillars.offsets[m] <= 3
               for m in range(len(pillars)))


def test_pillarize_feature_reconstruction(rng, small_config):
    grid = small_config.grid
    n = 500
    pts = np.column_stack([
        rng.uniform(grid.x_min, grid.x_max, n), rng.uniform(grid.y_min, grid.y_max, n),
        rng.uniform(grid.z_min, grid.z_max, n), rng.uniform(0, 255, n)]).astype(np.float32)
    pillars = pillarize(PointCloud(data=pts), grid)
    feats = pillars.features
    # coarse + detail must rebuild each coordinate (compare as multisets:
    # pillarization reorders points)
    xs = np.sort(pts[:, 0].astype(np.float64))
    assert np.allclose(np.sort(feats[:, 0] + feats[:, 1]), xs, atol=1e-6)
    # detail within [0, resolution)
    res = (grid.x_max - grid.x_min) / 256.0
    assert np.all(feats[:, 1] >= 0) and np.all(feats[:, 1] < res)
    # pillar-center offsets bounded by half a pillar
    assert np.all(np.abs(feats[:, 7]) <= grid.pillar_size_x / 2 + 1e-9)
    assert np.all(np.abs(feats[:, 8]) <= grid.pillar_size_y / 2 + 1e-9)


def test_pillarize_deterministic(rng, small_config):
    grid = small_config.grid
    pts = np.column_stack([
        rng.uniform(grid.x_min, grid.x_max, 300), rng.uniform(grid.y_min, grid.y_max, 300),
        rng.uniform(grid.z_min, grid.z_max, 300), rng.uniform(0, 255, 300)]).astype(np.float32)
    a = pillarize(PointCloud(data=pts), grid)
    b = pillarize(PointCloud(data=pts), grid)
    assert np.array_equal(a.coords, b.coords)
    assert np.array_equal(a.features, b.features)


def test_pillarize_points_at_max_discarded():
    cloud = PointCloud(data=np.array([[54.0, 0.0, 0.0, 0.0]], dtype=np.float32))
    pillars = pillarize(cloud, GridConfig())
    assert len(pillars) == 0
    assert pillars.out_of_range == 1


def test_intensity_flags():
    cloud = PointCloud(data=np.array([[0.0, 0.0, 0.0, 128.0]], dtype=np.float32))
    raw = pillarize(cloud, GridConfig())
    scaled = pillarize(cloud, GridConfig(), normalize_intensity=True)
    assert raw.features[0, 6] == 128.0
    assert scaled.features[0, 6] == pytest.approx(128.0 / 255.0)
    trimmed = pillarize(cloud, GridConfig(), include_offsets=False)
    assert trimmed.feature_length == 7
