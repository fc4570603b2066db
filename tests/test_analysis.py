import numpy as np
import pytest
from conftest import random_cloud, random_sparse
from oracles import (brute_force_taps, dense_stride2_taps, dense_submanifold_taps)

from lift.analysis import count_macs_network, dpu_budget, im2col_buffer_cells
from lift.config import config_from_dict
from lift.errors import ParameterError
from lift.pcd_io import PointCloud
from lift.sparse import SparseTensor2D, build_rulebook


class TestBufferCells:
    def test_3d_reference_constant(self):
        assert im2col_buffer_cells([640, 720, 40], [3, 3, 3]) == 52483

    def test_2d_reference_constant(self):
        assert im2col_buffer_cells([640, 720], [3, 3]) == 1283

    def test_single_cell_context(self):
        assert im2col_buffer_cells([1, 1], [1, 1]) == 1

    def test_even_context_rejected(self):
        with pytest.raises(ParameterError):
            im2col_buffer_cells([64, 64], [2, 3])

    def test_dim_context_rank_must_match(self):
        with pytest.raises(ParameterError):
            im2col_buffer_cells([64, 64, 8], [3, 3])

    def test_positive_for_nondegenerate(self):
        assert im2col_buffer_cells([32, 32], [3, 3]) > 0


class TestDpuBudget:
    def test_reference_budget(self):
        assert dpu_budget(2048, 300e6, 10.0) == 61.44

    def test_single_mac(self):
        assert dpu_budget(1, 1.0, 1.0) == 1e-9

    def test_double_rate_halves_budget(self):
        assert dpu_budget(2048, 300e6, 20.0) == pytest.approx(30.72)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            dpu_budget(0, 1.0, 1.0)


def active_only(coords, width, height):
    return SparseTensor2D(width=width, height=height,
                          coords=np.asarray(sorted(coords, key=lambda c: c[1] * width + c[0]),
                                            dtype=np.int64).reshape(-1, 2),
                          features=np.empty((len(coords), 0)))


class TestMacCounting:
    def test_empty_rulebook(self):
        x = SparseTensor2D.build(8, 8, [], np.empty((0, 0)))
        rb = build_rulebook(x, 3, "submanifold")
        assert rb.pair_count() == 0

    def test_single_site_center_tap_only(self):
        x = active_only([(4, 4)], 9, 9)
        rb = build_rulebook(x, 3, "submanifold")
        assert rb.pair_count() == 1

    def test_matches_brute_force_submanifold(self, rng):
        for _ in range(25):
            w, h = int(rng.integers(4, 33)), int(rng.integers(4, 33))
            x = random_sparse(rng, w, h, 1, occupancy=float(rng.uniform(0.05, 0.9)))
            active = {tuple(c) for c in x.coords}
            rb = build_rulebook(x, 3, "submanifold")
            assert rb.pair_count() == brute_force_taps(active, w, h, 3, "submanifold")

    def test_matches_brute_force_stride2(self, rng):
        for _ in range(25):
            w, h = int(rng.integers(4, 33)), int(rng.integers(4, 33))
            x = random_sparse(rng, w, h, 1, occupancy=float(rng.uniform(0.05, 0.9)))
            active = {tuple(c) for c in x.coords}
            rb = build_rulebook(x, 3, "stride2")
            assert rb.pair_count() == brute_force_taps(active, w, h, 3, "stride2")

    def test_fully_dense_closed_forms(self):
        w, h = 12, 9
        coords = [(i, j) for i in range(w) for j in range(h)]
        x = active_only(coords, w, h)
        assert build_rulebook(x, 3, "submanifold").pair_count() == \
            dense_submanifold_taps(w, h)
        assert build_rulebook(x, 3, "stride2").pair_count() == \
            dense_stride2_taps(w, h)


class TestNetworkMacs:
    def test_empty_cloud(self, small_config):
        cfg = small_config
        report = count_macs_network(PointCloud(), cfg.grid, cfg.network)
        assert report.total_macs == 0
        assert report.within_budget

    def test_monotone_in_points(self, rng, small_config):
        cfg = small_config
        cloud_small = random_cloud(rng, 100, cfg.grid)
        bigger = np.concatenate([cloud_small.data,
                                 random_cloud(rng, 400, cfg.grid).data])
        r1 = count_macs_network(cloud_small, cfg.grid, cfg.network)
        r2 = count_macs_network(PointCloud(data=bigger), cfg.grid, cfg.network)
        assert r2.total_macs >= r1.total_macs

    def test_fully_dense_grid_matches_closed_form(self):
        cfg = config_from_dict({
            "grid": {"x_min": 0.0, "x_max": 2.4, "y_min": 0.0, "y_max": 2.4,
                     "pillar_size_x": 0.15, "pillar_size_y": 0.15,
                     "max_points_per_pillar": 1},
            "network": {"num_classes": 2, "stage_depths": [1, 1, 1, 1]},
        })
        w = cfg.grid.width  # 16
        xs = (np.arange(w) + 0.5) * 0.15
        pts = np.array([[x, y, 0.0, 1.0] for x in xs for y in xs], dtype=np.float32)
        report = count_macs_network(PointCloud(data=pts), cfg.grid, cfg.network)
        by_name = {l.name: l for l in report.layers}
        assert by_name["dbpfn"].macs == w * w * 9 * cfg.network.encoder_hidden

        dims = w
        cin = cfg.network.encoder_out
        for s in range(1, 5):
            cout = cfg.network.stage_channels[s - 1]
            # a fully dense grid stays fully dense under the stride-2 law
            assert by_name[f"stage{s}.layer0"].macs == \
                dense_stride2_taps(dims, dims) * cin * cout
            dims = -(-dims // 2)
            assert by_name[f"stage{s}.layer1"].macs == \
                dense_submanifold_taps(dims, dims) * cout * cout
            cin = cout
        s2_dim = 4  # 16 -> 8 -> 4
        assert by_name["align"].macs == s2_dim * s2_dim * 64 * 128
        assert by_name["head.cls.conv"].macs == \
            dense_submanifold_taps(s2_dim, s2_dim) * 128 * 128

    def test_report_dict_shape(self, rng, small_config):
        cfg = small_config
        report = count_macs_network(random_cloud(rng, 200, cfg.grid),
                                    cfg.grid, cfg.network)
        doc = report.to_dict()
        assert doc["total_macs"] == sum(l["macs"] for l in doc["layers"])
        assert doc["budget_gmacs"] == 30.0
        assert set(doc["layers"][0]) == {"name", "kind", "taps", "macs"}

    def test_over_budget_flag(self, rng, small_config):
        cfg = small_config
        report = count_macs_network(random_cloud(rng, 500, cfg.grid),
                                    cfg.grid, cfg.network)
        report.budget_gmacs = 1e-6
        assert not report.within_budget
