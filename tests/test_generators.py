"""Unit tests for repro.graphs.generators."""

import numpy as np
import pytest

from repro.graphs import (
    barabasi_albert_graph,
    chung_lu_graph,
    erdos_renyi_graph,
    rmat_graph,
)
from repro.graphs.generators import _dedupe_edges, power_law_degrees


class TestErdosRenyi:
    def test_exact_edge_count(self):
        g = erdos_renyi_graph(50, 200, seed=0)
        assert g.num_nodes == 50
        assert g.num_edges == 200

    def test_deterministic_given_seed(self):
        assert erdos_renyi_graph(30, 90, seed=5) == erdos_renyi_graph(30, 90, seed=5)

    def test_different_seeds_differ(self):
        assert erdos_renyi_graph(30, 90, seed=5) != erdos_renyi_graph(30, 90, seed=6)

    def test_no_self_loops_by_default(self):
        g = erdos_renyi_graph(10, 60, seed=1)
        assert all(s != d for s, d, _ in g.edges())

    def test_self_loops_allowed_when_requested(self):
        # Full capacity including loops forces at least one loop.
        g = erdos_renyi_graph(3, 9, seed=1, allow_self_loops=True)
        assert any(s == d for s, d, _ in g.edges())

    def test_capacity_check(self):
        with pytest.raises(ValueError, match="capacity"):
            erdos_renyi_graph(3, 7, seed=0)  # only 6 loop-free slots

    def test_zero_edges(self):
        assert erdos_renyi_graph(5, 0, seed=0).num_edges == 0

    def test_full_capacity(self):
        g = erdos_renyi_graph(4, 12, seed=0)
        assert g.num_edges == 12


class TestBarabasiAlbert:
    def test_shape(self):
        g = barabasi_albert_graph(100, 3, seed=0)
        assert g.num_nodes == 100
        # (n - m0) arrivals each adding exactly m edges.
        assert g.num_edges == (100 - 3) * 3

    def test_heavy_tail(self):
        g = barabasi_albert_graph(300, 4, seed=1)
        degrees = g.in_degrees() + g.out_degrees()
        # Preferential attachment: max total degree far above the mean.
        assert degrees.max() > 4 * degrees.mean()

    def test_deterministic(self):
        a = barabasi_albert_graph(50, 2, seed=9)
        b = barabasi_albert_graph(50, 2, seed=9)
        assert a == b

    def test_rejects_m_ge_n(self):
        with pytest.raises(ValueError, match="must be <"):
            barabasi_albert_graph(3, 3, seed=0)


class TestRMAT:
    def test_node_count_power_of_two(self):
        g = rmat_graph(6, 200, seed=0)
        assert g.num_nodes == 64

    def test_edge_count_close_to_target(self):
        g = rmat_graph(8, 1000, seed=0)
        # Duplicates are merged, so realised count <= requested but close.
        assert 800 <= g.num_edges <= 1000

    def test_skewed_degrees(self):
        g = rmat_graph(9, 4000, seed=2)
        degrees = g.out_degrees()
        assert degrees.max() >= 5 * max(degrees.mean(), 1)

    def test_deterministic(self):
        assert rmat_graph(5, 100, seed=3) == rmat_graph(5, 100, seed=3)

    def test_quadrants_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            rmat_graph(4, 10, quadrants=(0.5, 0.5, 0.5, 0.5))

    def test_uniform_quadrants_work(self):
        g = rmat_graph(5, 50, seed=0, quadrants=(0.25, 0.25, 0.25, 0.25))
        assert g.num_edges > 0


class TestChungLu:
    def test_average_degree_targeted(self):
        degrees = np.full(200, 5.0)
        g = chung_lu_graph(degrees, seed=0)
        realised = g.num_edges / g.num_nodes
        assert 2.0 <= realised <= 5.0  # dedup removes some

    def test_zero_degrees_give_empty_graph(self):
        g = chung_lu_graph([0.0, 0.0, 0.0], seed=0)
        assert g.num_edges == 0

    def test_rejects_negative_degrees(self):
        with pytest.raises(ValueError, match="non-negative"):
            chung_lu_graph([1.0, -2.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            chung_lu_graph([])

    def test_hub_gets_more_edges(self):
        degrees = np.ones(100)
        degrees[0] = 60.0
        g = chung_lu_graph(degrees, seed=1)
        hub_degree = g.out_degrees()[0] + g.in_degrees()[0]
        rest_mean = (g.out_degrees()[1:] + g.in_degrees()[1:]).mean()
        assert hub_degree > 5 * max(rest_mean, 0.1)


class TestPowerLawDegrees:
    def test_mean_matches_target(self):
        degrees = power_law_degrees(5000, 3.0, seed=0)
        assert degrees.mean() == pytest.approx(3.0, rel=1e-9)

    def test_all_positive(self):
        assert (power_law_degrees(100, 2.0, seed=1) > 0).all()

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError, match="exponent"):
            power_law_degrees(10, 2.0, exponent=1.0)

    def test_rejects_bad_average(self):
        with pytest.raises(ValueError, match="average_degree"):
            power_law_degrees(10, 0.0)


class TestDirectedBlockGraph:
    def test_block_roles_respected(self):
        from repro.graphs.generators import directed_block_graph

        # Block 0 only points at block 1; never the reverse.
        g = directed_block_graph([5, 5], [[0.0, 1.0], [0.0, 0.0]], seed=0)
        for src, dst, _ in g.edges():
            assert src < 5 and dst >= 5

    def test_matrix_shape_validated(self):
        from repro.graphs.generators import directed_block_graph

        with pytest.raises(ValueError, match="block_matrix must be"):
            directed_block_graph([3, 3], [[0.5]], seed=0)

    def test_probabilities_validated(self):
        from repro.graphs.generators import directed_block_graph

        with pytest.raises(ValueError, match="probabilities"):
            directed_block_graph([3], [[1.5]], seed=0)

    def test_no_self_loops(self):
        from repro.graphs.generators import directed_block_graph

        g = directed_block_graph([6], [[1.0]], seed=0)
        assert all(s != d for s, d, _ in g.edges())

    def test_deterministic(self):
        from repro.graphs.generators import directed_block_graph

        matrix = [[0.2, 0.4], [0.1, 0.3]]
        a = directed_block_graph([4, 6], matrix, seed=3)
        b = directed_block_graph([4, 6], matrix, seed=3)
        assert a == b

    def test_empty_blocks_rejected(self):
        from repro.graphs.generators import directed_block_graph

        with pytest.raises(ValueError, match="non-empty"):
            directed_block_graph([], [])


class TestDedupeEdges:
    @pytest.mark.parametrize(
        "rows, cols",
        [
            tuple(np.random.default_rng(3).integers(0, 50, size=(2, 5000))),
            (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)),
            (np.full(100, 7), np.full(100, 3)),
        ],
        ids=["random", "empty", "all-duplicate"],
    )
    @pytest.mark.parametrize("drop_self_loops", [False, True])
    def test_matches_np_unique(self, rows, cols, drop_self_loops):
        keep = rows != cols if drop_self_loops else np.ones(rows.size, dtype=bool)
        keys = np.unique(rows[keep].astype(np.int64) * 50 + cols[keep])
        got_rows, got_cols = _dedupe_edges(rows, cols, 50, drop_self_loops)
        assert np.array_equal(got_rows, keys // 50)
        assert np.array_equal(got_cols, keys % 50)
        assert got_rows.dtype == got_cols.dtype == np.int64
