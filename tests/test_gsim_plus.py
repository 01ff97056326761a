"""Unit tests for the GSim+ core algorithm (Theorem 3.1 and Algorithm 1)."""

import numpy as np
import pytest

from repro import Graph, GSimPlus, LowRankFactors, gsim, gsim_plus
from repro.analysis import frobenius_error
from repro.core.gsim_plus import NUMERICAL_RANK_TOL
from repro.graphs import erdos_renyi_graph


class TestExactEquivalence:
    """Theorem 3.1: GSim+ scores equal GSim scores at every iteration."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 10])
    def test_matches_gsim_every_iteration(self, random_pair, k):
        graph_a, graph_b = random_pair
        ours = gsim_plus(graph_a, graph_b, iterations=k).similarity
        reference = gsim(graph_a, graph_b, iterations=k).similarity
        assert frobenius_error(ours, reference) < 1e-10

    @pytest.mark.parametrize("rank_cap", ["dense", "none"])
    def test_rank_cap_modes_agree(self, random_pair, rank_cap):
        graph_a, graph_b = random_pair
        # Deep enough that 2^k passes min(n_A, n_B) = 15.
        ours = gsim_plus(graph_a, graph_b, iterations=8, rank_cap=rank_cap)
        reference = gsim(graph_a, graph_b, iterations=8).similarity
        assert frobenius_error(ours.similarity, reference) < 1e-9

    def test_dense_fallback_flag(self, random_pair):
        graph_a, graph_b = random_pair  # min(n_A, n_B) = 15
        shallow = gsim_plus(graph_a, graph_b, iterations=3)
        deep = gsim_plus(graph_a, graph_b, iterations=8)
        assert not shallow.used_dense_fallback
        assert deep.used_dense_fallback

    def test_rank_cut_caps_width(self, random_pair):
        graph_a, graph_b = random_pair
        result = gsim_plus(
            graph_a, graph_b, iterations=8, rank_cap="none",
            recompress_tol=NUMERICAL_RANK_TOL,
        )
        assert result.final_width <= min(graph_a.num_nodes, graph_b.num_nodes)
        assert not result.used_dense_fallback
        reference = gsim(graph_a, graph_b, iterations=8).similarity
        assert frobenius_error(result.similarity, reference) < 1e-9

    def test_uncapped_width_doubles(self, random_pair):
        graph_a, graph_b = random_pair
        result = gsim_plus(graph_a, graph_b, iterations=3, rank_cap="none")
        assert result.final_width == 8


class TestAlgorithmMechanics:
    def test_width_doubles_each_iteration(self, random_pair):
        graph_a, graph_b = random_pair
        solver = GSimPlus(graph_a, graph_b, rank_cap="none")
        widths = [
            state.factors.width for state in solver.iterate(3) if state.factors
        ]
        assert widths == [1, 2, 4, 8]

    def test_iteration_zero_is_all_ones(self, random_pair):
        graph_a, graph_b = random_pair
        solver = GSimPlus(graph_a, graph_b)
        first = next(iter(solver.iterate(0)))
        dense = first.factors.materialize()
        np.testing.assert_array_equal(
            dense, np.ones((graph_a.num_nodes, graph_b.num_nodes))
        )

    def test_zero_iterations_returns_flat_similarity(self, random_pair):
        graph_a, graph_b = random_pair
        result = gsim_plus(graph_a, graph_b, iterations=0)
        # S_0 = all-ones normalised: every entry identical.
        assert np.allclose(result.similarity, result.similarity[0, 0])

    def test_similarity_unit_norm(self, random_pair):
        graph_a, graph_b = random_pair
        result = gsim_plus(graph_a, graph_b, iterations=5)
        assert np.linalg.norm(result.similarity) == pytest.approx(1.0)

    def test_z_frobenius_log_finite_in_factored_regime(self, random_pair):
        graph_a, graph_b = random_pair
        result = gsim_plus(graph_a, graph_b, iterations=3)
        assert np.isfinite(result.z_frobenius_log)

    def test_no_overflow_at_many_iterations(self, random_pair):
        graph_a, graph_b = random_pair
        # Without the log-scale rescaling this would overflow float64.
        result = gsim_plus(graph_a, graph_b, iterations=60)
        assert np.isfinite(result.similarity).all()

    def test_iterations_validated(self, random_pair):
        graph_a, graph_b = random_pair
        with pytest.raises(ValueError):
            gsim_plus(graph_a, graph_b, iterations=-1)


def _unscaled_step(graph_a, graph_b, u, v):
    """``[A U | A^T U] [B V | B^T V]^T`` (Eqs. 8-9), materialised."""
    a, b = graph_a.adjacency, graph_b.adjacency
    return np.hstack([a @ u, a.T @ u]) @ np.hstack([b @ v, b.T @ v]).T


class TestStepConditioning:
    """Each factored step rescales its new pair in place: magnitudes at
    most 1, the divisors folded into ``log_scale``."""

    def test_step_rescale_preserves_product(self, random_pair):
        graph_a, graph_b = random_pair
        rng = np.random.default_rng(3)
        solver = GSimPlus(graph_a, graph_b)
        u = rng.standard_normal((solver.n_a, 3)) * 1e100  # huge magnitudes
        v = rng.standard_normal((solver.n_b, 3))
        stepped = solver._step_factors(LowRankFactors(u, v, 2.0))
        assert np.abs(stepped.u).max() == 1.0
        assert np.abs(stepped.v).max() == 1.0
        expected = _unscaled_step(graph_a, graph_b, u, v) * np.exp(2.0)
        np.testing.assert_allclose(
            stepped.materialize(), expected,
            rtol=1e-10, atol=1e-12 * np.abs(expected).max(),
        )

    def test_zero_step_stays_zero(self, random_pair):
        graph_a, graph_b = random_pair
        solver = GSimPlus(graph_a, graph_b)
        v = np.random.default_rng(4).standard_normal((solver.n_b, 2))
        zero = LowRankFactors(np.zeros((solver.n_a, 2)), v, 1.5)
        stepped = solver._step_factors(zero)
        assert stepped.log_scale == 1.5
        assert not stepped.u.any()
        assert stepped.frobenius_norm() == 0.0
        b = graph_b.adjacency
        np.testing.assert_array_equal(stepped.v, np.hstack([b @ v, b.T @ v]))


class TestQueries:
    def test_query_block_matches_full_matrix_slice(self, random_pair):
        graph_a, graph_b = random_pair
        queries_a = [0, 3, 7]
        queries_b = [1, 4]
        block = gsim_plus(
            graph_a,
            graph_b,
            iterations=4,
            queries_a=queries_a,
            queries_b=queries_b,
            normalization="global",
        ).similarity
        full = gsim_plus(graph_a, graph_b, iterations=4).similarity
        np.testing.assert_allclose(
            block, full[np.ix_(queries_a, queries_b)], atol=1e-12
        )

    def test_block_normalization_unit_norm(self, random_pair):
        graph_a, graph_b = random_pair
        block = gsim_plus(
            graph_a, graph_b, iterations=4, queries_a=[0, 1], queries_b=[2, 3]
        ).similarity
        assert np.linalg.norm(block) == pytest.approx(1.0)

    def test_block_and_global_agree_on_full_queries(self, random_pair):
        graph_a, graph_b = random_pair
        all_a = list(range(graph_a.num_nodes))
        all_b = list(range(graph_b.num_nodes))
        block = gsim_plus(
            graph_a, graph_b, iterations=4, queries_a=all_a, queries_b=all_b,
            normalization="block",
        ).similarity
        global_ = gsim_plus(
            graph_a, graph_b, iterations=4, queries_a=all_a, queries_b=all_b,
            normalization="global",
        ).similarity
        np.testing.assert_allclose(block, global_, atol=1e-12)

    def test_duplicate_queries_rejected(self, random_pair):
        graph_a, graph_b = random_pair
        with pytest.raises(ValueError, match="duplicate"):
            gsim_plus(graph_a, graph_b, iterations=2, queries_a=[0, 0])

    def test_out_of_range_queries_rejected(self, random_pair):
        graph_a, graph_b = random_pair
        with pytest.raises(IndexError):
            gsim_plus(graph_a, graph_b, iterations=2, queries_b=[999])

    def test_empty_queries_rejected(self, random_pair):
        graph_a, graph_b = random_pair
        with pytest.raises(ValueError, match="non-empty"):
            gsim_plus(graph_a, graph_b, iterations=2, queries_a=[])

    def test_single_pair_query(self, random_pair):
        graph_a, graph_b = random_pair
        block = gsim_plus(
            graph_a, graph_b, iterations=4, queries_a=[2], queries_b=[3]
        ).similarity
        assert block.shape == (1, 1)


class TestValidation:
    def test_bad_rank_cap(self, random_pair):
        graph_a, graph_b = random_pair
        with pytest.raises(ValueError, match="rank_cap"):
            GSimPlus(graph_a, graph_b, rank_cap="nope")

    def test_bad_normalization(self, random_pair):
        graph_a, graph_b = random_pair
        with pytest.raises(ValueError, match="normalization"):
            GSimPlus(graph_a, graph_b, normalization="nope")

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="at least one node"):
            GSimPlus(Graph.empty(0), Graph.empty(3))

    def test_edgeless_graph_collapses_cleanly(self):
        # With no edges, Z_1 = 0: the solver must raise, not emit NaNs.
        a = Graph.empty(3)
        b = Graph.empty(2)
        with pytest.raises(ZeroDivisionError):
            gsim_plus(a, b, iterations=2)


class TestStructuralSanity:
    def test_isomorphic_positions_score_equal(self):
        # Two identical directed cycles: by symmetry every pair scores the
        # same (all nodes play identical roles).
        cycle = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        result = gsim_plus(cycle, cycle, iterations=10)
        assert np.allclose(result.similarity, result.similarity[0, 0])

    def test_hub_matches_hub(self):
        # Star vs star: the two centres should be each other's best match.
        star_a = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
        star_b = Graph.from_edges(4, [(0, i) for i in range(1, 4)])
        sim = gsim_plus(star_a, star_b, iterations=10).similarity
        assert sim[0, 0] == sim.max()

    def test_self_similarity_matrix_symmetric_for_symmetric_graph(self):
        # Undirected (symmetric) graph vs itself: S should be symmetric.
        g = Graph.from_edges(
            4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]
        )
        sim = gsim_plus(g, g, iterations=8).similarity
        np.testing.assert_allclose(sim, sim.T, atol=1e-12)

    def test_larger_graph_orientation(self):
        # The shape of the output is (n_A, n_B), not transposed.
        a = erdos_renyi_graph(9, 20, seed=0)
        b = erdos_renyi_graph(5, 8, seed=1)
        assert gsim_plus(a, b, iterations=3).similarity.shape == (9, 5)


class TestProgressCallback:
    def test_called_once_per_iteration(self, random_pair):
        graph_a, graph_b = random_pair
        calls = []
        solver = GSimPlus(graph_a, graph_b)
        solver.run(4, progress=lambda k, width: calls.append((k, width)))
        assert [k for k, _ in calls] == [1, 2, 3, 4]

    def test_reports_doubling_widths(self, random_pair):
        graph_a, graph_b = random_pair
        widths = []
        solver = GSimPlus(graph_a, graph_b, rank_cap="none")
        solver.run(3, progress=lambda k, width: widths.append(width))
        assert widths == [2, 4, 8]

    def test_reports_capped_width_in_dense_regime(self, random_pair):
        graph_a, graph_b = random_pair  # min side 15
        widths = []
        solver = GSimPlus(graph_a, graph_b)
        solver.run(6, progress=lambda k, width: widths.append(width))
        assert widths[-1] == 15  # dense fallback reports min(n_A, n_B)
