"""Unit tests for convergence-controlled iteration."""

import numpy as np
import pytest

from repro import Graph, iterate_to_convergence
from repro.core import GSimPlus
from repro.runtime import ExecutionContext


class TestIterateToConvergence:
    def test_converges_on_small_pair(self, random_pair):
        graph_a, graph_b = random_pair
        report = iterate_to_convergence(graph_a, graph_b, tolerance=1e-5)
        assert report.converged
        assert report.iterations % 2 == 0
        assert report.similarity is not None

    def test_residuals_decrease(self, random_pair):
        graph_a, graph_b = random_pair
        report = iterate_to_convergence(
            graph_a, graph_b, tolerance=1e-12, max_iterations=20
        )
        # Geometric decay (Theorem 4.2): later residuals below earlier ones.
        assert report.residuals[-1] < report.residuals[0]

    def test_budget_exhaustion_flagged(self, random_pair):
        graph_a, graph_b = random_pair
        report = iterate_to_convergence(
            graph_a, graph_b, tolerance=1e-300, max_iterations=4
        )
        assert not report.converged
        assert report.iterations == 4

    def test_result_matches_fixed_iteration_run(self, random_pair):
        graph_a, graph_b = random_pair
        report = iterate_to_convergence(graph_a, graph_b, tolerance=1e-5)
        solver = GSimPlus(graph_a, graph_b)
        direct = solver.run(report.iterations).similarity
        np.testing.assert_array_equal(report.similarity, direct)

    @pytest.mark.parametrize(
        "options",
        [{"tolerance": 1e-5}, {"tolerance": 1e-300, "max_iterations": 4}],
        ids=["converged", "budget"],
    )
    def test_solves_once(self, random_pair, options):
        # The block comes from the last iterate, not from a second solve,
        # and the iterator's ledger charge is released.
        context = ExecutionContext.start(memory_limit_bytes=1 << 30)
        report = iterate_to_convergence(*random_pair, context=context, **options)
        assert context.metrics.counter("gsim_plus.iterations") == report.iterations
        assert context.memory.held_bytes == 0

    def test_queries_forwarded(self, random_pair):
        graph_a, graph_b = random_pair
        report = iterate_to_convergence(
            graph_a, graph_b, tolerance=1e-4, queries_a=[0, 1], queries_b=[2]
        )
        assert report.similarity.shape == (2, 1)

    def test_tolerance_validated(self, random_pair):
        graph_a, graph_b = random_pair
        with pytest.raises(ValueError, match="tolerance"):
            iterate_to_convergence(graph_a, graph_b, tolerance=0.0)

    def test_max_iterations_validated(self, random_pair):
        graph_a, graph_b = random_pair
        with pytest.raises(ValueError):
            iterate_to_convergence(graph_a, graph_b, max_iterations=0)

    def test_converges_through_dense_fallback(self, random_pair):
        graph_a, graph_b = random_pair  # min side 15: fallback by k=4
        report = iterate_to_convergence(
            graph_a, graph_b, tolerance=1e-5, max_iterations=60
        )
        assert report.converged
        assert report.iterations > 8  # deep enough that the fallback engaged

    def test_instant_convergence_on_symmetric_structure(self):
        # A 2-cycle pair reaches its fixed point almost immediately.
        a = Graph.from_edges(2, [(0, 1), (1, 0)])
        report = iterate_to_convergence(a, a, tolerance=1e-8)
        assert report.converged
        assert report.iterations <= 6
