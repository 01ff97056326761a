"""Unit tests for Theorem 4.2 (error bound) and the spectral machinery."""

import numpy as np
import pytest

from repro import Graph, error_bound, gsim_plus
from repro.analysis import convergence_rate, frobenius_error
from repro.core import (
    exact_similarity_spectral,
    kronecker_similarity_matrix,
    spectral_gap,
)


class TestKroneckerMatrix:
    def test_shape(self, tiny_pair):
        graph_a, graph_b = tiny_pair
        m = kronecker_similarity_matrix(graph_a, graph_b)
        n = graph_a.num_nodes * graph_b.num_nodes
        assert m.shape == (n, n)

    def test_symmetric(self, tiny_pair):
        graph_a, graph_b = tiny_pair
        m = kronecker_similarity_matrix(graph_a, graph_b)
        assert abs(m - m.T).sum() == 0

    def test_vec_identity(self, tiny_pair):
        # vec(A X B^T + A^T X B) = M vec(X) with column-major vec.
        graph_a, graph_b = tiny_pair
        m = kronecker_similarity_matrix(graph_a, graph_b).toarray()
        rng = np.random.default_rng(0)
        x = rng.standard_normal((graph_a.num_nodes, graph_b.num_nodes))
        a = graph_a.adjacency.toarray()
        b = graph_b.adjacency.toarray()
        direct = a @ x @ b.T + a.T @ x @ b
        via_m = (m @ x.reshape(-1, order="F")).reshape(direct.shape, order="F")
        np.testing.assert_allclose(via_m, direct, atol=1e-10)


class TestSpectralGap:
    def test_ordering(self, tiny_pair):
        lambda1, lambda2 = spectral_gap(*tiny_pair)
        assert lambda1 >= lambda2 >= 0.0

    def test_convergence_rate_in_unit_interval(self, tiny_pair):
        rate = convergence_rate(*tiny_pair)
        assert 0.0 <= rate <= 1.0

    def test_edgeless_graph_rate_raises(self):
        a = Graph.empty(2)
        with pytest.raises(ValueError, match="edgeless"):
            convergence_rate(a, a)

    def test_two_node_instance(self):
        a = Graph.from_edges(2, [(0, 1)])
        b = Graph.from_edges(1, [])
        lambda1, lambda2 = spectral_gap(a, b)
        assert lambda1 >= lambda2


class TestErrorBound:
    def test_bound_holds_for_even_iterations(self, tiny_pair):
        graph_a, graph_b = tiny_pair
        exact = exact_similarity_spectral(graph_a, graph_b)
        for k in (4, 8, 12):
            approx = gsim_plus(graph_a, graph_b, iterations=k).similarity
            actual = frobenius_error(approx, exact)
            bound = error_bound(graph_a, graph_b, k)
            assert actual <= bound + 1e-9, f"bound violated at k={k}"

    def test_bound_decays_geometrically(self, tiny_pair):
        graph_a, graph_b = tiny_pair
        bounds = [error_bound(graph_a, graph_b, k) for k in (2, 4, 6, 8)]
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
        # Ratio between consecutive bounds = (λ2/λ1)^2, constant.
        ratios = [b2 / b1 for b1, b2 in zip(bounds, bounds[1:])]
        assert max(ratios) - min(ratios) < 1e-9

    def test_odd_iterations_rejected(self, tiny_pair):
        with pytest.raises(ValueError, match="even"):
            error_bound(*tiny_pair, iterations=3)

    def test_zero_iterations_rejected(self, tiny_pair):
        with pytest.raises(ValueError):
            error_bound(*tiny_pair, iterations=0)

    def test_large_instance_refused(self):
        a = Graph.from_edges(100, [(i, (i + 1) % 100) for i in range(100)])
        with pytest.raises(ValueError, match="order <="):
            error_bound(a, a, iterations=4)


class TestExactSimilaritySpectral:
    def test_unit_norm(self, tiny_pair):
        exact = exact_similarity_spectral(*tiny_pair)
        assert np.linalg.norm(exact) == pytest.approx(1.0)

    def test_agrees_with_deep_power_iteration(self, tiny_pair):
        graph_a, graph_b = tiny_pair
        exact = exact_similarity_spectral(graph_a, graph_b)
        deep = gsim_plus(graph_a, graph_b, iterations=80).similarity
        assert frobenius_error(exact, deep) < 1e-6

    def test_shape(self, tiny_pair):
        graph_a, graph_b = tiny_pair
        exact = exact_similarity_spectral(graph_a, graph_b)
        assert exact.shape == (graph_a.num_nodes, graph_b.num_nodes)
