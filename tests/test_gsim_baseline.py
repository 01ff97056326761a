"""Unit tests for the Blondel GSim baseline (Eq. 2 / Eq. 5)."""

import numpy as np
import pytest

from repro import Graph, gsim, gsim_partial
from repro.runtime import DeadlineExceeded, ExecutionContext, WallClockDeadline


class TestGSim:
    def test_unit_norm_every_run(self, random_pair):
        graph_a, graph_b = random_pair
        result = gsim(graph_a, graph_b, iterations=5)
        assert np.linalg.norm(result.similarity) == pytest.approx(1.0)

    def test_shape(self, random_pair):
        graph_a, graph_b = random_pair
        result = gsim(graph_a, graph_b, iterations=3)
        assert result.similarity.shape == (graph_a.num_nodes, graph_b.num_nodes)

    def test_zero_iterations_gives_normalised_ones(self, random_pair):
        graph_a, graph_b = random_pair
        result = gsim(graph_a, graph_b, iterations=0)
        assert np.allclose(result.similarity, result.similarity[0, 0])

    def test_matches_explicit_dense_iteration(self, tiny_pair):
        graph_a, graph_b = tiny_pair
        a = graph_a.adjacency.toarray()
        b = graph_b.adjacency.toarray()
        s = np.ones((graph_a.num_nodes, graph_b.num_nodes))
        s /= np.linalg.norm(s)
        for _ in range(4):
            s = a @ s @ b.T + a.T @ s @ b
            s /= np.linalg.norm(s)
        result = gsim(graph_a, graph_b, iterations=4)
        np.testing.assert_allclose(result.similarity, s, atol=1e-10)

    def test_history_recorded(self, random_pair):
        graph_a, graph_b = random_pair
        result = gsim(graph_a, graph_b, iterations=4, keep_history=True)
        assert len(result.iterates) == 4
        np.testing.assert_array_equal(result.iterates[-1], result.similarity)

    def test_history_off_by_default(self, random_pair):
        graph_a, graph_b = random_pair
        assert gsim(graph_a, graph_b, iterations=2).iterates is None

    def test_even_iterates_converge(self, random_pair):
        graph_a, graph_b = random_pair
        result = gsim(graph_a, graph_b, iterations=40, keep_history=True)
        evens = result.iterates[1::2]  # S_2, S_4, ...
        last_gap = np.linalg.norm(evens[-1] - evens[-2])
        first_gap = np.linalg.norm(evens[1] - evens[0])
        assert last_gap < first_gap * 1e-2

    def test_empty_graph_raises_cleanly(self):
        with pytest.raises(ZeroDivisionError):
            gsim(Graph.empty(3), Graph.empty(2), iterations=1)

    def test_deadline_enforced(self, random_pair):
        graph_a, graph_b = random_pair
        expired = ExecutionContext(deadline=WallClockDeadline(1e-9))
        with pytest.raises(DeadlineExceeded):
            gsim(graph_a, graph_b, iterations=5, context=expired)


class TestGSimPartial:
    def test_block_shape(self, random_pair):
        graph_a, graph_b = random_pair
        result = gsim_partial(graph_a, graph_b, [0, 1, 2], [3, 4], iterations=5)
        assert result.similarity.shape == (3, 2)

    def test_block_unit_norm(self, random_pair):
        graph_a, graph_b = random_pair
        result = gsim_partial(graph_a, graph_b, [0, 1], [2, 3], iterations=5)
        assert np.linalg.norm(result.similarity) == pytest.approx(1.0)

    def test_full_queries_match_gsim(self, random_pair):
        graph_a, graph_b = random_pair
        all_a = list(range(graph_a.num_nodes))
        all_b = list(range(graph_b.num_nodes))
        partial = gsim_partial(graph_a, graph_b, all_a, all_b, iterations=5)
        full = gsim(graph_a, graph_b, iterations=5)
        np.testing.assert_allclose(
            partial.similarity, full.similarity, atol=1e-10
        )

    def test_block_proportional_to_full_slice(self, random_pair):
        # Eq.(5) block = full-matrix slice up to its own normalisation.
        graph_a, graph_b = random_pair
        rows, cols = [0, 5, 9], [1, 2]
        partial = gsim_partial(graph_a, graph_b, rows, cols, iterations=5)
        full_slice = gsim(graph_a, graph_b, iterations=5).similarity[
            np.ix_(rows, cols)
        ]
        expected = full_slice / np.linalg.norm(full_slice)
        np.testing.assert_allclose(partial.similarity, expected, atol=1e-10)

    def test_zero_iterations_rejected(self, random_pair):
        graph_a, graph_b = random_pair
        with pytest.raises(ValueError, match="at least one"):
            gsim_partial(graph_a, graph_b, [0], [0], iterations=0)
