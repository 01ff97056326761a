"""Unit tests for similarity-driven graph matching (analysis.matching)."""

import numpy as np
import pytest

from repro import gsim_plus
from repro.analysis.matching import Alignment, alignment_accuracy, best_alignment
from repro.graphs import erdos_renyi_graph, random_node_sample


class TestBestAlignment:
    def test_obvious_diagonal(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.8]])
        alignment = best_alignment(scores)
        assert alignment.pairs == ((0, 0), (1, 1))
        assert alignment.total_score == pytest.approx(1.7)

    def test_hungarian_beats_greedy_trap(self):
        # Greedy takes (0,0)=10 then is stuck with (1,1)=0; optimal picks
        # the anti-diagonal worth 9+9.
        scores = np.array([[10.0, 9.0], [9.0, 0.0]])
        hungarian = best_alignment(scores, method="hungarian")
        greedy = best_alignment(scores, method="greedy")
        assert hungarian.total_score == pytest.approx(18.0)
        assert greedy.total_score == pytest.approx(10.0)
        assert hungarian.total_score >= greedy.total_score

    def test_rectangular_matrices(self):
        scores = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])
        alignment = best_alignment(scores)
        assert alignment.size == 2
        assert alignment.as_dict() == {0: 0, 1: 1}

    def test_greedy_deterministic_ties(self):
        scores = np.ones((3, 3))
        alignment = best_alignment(scores, method="greedy")
        assert alignment.pairs == ((0, 0), (1, 1), (2, 2))

    def test_empty_matrix(self):
        alignment = best_alignment(np.empty((0, 5)))
        assert alignment.size == 0
        assert alignment.total_score == 0.0

    def test_bad_method(self):
        with pytest.raises(ValueError, match="method"):
            best_alignment(np.ones((2, 2)), method="psychic")

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            best_alignment(np.ones(4))


class TestAlignmentAccuracy:
    def test_perfect(self):
        alignment = Alignment(pairs=((0, 0), (1, 1)), total_score=2.0)
        assert alignment_accuracy(alignment, {0: 0, 1: 1}) == 1.0

    def test_partial(self):
        alignment = Alignment(pairs=((0, 0), (1, 2)), total_score=2.0)
        assert alignment_accuracy(alignment, {0: 0, 1: 1}) == 0.5

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError):
            alignment_accuracy(Alignment(pairs=(), total_score=0.0), {})


class TestEndToEndMatching:
    def test_subgraph_self_alignment(self):
        """GSim+ similarity aligns a sampled subgraph's hubs to the hubs
        of its parent graph far better than chance."""
        graph_a = erdos_renyi_graph(40, 240, seed=2)
        graph_b = random_node_sample(graph_a, 15, seed=3)
        similarity = gsim_plus(
            graph_a, graph_b, iterations=8, normalization="global"
        ).similarity
        alignment = best_alignment(similarity)
        assert alignment.size == 15
        # The matched pairs should carry a large share of the similarity
        # mass relative to a random assignment.
        rng = np.random.default_rng(0)
        random_cols = rng.permutation(graph_b.num_nodes)
        random_rows = rng.choice(graph_a.num_nodes, size=15, replace=False)
        random_total = float(similarity[random_rows, random_cols].sum())
        assert alignment.total_score > 1.5 * max(random_total, 1e-12)
