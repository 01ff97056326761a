"""Unit tests for the NED baseline (k-adjacent tree edit distance)."""

import pytest

from repro import Graph
from repro.baselines import NEDIndex, ned_distance, ned_query
from repro.baselines.ned import TreeSizeLimitExceeded
from repro.runtime import DeadlineExceeded, ExecutionContext, WallClockDeadline


class TestNEDIndex:
    def test_subtree_size_depth_zero(self, path_graph):
        index = NEDIndex(path_graph, depth=3)
        assert index.subtree_size(0, 0) == 1

    def test_subtree_size_counts_children(self):
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        index = NEDIndex(star, depth=2)
        # Depth 1 from the centre: itself + 3 leaves.
        assert index.subtree_size(0, 1) == 4

    def test_subtree_size_revisits_parents(self):
        # Undirected edge 0-1: depth-2 tree at 0 is 0 -> 1 -> 0 (3 nodes).
        g = Graph.from_edges(2, [(0, 1)])
        index = NEDIndex(g, depth=2)
        assert index.subtree_size(0, 2) == 3

    def test_exponential_growth(self):
        clique = Graph.from_edges(
            5, [(i, j) for i in range(5) for j in range(5) if i != j]
        )
        index = NEDIndex(clique, depth=6)
        sizes = [index.subtree_size(0, d) for d in range(5)]
        # Each level multiplies by ~4 neighbours: strictly growing fast.
        assert sizes[4] > 4 * sizes[3] - 5

    def test_size_limit_enforced(self):
        clique = Graph.from_edges(
            8, [(i, j) for i in range(8) for j in range(8) if i != j]
        )
        index = NEDIndex(clique, depth=10, size_limit=1000)
        with pytest.raises(TreeSizeLimitExceeded):
            index.subtree_size(0, 10)


class TestNEDDistance:
    def test_identical_nodes_distance_zero(self, cycle_graph):
        assert ned_distance(cycle_graph, cycle_graph, 0, 0, depth=3) == 0.0

    def test_symmetric_roles_distance_zero(self):
        cycle = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert ned_distance(cycle, cycle, 0, 2, depth=3) == 0.0

    def test_different_degrees_positive_distance(self):
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        # Centre vs leaf.
        assert ned_distance(star, star, 0, 1, depth=2) > 0

    def test_depth_zero_always_zero(self, path_graph, star_graph):
        assert ned_distance(path_graph, star_graph, 0, 0, depth=0) == 0.0

    def test_symmetry(self, path_graph, star_graph):
        d_ab = ned_distance(path_graph, star_graph, 1, 0, depth=2)
        d_ba = ned_distance(star_graph, path_graph, 0, 1, depth=2)
        assert d_ab == pytest.approx(d_ba)

    def test_distance_is_insertion_cost_for_missing_children(self):
        # Node with 2 children vs node with 0: distance = both subtrees.
        fork = Graph.from_edges(3, [(0, 1), (0, 2)])
        lone = Graph.empty(1)
        distance = ned_distance(fork, lone, 0, 0, depth=1)
        assert distance == 2.0  # two leaf subtrees of size 1 inserted


class TestNEDQuery:
    def test_block_shape(self, path_graph, cycle_graph):
        block = ned_query(path_graph, cycle_graph, [0, 1], [0, 1, 2], depth=2)
        assert block.shape == (2, 3)

    def test_similarity_in_unit_interval(self, random_pair):
        graph_a, graph_b = random_pair
        block = ned_query(graph_a, graph_b, [0, 1], [0, 1], depth=2)
        assert ((block > 0) & (block <= 1)).all()

    def test_identical_pair_scores_one(self, cycle_graph):
        block = ned_query(cycle_graph, cycle_graph, [0], [0], depth=3)
        assert block[0, 0] == 1.0

    def test_deadline_enforced(self, random_pair):
        graph_a, graph_b = random_pair
        with pytest.raises(DeadlineExceeded):
            ned_query(
                graph_a, graph_b, [0, 1], [0, 1], depth=3,
                context=ExecutionContext(deadline=WallClockDeadline(1e-9)),
            )

    def test_memoisation_consistency(self, random_pair):
        # Shared memo across pairs must not change individual results.
        graph_a, graph_b = random_pair
        block = ned_query(graph_a, graph_b, [0, 1], [2, 3], depth=2)
        for i, a in enumerate([0, 1]):
            for j, b in enumerate([2, 3]):
                single = ned_query(graph_a, graph_b, [a], [b], depth=2)
                assert single[0, 0] == pytest.approx(block[i, j])
