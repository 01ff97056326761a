"""Unit tests for top-k pair retrieval from the factored similarity."""

import numpy as np
import pytest

from repro import Graph, gsim_plus
from repro.core import top_k_for_queries, top_k_pairs
from repro.graphs import erdos_renyi_graph, random_node_sample


@pytest.fixture
def pair():
    graph_a = erdos_renyi_graph(30, 120, seed=1)
    graph_b = random_node_sample(graph_a, 12, seed=2)
    return graph_a, graph_b


class TestTopKPairs:
    def test_matches_dense_ranking(self, pair):
        graph_a, graph_b = pair
        full = gsim_plus(
            graph_a, graph_b, iterations=6, rank_cap="qr-compress"
        ).similarity
        best = top_k_pairs(graph_a, graph_b, k=5, iterations=6)
        dense_order = np.argsort(full, axis=None)[::-1][:5]
        expected = [divmod(int(i), graph_b.num_nodes) for i in dense_order]
        assert [(p.node_a, p.node_b) for p in best] == expected

    def test_scores_descending(self, pair):
        best = top_k_pairs(*pair, k=8, iterations=6)
        scores = [p.score for p in best]
        assert scores == sorted(scores, reverse=True)

    def test_scores_match_normalised_similarity(self, pair):
        graph_a, graph_b = pair
        full = gsim_plus(
            graph_a, graph_b, iterations=6, rank_cap="qr-compress"
        ).similarity
        best = top_k_pairs(graph_a, graph_b, k=3, iterations=6)
        for p in best:
            assert p.score == pytest.approx(full[p.node_a, p.node_b], rel=1e-9)

    def test_small_block_rows_same_result(self, pair):
        graph_a, graph_b = pair
        a = top_k_pairs(graph_a, graph_b, k=6, iterations=5, block_rows=4)
        b = top_k_pairs(graph_a, graph_b, k=6, iterations=5, block_rows=1024)
        assert [(p.node_a, p.node_b) for p in a] == [(p.node_a, p.node_b) for p in b]

    def test_k_clamped(self, pair):
        graph_a, graph_b = pair
        everything = top_k_pairs(graph_a, graph_b, k=10**6, iterations=4)
        assert len(everything) == graph_a.num_nodes * graph_b.num_nodes

    def test_hub_pair_wins_on_stars(self):
        star_a = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
        star_b = Graph.from_edges(4, [(0, i) for i in range(1, 4)])
        best = top_k_pairs(star_a, star_b, k=1, iterations=6)
        assert (best[0].node_a, best[0].node_b) == (0, 0)

    def test_k_validated(self, pair):
        with pytest.raises(ValueError):
            top_k_pairs(*pair, k=0)


class TestTopKForQueries:
    def test_per_query_rankings(self, pair):
        graph_a, graph_b = pair
        results = top_k_for_queries(graph_a, graph_b, [0, 5], k=3, iterations=5)
        assert set(results) == {0, 5}
        for node, ranked in results.items():
            assert len(ranked) == 3
            assert all(p.node_a == node for p in ranked)
            scores = [p.score for p in ranked]
            assert scores == sorted(scores, reverse=True)

    def test_matches_dense_rows(self, pair):
        graph_a, graph_b = pair
        full = gsim_plus(
            graph_a, graph_b, iterations=5, rank_cap="qr-compress"
        ).similarity
        results = top_k_for_queries(graph_a, graph_b, [3], k=2, iterations=5)
        expected = np.argsort(-full[3], kind="stable")[:2]
        assert [p.node_b for p in results[3]] == expected.tolist()

    def test_out_of_range_query(self, pair):
        with pytest.raises(IndexError):
            top_k_for_queries(*pair, [999], k=2)

    @pytest.mark.parametrize("queries", [[1.5], ["1"], [True, False]])
    def test_non_integer_query_rejected(self, pair, queries):
        with pytest.raises(TypeError, match="integer node ids"):
            top_k_for_queries(*pair, queries, k=2, iterations=3)
