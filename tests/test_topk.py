"""Unit tests for top-k pair retrieval from the factored similarity."""

import numpy as np
import pytest

from repro import Graph, GSimPlus, gsim_plus
from repro.core import top_k_for_queries, top_k_pairs
from repro.core.embeddings import LowRankFactors
from repro.core.topk import NonzeroRows, rank_row, scan_top_pairs
from repro.graphs import erdos_renyi_graph, random_node_sample


@pytest.fixture
def pair():
    graph_a = erdos_renyi_graph(30, 120, seed=1)
    graph_b = random_node_sample(graph_a, 12, seed=2)
    return graph_a, graph_b


class TestTopKPairs:
    def test_matches_dense_ranking(self, pair):
        graph_a, graph_b = pair
        full = gsim_plus(graph_a, graph_b, iterations=6).similarity
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
        full = gsim_plus(graph_a, graph_b, iterations=6).similarity
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

    @pytest.mark.parametrize("iterations", [2, 6, 8])
    def test_exact_ties_go_to_lowest_ids(self, iterations):
        # Hub-hub and all 24 leaf-leaf cells are exactly 1/4 at even k;
        # the exact and the cut build round them apart by a few ulps.
        star_a = Graph.from_edges(7, [(0, i) for i in range(1, 7)])
        star_b = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
        tied = [(0, 0)] + [(a, b) for a in range(1, 7) for b in range(1, 5)]
        exact = GSimPlus(star_a, star_b, rank_cap="none")
        for state in exact.iterate(iterations):
            pass
        ranked = [
            top_k_pairs(star_a, star_b, k=25, iterations=iterations),
            scan_top_pairs(state.factors, k=25),
        ]
        for pairs in ranked:
            assert [(p.node_a, p.node_b) for p in pairs] == tied
            np.testing.assert_allclose([p.score for p in pairs], pairs[0].score)

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
        full = gsim_plus(graph_a, graph_b, iterations=5).similarity
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


class TestRoundingTies:
    """Scores equal to within their last 12 mantissa bits tie, and ties
    go to the lowest ids; scores further apart still rank by score."""

    @pytest.mark.parametrize("gap", [1, 2**8])
    def test_pair_scan_orders_near_ties_by_id(self, gap):
        eps = np.finfo(np.float64).eps
        u = np.array([[1.0], [1.0 + gap * eps], [0.5]])
        v = np.array([[1.0], [1.0 + gap * eps]])
        for block_rows in (1, 2, 1024):
            best = scan_top_pairs(LowRankFactors(u, v), k=4, block_rows=block_rows)
            assert [(p.node_a, p.node_b) for p in best] == [
                (0, 0), (0, 1), (1, 0), (1, 1)
            ]

    def test_pair_scan_ranks_distinct_scores(self):
        u = np.array([[1.0], [1.0 + 2.0**-30]])
        best = scan_top_pairs(LowRankFactors(u, np.ones((1, 1))), k=2)
        assert [p.node_a for p in best] == [1, 0]

    def test_row_ranking_orders_near_ties_by_id(self):
        eps = np.finfo(np.float64).eps
        v = np.array([[0.0], [1.0], [1.0 + eps], [1.0 + 2.0**-30], [0.0]])
        targets = NonzeroRows.of(v)
        cols, _ = rank_row(np.ones(1), targets, 3)
        assert cols.tolist() == [3, 1, 2]
        # A score that rounds to a zero key ties the zero rows.
        v = np.array([[0.0], [5e-324], [-1.0]])
        cols, _ = rank_row(np.ones(1), NonzeroRows.of(v), 2)
        assert cols.tolist() == [0, 1]

    def test_float32_keys_drop_the_same_bits(self):
        eps = float(np.finfo(np.float32).eps)
        u = np.array([[1.0], [1.0 + 4 * eps], [1.0 + 2.0**-8]], dtype=np.float32)
        best = scan_top_pairs(LowRankFactors(u, np.ones((1, 1), np.float32)), k=3)
        assert [p.node_a for p in best] == [2, 0, 1]
