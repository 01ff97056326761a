"""Unit tests for the evolving-graph layer (DynamicGraph + session)."""

import numpy as np
import pytest

from repro import gsim_plus
from repro.dynamic import DynamicGraph, SimilaritySession
from repro.runtime import NULL_CONTEXT, Metrics


class TestDynamicGraph:
    def test_add_and_remove(self):
        g = DynamicGraph(3)
        g.add_edge(0, 1)
        assert g.has_edge(0, 1)
        g.remove_edge(0, 1)
        assert not g.has_edge(0, 1)

    def test_constructor_edges(self):
        g = DynamicGraph(3, [(0, 1), (1, 2, 2.5)])
        assert g.num_edges == 2
        assert dict((s, d) for s, d, _ in g.edges()) == {0: 1, 1: 2}

    def test_version_bumps_on_mutation(self):
        g = DynamicGraph(3)
        v0 = g.version
        g.add_edge(0, 1)
        assert g.version > v0
        g.remove_edge(0, 1)
        assert g.version > v0 + 1

    def test_batch_add_single_bump(self):
        g = DynamicGraph(5)
        v0 = g.version
        g.add_edges([(0, 1), (1, 2), (2, 3)])
        assert g.version == v0 + 1
        assert g.num_edges == 3

    def test_overwrite_updates_weight(self):
        g = DynamicGraph(2)
        g.add_edge(0, 1, weight=1.0)
        g.add_edge(0, 1, weight=4.0)
        assert g.num_edges == 1
        assert g.snapshot().adjacency[0, 1] == 4.0

    def test_zero_weight_rejected(self):
        g = DynamicGraph(2)
        with pytest.raises(ValueError, match="non-zero"):
            g.add_edge(0, 1, weight=0.0)

    def test_remove_missing_edge(self):
        with pytest.raises(KeyError):
            DynamicGraph(2).remove_edge(0, 1)

    def test_node_range_checked(self):
        with pytest.raises(IndexError):
            DynamicGraph(2).add_edge(0, 5)

    def test_add_node_grows(self):
        g = DynamicGraph(2)
        new = g.add_node()
        assert new == 2
        g.add_edge(0, new)
        assert g.snapshot().num_nodes == 3

    def test_snapshot_cached_until_mutation(self):
        g = DynamicGraph(3, [(0, 1)])
        first = g.snapshot()
        assert g.snapshot() is first
        g.add_edge(1, 2)
        assert g.snapshot() is not first

    def test_snapshot_matches_edges(self):
        g = DynamicGraph(4, [(0, 1), (2, 3)])
        snap = g.snapshot()
        assert snap.has_edge(0, 1) and snap.has_edge(2, 3)
        assert snap.num_edges == 2


class TestSimilaritySession:
    @pytest.fixture
    def graphs(self):
        a = DynamicGraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
        b = DynamicGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        return a, b

    def test_query_matches_static_solver(self, graphs):
        a, b = graphs
        session = SimilaritySession(a, b, iterations=6)
        block = session.query([0, 1], [0, 1])
        static = gsim_plus(
            a.snapshot(), b.snapshot(), iterations=6,
            queries_a=[0, 1], queries_b=[0, 1], normalization="global",
        ).similarity
        np.testing.assert_allclose(block, static, atol=1e-9)

    def test_cache_reused_without_changes(self, graphs):
        session = SimilaritySession(*graphs, iterations=4)
        session.query([0], [0])
        session.query([1], [1])
        assert session.stats.recomputes == 1
        assert session.stats.cache_hits == 1

    def test_stats_kept_under_the_null_context(self, graphs):
        session = SimilaritySession(*graphs, iterations=4, context=NULL_CONTEXT)
        session.query([0], [0])
        session.query([1], [1])
        assert session.stats.recomputes == 1
        assert session.stats.cache_hits == 1
        assert NULL_CONTEXT.snapshot() == Metrics().snapshot()

    def test_update_invalidates(self, graphs):
        a, b = graphs
        session = SimilaritySession(a, b, iterations=4)
        before = session.query([0], [0])
        a.add_edge(0, 3)
        assert session.stale
        after = session.query([0], [0])
        assert session.stats.recomputes == 2
        assert not np.allclose(before, after)  # the edge changed the score

    def test_either_side_invalidates(self, graphs):
        a, b = graphs
        session = SimilaritySession(a, b, iterations=4)
        session.query([0], [0])
        b.add_edge(0, 2)
        assert session.stale

    def test_top_matches_ranked(self, graphs):
        session = SimilaritySession(*graphs, iterations=6)
        matches = session.top_matches(0, k=3)
        scores = [score for _, score in matches]
        assert scores == sorted(scores, reverse=True)
        assert len(matches) == 3

    def test_top_matches_consistent_with_query(self, graphs):
        a, b = graphs
        session = SimilaritySession(a, b, iterations=6)
        matches = dict(session.top_matches(0, k=4))
        row = session.query([0], list(range(4)))[0]
        for col, score in matches.items():
            assert score == pytest.approx(row[col], rel=1e-9)

    def test_top_matches_match_the_index(self, graphs):
        session = SimilaritySession(*graphs, iterations=6)
        with session.lifecycle.lease("block") as lease:
            expected = lease.index.top_matches(2, k=4)
        assert session.top_matches(2, k=4) == [
            (match.node_b, match.score) for match in expected
        ]

    @pytest.mark.parametrize("node", [1.5, "1", True])
    def test_top_matches_rejects_non_integer_node(self, graphs, node):
        session = SimilaritySession(*graphs, iterations=4)
        with pytest.raises(TypeError, match="integer node ids"):
            session.top_matches(node)

    def test_refresh_forces_recompute(self, graphs):
        session = SimilaritySession(*graphs, iterations=4)
        session.refresh()
        session.refresh()
        assert session.stats.recomputes == 2

    def test_bad_normalization(self, graphs):
        session = SimilaritySession(*graphs, iterations=4)
        with pytest.raises(ValueError, match="normalization"):
            session.query([0], [0], normalization="nope")

    def test_growth_then_query(self, graphs):
        a, b = graphs
        session = SimilaritySession(a, b, iterations=4)
        session.query([0], [0])
        node = a.add_node()
        a.add_edge(node, 0)
        block = session.query([node], [0])
        assert block.shape == (1, 1)
