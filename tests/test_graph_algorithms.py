"""Unit tests for repro.graphs.algorithms."""

import pytest

from repro.graphs import Graph, degree_statistics, erdos_renyi_graph


class TestDegreeStatistics:
    def test_regular_graph(self, cycle_graph):
        stats = degree_statistics(cycle_graph)
        assert stats.mean == pytest.approx(2.0)
        assert stats.maximum == 2
        assert stats.gini == pytest.approx(0.0, abs=1e-12)

    def test_star_is_skewed(self, star_graph):
        stats = degree_statistics(star_graph)
        assert stats.maximum == 4
        # Star degrees (4, 1, 1, 1, 1): Gini is exactly 0.3.
        assert stats.gini == pytest.approx(0.3)

    def test_empty_graph(self):
        stats = degree_statistics(Graph.empty(0))
        assert stats.mean == 0.0
        assert stats.gini == 0.0

    def test_edgeless_graph(self):
        stats = degree_statistics(Graph.empty(5))
        assert stats.maximum == 0
        assert stats.gini == 0.0

    def test_social_stand_in_more_skewed_than_er(self):
        from repro.graphs import load_dataset

        social = degree_statistics(load_dataset("HP", scale="tiny", seed=0))
        uniform = degree_statistics(erdos_renyi_graph(300, 3456, seed=0))
        assert social.gini > uniform.gini
