"""Unit tests for repro.workloads."""

import numpy as np
import pytest

from repro.graphs import erdos_renyi_graph
from repro.workloads import (
    degree_biased_queries,
    make_workload,
    uniform_queries,
)


@pytest.fixture
def graph():
    return erdos_renyi_graph(100, 400, seed=0)


class TestUniformQueries:
    def test_size_and_distinct(self, graph):
        queries = uniform_queries(graph, 30, seed=0)
        assert queries.size == 30
        assert np.unique(queries).size == 30

    def test_sorted(self, graph):
        queries = uniform_queries(graph, 30, seed=0)
        assert (np.diff(queries) > 0).all()

    def test_deterministic(self, graph):
        a = uniform_queries(graph, 30, seed=1)
        b = uniform_queries(graph, 30, seed=1)
        np.testing.assert_array_equal(a, b)

    def test_oversample_rejected(self, graph):
        with pytest.raises(ValueError, match="distinct"):
            uniform_queries(graph, 101)

    def test_in_range(self, graph):
        queries = uniform_queries(graph, 50, seed=3)
        assert queries.min() >= 0 and queries.max() < 100


class TestDegreeBiasedQueries:
    def test_size_and_distinct(self, graph):
        queries = degree_biased_queries(graph, 30, seed=0)
        assert np.unique(queries).size == 30

    def test_bias_toward_hubs(self):
        # A graph with one clear hub: biased queries pick it up much more
        # often across seeds than uniform sampling would.
        from repro.graphs import Graph

        edges = [(0, i) for i in range(1, 50)] + [(i, 0) for i in range(1, 50)]
        hub_graph = Graph.from_edges(60, edges)
        hits = sum(
            0 in degree_biased_queries(hub_graph, 5, seed=s, power=2.0)
            for s in range(30)
        )
        assert hits >= 25

    def test_power_zero_is_uniform_support(self, graph):
        queries = degree_biased_queries(graph, 100, seed=0, power=0.0)
        assert queries.size == 100  # can still cover the whole graph

    def test_negative_power_rejected(self, graph):
        with pytest.raises(ValueError, match="power"):
            degree_biased_queries(graph, 5, power=-1.0)


class TestMakeWorkload:
    def test_sizes(self, graph):
        workload = make_workload(graph, graph, 10, 20, seed=0)
        assert workload.size == (10, 20)

    def test_clamped_to_graph(self, graph):
        workload = make_workload(graph, graph, 5000, 5000, seed=0)
        assert workload.size == (100, 100)

    def test_independent_sides(self, graph):
        workload = make_workload(graph, graph, 50, 50, seed=0)
        assert not np.array_equal(workload.queries_a, workload.queries_b)

    def test_deterministic(self, graph):
        a = make_workload(graph, graph, 10, 10, seed=42)
        b = make_workload(graph, graph, 10, 10, seed=42)
        np.testing.assert_array_equal(a.queries_a, b.queries_a)
        np.testing.assert_array_equal(a.queries_b, b.queries_b)

    def test_biased_flag(self, graph):
        workload = make_workload(graph, graph, 10, 10, seed=0, biased=True)
        assert workload.size == (10, 10)
