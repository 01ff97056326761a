"""Unit tests for repro.graphs.graph.Graph."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graphs import Graph


class TestConstruction:
    def test_from_edges_basic(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.num_nodes == 3
        assert g.num_edges == 2

    def test_from_edges_weighted(self):
        g = Graph.from_edges(2, [(0, 1, 2.5)])
        assert g.adjacency[0, 1] == 2.5

    def test_from_edges_duplicates_sum(self):
        g = Graph.from_edges(2, [(0, 1), (0, 1)])
        assert g.num_edges == 1
        assert g.adjacency[0, 1] == 2.0

    def test_from_edges_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(2, [(0, 5)])

    def test_from_edges_bad_tuple(self):
        with pytest.raises(ValueError, match="2 or 3 items"):
            Graph.from_edges(2, [(0,)])

    @pytest.mark.parametrize(
        "edges",
        [
            np.array([[0, 1], [2, 0], [0, 1], [3, 3]]),
            np.array([[0, 1, 2.5], [2, 0, -1.0], [0, 1, 0.5], [1, 2, 0.0]]),
            np.array([[0.0, 1.9], [3.2, 0.0]]),  # truncated, as int() does
            np.empty((0, 2), dtype=np.int64),
        ],
    )
    def test_from_edge_array_matches_rows(self, edges):
        by_array = Graph.from_edges(4, edges)
        by_rows = Graph.from_edges(4, list(edges))
        for attr in ("indptr", "indices", "data"):
            a, b = getattr(by_array.adjacency, attr), getattr(by_rows.adjacency, attr)
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("bad", [[1, 4], [-1, 0], [np.nan, 0]])
    def test_from_edge_array_out_of_range(self, bad):
        edges = np.array([[0, 1], bad, [5, 5]], dtype=np.float64)
        with pytest.raises(ValueError) as by_array:
            Graph.from_edges(4, edges)
        with pytest.raises(ValueError) as by_rows:
            Graph.from_edges(4, list(edges))
        assert str(by_array.value) == str(by_rows.value)

    def test_from_edge_array_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            Graph.from_edges(2, np.zeros((3, 4)))

    def test_from_dense_array(self):
        g = Graph(np.array([[0, 1], [0, 0]]))
        assert g.num_edges == 1
        assert g.has_edge(0, 1)

    def test_from_sparse_matrix(self):
        m = sp.coo_matrix(([1.0], ([0], [1])), shape=(3, 3))
        g = Graph(m)
        assert g.has_edge(0, 1)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            Graph(np.zeros((2, 3)))

    def test_explicit_zeros_eliminated(self):
        m = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        m[0, 1] = 0.0
        g = Graph(m)
        assert g.num_edges == 0

    def test_empty_constructor(self):
        g = Graph.empty(7)
        assert g.num_nodes == 7
        assert g.num_edges == 0

    def test_zero_node_graph(self):
        g = Graph.empty(0)
        assert g.num_nodes == 0
        assert g.density == 0.0
        assert g.average_degree == 0.0


class TestProperties:
    def test_density(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert g.density == pytest.approx(0.25)

    def test_average_degree(self, cycle_graph):
        assert cycle_graph.average_degree == pytest.approx(1.0)

    def test_name(self):
        assert Graph.empty(1, name="x").name == "x"

    def test_repr(self, path_graph):
        assert "path4" in repr(path_graph)
        assert "nodes=4" in repr(path_graph)

    def test_adjacency_t_is_transpose(self, random_pair):
        graph, _ = random_pair
        diff = graph.adjacency.T - graph.adjacency_t
        assert abs(diff).sum() == 0

    def test_memory_bytes_positive(self, path_graph):
        assert path_graph.memory_bytes() > 0


class TestDegrees:
    def test_out_degrees(self, star_graph):
        assert star_graph.out_degrees().tolist() == [4, 0, 0, 0, 0]

    def test_in_degrees(self, star_graph):
        assert star_graph.in_degrees().tolist() == [0, 1, 1, 1, 1]

    def test_max_degree(self, star_graph):
        assert star_graph.max_degree() == 4

    def test_max_degree_empty(self):
        assert Graph.empty(3).max_degree() == 0
        assert Graph.empty(0).max_degree() == 0

    def test_degrees_count_edges_not_weights(self):
        g = Graph.from_edges(2, [(0, 1, 5.0)])
        assert g.out_degrees().tolist() == [1, 0]


class TestNeighbourhoods:
    def test_successors(self, path_graph):
        assert path_graph.successors(0).tolist() == [1]
        assert path_graph.successors(3).tolist() == []

    def test_predecessors(self, path_graph):
        assert path_graph.predecessors(0).tolist() == []
        assert path_graph.predecessors(1).tolist() == [0]

    def test_neighbors_union(self, path_graph):
        assert path_graph.neighbors(1).tolist() == [0, 2]

    def test_has_edge(self, path_graph):
        assert path_graph.has_edge(0, 1)
        assert not path_graph.has_edge(1, 0)

    def test_node_range_checked(self, path_graph):
        with pytest.raises(IndexError):
            path_graph.successors(10)
        with pytest.raises(IndexError):
            path_graph.predecessors(-1)

    def test_edges_iteration(self, path_graph):
        edges = sorted((s, d) for s, d, _ in path_graph.edges())
        assert edges == [(0, 1), (1, 2), (2, 3)]


class TestDerivedGraphs:
    def test_reversed(self, path_graph):
        rev = path_graph.reversed()
        assert rev.has_edge(1, 0)
        assert not rev.has_edge(0, 1)
        assert rev.num_edges == path_graph.num_edges

    def test_double_reverse_identity(self, random_pair):
        graph, _ = random_pair
        assert graph.reversed().reversed() == graph

    def test_to_undirected_symmetric(self, path_graph):
        und = path_graph.to_undirected()
        assert und.has_edge(0, 1) and und.has_edge(1, 0)

    def test_to_undirected_weight_max(self):
        g = Graph.from_edges(2, [(0, 1, 3.0), (1, 0, 5.0)])
        und = g.to_undirected()
        assert und.adjacency[0, 1] == 5.0
        assert und.adjacency[1, 0] == 5.0

    def test_subgraph_relabels(self, path_graph):
        sub = path_graph.subgraph([1, 2])
        assert sub.num_nodes == 2
        assert sub.has_edge(0, 1)  # old edge 1 -> 2

    def test_subgraph_rejects_duplicates(self, path_graph):
        with pytest.raises(ValueError, match="duplicates"):
            path_graph.subgraph([1, 1])

    def test_subgraph_rejects_out_of_range(self, path_graph):
        with pytest.raises(ValueError, match="out of range"):
            path_graph.subgraph([0, 99])

    def test_subgraph_empty_selection(self, path_graph):
        sub = path_graph.subgraph([])
        assert sub.num_nodes == 0

    def test_union_disjoint_shapes(self, path_graph, cycle_graph):
        union = path_graph.union_disjoint(cycle_graph)
        assert union.num_nodes == 9
        assert union.num_edges == path_graph.num_edges + cycle_graph.num_edges

    def test_union_disjoint_offsets(self, path_graph, cycle_graph):
        union = path_graph.union_disjoint(cycle_graph)
        assert union.has_edge(0, 1)            # from the path
        assert union.has_edge(4, 5)            # cycle edge 0 -> 1, shifted by 4
        assert not union.has_edge(3, 4)        # no cross edges


class TestEquality:
    def test_equal_same_edges(self):
        a = Graph.from_edges(3, [(0, 1)])
        b = Graph.from_edges(3, [(0, 1)])
        assert a == b

    def test_unequal_different_edges(self):
        a = Graph.from_edges(3, [(0, 1)])
        b = Graph.from_edges(3, [(1, 0)])
        assert a != b

    def test_unequal_different_sizes(self):
        assert Graph.empty(2) != Graph.empty(3)

    def test_not_equal_to_other_types(self):
        assert Graph.empty(1) != "graph"


class TestNonFiniteRejection:
    def test_nan_weight_rejected(self):
        import numpy as np

        dense = np.zeros((2, 2))
        dense[0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Graph(dense)

    def test_inf_weight_rejected(self):
        import numpy as np

        with pytest.raises(ValueError, match="non-finite"):
            Graph.from_edges(2, [(0, 1, np.inf)])

    def test_finite_weights_fine(self):
        g = Graph.from_edges(2, [(0, 1, 1e300)])
        assert g.num_edges == 1
