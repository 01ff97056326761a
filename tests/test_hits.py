"""The GSim -> HITS reduction from Blondel et al. (the construction the
paper's Related Work references), checked against a local HITS oracle."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro import Graph, gsim_plus
from repro.graphs import erdos_renyi_graph


@dataclass(frozen=True)
class HITSResult:
    """Hub and authority score vectors (each 2-norm normalised)."""

    hubs: np.ndarray
    authorities: np.ndarray


def hits(graph: Graph, iterations: int = 50) -> HITSResult:
    """Kleinberg's HITS power iteration: ``a <- A^T h``, ``h <- A a``,
    each normalised; all zeros once no edge feeds an authority or hub."""
    n = graph.num_nodes
    hubs = np.ones(n) / np.sqrt(max(n, 1))
    authorities = hubs.copy()
    for _ in range(iterations):
        authorities = graph.adjacency_t @ hubs
        norm = np.linalg.norm(authorities)
        if norm == 0.0:
            return HITSResult(hubs=np.zeros(n), authorities=np.zeros(n))
        authorities /= norm
        hubs = graph.adjacency @ authorities
        norm = np.linalg.norm(hubs)
        if norm == 0.0:
            return HITSResult(hubs=np.zeros(n), authorities=np.zeros(n))
        hubs /= norm
    return HITSResult(hubs=hubs, authorities=authorities)


class TestHITS:
    def test_authority_is_pointed_at(self):
        g = Graph.from_edges(3, [(0, 2), (1, 2)])
        result = hits(g)
        assert int(np.argmax(result.authorities)) == 2

    def test_hub_points_at_authorities(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        result = hits(g)
        assert int(np.argmax(result.hubs)) == 0

    def test_scores_normalised(self, random_pair):
        graph, _ = random_pair
        result = hits(graph)
        assert np.linalg.norm(result.hubs) == pytest.approx(1.0)
        assert np.linalg.norm(result.authorities) == pytest.approx(1.0)

    def test_scores_nonnegative(self, random_pair):
        graph, _ = random_pair
        result = hits(graph)
        assert (result.hubs >= -1e-12).all()
        assert (result.authorities >= -1e-12).all()

    def test_edgeless_graph_zero_scores(self):
        result = hits(Graph.empty(3))
        np.testing.assert_array_equal(result.authorities, 0.0)

    def test_empty_graph(self):
        result = hits(Graph.empty(0))
        assert result.hubs.shape == (0,)

    def test_fixed_point_property(self, random_pair):
        # At convergence: a ∝ A^T h and h ∝ A a.
        graph, _ = random_pair
        result = hits(graph, iterations=200)
        a_next = graph.adjacency_t @ result.hubs
        a_next /= np.linalg.norm(a_next)
        np.testing.assert_allclose(a_next, result.authorities, atol=1e-8)


class TestGSimReducesToHITS:
    """Blondel et al.: GSim between G and the path 1 -> 2, at convergence,
    recovers hub scores (column of node 1) and authority scores (column of
    node 2) of G."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reduction_on_random_graphs(self, seed):
        graph = erdos_renyi_graph(15, 60, seed=seed)
        path2 = Graph.from_edges(2, [(0, 1)])
        # Even iterates converge; use a deep even count.
        similarity = gsim_plus(graph, path2, iterations=60).similarity
        reference = hits(graph, iterations=200)

        hub_column = similarity[:, 0] / np.linalg.norm(similarity[:, 0])
        authority_column = similarity[:, 1] / np.linalg.norm(similarity[:, 1])
        np.testing.assert_allclose(hub_column, reference.hubs, atol=1e-4)
        np.testing.assert_allclose(
            authority_column, reference.authorities, atol=1e-4
        )

    def test_reduction_on_star(self):
        star = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
        path2 = Graph.from_edges(2, [(0, 1)])
        similarity = gsim_plus(star, path2, iterations=40).similarity
        # The centre is the only hub: column 0 peaks at node 0.
        assert int(np.argmax(similarity[:, 0])) == 0
        # Every leaf is an equal authority: column 1 equal off-centre.
        leaf_scores = similarity[1:, 1]
        np.testing.assert_allclose(leaf_scores, leaf_scores[0], atol=1e-10)
