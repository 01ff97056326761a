"""Property-based tests on the baseline models' invariants.

Where :mod:`tests.test_properties` hammers the core GSim+ claims, this
module pins down the mathematical contracts of the baselines over
hypothesis-generated graphs: value ranges, symmetries, and degeneracy
behaviour.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Graph
from repro.baselines import ned_query, rolesim, structsim_query
from repro.baselines.gsvd import gsvd

_settings = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def small_graphs(draw, min_nodes=2, max_nodes=8):
    n = draw(st.integers(min_nodes, max_nodes))
    possible = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = draw(st.lists(st.sampled_from(possible), min_size=0, max_size=2 * n))
    return Graph.from_edges(n, edges)


class TestRoleSimProperties:
    @_settings
    @given(g=small_graphs())
    def test_range_and_diagonal(self, g):
        sim = rolesim(g, iterations=2, beta=0.2).similarity
        assert (sim >= 0.2 - 1e-12).all()
        assert (sim <= 1.0 + 1e-12).all()
        np.testing.assert_array_equal(np.diag(sim), 1.0)

    @_settings
    @given(g=small_graphs())
    def test_symmetry(self, g):
        sim = rolesim(g, iterations=2).similarity
        np.testing.assert_allclose(sim, sim.T, atol=1e-12)

    @_settings
    @given(g=small_graphs())
    def test_greedy_never_exceeds_exact_after_one_step(self, g):
        greedy = rolesim(g, iterations=1, matching="greedy").similarity
        exact = rolesim(g, iterations=1, matching="exact").similarity
        assert (greedy <= exact + 1e-9).all()


class TestNEDProperties:
    @_settings
    @given(g=small_graphs(), depth=st.integers(0, 2))
    def test_self_distance_zero(self, g, depth):
        block = ned_query(g, g, [0], [0], depth=depth)
        assert block[0, 0] == 1.0  # distance 0 -> similarity 1

    @_settings
    @given(g=small_graphs(), depth=st.integers(1, 2))
    def test_similarity_range(self, g, depth):
        nodes = [0, g.num_nodes - 1]
        block = ned_query(g, g, nodes, nodes, depth=depth)
        assert ((block > 0) & (block <= 1.0)).all()

    @_settings
    @given(g=small_graphs(), depth=st.integers(1, 2))
    def test_symmetry_within_one_graph(self, g, depth):
        nodes = list(range(min(4, g.num_nodes)))
        block = ned_query(g, g, nodes, nodes, depth=depth)
        np.testing.assert_allclose(block, block.T, atol=1e-9)


class TestStructSimProperties:
    @_settings
    @given(g=small_graphs(), levels=st.integers(0, 4))
    def test_range_and_self_similarity(self, g, levels):
        nodes = list(range(g.num_nodes))
        block = structsim_query(g, g, nodes, nodes, levels=levels)
        assert ((block >= -1e-12) & (block <= 1.0 + 1e-12)).all()
        np.testing.assert_allclose(np.diag(block), 1.0)

    @_settings
    @given(g=small_graphs(), levels=st.integers(1, 3))
    def test_symmetry(self, g, levels):
        nodes = list(range(g.num_nodes))
        block = structsim_query(g, g, nodes, nodes, levels=levels)
        np.testing.assert_allclose(block, block.T, atol=1e-12)


class TestGSVDProperties:
    @_settings
    @given(g=small_graphs(min_nodes=3), k=st.integers(1, 4), rank=st.integers(1, 3))
    def test_factors_stay_orthonormal(self, g, k, rank):
        try:
            result = gsvd(g, g, iterations=k, rank=rank)
        except ZeroDivisionError:
            return  # degenerate input collapsed; acceptable
        effective = result.rank
        gram_u = result.u.T @ result.u
        # Columns past the realised core rank may be zero-padded; check the
        # diagonal is 0/1 and off-diagonals vanish.
        off_diagonal = gram_u - np.diag(np.diag(gram_u))
        assert np.abs(off_diagonal).max() < 1e-8
        diag = np.diag(gram_u)
        assert ((np.abs(diag - 1.0) < 1e-8) | (np.abs(diag) < 1e-8)).all()
        assert effective <= min(g.num_nodes, g.num_nodes)

    @_settings
    @given(g=small_graphs(min_nodes=3), k=st.integers(1, 4))
    def test_unit_frobenius(self, g, k):
        try:
            result = gsvd(g, g, iterations=k, rank=2)
        except ZeroDivisionError:
            return
        assert np.linalg.norm(result.sigma) == 1.0 or np.isclose(
            np.linalg.norm(result.sigma), 1.0
        )
