"""Property-based tests (hypothesis) on the core invariants.

These hammer the central claims of the paper on randomly generated graph
pairs rather than hand-picked fixtures:

* Theorem 3.1 — GSim+ equals GSim exactly at every iteration, for every
  graph pair and iteration count.
* The low-embedding algebra (Gram norms, inner products, query blocks)
  agrees with dense linear algebra on arbitrary factors.
* Generators, samplers, and IO round-trips preserve their contracts.
"""

from __future__ import annotations

import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import Graph, GSimPlus, LowRankFactors, gsim, gsim_plus
from repro.analysis import frobenius_error
from repro.core.gsim_plus import NUMERICAL_RANK_TOL
from repro.graphs import (
    convert_edge_list,
    read_edge_list,
    read_edge_list_text,
    write_edge_list,
)

_settings = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def graphs(draw, min_nodes=2, max_nodes=12, require_edges=True):
    """A random small directed graph as (num_nodes, edge list)."""
    n = draw(st.integers(min_nodes, max_nodes))
    possible = [(i, j) for i in range(n) for j in range(n) if i != j]
    min_size = 1 if require_edges else 0
    edges = draw(
        st.lists(st.sampled_from(possible), min_size=min_size, max_size=3 * n)
    )
    return Graph.from_edges(n, edges)


@st.composite
def graph_pairs(draw):
    """Two random graphs with at least one edge each (GSim needs signal)."""
    return draw(graphs()), draw(graphs())


@st.composite
def factors(draw):
    """A random LowRankFactors with small dimensions."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 8))
    w = draw(st.integers(1, 5))
    u = np.array(
        draw(
            st.lists(
                st.floats(-10, 10, allow_nan=False), min_size=n * w, max_size=n * w
            )
        )
    ).reshape(n, w)
    v = np.array(
        draw(
            st.lists(
                st.floats(-10, 10, allow_nan=False), min_size=m * w, max_size=m * w
            )
        )
    ).reshape(m, w)
    return LowRankFactors(u, v)


@st.composite
def step_inputs(draw):
    """A random graph pair and factors of matching row counts."""
    graph_a, graph_b = draw(graph_pairs())
    width = draw(st.integers(1, 4))

    def factor(rows):
        values = st.floats(-10, 10, allow_nan=False)
        cells = draw(st.lists(values, min_size=rows * width, max_size=rows * width))
        return np.array(cells).reshape(rows, width)

    return (
        graph_a,
        graph_b,
        LowRankFactors(factor(graph_a.num_nodes), factor(graph_b.num_nodes)),
    )


# ----------------------------------------------------------------------
# Theorem 3.1: exact equivalence
# ----------------------------------------------------------------------
class TestTheorem31Property:
    @_settings
    @given(pair=graph_pairs(), k=st.integers(1, 6))
    def test_gsim_plus_equals_gsim(self, pair, k):
        graph_a, graph_b = pair
        try:
            ours = gsim_plus(graph_a, graph_b, iterations=k).similarity
        except ZeroDivisionError:
            # Iterate collapsed (e.g. DAG deeper than k): GSim must too.
            try:
                gsim(graph_a, graph_b, iterations=k)
            except ZeroDivisionError:
                return
            raise
        reference = gsim(graph_a, graph_b, iterations=k).similarity
        assert frobenius_error(ours, reference) < 1e-9

    @_settings
    @given(pair=graph_pairs(), k=st.integers(1, 5))
    def test_rank_cap_modes_agree(self, pair, k):
        graph_a, graph_b = pair
        results = {}
        variants = {
            "dense": {"rank_cap": "dense"},
            "none": {"rank_cap": "none"},
            "numerical-rank": {
                "rank_cap": "none", "recompress_tol": NUMERICAL_RANK_TOL
            },
        }
        for name, options in variants.items():
            try:
                results[name] = gsim_plus(
                    graph_a, graph_b, iterations=k, **options
                ).similarity
            except ZeroDivisionError:
                results[name] = None
        values = list(results.values())
        if values[0] is None:
            assert all(v is None for v in values)
            return
        for other in values[1:]:
            assert frobenius_error(values[0], other) < 1e-9

    @_settings
    @given(pair=graph_pairs(), k=st.integers(0, 5))
    def test_similarity_always_unit_norm(self, pair, k):
        graph_a, graph_b = pair
        try:
            result = gsim_plus(graph_a, graph_b, iterations=k)
        except ZeroDivisionError:
            return
        assert abs(np.linalg.norm(result.similarity) - 1.0) < 1e-9


# ----------------------------------------------------------------------
# Low-embedding algebra
# ----------------------------------------------------------------------
class TestFactorAlgebraProperty:
    @_settings
    @given(f=factors())
    def test_gram_norm_matches_dense(self, f):
        dense_norm = np.linalg.norm(f.materialize())
        assert abs(f.frobenius_norm() - dense_norm) <= 1e-8 * (1 + dense_norm)

    @_settings
    @given(inputs=step_inputs())
    def test_step_is_equivalent(self, inputs):
        graph_a, graph_b, f = inputs
        stepped = GSimPlus(graph_a, graph_b)._step_factors(f)
        a, b = graph_a.adjacency, graph_b.adjacency
        left = np.hstack([a @ f.u, a.T @ f.u])
        right = np.hstack([b @ f.v, b.T @ f.v])
        # Rounding is relative to the largest term of a dot product.
        terms = np.abs(left).max() * np.abs(right).max() * left.shape[1]
        np.testing.assert_allclose(
            stepped.materialize(), left @ right.T, rtol=1e-9, atol=1e-12 * terms
        )
        if stepped.u.any() and stepped.v.any():  # else neither is divided
            assert np.abs(stepped.u).max() == 1.0
            assert np.abs(stepped.v).max() == 1.0

    @_settings
    @given(f=factors())
    def test_compressed_is_equivalent(self, f):
        compressed = f.recompressed(NUMERICAL_RANK_TOL)
        assert compressed.width <= min(f.width, *f.shape)
        np.testing.assert_allclose(
            compressed.materialize(), f.materialize(), atol=1e-7
        )

    @_settings
    @given(f=factors())
    def test_query_block_consistent_with_materialize(self, f):
        n, m = f.shape
        dense = f.materialize()
        block = f.query_block(list(range(n)), list(range(m)))
        np.testing.assert_allclose(block, dense, atol=1e-12)


# ----------------------------------------------------------------------
# Substrate contracts
# ----------------------------------------------------------------------
class TestSubstrateProperty:
    @_settings
    @given(g=graphs(require_edges=False), scale=st.sampled_from([1.0, 0.25, -1.5]))
    @example(g=Graph.empty(0), scale=1.0)
    def test_edge_list_round_trip(self, g, scale):
        # The header's nodes=N keeps isolated trailing nodes, so every
        # reader returns the written graph, weights included.
        g = Graph(g.adjacency * scale)
        buffer = io.StringIO()
        write_edge_list(g, buffer, write_weights=True)
        assert read_edge_list_text(buffer.getvalue()) == g
        with tempfile.TemporaryDirectory() as workdir:
            path = Path(workdir) / "g.txt"
            path.write_text(buffer.getvalue())
            assert read_edge_list(path) == g
            assert convert_edge_list(path, Path(workdir) / "csr") == g

    @_settings
    @given(g=graphs(require_edges=False))
    def test_degree_sums_match_edge_count(self, g):
        assert g.out_degrees().sum() == g.num_edges
        assert g.in_degrees().sum() == g.num_edges

    @_settings
    @given(g=graphs(require_edges=False))
    def test_undirected_is_idempotent(self, g):
        once = g.to_undirected()
        twice = once.to_undirected()
        assert once == twice

    @_settings
    @given(g=graphs(require_edges=False), seed=st.integers(0, 2**31 - 1))
    def test_subgraph_never_gains_edges(self, g, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, g.num_nodes + 1))
        nodes = rng.choice(g.num_nodes, size=size, replace=False)
        sub = g.subgraph(sorted(nodes))
        assert sub.num_edges <= g.num_edges
        assert sub.num_nodes == size
