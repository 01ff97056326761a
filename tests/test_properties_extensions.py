"""Property-based tests for the extension layers (top-k, batch, index,
content priors)."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Graph, gsim, gsim_plus
from repro.analysis import frobenius_error
from repro.core import LowRankFactors, top_k_pairs
from repro.core.batch import BatchQueryEngine

_settings = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def connected_pairs(draw):
    """Graph pairs guaranteed at least one edge each (no collapse)."""
    def one(n):
        edges = [(i, (i + 1) % n) for i in range(n)]  # cycle backbone
        extra = draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=n,
            )
        )
        edges += [(a, b) for a, b in extra if a != b]
        return Graph.from_edges(n, edges)

    n_a = draw(st.integers(3, 9))
    n_b = draw(st.integers(2, 7))
    return one(n_a), one(n_b)


class TestTopKProperty:
    @_settings
    @given(pair=connected_pairs(), k=st.integers(1, 6))
    def test_topk_agrees_with_dense_scores(self, pair, k):
        graph_a, graph_b = pair
        pairs = top_k_pairs(graph_a, graph_b, k=k, iterations=4)
        full = gsim_plus(graph_a, graph_b, iterations=4).similarity
        # Every returned score matches the dense matrix entry, and no
        # unreturned entry strictly beats the k-th returned score.
        kth = pairs[-1].score
        for pair_ in pairs:
            assert abs(pair_.score - full[pair_.node_a, pair_.node_b]) < 1e-9
        assert (full > kth + 1e-9).sum() < len(pairs)

    @_settings
    @given(pair=connected_pairs())
    def test_topk_block_rows_score_invariant(self, pair):
        # Exact pair identity can differ across block sizes when scores tie
        # at float-noise level (symmetric graphs); the *scores* must agree.
        graph_a, graph_b = pair
        small = top_k_pairs(graph_a, graph_b, k=4, iterations=3, block_rows=2)
        large = top_k_pairs(graph_a, graph_b, k=4, iterations=3, block_rows=512)
        np.testing.assert_allclose(
            [p.score for p in small], [p.score for p in large], atol=1e-9
        )


class TestBatchEngineProperty:
    @_settings
    @given(pair=connected_pairs())
    def test_stream_reconstructs(self, pair):
        graph_a, graph_b = pair
        from repro.core import GSimPlus

        solver = GSimPlus(graph_a, graph_b, rank_cap="none")
        state = None
        for state in solver.iterate(4):
            pass
        engine = BatchQueryEngine(state.factors)
        full = np.vstack([block for _, block in engine.stream_rows(block_rows=2)])
        reference = gsim_plus(graph_a, graph_b, iterations=4).similarity
        assert frobenius_error(full, reference) < 1e-9


class TestContentPriorProperty:
    @_settings
    @given(
        pair=connected_pairs(),
        k=st.integers(1, 4),
        width=st.integers(1, 3),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_seeded_exactness(self, pair, k, width, seed):
        graph_a, graph_b = pair
        rng = np.random.default_rng(seed)
        features_a = rng.uniform(0.1, 1.0, (graph_a.num_nodes, width))
        features_b = rng.uniform(0.1, 1.0, (graph_b.num_nodes, width))
        ours = gsim_plus(
            graph_a, graph_b, iterations=k,
            initial_factors=(features_a, features_b),
        ).similarity
        reference = gsim(
            graph_a, graph_b, iterations=k, initial=features_a @ features_b.T
        ).similarity
        assert frobenius_error(ours, reference) < 1e-9


class TestFactorScaleProperty:
    @_settings
    @given(
        pair=connected_pairs(),
        scale=st.floats(0.001, 1000.0, allow_nan=False),
    )
    def test_prior_scale_invariance(self, pair, scale):
        # Scaling the content prior by a constant cannot change the
        # normalised similarity.
        graph_a, graph_b = pair
        base_a = np.ones((graph_a.num_nodes, 1))
        base_b = np.ones((graph_b.num_nodes, 1))
        plain = gsim_plus(graph_a, graph_b, iterations=3).similarity
        scaled = gsim_plus(
            graph_a, graph_b, iterations=3,
            initial_factors=(base_a * scale, base_b),
        ).similarity
        assert frobenius_error(plain, scaled) < 1e-9

    @_settings
    @given(pair=connected_pairs())
    def test_factored_norm_scale_identity(self, pair):
        graph_a, graph_b = pair
        from repro.core import GSimPlus

        solver = GSimPlus(graph_a, graph_b, rank_cap="none")
        for state in solver.iterate(3):
            if state.factors is None:
                continue
            factors = state.factors
            # log-scale folded in == explicit multiplication.
            explicit = LowRankFactors(factors.u, factors.v, 0.0)
            ratio = factors.frobenius_norm() / max(
                explicit.frobenius_norm(), 1e-300
            )
            assert ratio == np.exp(factors.log_scale) or abs(
                np.log(max(ratio, 1e-300)) - factors.log_scale
            ) < 1e-9
