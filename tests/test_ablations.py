"""Unit tests for the design-choice ablations."""

import pytest

from repro.experiments.ablations import (
    ablation_gsvd_rank,
    ablation_normalization,
    ablation_query_extraction,
    ablation_rank_cap,
    ablation_rolesim_matching,
)
from repro.graphs import erdos_renyi_graph, random_node_sample


@pytest.fixture
def pair():
    graph_a = erdos_renyi_graph(30, 120, seed=1)
    graph_b = random_node_sample(graph_a, 12, seed=2)
    return graph_a, graph_b


class TestRankCapAblation:
    def test_three_variants(self, pair):
        rows = ablation_rank_cap(*pair, iterations=8)
        assert [r.variant for r in rows] == ["dense", "none", "numerical-rank"]
        cut = rows[-1]
        assert int(cut.detail.split()[0].split("=")[1]) <= min(
            pair[0].num_nodes, pair[1].num_nodes
        )

    def test_all_variants_exact(self, pair):
        rows = ablation_rank_cap(*pair, iterations=8)
        for row in rows[1:]:
            drift = float(row.detail.split("drift=")[1])
            assert drift < 1e-8


class TestNormalizationAblation:
    def test_conventions_agree_in_direction(self, pair):
        rows = ablation_normalization(*pair, iterations=6)
        agreement = [r for r in rows if r.variant == "agreement"][0]
        cosine = float(agreement.detail.split("cosine=")[1])
        assert cosine > 0.999  # same matrix up to positive scale


class TestQueryExtractionAblation:
    def test_results_agree(self, pair):
        rows = ablation_query_extraction(*pair, iterations=6, query_size=8)
        late = [r for r in rows if r.variant == "factored-late-extraction"][0]
        drift = float(late.detail.split("drift=")[1])
        assert drift < 1e-8

    def test_both_variants_measured(self, pair):
        rows = ablation_query_extraction(*pair, iterations=6, query_size=8)
        assert all(r.seconds >= 0 for r in rows)
        assert len(rows) == 2


class TestGSVDRankAblation:
    def test_error_nonincreasing_in_rank(self, pair):
        rows = ablation_gsvd_rank(*pair, iterations=8, ranks=(2, 6, 12))
        errors = [float(r.detail.split("err=")[1]) for r in rows]
        assert errors[-1] <= errors[0] + 1e-9


class TestRoleSimMatchingAblation:
    def test_variants_and_gap(self, pair):
        graph, _ = pair
        rows = ablation_rolesim_matching(graph, iterations=2)
        names = [r.variant for r in rows]
        assert names == ["greedy", "exact", "max-entry-gap"]
        gap = float(rows[-1].detail)
        assert 0.0 <= gap < 0.5


class TestSamplingAblation:
    def test_three_strategies(self, pair):
        from repro.experiments.ablations import ablation_sampling_strategy

        graph, _ = pair
        rows = ablation_sampling_strategy(graph, sample_size=10, iterations=4)
        assert [r.variant for r in rows] == ["random-node", "bfs", "forest-fire"]
        assert all(r.seconds >= 0 for r in rows)

    def test_structure_preserving_samplers_keep_more_edges(self):
        from repro.experiments.ablations import ablation_sampling_strategy
        from repro.graphs import erdos_renyi_graph

        graph = erdos_renyi_graph(200, 1600, seed=3)
        rows = ablation_sampling_strategy(graph, sample_size=40, iterations=4)
        edges = {r.variant: int(r.detail.split("=")[1]) for r in rows}
        # BFS-style samples retain at least as many edges as uniform ones
        # on a connected dense graph.
        assert edges["bfs"] >= edges["random-node"]
