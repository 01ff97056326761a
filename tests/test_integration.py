"""End-to-end integration tests across subsystems.

These exercise the whole pipeline the way a user or the experiment harness
does: dataset registry -> sampling -> workload -> algorithms -> metrics,
plus cross-algorithm agreement checks that no unit test covers.
"""

import numpy as np
import pytest
from scipy.stats import kendalltau

from repro import (
    gsim,
    gsim_partial,
    gsim_plus,
    gsvd,
    load_dataset_pair,
    make_workload,
)
from repro.analysis import frobenius_error
from repro.baselines import rolesim_query, structsim_query
from repro.experiments import Deadline, ExperimentConfig, MemoryBudget, Outcome
from repro.experiments.figures import fig2_time_by_dataset
from repro.experiments.runner import Outcome as RunnerOutcome


class TestDatasetToSimilarityPipeline:
    def test_hp_pipeline(self):
        graph_a, graph_b = load_dataset_pair("HP", scale="tiny", seed=3)
        workload = make_workload(graph_a, graph_b, 15, 10, seed=4)
        result = gsim_plus(
            graph_a,
            graph_b,
            iterations=5,
            queries_a=workload.queries_a,
            queries_b=workload.queries_b,
        )
        assert result.similarity.shape == (15, 10)
        assert np.isfinite(result.similarity).all()

    @pytest.mark.parametrize("dataset", ["HP", "EE", "WT", "UK"])
    def test_gsim_plus_equals_gsim_on_every_dataset(self, dataset):
        graph_a, graph_b = load_dataset_pair(dataset, scale="tiny", seed=3)
        ours = gsim_plus(graph_a, graph_b, iterations=5).similarity
        reference = gsim(graph_a, graph_b, iterations=5).similarity
        assert frobenius_error(ours, reference) < 1e-9

    def test_partial_query_consistency_across_engines(self):
        # GSim+ (global norm) and Eq.(5) gsim_partial agree up to the
        # block's own normalisation.
        graph_a, graph_b = load_dataset_pair("EE", scale="tiny", seed=3)
        rows = np.arange(10)
        cols = np.arange(8)
        plus_block = gsim_plus(
            graph_a, graph_b, iterations=5, queries_a=rows, queries_b=cols
        ).similarity  # block-normalised (Algorithm 1)
        partial = gsim_partial(graph_a, graph_b, rows, cols, iterations=5).similarity
        assert frobenius_error(plus_block, partial) < 1e-9


class TestCrossModelAgreement:
    """Different similarity models should broadly agree on *rankings* for
    structurally obvious cases, even though their scales differ."""

    def test_gsvd_preserves_gsim_plus_ranking(self):
        graph_a, graph_b = load_dataset_pair("HP", scale="tiny", seed=3)
        exact = gsim_plus(graph_a, graph_b, iterations=6).similarity
        approx = gsvd(graph_a, graph_b, iterations=6, rank=10).similarity_matrix()
        top_exact, top_approx = (
            set(np.argsort(-scores, axis=None, kind="stable")[:50].tolist())
            for scores in (exact, approx)
        )
        assert len(top_exact & top_approx) / 50 > 0.7
        assert kendalltau(exact[0], approx[0]).statistic > 0.5

    def test_structsim_identity_pairs_score_one(self):
        # Comparing a graph against itself: node i vs node i keeps its
        # exact role, which SS-BC* scores 1.0; cross pairs score lower.
        graph_a, _ = load_dataset_pair("HP", scale="tiny", seed=3)
        block = structsim_query(
            graph_a, graph_a, np.arange(10), np.arange(10), levels=3
        )
        np.testing.assert_allclose(np.diag(block), 1.0)
        assert block.mean() < 1.0

    def test_rolesim_ranks_hub_pairs(self):
        graph_a, graph_b = load_dataset_pair("HP", scale="tiny", seed=3)
        small_a = graph_a.subgraph(range(25))
        small_b = graph_b.subgraph(range(15))
        block = rolesim_query(
            small_a, small_b, np.arange(10), np.arange(10), iterations=2
        )
        assert np.isfinite(block).all()
        assert (block >= 0.0).all() and (block <= 1.0 + 1e-12).all()


class TestHarnessEndToEnd:
    def test_paper_survival_pattern_at_small_scale(self):
        """The headline shape: dense baselines crash on WT+, GSim+ survives."""
        config = ExperimentConfig.for_scale(
            "small", seed=7,
            memory_budget=MemoryBudget(),
            deadline=Deadline(limit_seconds=15.0),
        )
        records = fig2_time_by_dataset(
            config, datasets=("EE", "WT"), algorithms=("GSim+", "GSim")
        )
        outcomes = {(r.algorithm, r.dataset): r.outcome for r in records}
        assert outcomes[("GSim+", "EE")] is RunnerOutcome.OK
        assert outcomes[("GSim+", "WT")] is RunnerOutcome.OK
        assert outcomes[("GSim", "EE")] is RunnerOutcome.OK
        assert outcomes[("GSim", "WT")] is RunnerOutcome.OOM

    def test_gsim_plus_beats_gsim_wall_clock_at_small_scale(self):
        config = ExperimentConfig.for_scale(
            "small", seed=7,
            memory_budget=MemoryBudget(),
            deadline=Deadline(limit_seconds=30.0),
        )
        records = fig2_time_by_dataset(
            config, datasets=("EE",), algorithms=("GSim+", "GSim")
        )
        seconds = {r.algorithm: r.seconds for r in records}
        assert seconds["GSim+"] < seconds["GSim"]

    def test_degenerate_instance_recorded_not_raised(self):
        from repro.experiments import ALGORITHMS, run_algorithm
        from repro.graphs import Graph

        empty_a = Graph.empty(5)
        empty_b = Graph.empty(4)
        record = run_algorithm(
            ALGORITHMS["GSim+"], empty_a, empty_b,
            np.arange(2), np.arange(2), 3,
        )
        assert record.outcome is Outcome.ERROR
        assert "collapsed" in record.note
