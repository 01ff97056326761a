"""Unit tests for the batch query engine and the scaling study."""

import numpy as np
import pytest

from repro import gsim_plus
from repro.core import GSimPlus, LowRankFactors
from repro.core.batch import BatchQueryEngine
from repro.experiments.scaling import (
    ScalingPoint,
    fit_scaling_exponent,
    scaling_study,
)
from repro.graphs import erdos_renyi_graph, random_node_sample


@pytest.fixture
def engine_and_reference():
    graph_a = erdos_renyi_graph(30, 120, seed=1)
    graph_b = random_node_sample(graph_a, 12, seed=2)
    solver = GSimPlus(graph_a, graph_b, rank_cap="none")
    state = None
    for state in solver.iterate(5):
        pass
    reference = gsim_plus(graph_a, graph_b, iterations=5).similarity
    return BatchQueryEngine(state.factors), reference


class TestBatchQueryEngine:
    def test_query_matches_full_matrix(self, engine_and_reference):
        engine, reference = engine_and_reference
        block = engine.query([0, 3], [1, 4])
        np.testing.assert_allclose(
            block, reference[np.ix_([0, 3], [1, 4])], atol=1e-10
        )

    def test_query_many_order_preserved(self, engine_and_reference):
        engine, _ = engine_and_reference
        requests = [([0], [0]), ([1, 2], [3]), ([4], [5, 6, 7])]
        blocks = engine.query_many(requests)
        assert [b.shape for b in blocks] == [(1, 1), (2, 1), (1, 3)]

    def test_threaded_matches_serial(self, engine_and_reference):
        engine, _ = engine_and_reference
        requests = [([i], [i % 12]) for i in range(20)]
        serial = engine.query_many(requests)
        threaded = engine.query_many(requests, max_workers=4)
        for a, b in zip(serial, threaded):
            np.testing.assert_array_equal(a, b)

    def test_stream_rows_reconstructs_matrix(self, engine_and_reference):
        engine, reference = engine_and_reference
        chunks = []
        for start, block in engine.stream_rows(block_rows=7):
            chunks.append(block)
        full = np.vstack(chunks)
        np.testing.assert_allclose(full, reference, atol=1e-10)

    def test_stream_rows_block_bound(self, engine_and_reference):
        engine, _ = engine_and_reference
        for _, block in engine.stream_rows(block_rows=4):
            assert block.shape[0] <= 4

    def test_block_normalization_mode(self):
        factors = LowRankFactors(np.ones((4, 1)), np.ones((3, 1)))
        engine = BatchQueryEngine(factors, normalization="block")
        block = engine.query([0, 1], [0, 1])
        assert np.linalg.norm(block) == pytest.approx(1.0)

    def test_zero_factors_rejected(self):
        with pytest.raises(ZeroDivisionError):
            BatchQueryEngine(LowRankFactors(np.zeros((2, 1)), np.zeros((2, 1))))

    def test_bad_normalization(self):
        factors = LowRankFactors(np.ones((2, 1)), np.ones((2, 1)))
        with pytest.raises(ValueError, match="normalization"):
            BatchQueryEngine(factors, normalization="nope")


class TestScalingFit:
    def test_linear_data_slope_one(self):
        sizes = np.array([1e3, 1e4, 1e5, 1e6])
        seconds = sizes * 3e-7
        assert fit_scaling_exponent(sizes, seconds) == pytest.approx(1.0)

    def test_quadratic_data_slope_two(self):
        sizes = np.array([1e2, 1e3, 1e4])
        seconds = (sizes**2) * 1e-9
        assert fit_scaling_exponent(sizes, seconds) == pytest.approx(2.0)

    def test_noise_tolerated(self, rng):
        sizes = np.array([1e3, 1e4, 1e5, 1e6])
        seconds = sizes * 3e-7 * rng.uniform(0.8, 1.2, size=4)
        assert fit_scaling_exponent(sizes, seconds) == pytest.approx(1.0, abs=0.2)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_scaling_exponent(np.array([10.0]), np.array([1.0]))

    def test_positive_required(self):
        with pytest.raises(ValueError):
            fit_scaling_exponent(np.array([1.0, 2.0]), np.array([0.0, 1.0]))


class TestScalingStudy:
    def test_small_study_near_linear(self):
        # Small sweep (~0.3 s); GSim+ should scale near-linearly in edges.
        # Builds of ~2-15 ms, each the minimum of 5, keep fixed per-call
        # overheads and timer noise from flattening the fit: builds of
        # 1-4 ms fitted exponents as low as 0.32.
        study = scaling_study(
            scales=(10, 11, 12, 13), edges_per_node=8.0, iterations=6,
            query_size=32, sample_size=64, seed=3, repeats=5,
        )
        assert len(study.points) == 4
        edges = [p.edges for p in study.points]
        assert edges == sorted(edges)
        # Wide tolerance: constant overheads flatten the smallest sizes.
        assert study.is_near_linear(tolerance=0.6), study.exponent

    def test_requires_two_scales(self):
        with pytest.raises(ValueError):
            scaling_study(scales=(8,))

    def test_point_fields(self):
        point = ScalingPoint(nodes=10, edges=20, seconds=0.5)
        assert point.edges == 20
