"""Unit tests for the experiment runner and algorithm registry."""

import numpy as np
import pytest

from repro.experiments import (
    ALGORITHMS,
    AlgorithmSpec,
    Deadline,
    MemoryBudget,
    Outcome,
    cell_key,
    run_algorithm,
)
from repro.experiments.runner import instance_params
from repro.graphs import erdos_renyi_graph, random_node_sample
from repro.runtime import ExecutionContext


@pytest.fixture
def instance():
    graph_a = erdos_renyi_graph(40, 160, seed=1)
    graph_b = random_node_sample(graph_a, 15, seed=2)
    queries_a = np.arange(8)
    queries_b = np.arange(6)
    return graph_a, graph_b, queries_a, queries_b


class TestRegistry:
    def test_all_paper_competitors_registered(self):
        assert set(ALGORITHMS) == {"GSim+", "GSVD", "GSim", "SS-BC*", "NED", "RSim"}

    def test_cost_models_resolve(self):
        from repro.core import COST_MODELS

        for spec in ALGORITHMS.values():
            assert spec.cost_model in COST_MODELS


class TestInstanceParams:
    def test_fields(self, instance):
        graph_a, graph_b, queries_a, queries_b = instance
        params = instance_params(graph_a, graph_b, queries_a, queries_b, 5)
        assert params.n_a == 40
        assert params.n_b == 15
        assert params.q_a == 8
        assert params.q_b == 6
        assert params.iterations == 5
        assert params.d_avg >= 1.0
        assert params.d_max >= 1


class TestRunAlgorithm:
    @pytest.mark.parametrize("name", ["GSim+", "GSVD", "GSim", "SS-BC*"])
    def test_fast_algorithms_complete(self, instance, name):
        record = run_algorithm(ALGORITHMS[name], *instance, 4)
        assert record.outcome is Outcome.OK
        assert record.seconds is not None and record.seconds >= 0
        assert record.memory_bytes is not None

    def test_memory_veto_records_oom(self, instance):
        record = run_algorithm(
            ALGORITHMS["GSim"], *instance, 4, memory_budget=MemoryBudget(8)
        )
        assert record.outcome is Outcome.OOM
        assert "exceeds budget" in record.note
        assert record.seconds is None

    def test_predictive_timeout_records(self, instance):
        tight = Deadline(limit_seconds=1e-7, predictive_factor=1.0)
        record = run_algorithm(ALGORITHMS["GSim"], *instance, 4, deadline=tight)
        assert record.outcome is Outcome.TIMEOUT

    def test_cooperative_timeout_records(self, instance):
        # Predictive gate passes (huge factor) but the armed wall clock
        # stops the slow per-pair loop almost immediately.
        tight = Deadline(limit_seconds=0.001, predictive_factor=1e12)
        record = run_algorithm(ALGORITHMS["NED"], *instance, 3, deadline=tight)
        assert record.outcome is Outcome.TIMEOUT
        assert record.seconds is None

    def test_predictions_recorded(self, instance):
        record = run_algorithm(ALGORITHMS["GSim+"], *instance, 4)
        assert record.predicted_seconds is not None
        assert record.predicted_bytes is not None

    def test_params_recorded(self, instance):
        record = run_algorithm(ALGORITHMS["GSim+"], *instance, 4)
        assert record.params["k"] == 4
        assert record.params["q_a"] == 8

    def test_dataset_label(self, instance):
        record = run_algorithm(ALGORITHMS["GSim+"], *instance, 2, dataset="HP")
        assert record.dataset == "HP"

    def test_dataset_defaults_to_graph_name(self, instance):
        record = run_algorithm(ALGORITHMS["GSim+"], *instance, 2)
        assert record.dataset == "erdos-renyi"

    def test_ok_property(self, instance):
        record = run_algorithm(ALGORITHMS["GSim+"], *instance, 2)
        assert record.ok
        vetoed = run_algorithm(
            ALGORITHMS["GSim"], *instance, 2, memory_budget=MemoryBudget(1)
        )
        assert not vetoed.ok

    def test_rolesim_completes_on_tiny_instance(self, instance):
        record = run_algorithm(
            ALGORITHMS["RSim"], *instance, 2, deadline=Deadline(limit_seconds=30)
        )
        assert record.outcome in (Outcome.OK, Outcome.TIMEOUT)

    def test_fatal_failure_raises_through(self, instance):
        def broken(graph_a, graph_b, queries_a, queries_b, iterations, context=None):
            raise KeyError("programming error")

        spec = AlgorithmSpec(
            name="GSim+", run=broken, cost_model="gsim+", units_per_second=1e8
        )
        with pytest.raises(KeyError):
            run_algorithm(spec, *instance, 3)

    def test_error_outcome_counted_in_sweep_errors(self, instance):
        def degenerate(graph_a, graph_b, queries_a, queries_b, iterations, context=None):
            raise ZeroDivisionError("the iterate collapsed")

        spec = AlgorithmSpec(
            name="GSim+", run=degenerate, cost_model="gsim+", units_per_second=1e8
        )
        context = ExecutionContext()
        record = run_algorithm(spec, *instance, 3, context=context)
        assert record.outcome is Outcome.ERROR
        run_algorithm(ALGORITHMS["GSim+"], *instance, 3, context=context)
        assert context.metrics.counter("sweep.cells") == 2
        assert context.metrics.counter("sweep.errors") == 1


def test_cell_key_distinguishes_axes():
    params = {"n_a": 6, "n_b": 4, "k": 3}
    assert cell_key("GSim+", "EE", params) != cell_key(
        "GSim+", "EE", {**params, "k": 4}
    )
    assert cell_key("GSim+", "EE", params) != cell_key("GSim", "EE", params)
