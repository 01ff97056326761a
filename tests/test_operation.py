"""The operation contract and the null context.

Every request-level entry point is one ``context.operation(name)``: its
exit records the span ``name``, the ``<name>_seconds`` histogram, the
``<name>.requests`` / ``<name>.errors`` counters and a slow-query record
from one timing, on success and on failure alike.  ``NULL_CONTEXT``
stands in for a missing context: it records nothing and changes no
result.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines import gsim, gsim_partial, gsvd, ned_query, rolesim_query
from repro.baselines import structsim_query
from repro.core.batch import BatchQueryEngine
from repro.core.gsim_plus import GSimPlus
from repro.core.topk import scan_top_pairs, top_k_for_queries, top_k_pairs
from repro.graphs import erdos_renyi_graph, random_node_sample
from repro.retrieval import GSimIndex
from repro.runtime import (
    NULL_CONTEXT,
    DeadlineExceeded,
    ExecutionContext,
    FaultInjector,
    InjectedFault,
    MemoryBudgetExceeded,
    Metrics,
    SlowQueryLog,
    Tracer,
    WallClockDeadline,
)

pytestmark = pytest.mark.telemetry

ITERATIONS = 4


@pytest.fixture(scope="module")
def env():
    graph_a = erdos_renyi_graph(30, 90, seed=1)
    graph_b = random_node_sample(graph_a, 12, seed=2)
    index = GSimIndex.build(graph_a, graph_b, iterations=ITERATIONS)
    return SimpleNamespace(
        graphs=(graph_a, graph_b),
        index=index,
        engine=BatchQueryEngine(index.factors),
    )


def _expired() -> dict:
    return {"deadline": WallClockDeadline(1e-9)}


def _fault(match: str) -> dict:
    return {"fault_injector": FaultInjector(fail_at=1, match=match)}


_BAD = 10**9  # an id past every graph's node count

# name -> (call(env, context, fails), failing context options, raised type)
CASES = {
    "index.build": (
        lambda env, context, fails: GSimIndex.build(
            *env.graphs, iterations=ITERATIONS, context=context
        ),
        _expired,
        DeadlineExceeded,
    ),
    "index.query": (
        lambda env, context, fails: env.index.query(
            [_BAD if fails else 0, 1], [2, 3], context=context
        ),
        dict,
        IndexError,
    ),
    "index.top_matches": (
        lambda env, context, fails: env.index.top_matches(
            _BAD if fails else 0, k=3, context=context
        ),
        dict,
        IndexError,
    ),
    "index.top_pairs": (
        lambda env, context, fails: env.index.top_pairs(5, context=context),
        _expired,
        DeadlineExceeded,
    ),
    "topk.scan_pairs": (
        lambda env, context, fails: scan_top_pairs(
            env.index.factors, 5, context=context
        ),
        lambda: _fault("top_k_pairs scan"),
        InjectedFault,
    ),
    "topk.query_scan": (
        lambda env, context, fails: top_k_for_queries(
            *env.graphs, [0, 1, 2], 3, iterations=ITERATIONS, context=context
        ),
        lambda: _fault("top_k_for_queries scan"),
        InjectedFault,
    ),
    "batch.query_block": (
        lambda env, context, fails: env.engine.query(
            [_BAD if fails else 0, 1], [2], context=context
        ),
        dict,
        IndexError,
    ),
}


@pytest.mark.parametrize("fails", [False, True], ids=["ok", "failing"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_operation_records_all_four_pieces(env, name, fails):
    call, failing_options, raised = CASES[name]
    tracer = Tracer()
    slow = SlowQueryLog(threshold_seconds=0.0)
    context = ExecutionContext(
        metrics=Metrics(),
        tracer=tracer,
        slow_queries=slow,
        **(failing_options() if fails else {}),
    )
    if fails:
        with pytest.raises(raised):
            call(env, context, fails)
    else:
        call(env, context, fails)

    spans = [span for span in tracer.spans() if span.name == name]
    assert len(spans) == 1
    span = spans[0]
    assert ("error" in span.attributes) is fails
    histogram = context.metrics.histogram(f"{name}_seconds")
    assert histogram["count"] == 1
    assert histogram["sum"] == span.duration
    counters = context.metrics.snapshot()["counters"]
    assert counters[f"{name}.requests"] == 1
    assert counters.get(f"{name}.errors", 0) == int(fails)
    records = [record for record in slow.records() if record.operation == name]
    assert len(records) == 1
    assert records[0].attributes["span_id"] == span.span_id
    assert records[0].attributes["error"] is fails
    assert records[0].duration_seconds == span.duration


def test_inner_operation_records_first(env):
    slow = SlowQueryLog(threshold_seconds=0.0)
    context = ExecutionContext(slow_queries=slow)
    env.index.query([0], [1], context=context)
    env.index.top_pairs(3, context=context)
    assert [record.operation for record in slow.records()] == [
        "batch.query_block",
        "index.query",
        "topk.scan_pairs",
        "index.top_pairs",
    ]


def test_untraced_operation_records_without_span(env):
    slow = SlowQueryLog(threshold_seconds=0.0)
    context = ExecutionContext(slow_queries=slow)
    env.index.query([0, 1], [2], context=context)
    record = [r for r in slow.records() if r.operation == "index.query"][0]
    assert record.attributes["span_id"] is None
    assert record.attributes["cells"] == 2
    assert record.attributes["width"] == env.index.factors.width
    assert context.metrics.histogram("index.query_seconds")["sum"] == (
        record.duration_seconds
    )


def test_slow_records_stay_json_ready_for_numpy_arguments(env):
    slow = SlowQueryLog(threshold_seconds=0.0)
    context = ExecutionContext(slow_queries=slow)
    env.index.top_pairs(np.int64(5), block_rows=np.int64(8), context=context)
    env.index.top_matches(np.int64(0), k=np.int64(3), context=context)
    assert len(json.loads(json.dumps(slow.snapshot()))["records"]) == 3


def test_operation_attributes_gather_keyword_and_set_attributes():
    context = ExecutionContext()
    with context.operation("demo", k=3) as operation:
        operation.set_attribute("rows", 2)
    assert operation.attributes == {"k": 3, "rows": 2}
    assert context.metrics.histogram("demo_seconds")["count"] == 1


# ----------------------------------------------------------------------
# holding
# ----------------------------------------------------------------------
def test_holding_charges_for_the_block_and_releases_on_failure():
    context = ExecutionContext.start(memory_limit_bytes=1000)
    with context.holding(600, "block"):
        assert context.memory.held_bytes == 600
        with pytest.raises(MemoryBudgetExceeded, match="second"):
            with context.holding(600, "second"):
                pytest.fail("a breach must raise before the block runs")
    assert context.memory.held_bytes == 0
    with pytest.raises(ValueError):
        with context.holding(600, "block"):
            raise ValueError("inside")
    assert context.memory.held_bytes == 0
    assert context.memory.peak_bytes == 600


# ----------------------------------------------------------------------
# NULL_CONTEXT
# ----------------------------------------------------------------------
def test_resolve_maps_only_none_to_the_null_context():
    context = ExecutionContext()
    assert ExecutionContext.resolve(None) is NULL_CONTEXT
    assert ExecutionContext.resolve(context) is context
    assert ExecutionContext.resolve(NULL_CONTEXT) is NULL_CONTEXT


def test_null_context_is_shared_and_inert():
    assert NULL_CONTEXT.operation("a") is NULL_CONTEXT.operation("b", k=1)
    assert NULL_CONTEXT.holding(10**18) is NULL_CONTEXT.holding(1)
    with NULL_CONTEXT.operation("a") as operation, NULL_CONTEXT.holding(10**18):
        operation.set_attribute("cells", 4)
        NULL_CONTEXT.checkpoint("anything")
        NULL_CONTEXT.charge(10**18)
        NULL_CONTEXT.release(10**18)
        NULL_CONTEXT.metrics.increment("x")
        NULL_CONTEXT.metrics.observe_histogram("x_seconds", 1.0)
    # A real context that borrows the null sink records nothing into it
    # either.
    with ExecutionContext(metrics=NULL_CONTEXT.metrics).operation("b"):
        pass
    assert NULL_CONTEXT.slow_queries is None
    assert not NULL_CONTEXT.tracer.enabled
    assert NULL_CONTEXT.snapshot() == Metrics().snapshot()


def _entry_points(env):
    graph_a, graph_b = env.graphs
    index, queries_a, queries_b = env.index, [0, 3, 5], [1, 2]

    def _scores(pairs):
        return [(pair.node_a, pair.node_b, pair.score) for pair in pairs]

    def _solver(context):
        result = GSimPlus(graph_a, graph_b).run(8, context=context)
        return result.similarity, result.z_frobenius_log

    def _build(context):
        built = GSimIndex.build(graph_a, graph_b, iterations=ITERATIONS,
                                context=context)
        return built.factors.u, built.factors.v

    return {
        "GSimPlus.run": _solver,
        "GSimIndex.build": _build,
        "GSimIndex.query": lambda c: index.query(queries_a, queries_b, context=c),
        "GSimIndex.top_matches": lambda c: _scores(index.top_matches(3, 4, context=c)),
        "GSimIndex.top_pairs": lambda c: _scores(index.top_pairs(6, context=c)),
        "top_k_pairs": lambda c: _scores(
            top_k_pairs(graph_a, graph_b, 6, iterations=ITERATIONS, context=c)
        ),
        "top_k_for_queries": lambda c: {
            node: _scores(pairs)
            for node, pairs in top_k_for_queries(
                graph_a, graph_b, queries_a, 3, iterations=ITERATIONS, context=c
            ).items()
        },
        "gsim": lambda c: gsim(graph_a, graph_b, iterations=4, context=c).similarity,
        "gsim_partial": lambda c: gsim_partial(
            graph_a, graph_b, queries_a, queries_b, iterations=4, context=c
        ).similarity,
        "gsvd": lambda c: gsvd(graph_a, graph_b, iterations=4, rank=3,
                               context=c).similarity_matrix(),
        "rolesim_query": lambda c: rolesim_query(
            graph_a, graph_b, queries_a, queries_b, iterations=2, context=c
        ),
        "ned_query": lambda c: ned_query(
            graph_a, graph_b, queries_a, queries_b, depth=2, context=c
        ),
        "structsim_query": lambda c: structsim_query(
            graph_a, graph_b, queries_a, queries_b, levels=3, context=c
        ),
    }


def _assert_identical(left, right):
    if isinstance(left, np.ndarray):
        assert np.array_equal(left, right)
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right)
        for a, b in zip(left, right):
            _assert_identical(a, b)
    elif isinstance(left, dict):
        assert left.keys() == right.keys()
        for key in left:
            _assert_identical(left[key], right[key])
    else:
        assert left == right


def test_null_context_results_bit_identical_to_a_full_context(env):
    for name, call in _entry_points(env).items():
        full = ExecutionContext(
            metrics=Metrics(),
            tracer=Tracer(),
            slow_queries=SlowQueryLog(threshold_seconds=0.0),
        )
        bare = call(None)
        _assert_identical(bare, call(NULL_CONTEXT))
        _assert_identical(bare, call(full))
    assert NULL_CONTEXT.snapshot() == Metrics().snapshot()
