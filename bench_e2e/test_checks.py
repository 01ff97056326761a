"""Tests of the benchmark's own answer checks and measurement helpers.

Run from the repository root::

    python3 -m pytest bench_e2e -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from checks import Answers, Scorer, Tolerance, check_answers, own_csr  # noqa: E402
from inputs import BLOCK, MATCH, PAIRS, make_requests  # noqa: E402
from layers import LayerSpans, PeakMemory, SpanTree  # noqa: E402
from pipeline import WORKLOADS, set_up, timed_pass, verify  # noqa: E402
from repro.core.topk import ScoredPair  # noqa: E402
from repro.retrieval.index import GSimIndex  # noqa: E402
from repro.runtime import Tracer  # noqa: E402


def _tiny_run(name: str, tmp_path: Path, pairs: int = 0):
    job = set_up(WORKLOADS[name], 3, tmp_path / name, scale="tiny",
                 request_counts=(25, 25, pairs))
    result = timed_pass(job, traced=False, seconds=float("inf"), memory=PeakMemory())
    return job, result


def _first(result, kind):
    return int(result.answers.issued(kind)[0])


@pytest.mark.parametrize("name", ["paper", "mmap"])
def test_clean_run_verifies(name, tmp_path):
    job, result = _tiny_run(name, tmp_path)
    checks, failures = verify(job, [result])
    assert failures == []
    assert checks >= 50


def test_perturbed_block_is_counted_as_failed(tmp_path):
    job, result = _tiny_run("paper", tmp_path)
    result.answers.block_sketch[_first(result, BLOCK)] *= 1 + 1e-6
    _, failures = verify(job, [result])
    # Counted once against the saved factors and once against Algorithm 1.
    assert len(failures) == 2 and all("sketch" in f for f in failures)


def test_perturbed_block_entry_is_counted_as_failed(tmp_path):
    job, result = _tiny_run("mmap", tmp_path)
    result.answers.block_probes[_first(result, BLOCK), 0] += 1e-6
    _, failures = verify(job, [result])
    assert len(failures) == 1 and "entries" in failures[0]


def test_wrong_match_is_counted_as_failed(tmp_path):
    job, result = _tiny_run("mmap", tmp_path)
    at = _first(result, MATCH)
    nodes_a, nodes_b, _, _ = result.answers.ranked[MATCH]
    ranked = GSimIndex.load(job.index_path).top_matches(int(nodes_a[at, 0]), k=job.sizes["n_b"])
    nodes_b[at, 0] = ranked[-1].node_b  # the lowest-scoring G_B node
    _, failures = verify(job, [result])
    assert len(failures) == 1 and failures[0].startswith("match")


def test_over_long_match_is_counted_as_failed(tmp_path):
    job, result = _tiny_run("mmap", tmp_path)
    at = _first(result, MATCH)
    node = int(job.requests.match_nodes[at])
    result.answers.record_ranked(
        MATCH, at, GSimIndex.load(job.index_path).top_matches(node, k=11))
    _, failures = verify(job, [result])
    assert len(failures) == 1 and "want 10" in failures[0]


def test_failed_request_is_counted(tmp_path):
    job, result = _tiny_run("mmap", tmp_path)
    result.answers.errors[BLOCK, 0] = "RuntimeError: boom"
    _, failures = verify(job, [result])
    assert failures == ["block[0] raised RuntimeError: boom"]


def test_requests_cut_by_the_cap_are_counted_as_failed(tmp_path):
    job = set_up(WORKLOADS["paper"], 3, tmp_path / "paper", scale="tiny",
                 request_counts=(25, 25, 0))
    result = timed_pass(job, traced=False, seconds=-1.0, memory=PeakMemory())
    checks, failures = verify(job, [result])
    assert len(failures) == 50 and all("not issued" in f for f in failures)
    assert checks >= 50


def test_pairs_checks(tmp_path):
    job, result = _tiny_run("mmap", tmp_path, pairs=2)
    assert verify(job, [result])[1] == []
    # Dropping the best pair for the 101st is not the top-k set any more.
    longer = GSimIndex.load(job.index_path).top_pairs(k=101)
    result.answers.record_ranked(PAIRS, _first(result, PAIRS), longer[1:])
    failures = verify(job, [result])[1]
    assert len(failures) == 1 and "top-scoring" in failures[0]


def test_dense_scorer_matches_factored_scorer():
    rng = np.random.default_rng(0)
    u, v = rng.random((30, 4)), rng.random((20, 4))
    factored, dense = Scorer(u, v), Scorer.dense(u @ v.T)
    requests, _, _ = make_requests(30, 20, 5, 5, 1, seed=1)
    for request in requests.blocks:
        assert np.isclose(factored.sketch(request)[0], dense.sketch(request)[0])
    for got, want in zip(factored.top_pairs(100), dense.top_pairs(100)):
        assert np.allclose(got, want)
    answers = Answers(requests)
    for i, node in enumerate(requests.match_nodes):
        answers.latency[MATCH][i] = 0.0
        answers.record_ranked(MATCH, i, _ranked(factored, int(node)))
    assert check_answers(answers, requests, dense, Tolerance()) == []


def _ranked(scorer: Scorer, node: int) -> list[ScoredPair]:
    row, _ = scorer.row(node)
    order = np.argsort(-row, kind="stable")[:10]
    return [ScoredPair(node, int(col), float(row[col])) for col in order]


def test_own_csr_sums_duplicates_like_scipy():
    rng = np.random.default_rng(2)
    src, dst = rng.integers(0, 50, 400), rng.integers(0, 50, 400)
    import scipy.sparse as sp

    expected = sp.csr_matrix((np.ones(400), (src, dst)), shape=(50, 50))
    expected.sum_duplicates()
    got = own_csr(src.astype(np.int32), dst.astype(np.int32), 50)
    assert np.array_equal(got.indptr, expected.indptr)
    assert np.array_equal(got.indices, expected.indices)
    assert np.array_equal(got.data, expected.data)


def test_requests_are_seeded_and_in_range():
    first, weights_a, _ = make_requests(5000, 300, 200, 50, 3, seed=9)
    again, _, _ = make_requests(5000, 300, 200, 50, 3, seed=9)
    assert first.order == again.order
    assert first.counts() == {BLOCK: 200, MATCH: 50, PAIRS: 3}
    for request in first.blocks:
        assert 1 <= request.rows.size <= 2000 and 1 <= request.cols.size <= 300
        assert np.unique(request.rows).size == request.rows.size
        assert np.array_equal(request.weights_rows, weights_a[request.rows])
    sizes = sorted(r.rows.size * r.cols.size for r in first.blocks)
    other = sorted(r.rows.size * r.cols.size
                   for r in make_requests(5000, 300, 200, 50, 3, seed=10)[0].blocks)
    # The lattice keeps the size distribution nearly seed-independent.
    assert abs(np.log(sizes[100] / other[100])) < 0.5


def test_layer_spans_nest_and_restore(tmp_path):
    original = GSimIndex.query
    tracer = Tracer()
    memory = PeakMemory()
    job, _ = _tiny_run("paper", tmp_path)
    index = GSimIndex.load(job.index_path)
    with LayerSpans(tracer, memory).installed():
        with tracer.span("request", kind=BLOCK, index=0):
            index.top_matches(0, k=3)
    assert GSimIndex.query is original
    tree = SpanTree(tracer.spans())
    root = tree.roots(BLOCK)[0]
    assert tree.descendant(root, "core.batch.query") is not None
    assert set(tree.layer_self_times()) == {"retrieval.index", "core.batch"}


def test_peak_memory_nests():
    memory = PeakMemory()
    memory.enter("outer")
    memory.enter("inner")
    block = np.ones(8 << 20, dtype=np.uint8)  # 8 MiB touched inside "inner"
    inner = memory.exit()
    del block
    outer = memory.exit()
    assert outer >= inner > 0


def test_metric_names_match_benchmark_json(tmp_path):
    import json

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    from layers import layer_metrics
    from pipeline import end_to_end

    job, result = _tiny_run("mmap", tmp_path, pairs=1)
    tree = SpanTree([])
    per_layer = layer_metrics(tree, job, result.metrics or _NoMetrics(), PeakMemory(),
                              {"traced": 1.0, "untraced": 1.0})
    assert list(per_layer) == [m["name"] for m in spec["per_layer"]]
    assert [unit for _, unit in per_layer.values()] == [m["unit"] for m in spec["per_layer"]]
    e2e = end_to_end(1.0, result, 1.0, 1.0)
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert [unit for _, unit in e2e.values()] == [m["unit"] for m in spec["end_to_end"]]


class _NoMetrics:
    def counter(self, name: str) -> float:
        return 0.0
