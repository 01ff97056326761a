"""Oracle-differential checks of every read path of a GSimIndex.

Each case is a seeded factor pair chosen to stress the norm-pruned scan
and the zero-row skipping: mixed signs, many zero rows, equal row norms
(nothing can prune), integer ties, float32, rows whose squares underflow,
a factor whose every square underflows, and single-row factors.  The
oracle is the dense ``U V^T`` ranked by the canonical
``(-score, node_a, node_b)`` order of ``np.lexsort``.  Every path must
return the oracle's cells in the oracle's order, with scores within
``w eps ||u_a|| ||v_b|| / ||Z||_F`` of it and of ``query([a], [b])``;
block entries of zero rows must be exactly 0.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.topk as topk
from repro.core.embeddings import LowRankFactors
from repro.retrieval.index import GSimIndex, IndexMetadata
from repro.runtime import ExecutionContext, Metrics


def _mixed_sign(rng):
    return rng.standard_normal((40, 5)), rng.standard_normal((30, 5))


def _zero_rows(rng):
    u, v = rng.standard_normal((60, 6)), rng.standard_normal((40, 6))
    u[rng.permutation(60)[:24]] = 0.0  # 40% of U's rows
    v[rng.permutation(40)[:34]] = 0.0  # 85% of V's rows
    return u, v


def _spread_norms(rng):
    u = rng.standard_normal((50, 4)) * 2.0 ** -np.arange(50)[:, None] / 4
    return u, rng.standard_normal((20, 4))


def _equal_norms(rng):
    # Every bound is the same, so nothing prunes: the scan's worst case.
    u, v = rng.standard_normal((30, 4)), rng.standard_normal((25, 4))
    return (
        u / np.linalg.norm(u, axis=1, keepdims=True),
        v / np.linalg.norm(v, axis=1, keepdims=True),
    )


def _integer_ties(rng):
    return (
        rng.integers(-1, 3, size=(25, 3)).astype(float),
        rng.integers(-1, 3, size=(20, 3)).astype(float),
    )


def _float32(rng):
    # Quarter-integers: exact in float32, so the oracle's ties are exact.
    return (
        (rng.integers(-8, 9, size=(30, 4)) / 4).astype(np.float32),
        (rng.integers(-8, 9, size=(20, 4)) / 4).astype(np.float32),
    )


def _tiny_rows(rng):
    # The positive cells all come from rows of ~1e-170, whose squares
    # underflow; a zero norm bound would prune every one of them.
    normal = -np.abs(rng.standard_normal((20, 3)))
    tiny = np.abs(rng.standard_normal((10, 3))) * 1e-170
    return np.vstack([normal, tiny]), np.abs(rng.standard_normal((15, 3)))


def _zero_squares(rng):
    # Every entry of U squares to zero, so the Gram-trick norm must rescale
    # the factors rather than report the zero matrix.
    return rng.standard_normal((12, 3)) * 1e-170, rng.standard_normal((9, 3))


def _single_cell(rng):
    return rng.standard_normal((1, 3)), rng.standard_normal((1, 3))


def _single_row(rng):
    return rng.standard_normal((1, 2)), rng.standard_normal((7, 2))


def _single_column(rng):
    return rng.standard_normal((6, 2)), rng.standard_normal((1, 2))


CASES = {
    "mixed_sign": _mixed_sign,
    "zero_rows": _zero_rows,
    "spread_norms": _spread_norms,
    "equal_norms": _equal_norms,
    "integer_ties": _integer_ties,
    "float32": _float32,
    "tiny_rows": _tiny_rows,
    "single_cell": _single_cell,
    "single_row": _single_row,
    "single_column": _single_column,
    "zero_squares": _zero_squares,
}


class Case:
    def __init__(self, name: str) -> None:
        rng = np.random.default_rng(sorted(CASES).index(name))
        u, v = CASES[name](rng)
        self.factors = LowRankFactors(u, v)
        n_a, n_b = self.factors.shape
        self.index = GSimIndex(
            self.factors,
            IndexMetadata(
                n_a=n_a, n_b=n_b, m_a=0, m_b=0, iterations=1,
                graph_a_name="a", graph_b_name="b", content_prior=False,
            ),
        )
        u64, v64 = u.astype(np.float64), v.astype(np.float64)
        self.dense = u64 @ v64.T
        self.norm = self.factors.frobenius_norm(include_scale=False)
        eps = np.finfo(self.factors.dtype).eps
        # hypot does not underflow where the squares of tiny rows do.
        self.bound = (
            self.factors.width * eps
            * np.outer(np.hypot.reduce(u64, axis=1), np.hypot.reduce(v64, axis=1))
            / self.norm
        )
        positive = int(np.count_nonzero(self.dense > 0))
        cells = n_a * n_b
        self.ks = sorted({1, min(positive + 1, cells), cells, cells + 5})

    def pair_order(self, k: int) -> list[tuple[int, int]]:
        n_b = self.dense.shape[1]
        rows, cols = np.divmod(np.arange(self.dense.size), n_b)
        order = np.lexsort((cols, rows, -self.dense.ravel()))[:k]
        return list(zip(rows[order].tolist(), cols[order].tolist()))

    def row_order(self, node: int, k: int) -> list[int]:
        row = self.dense[node]
        return np.lexsort((np.arange(row.size), -row))[:k].tolist()

    def check_scores(self, pairs) -> None:
        for pair in pairs:
            a, b = pair.node_a, pair.node_b
            tol = self.bound[a, b]
            assert abs(pair.score - self.dense[a, b] / self.norm) <= tol
            assert abs(pair.score - float(self.index.query([a], [b])[0, 0])) <= tol


@pytest.fixture(params=sorted(CASES))
def case(request) -> Case:
    return Case(request.param)


def test_top_pairs_match_dense_oracle(case):
    for k in case.ks:
        expected = case.pair_order(k)
        for block_rows in (1, 3, 1024):
            got = case.index.top_pairs(k=k, block_rows=block_rows)
            assert [(p.node_a, p.node_b) for p in got] == expected
            case.check_scores(got)


def test_top_matches_match_dense_rows(case):
    n_a, n_b = case.factors.shape
    for k in (1, 3, n_b + 2):
        for node in range(n_a):
            got = case.index.top_matches(node, k=k)
            assert [p.node_b for p in got] == case.row_order(node, k)
            assert all(p.node_a == node for p in got)
            case.check_scores(got)


def test_top_k_for_queries_agree_with_top_matches(case, monkeypatch):
    monkeypatch.setattr(topk, "_factors_for", lambda *args, **kwargs: case.factors)
    n_a, n_b = case.factors.shape
    queries = list(range(n_a)) + [0]
    for k in (1, n_b + 2):
        for block_rows in (1, 4, 1024):
            got = topk.top_k_for_queries(
                None, None, queries, k=k, block_rows=block_rows
            )
            assert sorted(got) == list(range(n_a))
            for node, ranked in got.items():
                assert ranked == case.index.top_matches(node, k=k)
                assert [p.node_b for p in ranked] == case.row_order(node, k)


def test_query_blocks_match_dense_with_exact_zeros(case):
    n_a, n_b = case.factors.shape
    block = case.index.query(np.arange(n_a), np.arange(n_b))
    assert block.shape == (n_a, n_b)
    assert np.all(np.abs(block - case.dense / case.norm) <= case.bound)
    zero_a = ~np.any(case.factors.u, axis=1)
    zero_b = ~np.any(case.factors.v, axis=1)
    assert np.all(block[zero_a] == 0.0) and np.all(block[:, zero_b] == 0.0)
    rng = np.random.default_rng(0)
    rows = rng.integers(0, n_a, size=2 * n_a)  # shuffled, with repeats
    cols = rng.integers(0, n_b, size=2 * n_b)
    sub = case.index.query(rows, cols)
    assert np.all(
        np.abs(sub - case.dense[np.ix_(rows, cols)] / case.norm)
        <= case.bound[np.ix_(rows, cols)]
    )
    assert np.all(sub[zero_a[rows]] == 0.0) and np.all(sub[:, zero_b[cols]] == 0.0)


@pytest.mark.parametrize(
    "name, prunes", [("spread_norms", True), ("equal_norms", False)]
)
def test_rows_scanned_follow_the_norm_bounds(name, prunes):
    case = Case(name)
    n_a, n_b = case.factors.shape
    context = ExecutionContext(metrics=Metrics())
    case.index.top_pairs(k=3, block_rows=1, context=context)
    counters = context.metrics.snapshot()["counters"]
    if prunes:
        assert counters["topk.rows_scanned"] < n_a
        assert counters["topk.cells_scored"] < n_a * n_b
    else:
        assert counters["topk.rows_scanned"] == n_a
        assert counters["topk.cells_scored"] == n_a * n_b
