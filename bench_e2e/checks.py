"""Reference implementations and answer checks.

The timed run records a small digest of every answer (:class:`Answers`);
the checks here compare those digests with references computed by this
benchmark after timing ends, so reference data never inflates the peak
RSS or the latencies:

* :class:`Scorer` scores ``S = U V^T / ||U V^T||_F`` from factors the
  benchmark holds: the factors read straight from the saved ``.npz``, the
  benchmark's own scipy Algorithm 1 (:func:`algorithm1_factors`), or a
  dense Eq. (2) iterate (:func:`dense_eq2`, as ``U = S, V = I``);
* :func:`own_csr` builds CSR arrays from the generated edges, against
  which the mmap converter's arrays are compared.

Scores are compared within ``rtol * scale + atol``, where ``scale`` is the
Cauchy-Schwarz bound ``||u_i|| ||v_j|| / norm`` of the entry (or of the
sketch), so float near-ties cannot flip a verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from inputs import BLOCK, MATCH, PAIRS, PROBES_PER_BLOCK, BlockRequest, Requests

MATCH_K = 10
PAIRS_K = 100
# G_A rows per block of the brute-force pair scan.
_SCAN_ROWS = 2048


# ----------------------------------------------------------------------
# Graph references
# ----------------------------------------------------------------------
def own_csr(src: np.ndarray, dst: np.ndarray, n: int) -> sp.csr_matrix:
    """Canonical CSR (sorted, duplicates summed) of the edges ``src -> dst``."""
    order = np.lexsort((dst, src))
    rows = src[order].astype(np.int64)
    cols = dst[order].astype(np.int64)
    first = np.ones(rows.size, dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.flatnonzero(first)
    data = np.diff(np.append(starts, rows.size)).astype(np.float64)
    rows, cols = rows[starts], cols[starts]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return sp.csr_matrix((data, cols, indptr), shape=(n, n))


def csr_mismatch(matrix: sp.csr_matrix, reference: sp.csr_matrix) -> str | None:
    """Why two CSR matrices differ entry for entry, or ``None``."""
    if matrix.shape != reference.shape:
        return f"shape {matrix.shape} != {reference.shape}"
    for part in ("indptr", "indices", "data"):
        if not np.array_equal(getattr(matrix, part), getattr(reference, part)):
            return f"{part} differs"
    return None


def algorithm1_factors(
    a: sp.csr_matrix, b: sp.csr_matrix, iterations: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lines 3-5 of Algorithm 1: ``K`` exact doubling steps from all-ones.

    ``U <- [A U, A^T U]`` and ``V <- [B V, B^T V]``; each factor is divided
    by its largest entry per step, which leaves the normalised scores
    unchanged.
    """
    a_t, b_t = a.T.tocsr(), b.T.tocsr()
    u = np.ones((a.shape[0], 1))
    v = np.ones((b.shape[0], 1))
    for _ in range(iterations):
        u = np.hstack([a @ u, a_t @ u])
        v = np.hstack([b @ v, b_t @ v])
        u /= np.abs(u).max()
        v /= np.abs(v).max()
    return u, v


def dense_eq2(a: sp.csr_matrix, b: sp.csr_matrix, iterations: int) -> np.ndarray:
    """Eq. (2): ``Z <- A Z B^T + A^T Z B``, normalised, from all-ones."""
    z = np.ones((a.shape[0], b.shape[0]))
    a_t, b_t = a.T.tocsr(), b.T.tocsr()
    for _ in range(iterations):
        z = (b @ (a @ z).T).T + (b_t @ (a_t @ z).T).T
        z /= np.linalg.norm(z)
    return z


# ----------------------------------------------------------------------
# Scoring
# ----------------------------------------------------------------------
class Scorer:
    """Normalised scores of a factor pair held by the benchmark."""

    def __init__(self, u: np.ndarray, v: np.ndarray) -> None:
        self.u = np.asarray(u, dtype=np.float64)
        self.v = np.asarray(v, dtype=np.float64)
        gram = (self.u.T @ self.u) * (self.v.T @ self.v)
        self.norm = math.sqrt(max(float(gram.sum()), 0.0))
        self.u_norms = np.linalg.norm(self.u, axis=1)
        self.v_norms = np.linalg.norm(self.v, axis=1)
        self._top_pairs: dict[int, tuple[np.ndarray, ...]] = {}

    @classmethod
    def dense(cls, s: np.ndarray) -> "Scorer":
        """A dense score matrix as the factor pair ``(S, I)``."""
        return cls(s, np.eye(s.shape[1]))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.u.shape[0], self.v.shape[0])

    def entries(self, rows, cols) -> tuple[np.ndarray, np.ndarray]:
        """Scores of the cells ``(rows[t], cols[t])`` and their scales."""
        values = np.einsum("ij,ij->i", self.u[rows], self.v[cols]) / self.norm
        return values, self.u_norms[rows] * self.v_norms[cols] / self.norm

    def sketch(self, request: BlockRequest) -> tuple[float, float]:
        """``w_r^T S[rows, cols] w_c`` in factored form, and its scale."""
        left = request.weights_rows @ self.u[request.rows]
        right = request.weights_cols @ self.v[request.cols]
        scale = float(np.linalg.norm(left) * np.linalg.norm(right)) / self.norm
        return float(left @ right) / self.norm, scale

    def row(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """Scores of one G_A node against every G_B node, and their scales."""
        values = self.v @ self.u[node] / self.norm
        return values, self.u_norms[node] * self.v_norms / self.norm

    def top_pairs(self, k: int) -> tuple[np.ndarray, ...]:
        """Brute-force best ``k`` cells by ``(-score, row, col)``.

        Rows are scanned in ascending blocks; a cell that only ties the
        running k-th score can never beat a kept cell on the tie-break,
        so ``>=`` against the threshold keeps every cell that matters.
        The result is kept: a traced run checks two passes' answers
        against one reference.
        """
        if k not in self._top_pairs:
            self._top_pairs[k] = self._scan_top_pairs(k)
        return self._top_pairs[k]

    def _scan_top_pairs(self, k: int) -> tuple[np.ndarray, ...]:
        n_a, n_b = self.shape
        k = min(k, n_a * n_b)
        scores = np.empty(0)
        rows = np.empty(0, dtype=np.int64)
        cols = np.empty(0, dtype=np.int64)
        threshold = -np.inf
        v_t = np.ascontiguousarray(self.v.T)
        for start in range(0, n_a, _SCAN_ROWS):
            flat = (self.u[start : start + _SCAN_ROWS] @ v_t).ravel()
            keep = np.flatnonzero(flat >= threshold)
            if keep.size > k:
                kth = -np.partition(-flat[keep], k - 1)[k - 1]
                keep = keep[flat[keep] >= kth]
            scores = np.concatenate([scores, flat[keep]])
            rows = np.concatenate([rows, start + keep // n_b])
            cols = np.concatenate([cols, keep % n_b])
            best = np.lexsort((cols, rows, -scores))[:k]
            scores, rows, cols = scores[best], rows[best], cols[best]
            if scores.size == k:
                threshold = scores[-1]
        return scores / self.norm, rows, cols

    def top_scale(self) -> float:
        """The largest entry scale: a tolerance unit for ranked lists."""
        return float(self.u_norms.max() * self.v_norms.max()) / self.norm


# ----------------------------------------------------------------------
# Digests (taken during the timed run) and their checks
# ----------------------------------------------------------------------
@dataclass
class Tolerance:
    """Allowed score error ``rtol * scale + atol``.

    The default ``atol`` floor (on unit-Frobenius scores) absorbs the
    ~1e-17 residue a QR-compressed representation leaves where the exact
    score is 0, e.g. on isolated nodes.
    """

    rtol: float = 1e-9
    atol: float = 1e-12

    def bound(self, scale) -> np.ndarray:
        return self.rtol * np.asarray(scale) + self.atol


class Answers:
    """Digests of one timed run's answers, in preallocated arrays.

    A block is kept as its shape, a weighted sketch ``w_r^T B w_c`` and a
    few verbatim entries; a ranked list (``match``, ``pairs``) is kept
    whole.  Per-request Python objects held for the whole run would feed
    the cyclic garbage collector, whose pauses then land on later
    requests; preallocated arrays do not.
    """

    def __init__(self, requests: Requests) -> None:
        counts = requests.counts()
        self.latency = {kind: np.full(count, np.nan) for kind, count in counts.items()}
        blocks = counts[BLOCK]
        self.block_shape = np.zeros((blocks, 2), dtype=np.int64)
        self.block_sketch = np.zeros(blocks)
        self.block_probes = np.zeros((blocks, PROBES_PER_BLOCK))
        # One slot beyond k, so an over-long answer is seen as one.
        self.ranked = {
            kind: (
                np.full((counts[kind], k + 1), -1, dtype=np.int64),
                np.full((counts[kind], k + 1), -1, dtype=np.int64),
                np.zeros((counts[kind], k + 1)),
                np.zeros(counts[kind], dtype=np.int64),
            )
            for kind, k in ((MATCH, MATCH_K), (PAIRS, PAIRS_K))
        }
        self.errors: dict[tuple[str, int], str] = {}

    def record_block(self, i: int, block: np.ndarray, request: BlockRequest) -> None:
        self.block_shape[i] = block.shape
        self.block_sketch[i] = request.weights_rows @ (block @ request.weights_cols)
        self.block_probes[i] = block[request.probe_i, request.probe_j]

    def record_ranked(self, kind: str, i: int, pairs) -> None:
        nodes_a, nodes_b, scores, lengths = self.ranked[kind]
        lengths[i] = n = min(len(pairs), nodes_a.shape[1])
        for j in range(n):
            pair = pairs[j]
            nodes_a[i, j], nodes_b[i, j], scores[i, j] = pair.node_a, pair.node_b, pair.score

    def issued(self, kind: str) -> np.ndarray:
        return np.flatnonzero(~np.isnan(self.latency[kind]))

    def latencies(self, kind: str) -> np.ndarray:
        return self.latency[kind][self.issued(kind)]

    def unissued(self) -> list[tuple[str, int]]:
        """Requests the run never issued (it reached its time cap)."""
        return [(kind, int(i)) for kind, times in self.latency.items()
                for i in np.flatnonzero(np.isnan(times))]

    def digest(self, kind: str, i: int) -> tuple:
        if kind == BLOCK:
            return self.block_shape[i], self.block_sketch[i], self.block_probes[i]
        nodes_a, nodes_b, scores, lengths = self.ranked[kind]
        n = lengths[i]
        return nodes_a[i, :n], nodes_b[i, :n], scores[i, :n]


def check_block(digest, request: BlockRequest, ref: Scorer, tol: Tolerance) -> str | None:
    shape, sketch, probes = digest
    if tuple(shape) != (request.rows.size, request.cols.size):
        return f"block shape {shape}"
    expected, scale = ref.sketch(request)
    allowed = tol.rtol * scale + tol.atol * float(
        np.linalg.norm(request.weights_rows) * np.linalg.norm(request.weights_cols)
    )
    if not abs(sketch - expected) <= allowed:
        return f"block sketch {sketch!r} != {expected!r}"
    values, scales = ref.entries(
        request.rows[request.probe_i], request.cols[request.probe_j]
    )
    if not np.all(np.abs(probes - values) <= tol.bound(scales)):
        return "block entries differ"
    return None


def _check_ranked(got_scores, ref_at, ref_at_scale, ref_top, top_tol, tol) -> str | None:
    if not np.all(np.abs(got_scores - ref_at) <= tol.bound(ref_at_scale)):
        return "reported scores differ from the reference"
    if not np.all(np.abs(np.sort(ref_at)[::-1] - ref_top) <= top_tol):
        return "not the top-scoring set"
    if np.any(np.diff(got_scores) > top_tol):
        return "not in descending score order"
    return None


def check_match(digest, node: int, ref: Scorer, tol: Tolerance) -> str | None:
    nodes_a, nodes_b, scores = digest
    k = min(MATCH_K, ref.shape[1])
    if nodes_b.size != k or np.unique(nodes_b).size != k:
        return f"match returned {np.unique(nodes_b).size} distinct of {nodes_b.size} nodes, want {k}"
    if np.any(nodes_a != node) or nodes_b.min() < 0 or nodes_b.max() >= ref.shape[1]:
        return "match returned foreign nodes"
    row, scale = ref.row(node)
    top = -np.partition(-row, k - 1)[:k] if k < row.size else row.copy()
    top = np.sort(top)[::-1]
    top_tol = tol.bound(scale.max())
    return _check_ranked(scores, row[nodes_b], scale[nodes_b], top, top_tol, tol)


def check_pairs(digest, ref: Scorer, ref_top, tol: Tolerance) -> str | None:
    nodes_a, nodes_b, scores = digest
    top_scores = ref_top[0]
    if nodes_a.size != top_scores.size:
        return f"pairs returned {nodes_a.size}, want {top_scores.size}"
    if np.unique(nodes_a * ref.shape[1] + nodes_b).size != nodes_a.size:
        return "pairs repeated"
    values, scales = ref.entries(nodes_a, nodes_b)
    return _check_ranked(
        scores, values, scales, top_scores, tol.bound(ref.top_scale()), tol
    )


def check_answers(answers: Answers, requests: Requests, ref: Scorer,
                  tol: Tolerance) -> list[str]:
    """Check every issued request's answer; return one message per failure."""
    failures = [
        f"{kind}[{i}] raised {message}" for (kind, i), message in answers.errors.items()
    ]
    ref_top = ref.top_pairs(PAIRS_K) if answers.issued(PAIRS).size else None
    for kind in (BLOCK, MATCH, PAIRS):
        for i in answers.issued(kind):
            if (kind, i) in answers.errors:
                continue
            digest = answers.digest(kind, i)
            if kind == BLOCK:
                problem = check_block(digest, requests.blocks[i], ref, tol)
            elif kind == MATCH:
                problem = check_match(digest, int(requests.match_nodes[i]), ref, tol)
            else:
                problem = check_pairs(digest, ref, ref_top, tol)
            if problem is not None:
                failures.append(f"{kind}[{i}]: {problem}")
    return failures
