"""Factor recompression and the precision policy.

Covers the first-class ``LowRankFactors`` representation end to end:

* the rank-bounded recompression step (TSQR R factors + small SVD +
  tail-energy truncation), its relative-error contract against a dense
  SVD oracle, exact zero rows and the zero-matrix contract,
* the TSQR's fixed reduction tree: bit-identical R at every worker count,
  ``R^T R = F^T F`` to rounding, empty chunks and short or float32 factors,
* the default cut of index builds at the numerical rank against dense
  Eq. (2),
* the precision policy (float64 exact default, opt-in float32) and
  float32-vs-float64 parity on the paper's worked example,
* width bounded by numerical rank instead of the ``2^k`` doubling
  schedule on the bench graphs,
* recompressed-vs-exact error staying under the Theorem 4.2 bound,
* dtype + truncation metadata round-tripping through ``GSimIndex``
  (with the pre-v3 float64 compatibility path),
* memory-ledger charging (traced peak within the charge) and metrics
  for recompression steps.
"""

import sys

import numpy as np
import pytest

from repro.baselines.gsim import gsim
from repro.core import LowRankFactors, TruncationInfo, error_bound
from repro.core.embeddings import _tsqr_r
from repro.core.gsim_plus import (
    DEFAULT_RECOMPRESS_TOL,
    NUMERICAL_RANK_TOL,
    GSimPlus,
    gsim_plus,
)
from repro.core.topk import top_k_pairs
from repro.graphs import Graph, erdos_renyi_graph, load_dataset_pair
from repro.retrieval import GSimIndex
from repro.runtime import ExecutionContext, Metrics, WorkerPool
from repro.utils.memory import MemoryTracker

pytestmark = pytest.mark.recompress

# The paper's Example 3.2 factor rows (see test_paper_example.py).
U2_QA = np.array(
    [
        [7.0, 8.0, 2.0, 1.0],
        [10.0, 15.0, 11.0, 13.0],
        [10.0, 11.0, 14.0, 14.0],
        [10.0, 13.0, 10.0, 13.0],
    ]
)
V2_QB = np.array(
    [
        [10.0, 11.0, 9.0, 10.0],
        [10.0, 9.0, 11.0, 10.0],
        [10.0, 10.0, 10.0, 10.0],
    ]
)


def _dense(factors: LowRankFactors) -> np.ndarray:
    return factors.scale * (
        np.asarray(factors.u, dtype=np.float64)
        @ np.asarray(factors.v, dtype=np.float64).T
    )


# ----------------------------------------------------------------------
# The representation: dtype policy, accessors, truncation metadata
# ----------------------------------------------------------------------
class TestPrecisionPolicy:
    def test_default_promotes_to_float64(self):
        factors = LowRankFactors([[1, 2]], [[3, 4]])
        assert factors.dtype == np.float64
        assert factors.precision == "float64"

    def test_matching_float32_is_preserved(self):
        u = np.ones((4, 2), dtype=np.float32)
        v = np.ones((3, 2), dtype=np.float32)
        factors = LowRankFactors(u, v)
        assert factors.dtype == np.float32
        assert factors.precision == "float32"

    def test_explicit_dtype_wins(self):
        factors = LowRankFactors(
            np.ones((4, 2)), np.ones((3, 2)), dtype=np.float32
        )
        assert factors.dtype == np.float32

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ValueError, match="float32 and float64"):
            LowRankFactors(np.ones((2, 1)), np.ones((2, 1)), dtype=np.float16)

    def test_astype_round_trip(self):
        factors = LowRankFactors(U2_QA, V2_QB, log_scale=0.5)
        as32 = factors.astype(np.float32)
        back = as32.astype(np.float64)
        assert as32.dtype == np.float32
        assert back.dtype == np.float64
        assert back.log_scale == factors.log_scale

    def test_nbytes_and_width(self):
        factors = LowRankFactors(U2_QA, V2_QB)
        assert factors.width == 4
        assert factors.nbytes == U2_QA.nbytes + V2_QB.nbytes
        assert factors.astype(np.float32).nbytes == factors.nbytes // 2

    def test_paper_example_float32_parity(self):
        exact = LowRankFactors(U2_QA, V2_QB)
        half = LowRankFactors(U2_QA, V2_QB, dtype=np.float32)
        block64 = exact.query_block([0, 1, 2, 3], [0, 1, 2])
        block32 = half.query_block([0, 1, 2, 3], [0, 1, 2])
        # The documented float32 contract: ~1e-7 relative error.
        np.testing.assert_allclose(block32, block64, rtol=1e-6)
        assert half.frobenius_norm() == pytest.approx(
            exact.frobenius_norm(), rel=1e-6
        )


class TestTruncationInfo:
    def test_dict_round_trip(self):
        info = TruncationInfo(
            retained_rank=7, discarded_rank=9,
            discarded_energy=1.5e-9, tolerance=1e-8,
        )
        assert TruncationInfo.from_dict(info.to_dict()) == info


# ----------------------------------------------------------------------
# The recompression step
# ----------------------------------------------------------------------
class TestRecompressed:
    def _rank3_factors(self, width=16, seed=0):
        rng = np.random.default_rng(seed)
        basis_u = rng.standard_normal((40, 3))
        basis_v = rng.standard_normal((30, 3))
        mix = rng.standard_normal((3, width))
        return LowRankFactors(basis_u @ mix, basis_v @ mix)

    def test_recovers_numerical_rank(self):
        factors = self._rank3_factors()
        compressed = factors.recompressed(1e-8)
        assert compressed.width == 3
        assert compressed.truncation.retained_rank == 3
        assert compressed.truncation.discarded_rank == 13
        np.testing.assert_allclose(
            _dense(compressed), _dense(factors), atol=1e-10
        )

    @pytest.mark.parametrize("tol", [1e-10, 1e-6, 1e-3, 1e-1])
    def test_relative_error_within_tolerance(self, tol, rng):
        u = rng.standard_normal((25, 12))
        v = rng.standard_normal((20, 12))
        factors = LowRankFactors(u, v)
        compressed = factors.recompressed(tol)
        z = _dense(factors)
        error = np.linalg.norm(z - _dense(compressed)) / np.linalg.norm(z)
        assert error <= tol * (1 + 1e-12)
        assert compressed.truncation.tolerance == tol
        assert compressed.truncation.discarded_energy <= tol * (1 + 1e-12)

    def test_max_rank_caps_width(self):
        factors = self._rank3_factors()
        assert factors.recompressed(1e-12, max_rank=2).width == 2

    def test_invalid_tolerance_rejected(self):
        factors = self._rank3_factors()
        for bad in (0.0, -1e-3, 1.0, 2.0):
            with pytest.raises(ValueError, match="tol"):
                factors.recompressed(bad)

    def test_float32_recompression_stays_float32(self):
        compressed = self._rank3_factors().astype(np.float32).recompressed(1e-5)
        assert compressed.dtype == np.float32
        assert compressed.width == 3

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_zero_rows_stay_exactly_zero(self, dtype):
        # Zero rows among the first w rows too: an explicit thin Q has
        # rounding residues there.
        factors = self._rank3_factors(width=16).astype(dtype)
        zero_u = [0, 2, 5, 15, 30]
        zero_v = [1, 3, 14, 29]
        factors.u[zero_u] = 0.0
        factors.v[zero_v] = 0.0
        compressed = factors.recompressed(1e-6)
        assert compressed.dtype == dtype
        assert compressed.width == 3
        assert not compressed.u[zero_u].any()
        assert not compressed.v[zero_v].any()
        live_u = np.setdiff1d(np.arange(factors.shape[0]), zero_u)
        assert compressed.u[live_u].any(axis=1).all()
        np.testing.assert_allclose(
            _dense(compressed), _dense(factors),
            atol=1e-4 * np.abs(_dense(factors)).max(),
        )

    @pytest.mark.parametrize(
        "u, v",
        [
            (np.zeros((6, 4)), np.ones((5, 4))),
            (np.ones((6, 4)), np.zeros((5, 4))),
            # Non-zero factors whose product is zero.
            (np.array([[1.0, 0.0]] * 3), np.array([[0.0, 2.0]] * 2)),
        ],
    )
    def test_zero_matrix_gives_rank1_zero_pair(self, u, v):
        compressed = LowRankFactors(u, v, log_scale=0.25).recompressed(1e-8)
        assert compressed.u.shape == (u.shape[0], 1)
        assert compressed.v.shape == (v.shape[0], 1)
        assert not compressed.u.any() and not compressed.v.any()
        assert compressed.log_scale == 0.25
        assert compressed.truncation == TruncationInfo(
            retained_rank=1, discarded_rank=u.shape[1] - 1,
            discarded_energy=0.0, tolerance=1e-8,
        )

    def test_fewer_nonzero_rows_than_columns(self, rng):
        u = np.zeros((30, 8))
        u[[4, 11, 27]] = rng.standard_normal((3, 8))
        v = rng.standard_normal((20, 8))
        factors = LowRankFactors(u, v)
        compressed = factors.recompressed(1e-10)
        assert compressed.width == 3
        assert compressed.truncation.discarded_rank == 5
        assert np.array_equal(
            np.flatnonzero(compressed.u.any(axis=1)), [4, 11, 27]
        )
        z = _dense(factors)
        error = np.linalg.norm(z - _dense(compressed))
        assert error <= 1e-12 * np.linalg.norm(z)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("tol", [1e-1, 1e-4, 1e-7])
    def test_rank_and_error_match_dense_svd_oracle(self, seed, tol):
        # Z = X diag(s) Y^T through redundant width-w factors, with
        # singular values ~10^-1.5 apart so no tail sits near a cut.
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(1, 8))
        width = int(rng.integers(rank, 17))
        n_a = int(rng.integers(rank, 50)) + 3
        n_b = int(rng.integers(rank, 40)) + 3
        sigma = 10.0 ** (-1.5 * np.arange(rank)) * rng.uniform(1, 1.5, rank)
        mix = np.linalg.qr(rng.standard_normal((width, rank)))[0]
        x = np.zeros((n_a, rank))
        x[3:] = np.linalg.qr(rng.standard_normal((n_a - 3, rank)))[0]
        y = np.zeros((n_b, rank))
        y[3:] = np.linalg.qr(rng.standard_normal((n_b - 3, rank)))[0]
        factors = LowRankFactors((x * sigma) @ mix.T, y @ mix.T)
        z = _dense(factors)
        s2 = np.linalg.svd(z, compute_uv=False) ** 2
        tail = np.append(np.cumsum(s2[::-1])[::-1], 0.0)
        oracle_rank = int(np.argmax(tail <= tol**2 * s2.sum()))
        compressed = factors.recompressed(tol)
        assert compressed.width == oracle_rank
        assert np.linalg.norm(z - _dense(compressed)) <= tol * np.linalg.norm(z)


# ----------------------------------------------------------------------
# The TSQR: a fixed reduction tree on a worker pool
# ----------------------------------------------------------------------
def _small_chunks(monkeypatch, rows=64):
    """Cut the TSQR into ``rows``-row chunks, so a test-sized factor
    reduces through more than one tree level."""
    module = sys.modules[LowRankFactors.__module__]
    monkeypatch.setattr(module, "_TSQR_CHUNK_ROWS", rows)


def _gram_error(r, factor):
    """``max |R^T R - F^T F|`` over ``w eps ||F||_F^2``."""
    wide = np.asarray(factor, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    eps = np.finfo(factor.dtype).eps
    scale = factor.shape[1] * eps * float(np.sum(wide * wide))
    return float(np.abs(r.T @ r - wide.T @ wide).max()) / scale


class TestTSQR:
    @staticmethod
    def _factor(dtype=np.float64, seed=3):
        rng = np.random.default_rng(seed)
        factor = rng.standard_normal((2000, 8)).astype(dtype)
        factor[rng.random(2000) < 0.3] = 0.0
        factor[64:128] = 0.0  # one whole chunk of zero rows
        return factor

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_r_identical_at_every_worker_count(self, monkeypatch, dtype):
        _small_chunks(monkeypatch)
        factor = self._factor(dtype)
        serial = _tsqr_r(factor, WorkerPool(1))
        assert serial.dtype == dtype and serial.shape == (8, 8)
        for workers in (2, 3):
            assert np.array_equal(_tsqr_r(factor, WorkerPool(workers)), serial)

    @pytest.mark.parametrize("chunk_rows", [64, 4096])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gram_matches_factor(self, monkeypatch, chunk_rows, dtype):
        _small_chunks(monkeypatch, chunk_rows)
        factor = self._factor(dtype)
        assert _gram_error(_tsqr_r(factor, WorkerPool(2)), factor) <= 1.0

    def test_zero_chunk_and_zero_factor(self, monkeypatch):
        _small_chunks(monkeypatch)
        factor = self._factor()
        assert not factor[64:128].any()
        assert _gram_error(_tsqr_r(factor, WorkerPool(2)), factor) <= 1.0
        empty = _tsqr_r(np.zeros((300, 5)), WorkerPool(2))
        assert empty.shape == (0, 5)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_fewer_nonzero_rows_than_columns(self, monkeypatch, dtype, rng):
        _small_chunks(monkeypatch)
        factor = np.zeros((500, 8), dtype=dtype)
        factor[[3, 200, 499]] = rng.standard_normal((3, 8))
        r = _tsqr_r(factor, WorkerPool(3))
        assert r.shape == (3, 8) and r.dtype == dtype
        assert _gram_error(r, factor) <= 1.0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_recompressed_identical_at_every_worker_count(self, monkeypatch, dtype):
        _small_chunks(monkeypatch)
        rng = np.random.default_rng(8)
        mix = rng.standard_normal((5, 12))
        u = rng.standard_normal((1500, 5)) @ mix
        u[rng.random(1500) < 0.4] = 0.0
        v = rng.standard_normal((700, 5)) @ mix
        factors = LowRankFactors(u, v, log_scale=0.5).astype(dtype)
        serial = factors.recompressed(1e-6, max_workers=1)
        assert serial.width == 5 and serial.dtype == dtype
        for workers in (2, 3):
            other = factors.recompressed(1e-6, max_workers=WorkerPool(workers))
            assert np.array_equal(other.u, serial.u)
            assert np.array_equal(other.v, serial.v)
            assert other.truncation == serial.truncation


# ----------------------------------------------------------------------
# The default of index builds: the cut at the numerical rank
# ----------------------------------------------------------------------
def _isolated_pair():
    # Nodes 9-11 of G_A and 5-6 of G_B have no edges: zero factor rows.
    graph_a = Graph.from_edges(
        12, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
             (7, 8), (8, 0), (4, 1)]
    )
    graph_b = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])
    return graph_a, graph_b, 8


def _single_node_pair():
    # n_B = 1: the cut keeps one column however wide the step grows.
    return erdos_renyi_graph(20, 60, seed=5), Graph.from_edges(1, [(0, 0)]), 7


def _deep_pair():
    # 2^K = 64 passes min(n_A, n_B) = 9.
    graph_a = erdos_renyi_graph(30, 100, seed=6)
    graph_b = erdos_renyi_graph(9, 25, seed=7)
    return graph_a, graph_b, 6


@pytest.mark.parametrize(
    "make_pair", [_isolated_pair, _single_node_pair, _deep_pair],
    ids=["isolated", "n_b_1", "deep"],
)
class TestNumericalRankCut:
    def test_index_matches_dense_eq2(self, make_pair):
        graph_a, graph_b, iterations = make_pair()
        dense = gsim(graph_a, graph_b, iterations=iterations).similarity
        index = GSimIndex.build(graph_a, graph_b, iterations=iterations)
        n_a, n_b = dense.shape
        assert index.factors.width <= min(n_a, n_b)
        assert index.metadata.recompress_tol == NUMERICAL_RANK_TOL
        full = index.query(np.arange(n_a), np.arange(n_b))
        error = np.linalg.norm(full - dense) / np.linalg.norm(dense)
        assert error <= iterations * NUMERICAL_RANK_TOL, error

    def test_top_k_pairs_match_dense_eq2(self, make_pair):
        graph_a, graph_b, iterations = make_pair()
        dense = gsim(graph_a, graph_b, iterations=iterations).similarity
        k = min(10, dense.size)
        pairs = top_k_pairs(graph_a, graph_b, k=k, iterations=iterations)
        bound = iterations * NUMERICAL_RANK_TOL
        scores = np.array([pair.score for pair in pairs])
        cells = dense[[p.node_a for p in pairs], [p.node_b for p in pairs]]
        assert np.abs(scores - cells).max() <= bound
        best = np.sort(dense, axis=None)[::-1][:k]
        assert np.abs(scores - best).max() <= bound


# ----------------------------------------------------------------------
# The solver: width bounding, accuracy, parity, metrics
# ----------------------------------------------------------------------
class TestSolverRecompression:
    def test_width_bounded_by_numerical_rank_on_bench_graphs(self):
        # Acceptance criterion: after >= 6 iterations at the default
        # tolerance, width stays strictly below the 2^k schedule.
        graph_a, graph_b = load_dataset_pair("HP", scale="tiny", seed=7)
        iterations = 6
        exact = gsim_plus(
            graph_a, graph_b, iterations=iterations, rank_cap="none"
        )
        compressed = gsim_plus(
            graph_a, graph_b, iterations=iterations, rank_cap="none",
            recompress_tol=DEFAULT_RECOMPRESS_TOL,
        )
        assert compressed.final_width < 2**iterations
        assert compressed.final_width < exact.final_width
        assert compressed.truncation is not None
        np.testing.assert_allclose(
            compressed.similarity, exact.similarity, atol=1e-8
        )

    @pytest.mark.parametrize("tol", [1e-10, 1e-8, 1e-6])
    def test_error_within_theorem_bound(self, tol, random_pair):
        graph_a, graph_b = random_pair
        iterations = 6  # Theorem 4.2 needs an even count
        bound = error_bound(graph_a, graph_b, iterations)
        exact = gsim_plus(graph_a, graph_b, iterations=iterations)
        compressed = gsim_plus(
            graph_a, graph_b, iterations=iterations, recompress_tol=tol
        )
        max_error = float(
            np.abs(compressed.similarity - exact.similarity).max()
        )
        assert max_error <= max(bound, iterations * tol)

    def test_default_path_identical_with_recompression_off(self, random_pair):
        graph_a, graph_b = random_pair
        plain = gsim_plus(graph_a, graph_b, iterations=5)
        explicit = gsim_plus(
            graph_a, graph_b, iterations=5,
            recompress_tol=None, precision="float64",
        )
        assert np.array_equal(plain.similarity, explicit.similarity)
        assert plain.truncation is None
        assert plain.precision == "float64"

    def test_float32_solver_parity(self, random_pair):
        graph_a, graph_b = random_pair
        exact = gsim_plus(graph_a, graph_b, iterations=5)
        half = gsim_plus(graph_a, graph_b, iterations=5, precision="float32")
        assert half.precision == "float32"
        assert half.similarity.dtype == np.float32
        np.testing.assert_allclose(
            half.similarity.astype(np.float64), exact.similarity, atol=1e-5
        )

    def test_invalid_precision_rejected(self, random_pair):
        graph_a, graph_b = random_pair
        with pytest.raises(ValueError, match="precision"):
            GSimPlus(graph_a, graph_b, precision="float16")

    def test_recompression_metrics_and_ledger(self, random_pair):
        from repro.experiments.guards import MemoryBudget

        graph_a, graph_b = random_pair
        metrics = Metrics()
        context = ExecutionContext(
            metrics=metrics, memory=MemoryBudget().ledger()
        )
        gsim_plus(
            graph_a, graph_b, iterations=5,
            recompress_tol=1e-8, context=context,
        )
        tree = metrics.snapshot()
        assert tree["counters"]["gsim_plus.recompressions"] >= 1
        assert context.memory.peak_bytes > 0

    def test_recompress_peak_memory_within_charge(self):
        """One recompression holds no more than the ledger charge it
        takes before allocating: with a pool, one gathered chunk and its
        LAPACK copy per worker (a one-chunk factor holds one whatever the
        pool), and the stacked chunk R's."""
        from repro.experiments.guards import MemoryBudget

        graph_b = erdos_renyi_graph(3000, 6000, seed=24)
        for n_a, workers in ((20000, 1), (20000, 2), (4000, 4)):
            graph_a = erdos_renyi_graph(n_a, 2 * n_a, seed=23)
            solver = GSimPlus(
                graph_a, graph_b, recompress_tol=1e-8, max_workers=workers
            )
            factors = LowRankFactors.ones(solver.n_a, solver.n_b)
            for _ in range(5):
                factors = solver._step_factors(factors)
            assert factors.width == 32
            assert not factors.u.any(axis=1).all()  # isolated: zero rows
            if n_a <= 4096:  # one chunk per factor
                assert factors.recompression_bytes(workers=workers) == (
                    factors.recompression_bytes(workers=1)
                )
            context = ExecutionContext(memory=MemoryBudget().ledger())
            with MemoryTracker() as tracker:
                compact = solver._recompress(factors, 5, context)
            charge = context.memory.peak_bytes
            assert tracker.peak_bytes <= charge, (workers, tracker.peak_bytes / charge)
            assert charge == max(
                factors.recompression_bytes(workers=workers),
                factors.recompression_bytes(compact.width),
            )
            # The TSQR phase alone, against its own charge.
            pool = WorkerPool(workers)
            with MemoryTracker() as tsqr:
                r_u, r_v = _tsqr_r(factors.u, pool), _tsqr_r(factors.v, pool)
                np.linalg.svd(r_u @ r_v.T)
            tsqr_charge = factors.recompression_bytes(workers=workers)
            assert tsqr.peak_bytes <= tsqr_charge, (workers, tsqr.peak_bytes / tsqr_charge)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_recompress_charge_follows_retained_rank(self, dtype):
        """A call that halves the width is charged its output pair at the
        retained rank, not at the input width: at least its traced peak
        and within 1.25x of it."""
        from repro.experiments.guards import MemoryBudget

        rng = np.random.default_rng(17)
        u = rng.normal(size=(262_026, 22)) @ rng.normal(size=(22, 44))
        v = rng.normal(size=(9_930, 22)) @ rng.normal(size=(22, 44))
        u[rng.random(u.shape[0]) < 0.3] = 0.0  # zero rows, as on ``mmap``
        factors = LowRankFactors(u.astype(dtype), v.astype(dtype))
        del u, v
        context = ExecutionContext(memory=MemoryBudget().ledger())
        with MemoryTracker() as tracker:
            compact = factors.recompressed(1e-8, context=context)
        assert compact.width == 22
        charge = context.memory.peak_bytes
        assert tracker.peak_bytes <= charge <= 1.25 * tracker.peak_bytes, (
            charge / tracker.peak_bytes
        )
        assert context.memory.held_bytes == 0


# ----------------------------------------------------------------------
# Artifacts: the index
# ----------------------------------------------------------------------
class TestArtifactRoundTrips:
    @staticmethod
    def _compressed_index(random_pair):
        graph_a, graph_b = random_pair
        return GSimIndex.build(
            graph_a, graph_b, iterations=5,
            recompress_tol=1e-6, precision="float32",
        )

    def test_save_load_preserves_dtype_and_truncation(
        self, tmp_path, random_pair
    ):
        index = self._compressed_index(random_pair)
        path = tmp_path / "index.npz"
        index.save(path)
        loaded = GSimIndex.load(path).factors
        factors = index.factors
        assert loaded.dtype == np.float32
        assert loaded.truncation == factors.truncation
        np.testing.assert_array_equal(loaded.u, factors.u)
        np.testing.assert_array_equal(loaded.v, factors.v)
        # float32 on disk must not balloon back to float64 sizes.
        assert loaded.nbytes == factors.nbytes

    def test_index_round_trip_preserves_precision(self, tmp_path, random_pair):
        index = self._compressed_index(random_pair)
        path = tmp_path / "index.npz"
        index.save(path)
        loaded = GSimIndex.load(path)
        assert loaded.metadata.precision == "float32"
        assert loaded.metadata.recompress_tol == 1e-6
        assert loaded.metadata.truncation is not None
        assert loaded.factors.nbytes == index.factors.nbytes
        queries = ([0, 1, 2], [0, 1])
        np.testing.assert_array_equal(
            loaded.query(*queries), index.query(*queries)
        )

    def test_pre_v3_index_loads_as_float64(self, tmp_path, random_pair):
        # Indexes written before the precision policy carry no ``dtype``
        # entry and no precision fields; they must keep loading.
        import json
        from dataclasses import asdict

        from repro.runtime.resilience import content_checksum

        index = GSimIndex.build(*random_pair, iterations=4)
        raw = asdict(index.metadata)
        for name in ("precision", "recompress_tol", "truncation"):
            del raw[name]
        raw["metadata_version"] = 2
        content = {
            "u": index.factors.u,
            "v": index.factors.v,
            "log_scale": np.float64(index.factors.log_scale),
            "metadata_json": json.dumps(raw),
        }
        path = tmp_path / "legacy.npz"
        np.savez_compressed(
            path, **content, checksum=np.str_(content_checksum(content))
        )
        loaded = GSimIndex.load(path)
        assert loaded.factors.dtype == np.float64
        assert loaded.factors.truncation is None
        assert loaded.metadata.precision == "float64"
        np.testing.assert_array_equal(loaded.factors.u, index.factors.u)
        queries = ([0, 1, 2], [0, 1])
        np.testing.assert_array_equal(
            loaded.query(*queries), index.query(*queries)
        )

    def test_index_build_records_default_policy(self, random_pair):
        graph_a, graph_b = random_pair
        index = GSimIndex.build(graph_a, graph_b, iterations=4)
        assert index.metadata.precision == "float64"
        assert index.metadata.recompress_tol == NUMERICAL_RANK_TOL == 1e-12
        info = TruncationInfo.from_dict(index.metadata.truncation)
        assert info == index.factors.truncation
        assert info.tolerance == 1e-12
        assert info.retained_rank == index.factors.width
        cap = min(graph_a.num_nodes, graph_b.num_nodes)
        assert info.retained_rank <= cap
        assert info.retained_rank + info.discarded_rank <= 2 * cap
        assert 0.0 <= info.discarded_energy <= 1e-12
