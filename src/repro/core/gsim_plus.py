"""GSim+ — Algorithm 1 of the paper.

The iteration maintains the exact low-embeddings of the unnormalised
similarity ``Z_k`` (Theorem 3.1)::

    U_k = [A U_{k-1} | A^T U_{k-1}]     U_0 = 1_{n_A}
    V_k = [B V_{k-1} | B^T V_{k-1}]     V_0 = 1_{n_B}
    S_k = U_k V_k^T / ||U_k V_k^T||_F

so the factor width doubles each iteration (1, 2, 4, ..., 2^K) and the cost
per iteration is two sparse-times-slender products per graph.

Rank-cap hybrid
---------------
Once the doubled width would exceed ``min(n_A, n_B)`` the low-dimensional
representation stops paying for itself; the paper (§5.2.1, point 6) states
GSim+ then "reduces to the traditional GSim without dimensionality
reduction" so its cost never exceeds GSim's.  Two behaviours are offered:

* ``"dense"`` (paper's description, the default): materialise ``Z`` and
  continue with normalised dense updates.
* ``"none"``: let the width keep doubling (exact but wasteful; exists so
  tests can check the dense fallback against it).  With recompression on,
  the width stays at the numerical rank instead: the mode of index builds.

Recompression and precision
---------------------------
Most of the doubled width carries negligible spectral energy, so with
``recompress_tol`` set the solver cuts the factors *between* doubling
steps at their numerical rank
(:meth:`repro.core.embeddings.LowRankFactors.recompressed`).
Per-iteration truncation at tolerance ``tol`` perturbs the final
normalised similarity by at most ~``K * tol`` (first order), which the
default :data:`DEFAULT_RECOMPRESS_TOL` keeps far below the Theorem 4.2
spectral bound.  The retained rank never exceeds ``min(n_A, n_B)``: each
factor's TSQR R has at most one row per non-zero row, so the core has no
more singular values.  With recompression active the dense rank-cap
trigger is keyed on the *numerical rank* (the recompressed width), so the
fallback only engages when the similarity genuinely has no slender
representation.

``precision`` selects the factor dtype: ``"float64"`` (exact default —
bit-identical to the historical behaviour) or ``"float32"`` (opt-in
iterate/scan fast path: half the memory traffic through the SpMM and
top-k hot loops, at ~1e-6 relative error).  The policy is an explicit
attribute of the factors and is preserved by checkpoints and artifacts.

Normalisation
-------------
Algorithm 1 (lines 6-7) normalises the *extracted query block* by the
block's own Frobenius norm — that is what ``normalization="block"``
returns and is the default, matching the paper's Example 3.2 (whose
``||Z||_F = 1474`` is the norm of the 4x3 block).  With
``normalization="global"`` the block is instead divided by the full
``||U_K V_K^T||_F``, computed in factored form via the Gram trick, which
makes partial queries consistent with entries of the full matrix.  The two
coincide when the query sets cover all nodes.

Resilience
----------
A K-iteration build on a billion-scale pair runs for long enough to be
interrupted — so the iteration checkpoints.  Pass ``checkpoints=`` (a
:class:`repro.runtime.CheckpointManager` or a directory) and every
``checkpoint_every``-th iterate is snapshotted atomically with a content
checksum; pass ``resume_from=`` and the solver restores the latest *valid*
snapshot and continues from iteration ``k`` with bit-identical results —
the iteration is a deterministic function of its state, and the state
round-trips exactly through ``.npz``.  A numeric-health guard (on by
default) additionally repairs non-finite factor updates — NaNs zeroed,
overflows clamped to the largest finite magnitude present — recording the
repair in ``gsim_plus.nonfinite_repairs`` instead of propagating NaN into
every downstream score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np
import scipy.sparse as sp

from repro.core.embeddings import LowRankFactors, TruncationInfo
from repro.graphs.graph import Graph
from repro.graphs.mmap_csr import csr_from_arrays
from repro.runtime import NULL_CONTEXT, ExecutionContext
from repro.runtime.parallel import WorkerPool
from repro.runtime.resilience import Checkpoint, CheckpointManager
from repro.utils.memory import dense_matrix_bytes
from repro.utils.validation import check_nonnegative_integer, resolve_node_index

__all__ = ["DEFAULT_RECOMPRESS_TOL", "GSimPlus", "GSimPlusResult",
           "NUMERICAL_RANK_TOL", "gsim_plus"]

_RANK_CAP_MODES = ("dense", "none")
_NORMALIZATIONS = ("block", "global")
_PRECISIONS = ("float64", "float32")

# Default relative truncation tolerance for --recompress / recompress_tol.
# Over K <= ~100 iterations the accumulated perturbation K * tol stays
# below 1e-6 — orders of magnitude under the Theorem 4.2 bound on every
# bench profile, and well under float32 resolution on that path.
DEFAULT_RECOMPRESS_TOL = 1e-8
# The cut of GSimIndex.build and top_k_pairs after every doubling step when
# no recompress_tol is given (float32 too): at most K * 1e-12 over K steps.
NUMERICAL_RANK_TOL = 1e-12

# Each chunk task's sparse-times-dense product is a temporary that is
# copied into its slice of the step's output; this caps its bytes, so a
# step holds its input, its output and one such product per worker.
_CHUNK_BYTES = 4 << 20


def _as_manager(
    checkpoints: CheckpointManager | str | Path | None,
) -> CheckpointManager | None:
    """Accept a manager or a bare directory path everywhere."""
    if checkpoints is None or isinstance(checkpoints, CheckpointManager):
        return checkpoints
    return CheckpointManager(checkpoints)


@dataclass
class GSimPlusResult:
    """Output of a GSim+ run.

    Attributes
    ----------
    similarity:
        The ``|Q_A| x |Q_B|`` normalised similarity block ``S_K``.
    iterations:
        Number of iterations actually performed.
    final_width:
        Factor width at the end (``min(2^K, n_A, n_B)`` unless capped off).
    z_frobenius_log:
        ``log ||Z_K||_F`` of the *full* unnormalised matrix — reported in
        log-space because ``Z_K`` grows geometrically.
    used_dense_fallback:
        True when the dense rank-cap hybrid engaged.
    precision:
        The factor dtype policy the run used (``"float64"``/``"float32"``).
    truncation:
        :class:`repro.core.embeddings.TruncationInfo` of the final
        factors when recompression was active, else ``None``.
    """

    similarity: np.ndarray
    iterations: int
    final_width: int
    z_frobenius_log: float
    used_dense_fallback: bool
    precision: str = "float64"
    truncation: "TruncationInfo | None" = None


@dataclass
class _IterationState:
    """Internal per-iteration snapshot yielded by :meth:`GSimPlus.iterate`.

    ``dense_log_norm`` accumulates ``log ||Z_k||_F`` of the *unnormalised*
    iterate across the dense rank-cap regime (each dense step renormalises
    to unit Frobenius, so the true norm only survives in log-space here).
    """

    k: int
    factors: LowRankFactors | None
    dense_z: np.ndarray | None
    dense_log_norm: float = 0.0

    def similarity_matrix(self) -> np.ndarray:
        """The full normalised ``S_k`` (materialises; small graphs only)."""
        if self.dense_z is not None:
            norm = float(np.linalg.norm(self.dense_z))
            if norm == 0.0:
                raise ZeroDivisionError("similarity iterate collapsed to zero")
            return self.dense_z / norm
        assert self.factors is not None
        dense = self.factors.materialize(include_scale=False)
        norm = float(np.linalg.norm(dense))
        if norm == 0.0:
            raise ZeroDivisionError("similarity iterate collapsed to zero")
        return dense / norm


class GSimPlus:
    """Reusable GSim+ solver bound to a graph pair ``(G_A, G_B)``.

    Parameters
    ----------
    graph_a, graph_b:
        The two graphs.  Only their (sparse) adjacency matrices are used.
    rank_cap:
        ``"dense"`` (paper default) or ``"none"``.
    normalization:
        ``"block"`` (Algorithm 1, default) or ``"global"``.
    numeric_guard:
        When True (default), non-finite entries appearing in an iteration
        update are repaired — NaNs zeroed, infinities clamped to the
        largest finite magnitude in the same factor — and the event is
        counted in ``gsim_plus.nonfinite_repairs`` instead of the NaN
        poisoning every subsequent iterate.
    recompress_tol:
        When set, recompress the factors after every doubling step at
        this relative tolerance (see module docstring), bounding the
        width by numerical rank.  ``None`` (default) keeps the exact
        ``2^k`` schedule — bit-identical to the historical behaviour.
        Use :data:`DEFAULT_RECOMPRESS_TOL` for a safe accuracy/speed
        trade-off.
    precision:
        ``"float64"`` (exact default) or ``"float32"`` (the opt-in
        bandwidth-saving iterate path; the sparse operands and every
        preallocated step buffer follow the policy).
    max_workers:
        Worker count (or a :class:`repro.runtime.WorkerPool`) for the
        row-chunked SpMM steps.  The default ``None`` means serial.  Each
        step is one list of row-chunk tasks writing into a preallocated
        output, run inline when serial and on the pool's threads
        otherwise.  A chunk is a zero-copy CSR view of an operand's rows
        (only its ``indptr`` is rebased) whose product is at most
        ``_CHUNK_BYTES``, with at least one chunk per worker.  Chunking
        never reorders any per-row accumulation, so results are
        **bit-identical** for every worker count, and memory-mapped
        graphs (:class:`repro.graphs.mmap_csr.MmapCSRGraph`) are shared
        with the threads without copying.

    Examples
    --------
    >>> from repro.graphs import Graph
    >>> a = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    >>> b = Graph.from_edges(2, [(0, 1)])
    >>> solver = GSimPlus(a, b)
    >>> result = solver.run(iterations=4, queries_a=[0, 1], queries_b=[0, 1])
    >>> result.similarity.shape
    (2, 2)
    """

    def __init__(
        self,
        graph_a: Graph,
        graph_b: Graph,
        rank_cap: str = "dense",
        normalization: str = "block",
        initial_factors: tuple[np.ndarray, np.ndarray] | None = None,
        numeric_guard: bool = True,
        recompress_tol: float | None = None,
        precision: str = "float64",
        max_workers: "WorkerPool | int | None" = None,
    ) -> None:
        if rank_cap not in _RANK_CAP_MODES:
            raise ValueError(
                f"rank_cap must be one of {_RANK_CAP_MODES}, got {rank_cap!r}"
            )
        if normalization not in _NORMALIZATIONS:
            raise ValueError(
                f"normalization must be one of {_NORMALIZATIONS}, got {normalization!r}"
            )
        if precision not in _PRECISIONS:
            raise ValueError(
                f"precision must be one of {_PRECISIONS}, got {precision!r}"
            )
        if recompress_tol is not None and not (0.0 < recompress_tol < 1.0):
            raise ValueError(
                f"recompress_tol must be in (0, 1) or None, got {recompress_tol}"
            )
        if graph_a.num_nodes == 0 or graph_b.num_nodes == 0:
            raise ValueError("both graphs must have at least one node")
        # The four CSR operands of every step are converted exactly once
        # here (``Graph`` caches the transpose, so repeated solvers over
        # the same graph share it).  Under the float32 policy the
        # operands are cast once so every SpMM moves half the bytes.
        self.precision = precision
        self._dtype = np.dtype(precision)
        operands = {
            "a": graph_a.adjacency,
            "a_t": graph_a.adjacency_t,
            "b": graph_b.adjacency,
            "b_t": graph_b.adjacency_t,
        }
        if self._dtype != np.float64:
            operands = {
                name: matrix.astype(self._dtype)
                for name, matrix in operands.items()
            }
        self._operands: dict[str, sp.csr_matrix] = operands
        self.n_a = graph_a.num_nodes
        self.n_b = graph_b.num_nodes
        self.rank_cap = rank_cap
        self.normalization = normalization
        self.numeric_guard = numeric_guard
        self.recompress_tol = (
            None if recompress_tol is None else float(recompress_tol)
        )
        self._pool = WorkerPool.resolve(max_workers)
        self._initial = self._resolve_initial(initial_factors)

    def _resolve_initial(
        self, initial_factors: tuple[np.ndarray, np.ndarray] | None
    ) -> LowRankFactors:
        """Validate the content prior (Z_0 = F_A F_B^T) or default to 1s.

        Blondel et al. note GSim "can be easily adapted to content-based
        similarity measures": instead of starting from the all-ones Z_0,
        start from an outer product of per-node feature matrices
        ``F_A (n_A x r)`` and ``F_B (n_B x r)``, e.g. rows of normalised
        content embeddings.  Theorem 3.1's induction never uses the
        specific Z_0, so the factored iteration stays exact; the width now
        grows as ``r * 2^k``.
        """
        if initial_factors is None:
            return LowRankFactors.ones(self.n_a, self.n_b, dtype=self._dtype)
        features_a, features_b = initial_factors
        features_a = np.atleast_2d(np.asarray(features_a, dtype=self._dtype))
        features_b = np.atleast_2d(np.asarray(features_b, dtype=self._dtype))
        if features_a.shape[0] != self.n_a:
            raise ValueError(
                f"initial F_A has {features_a.shape[0]} rows for a graph "
                f"with {self.n_a} nodes"
            )
        if features_b.shape[0] != self.n_b:
            raise ValueError(
                f"initial F_B has {features_b.shape[0]} rows for a graph "
                f"with {self.n_b} nodes"
            )
        if features_a.shape[1] != features_b.shape[1]:
            raise ValueError(
                f"feature widths differ: {features_a.shape[1]} vs "
                f"{features_b.shape[1]}"
            )
        if not (np.isfinite(features_a).all() and np.isfinite(features_b).all()):
            raise ValueError("initial factors contain non-finite values")
        return LowRankFactors(features_a.copy(), features_b.copy())

    # ------------------------------------------------------------------
    # Iteration core
    # ------------------------------------------------------------------
    def _healed(self, array: np.ndarray, context: ExecutionContext) -> np.ndarray:
        """Repair non-finite entries in an iteration update (in place).

        NaNs become 0; ±inf is clamped to the largest finite magnitude
        present (preserving the update's scale, unlike ``nan_to_num``'s
        float-max default, which would flush everything else to zero at
        the next rescale).  Each repair is counted in
        ``gsim_plus.nonfinite_repairs``.
        """
        finite = np.isfinite(array)
        if finite.all():
            return array
        repaired = int(array.size - np.count_nonzero(finite))
        finite_abs = np.abs(array[finite])
        cap = float(finite_abs.max()) if finite_abs.size else 1.0
        if cap == 0.0:
            cap = 1.0
        np.nan_to_num(array, copy=False, nan=0.0, posinf=cap, neginf=-cap)
        context.metrics.increment("gsim_plus.nonfinite_repairs", repaired)
        context.tracer.event(
            "gsim_plus.nonfinite_repair", severity="warning", repaired=repaired
        )
        return array

    def _chunks(self, rows: int, width: int) -> list[tuple[int, int]]:
        """Row ranges of ``rows`` whose ``width``-wide products stay within
        ``_CHUNK_BYTES``, and at least one range per worker."""
        step = min(
            max(_CHUNK_BYTES // (width * self._dtype.itemsize), 1),
            -(-rows // self._pool.max_workers),
        )
        return [(start, min(start + step, rows)) for start in range(0, rows, step)]

    def _rows(self, name: str, start: int, stop: int) -> sp.csr_matrix:
        """Rows ``start:stop`` of an operand as a CSR view: ``indices``
        and ``data`` are sliced without a copy; only ``indptr`` is rebased."""
        matrix = self._operands[name]
        indptr = matrix.indptr[start : stop + 1]
        first, last = int(indptr[0]), int(indptr[-1])
        return csr_from_arrays(
            indptr - first,
            matrix.indices[first:last],
            matrix.data[first:last],
            (stop - start, matrix.shape[1]),
        )

    def _run(
        self,
        kernel: Callable[[tuple], None],
        tasks: list[tuple],
        context: ExecutionContext,
        what: str,
    ) -> None:
        """Run one stage's chunk tasks: inline and unobserved when the
        pool is serial, else on the pool's threads (which checkpoint the
        context per shard and record ``parallel.*`` metrics and spans)."""
        if self._pool.serial:
            for task in tasks:
                kernel(task)
        else:
            self._pool.map(kernel, tasks, context=context, what=what)

    def _dense_fallback_charge(self) -> int:
        """Ledger charge for the dense rank-cap working set: the iterate
        plus the four ``|Z|``-sized temporaries one :meth:`_step_dense`
        call holds at its peak (``Z^T``, ``P``, ``Q`` and the update, see
        :meth:`_dense_update`).  Charging less would let a budget admit
        the step and still run out of memory inside it."""
        return 5 * dense_matrix_bytes(self.n_a, self.n_b, self._dtype.itemsize)

    def _step_bytes(self, factors: LowRankFactors) -> int:
        """Bytes one :meth:`_step_factors` call holds above its input: the
        new pair, plus one chunk product and its rebased ``indptr`` per
        worker."""
        width = factors.width
        rows = self._chunks(max(self.n_a, self.n_b), width)[0][1]  # a largest
        index_bytes = max(m.indptr.itemsize for m in self._operands.values())
        chunk = rows * width * factors.dtype.itemsize + (rows + 1) * index_bytes
        return 2 * factors.nbytes + self._pool.max_workers * chunk

    def _step_factors(
        self, factors: LowRankFactors, context: ExecutionContext = NULL_CONTEXT
    ) -> LowRankFactors:
        """One Eq.(8)/(9) doubling step in factored form (lines 3-5).

        Each task writes one row chunk's ``M[start:stop] @ dense`` into
        its rows and column half of one preallocated ``(n, 2w)`` output
        (no ``np.hstack`` re-copy).  Each output row is a fixed-order
        accumulation over one CSR row however the rows are chunked, so
        the result is bit-identical for every worker count.  The numeric
        guard and the rescale then work in place from each factor's
        max and min (see :meth:`_max_abs`), so the step holds its input, the
        new pair and the chunks in flight: :meth:`_step_bytes`, charged
        to the ledger before anything is allocated, and recorded with the
        input in the ``gsim_plus.peak_bytes_held`` gauge.
        """
        width = factors.width
        step_bytes = self._step_bytes(factors)
        context.metrics.record_max(
            "gsim_plus.peak_bytes_held", factors.nbytes + step_bytes
        )
        with context.holding(step_bytes, f"GSim+ factored step (width {2 * width})"):
            new_u = np.empty((self.n_a, 2 * width), dtype=factors.dtype)
            new_v = np.empty((self.n_b, 2 * width), dtype=factors.dtype)
            tasks = [
                (name, start, stop, dense, out, offset)
                for name, dense, out, offset in (
                    ("a", factors.u, new_u, 0),
                    ("a_t", factors.u, new_u, width),
                    ("b", factors.v, new_v, 0),
                    ("b_t", factors.v, new_v, width),
                )
                for start, stop in self._chunks(out.shape[0], width)
            ]

            def _product(task: tuple) -> None:
                name, start, stop, dense, out, offset = task
                out[start:stop, offset : offset + width] = (
                    self._rows(name, start, stop) @ dense
                )

            self._run(_product, tasks, context, "GSim+ SpMM chunks")
            # Rescale to magnitudes <= 1, folding the divisors into
            # log_scale, so the float range stays bounded over hundreds of
            # iterations; a zero factor leaves both as they are.
            max_u = self._max_abs(new_u, context)
            max_v = self._max_abs(new_v, context)
            log_scale = factors.log_scale
            if max_u != 0.0 and max_v != 0.0:
                new_u /= max_u
                new_v /= max_v
                log_scale = log_scale + math.log(max_u) + math.log(max_v)
        return LowRankFactors(new_u, new_v, log_scale)

    def _max_abs(self, array: np.ndarray, context: ExecutionContext) -> float:
        """The largest magnitude in a step's output, ``max(hi, -lo)``, from
        two reductions and no temporary.  A non-finite one means the
        update overflowed: with the numeric guard on, the array is
        repaired (:meth:`_healed`) and reduced again."""
        hi, lo = array.max(), array.min()
        if self.numeric_guard and not (np.isfinite(hi) and np.isfinite(lo)):
            self._healed(array, context)
            hi, lo = array.max(), array.min()
        return float(max(hi, -lo))

    def _recompress(
        self,
        factors: LowRankFactors,
        k: int,
        context: ExecutionContext,
    ) -> LowRankFactors:
        """Cut the stepped factors at :attr:`recompress_tol`.

        The kernel charges the memory ledger for each of its phases
        (:meth:`~repro.core.embeddings.LowRankFactors.recompression_bytes`)
        before allocating it, so budget breaches surface before the
        allocation instead of as a MemoryError inside LAPACK; the larger
        phase, with the pair it works on, is recorded in the
        ``gsim_plus.peak_bytes_held`` gauge.  Truncation metadata lands
        in ``gsim_plus.*`` metrics and a ``gsim_plus.recompress`` trace
        event.
        """
        assert self.recompress_tol is not None
        width = factors.width
        compact = factors.recompressed(
            self.recompress_tol, context=context, max_workers=self._pool
        )
        info = compact.truncation
        assert info is not None and info.retained_rank <= min(self.n_a, self.n_b)
        phase_bytes = max(
            factors.recompression_bytes(workers=self._pool.max_workers),
            factors.recompression_bytes(info.retained_rank),
        )
        context.metrics.record_max(
            "gsim_plus.peak_bytes_held", factors.nbytes + phase_bytes
        )
        context.metrics.increment("gsim_plus.recompressions")
        context.metrics.observe_histogram(
            "gsim_plus.recompress_rank", info.retained_rank
        )
        context.metrics.set_gauge(
            "gsim_plus.recompress_discarded_energy", info.discarded_energy
        )
        context.tracer.event(
            "gsim_plus.recompress",
            severity="info",
            k=k,
            width_before=width,
            retained_rank=info.retained_rank,
            discarded_energy=info.discarded_energy,
        )
        return compact

    def _step_dense(
        self, z: np.ndarray, context: ExecutionContext = NULL_CONTEXT
    ) -> tuple[np.ndarray, float]:
        """One Eq.(6a) step on a dense Z, renormalised to unit Frobenius.

        Per-iteration scalar renormalisation is equivalent to normalising
        once at the end (Eq.(2) vs Eq.(6) in the paper) and prevents
        overflow in the dense regime.  Returns ``(normalised_z, log(norm))``
        so callers can accumulate the exact log-norm of the unnormalised
        iterate across the dense regime.
        """
        updated = self._dense_update(z, context)
        if self.numeric_guard:
            updated = self._healed(updated, context)
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(updated))
        log_shift = 0.0
        if self.numeric_guard and not np.isfinite(norm):
            # Entries are finite but their sum of squares overflows; shift
            # the scale down before taking the norm (exact up to rounding,
            # like the factored path's per-step rescale).
            amax = float(np.abs(updated).max())
            updated = updated / amax
            log_shift = float(np.log(amax))
            norm = float(np.linalg.norm(updated))
            context.metrics.increment("gsim_plus.norm_rescales")
        if norm == 0.0:
            raise ZeroDivisionError(
                "similarity iterate collapsed to zero (disconnected inputs?)"
            )
        return updated / norm, float(np.log(norm)) + log_shift

    def _dense_update(self, z: np.ndarray, context: ExecutionContext) -> np.ndarray:
        """``A Z B^T + A^T Z B`` in two stages of sparse-times-dense tasks.

        Stage 1 computes ``P = Z B^T = (B Z^T)^T`` and ``Q = Z B =
        (B^T Z^T)^T``, each task writing the transposed product of a row
        chunk of ``B``/``B^T`` into a column slice, so both are
        C-contiguous for stage 2.  Stage 2 computes rows of ``A P`` and
        adds ``A^T Q`` in place, over row chunks shared by ``A``/``A^T``.
        Every output entry is the same fixed-order accumulation, and the
        same final addition, as the expression
        ``A (B Z^T)^T + A^T (B^T Z^T)^T``, so the result is bit-identical
        for any worker count.  ``Z^T`` is dropped after stage 1, so the
        working set peaks at four ``|Z|``-sized arrays.
        """
        z_t = np.ascontiguousarray(z.T)
        p = np.empty((self.n_a, self.n_b), dtype=z.dtype)
        q = np.empty((self.n_a, self.n_b), dtype=z.dtype)
        stage1 = [
            (name, start, stop, out)
            for name, out in (("b", p), ("b_t", q))
            for start, stop in self._chunks(self.n_b, self.n_a)
        ]

        def _transposed(task: tuple) -> None:
            name, start, stop, out = task
            out[:, start:stop] = (self._rows(name, start, stop) @ z_t).T

        self._run(_transposed, stage1, context, "GSim+ dense stage 1")
        del z_t
        updated = np.empty((self.n_a, self.n_b), dtype=z.dtype)

        def _pair_sum(task: tuple) -> None:
            start, stop = task
            updated[start:stop] = self._rows("a", start, stop) @ p
            updated[start:stop] += self._rows("a_t", start, stop) @ q

        self._run(
            _pair_sum, self._chunks(self.n_a, self.n_b), context,
            "GSim+ dense stage 2",
        )
        return updated

    def iterate(
        self,
        iterations: int,
        context: ExecutionContext | None = None,
        checkpoints: CheckpointManager | str | Path | None = None,
        checkpoint_every: int = 1,
        resume_from: CheckpointManager | str | Path | None = None,
    ) -> Iterator[_IterationState]:
        """Yield state after every iteration ``k = 0 .. iterations``.

        The k=0 state is the all-ones initialisation.  Downstream consumers
        (accuracy table, convergence driver) read
        :meth:`_IterationState.similarity_matrix` per step.

        With an :class:`repro.runtime.ExecutionContext`, every iteration is
        a checkpoint: the deadline and cancellation token are polled, the
        working set (the factor pair plus one step's new pair and chunks,
        or the dense iterate plus one step's temporaries once the rank-cap
        fallback engages) is charged against the live memory budget
        *before* it is allocated, and the per-step width / spmm counts
        land in ``context.metrics`` under ``gsim_plus.*``.  Without a
        context, behaviour is unchanged.

        With a :class:`repro.runtime.Tracer` on the context, every
        iteration additionally records a ``gsim_plus.iterate`` span
        (attributes: ``k``, ``width``, and the dense-regime log-norm)
        under which the worker pool's ``parallel.shard`` spans stitch;
        rank-cap fallbacks, non-finite repairs, and checkpoint resumes
        land in the structured event log.

        With ``checkpoints`` (a :class:`repro.runtime.CheckpointManager`
        or a directory path), every ``checkpoint_every``-th iterate — and
        always the final one — is snapshotted atomically.  With
        ``resume_from``, the latest valid snapshot whose fingerprint
        matches this solver is restored and iteration continues from its
        ``k``; because one iteration is a deterministic function of the
        exactly round-tripped state, the resumed run is bit-identical to
        an uninterrupted one.  When no valid snapshot exists the run
        simply starts from scratch.
        """
        iterations = check_nonnegative_integer(iterations, "iterations")
        checkpoint_every = check_nonnegative_integer(
            checkpoint_every, "checkpoint_every"
        )
        if checkpoints is not None and checkpoint_every == 0:
            raise ValueError("checkpoint_every must be >= 1 when checkpointing")
        manager = _as_manager(checkpoints)
        context = ExecutionContext.resolve(context)
        tracer = context.tracer
        width_cap = min(self.n_a, self.n_b)
        factors: LowRankFactors | None = LowRankFactors(
            self._initial.u.copy(), self._initial.v.copy(), self._initial.log_scale
        )
        dense_z: np.ndarray | None = None
        dense_log = 0.0
        start_k = 0
        snapshot = None
        if resume_from is not None:
            snapshot = _as_manager(resume_from).load_latest_valid()
        if snapshot is not None:
            self._check_fingerprint(snapshot)
            start_k = snapshot.step
            if start_k > iterations:
                raise ValueError(
                    f"checkpoint is at iteration {start_k}, beyond the "
                    f"requested {iterations}"
                )
            if snapshot.meta["kind"] == "dense":
                factors = None
                dense_z = snapshot.arrays["dense_z"]
                dense_log = float(snapshot.meta["dense_log"])
            else:
                snapshot_u = snapshot.arrays["u"]
                if snapshot_u.dtype != self._dtype:
                    raise ValueError(
                        f"checkpoint factors are {snapshot_u.dtype.name} but "
                        f"this solver's precision policy is {self.precision}; "
                        "resume with a matching precision= or rebuild from "
                        "scratch"
                    )
                truncation = None
                if snapshot.meta.get("truncation"):
                    truncation = TruncationInfo.from_dict(
                        snapshot.meta["truncation"]
                    )
                factors = LowRankFactors(
                    snapshot_u,
                    snapshot.arrays["v"],
                    float(snapshot.meta["log_scale"]),
                    truncation=truncation,
                )
            context.metrics.increment("gsim_plus.resumed")
            context.metrics.set_gauge("gsim_plus.resume_iteration", start_k)
            tracer.event("gsim_plus.resumed", severity="info", iteration=start_k)
        charged = 0

        def _account(num_bytes: int, what: str) -> None:
            # Swap the charged working set: release the previous charge,
            # then charge the new one (so a breach leaves nothing held).
            nonlocal charged
            context.release(charged)
            charged = 0
            context.charge(num_bytes, what)
            charged = num_bytes

        def _snapshot_state(k: int) -> None:
            assert manager is not None
            meta = {**self._fingerprint(), "kind": "dense" if dense_z is not None else "factors"}
            if dense_z is not None:
                meta["dense_log"] = dense_log
                manager.save(k, {"dense_z": dense_z}, meta=meta)
            else:
                assert factors is not None
                meta["log_scale"] = factors.log_scale
                if factors.truncation is not None:
                    meta["truncation"] = factors.truncation.to_dict()
                manager.save(k, {"u": factors.u, "v": factors.v}, meta=meta)
            context.metrics.increment("gsim_plus.checkpoints_written")

        try:
            if factors is not None:
                _account(factors.nbytes, "GSim+ initial factors")
                context.metrics.observe_histogram("gsim_plus.width", factors.width)
            else:
                _account(
                    self._dense_fallback_charge(),
                    "GSim+ dense rank-cap fallback (resumed)",
                )
            context.metrics.record_max("gsim_plus.peak_bytes_held", charged)
            yield _IterationState(start_k, factors, dense_z, dense_log)
            for k in range(start_k + 1, iterations + 1):
                context.checkpoint(f"GSim+ iteration {k}")
                with tracer.span("gsim_plus.iterate") as span:
                    span.set_attribute("k", k)
                    if dense_z is not None:
                        dense_z, log_norm = self._step_dense(dense_z, context)
                        dense_log += log_norm
                    else:
                        assert factors is not None
                        if self.rank_cap == "dense" and 2 * factors.width > width_cap:
                            # Paper §5.2.1 point 6: revert to traditional GSim
                            # once the doubled width exceeds min(n_A, n_B).
                            # Working set from here on: the dense iterate plus
                            # one step's temporaries.
                            _account(
                                self._dense_fallback_charge(),
                                "GSim+ dense rank-cap fallback",
                            )
                            tracer.event(
                                "gsim_plus.dense_fallback",
                                severity="warning",
                                k=k,
                                width=factors.width,
                                width_cap=width_cap,
                            )
                            dense_z = factors.materialize(include_scale=False)
                            norm = float(np.linalg.norm(dense_z))
                            if norm == 0.0:
                                raise ZeroDivisionError(
                                    "similarity iterate collapsed to zero"
                                )
                            dense_z /= norm
                            # log ||Z||_F of the exact iterate at hand-over.
                            dense_log = float(np.log(norm)) + factors.log_scale
                            factors = None
                            dense_z, log_norm = self._step_dense(dense_z, context)
                            dense_log += log_norm
                        else:
                            factors = self._step_factors(factors, context)
                            # Hold only the new pair; recompression charges
                            # its phases on top of it.
                            _account(factors.nbytes, f"GSim+ factors (k={k})")
                            if self.recompress_tol is not None:
                                factors = self._recompress(factors, k, context)
                                span.set_attribute(
                                    "retained_rank", factors.width
                                )
                            _account(factors.nbytes, f"GSim+ factors (k={k})")
                    span.set_attribute(
                        "width",
                        factors.width if factors is not None else width_cap,
                    )
                    if dense_z is not None:
                        span.set_attribute("z_log_norm", dense_log)
                context.metrics.increment("gsim_plus.iterations")
                context.metrics.increment("gsim_plus.spmm", 4)
                context.metrics.observe_histogram(
                    "gsim_plus.width",
                    factors.width if factors is not None else width_cap,
                )
                context.metrics.record_max("gsim_plus.peak_bytes_held", charged)
                if dense_z is not None:
                    context.metrics.increment("gsim_plus.dense_steps")
                    context.metrics.set_gauge("gsim_plus.z_log_norm", dense_log)
                if manager is not None and (
                    k % checkpoint_every == 0 or k == iterations
                ):
                    with tracer.span("gsim_plus.checkpoint") as ck_span:
                        ck_span.set_attribute("k", k)
                        _snapshot_state(k)
                yield _IterationState(k, factors, dense_z, dense_log)
        finally:
            context.release(charged)
            charged = 0

    # Fingerprint keys introduced after the v1 checkpoint format; an old
    # snapshot that predates them implicitly ran with these values.
    _FINGERPRINT_DEFAULTS: dict[str, object] = {
        "precision": "float64",
        "recompress_tol": None,
    }

    def _fingerprint(self) -> dict[str, object]:
        """What a checkpoint must agree on to be resumable by this solver."""
        return {
            "algorithm": "gsim_plus",
            "n_a": self.n_a,
            "n_b": self.n_b,
            "rank_cap": self.rank_cap,
            "initial_width": self._initial.width,
            "precision": self.precision,
            "recompress_tol": self.recompress_tol,
        }

    def _check_fingerprint(self, snapshot: Checkpoint) -> None:
        expected = self._fingerprint()
        mismatched = {
            key: (snapshot.meta.get(key, self._FINGERPRINT_DEFAULTS.get(key)), value)
            for key, value in expected.items()
            if snapshot.meta.get(key, self._FINGERPRINT_DEFAULTS.get(key)) != value
        }
        if mismatched:
            details = ", ".join(
                f"{key}: checkpoint has {found!r}, solver needs {needed!r}"
                for key, (found, needed) in sorted(mismatched.items())
            )
            raise ValueError(
                f"checkpoint does not match this solver ({details}); "
                "point resume_from at the right directory or rebuild"
            )

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def run(
        self,
        iterations: int,
        queries_a: np.ndarray | list[int] | None = None,
        queries_b: np.ndarray | list[int] | None = None,
        progress: "Callable[[int, int], None] | None" = None,
        context: ExecutionContext | None = None,
        checkpoints: CheckpointManager | str | Path | None = None,
        checkpoint_every: int = 1,
        resume_from: CheckpointManager | str | Path | None = None,
    ) -> GSimPlusResult:
        """Execute Algorithm 1 and return the query-block similarity.

        Parameters
        ----------
        iterations:
            ``K``, the total number of iterations (paper default 10; even
            iterates are the convergent subsequence).
        queries_a, queries_b:
            Node index sets ``Q_A`` and ``Q_B``; ``None`` selects all nodes.
        progress:
            Optional callback invoked after every iteration with
            ``(k, current_factor_width)`` — width is ``min(n_A, n_B)``
            once the dense fallback engages.  For richer per-iteration
            access (the factors themselves), drive :meth:`iterate`.
        context:
            Optional :class:`repro.runtime.ExecutionContext`.  The run then
            polls the deadline/cancellation token between iterations and
            charges its working set against the live memory budget; a
            breach raises a structured
            :class:`repro.runtime.BudgetExceeded` carrying the metrics
            collected so far.
        checkpoints, checkpoint_every, resume_from:
            Periodic atomic factor checkpointing and crash recovery; see
            :meth:`iterate`.
        """
        queries_a = self._resolve_queries(queries_a, self.n_a, "queries_a")
        queries_b = self._resolve_queries(queries_b, self.n_b, "queries_b")
        final: _IterationState | None = None
        for final in self.iterate(
            iterations,
            context=context,
            checkpoints=checkpoints,
            checkpoint_every=checkpoint_every,
            resume_from=resume_from,
        ):
            if progress is not None and final.k > 0:
                width = (
                    final.factors.width
                    if final.factors is not None
                    else min(self.n_a, self.n_b)
                )
                progress(final.k, width)
        assert final is not None
        return self._finalize(final, iterations, queries_a, queries_b)

    def similarity_matrix(
        self, iterations: int, context: ExecutionContext | None = None
    ) -> np.ndarray:
        """The full ``n_A x n_B`` normalised ``S_K`` (materialises)."""
        result = self.run(iterations, context=context)
        return result.similarity

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _resolve_queries(
        queries: np.ndarray | list[int] | None, size: int, name: str
    ) -> np.ndarray:
        return resolve_node_index(queries, size, name, full_if_none=True)

    def _finalize(
        self,
        state: _IterationState,
        iterations: int,
        queries_a: np.ndarray,
        queries_b: np.ndarray,
    ) -> GSimPlusResult:
        truncation: TruncationInfo | None = None
        if state.dense_z is not None:
            block = state.dense_z[np.ix_(queries_a, queries_b)]
            full_norm = float(np.linalg.norm(state.dense_z))
            final_width = min(self.n_a, self.n_b)
            # Dense steps renormalise to unit Frobenius each iteration, so
            # the raw ``log ||Z_K||_F`` is the accumulated per-step log-norms
            # plus the (near-zero) log-norm of the current normalised iterate.
            z_log = state.dense_log_norm + float(
                np.log(max(full_norm, np.finfo(float).tiny))
            )
            used_dense = True
        else:
            assert state.factors is not None
            block = state.factors.query_block(
                queries_a, queries_b, include_scale=False
            )
            full_norm = state.factors.frobenius_norm(include_scale=False)
            final_width = state.factors.width
            norm_unscaled = max(full_norm, np.finfo(float).tiny)
            z_log = float(np.log(norm_unscaled) + state.factors.log_scale)
            used_dense = False
            truncation = state.factors.truncation
        if self.normalization == "block":
            denominator = float(np.linalg.norm(block))
        else:
            denominator = full_norm
        if denominator == 0.0:
            raise ZeroDivisionError(
                "query block has zero norm; queries touch no similar structure"
            )
        return GSimPlusResult(
            similarity=block / denominator,
            iterations=iterations,
            final_width=final_width,
            z_frobenius_log=z_log,
            used_dense_fallback=used_dense,
            precision=self.precision,
            truncation=truncation,
        )


def gsim_plus(
    graph_a: Graph,
    graph_b: Graph,
    iterations: int = 10,
    queries_a: np.ndarray | list[int] | None = None,
    queries_b: np.ndarray | list[int] | None = None,
    rank_cap: str = "dense",
    normalization: str = "block",
    initial_factors: tuple[np.ndarray, np.ndarray] | None = None,
    context: ExecutionContext | None = None,
    checkpoints: CheckpointManager | str | Path | None = None,
    checkpoint_every: int = 1,
    resume_from: CheckpointManager | str | Path | None = None,
    max_workers: "WorkerPool | int | None" = None,
    recompress_tol: float | None = None,
    precision: str = "float64",
) -> GSimPlusResult:
    """Functional wrapper over :class:`GSimPlus` (Algorithm 1).

    Computes the GSim similarity block ``[S_K]_{Q_A, Q_B}`` between the two
    graphs after ``iterations`` power-iteration steps.  Passing
    ``initial_factors = (F_A, F_B)`` replaces the all-ones start with the
    content prior ``Z_0 = F_A F_B^T`` (the "content-based similarity"
    adaptation of the paper's introduction) while preserving exactness.
    ``recompress_tol`` enables rank-bounded recompression between doubling
    steps (see :meth:`LowRankFactors.recompressed`); ``precision`` selects
    the iterate dtype (``"float64"`` exact default or ``"float32"``).

    Examples
    --------
    >>> from repro.graphs import Graph
    >>> a = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    >>> b = Graph.from_edges(3, [(0, 1), (1, 2)])
    >>> out = gsim_plus(a, b, iterations=2)
    >>> out.similarity.shape
    (4, 3)
    """
    solver = GSimPlus(
        graph_a,
        graph_b,
        rank_cap=rank_cap,
        normalization=normalization,
        initial_factors=initial_factors,
        max_workers=max_workers,
        recompress_tol=recompress_tol,
        precision=precision,
    )
    return solver.run(
        iterations,
        queries_a=queries_a,
        queries_b=queries_b,
        context=context,
        checkpoints=checkpoints,
        checkpoint_every=checkpoint_every,
        resume_from=resume_from,
    )
