"""Exact low-rank outer-product representations ("low-embeddings").

The paper's key data structure is the pair of slender factor matrices
``U (n_A x w)`` and ``V (n_B x w)`` representing the unnormalised similarity
``Z = U @ V.T`` (footnote 1 of the paper).  This module packages that pair
together with a scalar log-scale used to keep float magnitudes bounded
over many iterations (DESIGN.md §7): the represented matrix is

    Z = exp(log_scale) * U @ V.T

Scalar rescaling commutes with the final Frobenius normalisation, so all
similarity outputs are unaffected by it.

First-class representation
--------------------------
:class:`LowRankFactors` is the object every layer of the system holds,
persists, or scans — the solver iterates it, checkpoints snapshot it, the
index artifact round-trips it, and the batch/top-k kernels scan it.
Two policies are therefore explicit attributes rather than implicit
array properties:

* **Precision** — the factor dtype is restricted to ``float64`` (exact
  default) or ``float32`` (opt-in fast path: half the memory bandwidth on
  the SpMM and scan hot loops).  Construction never silently changes a
  supported dtype; mixed or unsupported inputs promote to ``float64``.
  :attr:`precision` reports the policy as a string, :meth:`astype`
  converts between the two.
* **Truncation** — :meth:`recompressed` bounds the width by *numerical
  rank*: the R factor of each factor's QR (a TSQR over its non-zero rows
  on a worker pool; no orthonormal Q is formed), an SVD of the small core
  ``R_U R_V^T``, a truncation keeping the smallest rank whose discarded
  spectral energy stays below a relative tolerance, and one ``w x r``
  product per factor.  The QR work is proportional to the non-zero rows
  only, and zero rows stay exactly zero.  The resulting object carries a
  :class:`TruncationInfo` record (retained rank, discarded energy,
  effective tolerance) so metrics, traces, and persisted artifacts can
  report how lossy the representation is.

Everything that can be computed without materialising ``U @ V.T`` is: the
Frobenius norm uses the Gram-trick
``||U V^T||_F^2 = sum((U^T U) * (V^T V))`` and the convergence test's
distance between two factored matrices uses
``<U1 V1^T, U2 V2^T> = sum((U1^T U2) * (V1^T V2))``, both
``O((n_A + n_B) w^2)`` instead of ``O(n_A n_B w)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from repro.runtime import ExecutionContext, WorkerPool
from repro.utils.validation import resolve_node_index

__all__ = ["LowRankFactors", "TruncationInfo", "nonzero_rows", "row_norms"]

# The two dtypes the precision policy admits.  Anything else (ints,
# float16, mixed pairs) promotes to the exact default.
_SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

# The row scans below read chunks of about this many bytes of float64.
_NORM_CHUNK_BYTES = 1 << 22
# Rows per TSQR chunk (and per stack of chunk R's) in ``recompressed``.  On
# a 262k x 44 factor, chunks of 1k-8k rows ran within 10% of each other and
# 16k-32k rows ~50% slower (one BLAS thread).
_TSQR_CHUNK_ROWS = 4096
# A sum of squares outside this range may have lost entries to underflow
# (the square of any |x| < ~1e-162 is subnormal or zero) or overflowed.
_SAFE_SQUARES = (2.0**-900, 2.0**900)


def row_norms(factor: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of ``factor``, as float64.

    Works through ``factor`` a chunk of rows at a time, so no temporary
    is the size of the factor.  A row's norm is zero exactly when the row
    is: rows whose squares could underflow or overflow are divided by their
    largest magnitude before squaring.  The relative error is at most about
    ``(w/4 + 2) eps`` for ``w`` columns.

    >>> row_norms(np.array([[3.0, 4.0], [0.0, 0.0], [3e-170, 4e-170]]))
    array([5.e+000, 0.e+000, 5.e-170])
    """
    n_rows, width = factor.shape
    norms = np.empty(n_rows)
    low, high = _SAFE_SQUARES
    step = _chunk_rows(width)
    for start in range(0, n_rows, step):
        chunk = np.asarray(factor[start : start + step], dtype=np.float64)
        squares = np.einsum("ij,ij->i", chunk, chunk)
        out = norms[start : start + chunk.shape[0]]
        np.sqrt(squares, out=out)
        unsafe = np.flatnonzero(~((squares >= low) & (squares <= high)))
        unsafe = unsafe[chunk[unsafe].any(axis=1)]  # zero rows stay 0
        if unsafe.size:
            rows = chunk[unsafe]
            peak = np.abs(rows).max(axis=1)
            scaled = rows / peak[:, None]
            out[unsafe] = peak * np.sqrt(np.einsum("ij,ij->i", scaled, scaled))
    return norms


def nonzero_rows(factor: np.ndarray) -> np.ndarray:
    """Boolean mask of the rows of ``factor`` that hold a non-zero entry.

    Cheaper than :func:`row_norms` ``> 0``: most non-zero rows show it in
    their first column, so only the other rows are read in full, a chunk
    at a time.
    """
    live = factor[:, 0] != 0
    rest = np.flatnonzero(~live)
    step = _chunk_rows(factor.shape[1])
    for start in range(0, rest.size, step):
        part = rest[start : start + step]
        live[part] = factor[part].any(axis=1)
    return live


def _chunk_rows(width: int) -> int:
    """Rows per chunk of the row scans: about ``_NORM_CHUNK_BYTES``."""
    return max(1, _NORM_CHUNK_BYTES // (8 * max(width, 1)))


def _tsqr_r(factor: np.ndarray, pool: WorkerPool) -> np.ndarray:
    """The R (at most ``w x w``) of a QR of ``factor``'s non-zero rows.

    Tall-skinny QR in a fixed tree: each ``_TSQR_CHUNK_ROWS``-row chunk's
    non-zero rows get one QR, then the chunk R's are stacked in order, up
    to ``_TSQR_CHUNK_ROWS`` rows a group, and reduced by one more QR per
    group until one R is left.  Each level's QRs run on ``pool``: scipy's
    ``raw`` QR releases the GIL, keeps only the economic R, and holds the
    block and LAPACK's copy (the workspace is passed in, as its size query
    would keep a second copy alive).  The tree depends on the shape only,
    so R is bit-identical at every worker count.
    """
    width = factor.shape[1]

    def _r(block: np.ndarray) -> np.ndarray:
        return scipy.linalg.qr(
            block, mode="raw", overwrite_a=True, check_finite=False,
            lwork=64 * width,
        )[1]

    def _leaf(start: int) -> np.ndarray:
        chunk = factor[start : start + _TSQR_CHUNK_ROWS]
        return _r(chunk[nonzero_rows(chunk)])

    level = pool.map(_leaf, range(0, factor.shape[0], _TSQR_CHUNK_ROWS))
    fan_in = max(2, _TSQR_CHUNK_ROWS // width)
    while len(level) > 1:
        groups = [level[i : i + fan_in] for i in range(0, len(level), fan_in)]
        level = pool.map(lambda group: _r(np.concatenate(group)), groups)
    return level[0]


def _resolve_dtype(requested: "np.dtype | str | type | None") -> np.dtype | None:
    """Normalise a user-supplied precision to one of the supported dtypes."""
    if requested is None:
        return None
    dtype = np.dtype(requested)
    if dtype not in _SUPPORTED_DTYPES:
        raise ValueError(
            f"unsupported factor dtype {dtype}; the precision policy admits "
            "float32 and float64 only"
        )
    return dtype


@dataclass(frozen=True)
class TruncationInfo:
    """Metadata of one rank-bounded recompression.

    Attributes
    ----------
    retained_rank:
        Width kept after truncation (the numerical rank at ``tolerance``).
    discarded_rank:
        Number of singular directions dropped.
    discarded_energy:
        Relative Frobenius error introduced:
        ``||Z - Z_r||_F / ||Z||_F = sqrt(sum_{i>r} s_i^2 / sum_i s_i^2)``.
        Always ``<= tolerance`` by construction.
    tolerance:
        The relative tolerance the truncation was asked to respect.
    """

    retained_rank: int
    discarded_rank: int
    discarded_energy: float
    tolerance: float

    def to_dict(self) -> dict:
        """JSON-serialisable form (for artifacts and checkpoint meta)."""
        return {
            "retained_rank": self.retained_rank,
            "discarded_rank": self.discarded_rank,
            "discarded_energy": self.discarded_energy,
            "tolerance": self.tolerance,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "TruncationInfo":
        """Inverse of :meth:`to_dict`."""
        return cls(
            retained_rank=int(raw["retained_rank"]),
            discarded_rank=int(raw["discarded_rank"]),
            discarded_energy=float(raw["discarded_energy"]),
            tolerance=float(raw["tolerance"]),
        )


class LowRankFactors:
    """An exact factored matrix ``Z = exp(log_scale) * U @ V.T``.

    Parameters
    ----------
    u:
        Left factor, shape ``(n_rows, width)``.
    v:
        Right factor, shape ``(n_cols, width)``.
    log_scale:
        Natural log of the positive scalar multiplier (default 0 = 1.0).
    dtype:
        Explicit precision policy: ``float32`` or ``float64``.  When
        omitted, a matching supported dtype shared by ``u`` and ``v`` is
        preserved; anything else promotes to ``float64`` (the historical
        behaviour, so integer or list inputs still become exact floats).
    truncation:
        Optional :class:`TruncationInfo` describing how these factors
        were produced; carried along by :meth:`astype` and recorded by
        persistence layers.

    The constructor copies nothing when dtypes already match; callers
    hand over ownership of the arrays.

    Examples
    --------
    >>> import numpy as np
    >>> factors = LowRankFactors(np.ones((3, 1)), 2.0 * np.ones((4, 1)))
    >>> factors.shape, factors.width, factors.precision
    ((3, 4), 1, 'float64')
    >>> round(factors.frobenius_norm(), 6)   # ||2 * ones(3x4)||_F
    6.928203
    >>> factors.query_block([0], [1, 2])
    array([[2., 2.]])
    """

    __slots__ = ("u", "v", "log_scale", "truncation")

    def __init__(
        self,
        u: np.ndarray,
        v: np.ndarray,
        log_scale: float = 0.0,
        dtype: "np.dtype | str | type | None" = None,
        truncation: TruncationInfo | None = None,
    ) -> None:
        wanted = _resolve_dtype(dtype)
        u = np.atleast_2d(np.asarray(u))
        v = np.atleast_2d(np.asarray(v))
        if wanted is None:
            if u.dtype == v.dtype and u.dtype in _SUPPORTED_DTYPES:
                wanted = u.dtype
            else:
                wanted = np.dtype(np.float64)
        u = np.asarray(u, dtype=wanted)
        v = np.asarray(v, dtype=wanted)
        if u.ndim != 2 or v.ndim != 2:
            raise ValueError("factors must be 2-D arrays")
        if u.shape[1] != v.shape[1]:
            raise ValueError(
                f"factor widths differ: U has {u.shape[1]} columns, "
                f"V has {v.shape[1]}"
            )
        self.u = u
        self.v = v
        self.log_scale = float(log_scale)
        self.truncation = truncation

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def ones(
        cls,
        n_rows: int,
        n_cols: int,
        dtype: "np.dtype | str | type | None" = None,
    ) -> "LowRankFactors":
        """The rank-1 all-ones matrix ``1_{n_rows} 1_{n_cols}^T`` (= Z_0)."""
        if n_rows < 1 or n_cols < 1:
            raise ValueError("dimensions must be positive")
        wanted = _resolve_dtype(dtype) or np.dtype(np.float64)
        return cls(np.ones((n_rows, 1), dtype=wanted), np.ones((n_cols, 1), dtype=wanted))

    # ------------------------------------------------------------------
    # Shape and policy
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the represented matrix ``(n_rows, n_cols)``."""
        return (self.u.shape[0], self.v.shape[0])

    @property
    def width(self) -> int:
        """Number of factor columns (the embedding dimension ``w``)."""
        return self.u.shape[1]

    @property
    def dtype(self) -> np.dtype:
        """The factor dtype (``float32`` or ``float64``)."""
        return self.u.dtype

    @property
    def precision(self) -> str:
        """The precision policy as a string: ``'float32'`` or ``'float64'``."""
        return self.u.dtype.name

    @property
    def scale(self) -> float:
        """The scalar multiplier ``exp(log_scale)`` (may overflow for huge
        log_scale; use :attr:`log_scale` for reporting in that regime)."""
        return math.exp(self.log_scale)

    @property
    def nbytes(self) -> int:
        """Bytes held by the two factor arrays (for ledger charging)."""
        return self.u.nbytes + self.v.nbytes

    def memory_bytes(self) -> int:
        """Bytes held by the two factor arrays."""
        return self.nbytes

    def astype(self, dtype: "np.dtype | str | type") -> "LowRankFactors":
        """A copy of these factors under the given precision policy."""
        wanted = _resolve_dtype(dtype)
        assert wanted is not None
        return LowRankFactors(
            self.u.astype(wanted, copy=True),
            self.v.astype(wanted, copy=True),
            self.log_scale,
            truncation=self.truncation,
        )

    # ------------------------------------------------------------------
    # Factored algebra (never materialises U @ V.T)
    # ------------------------------------------------------------------
    def frobenius_norm(self, include_scale: bool = True) -> float:
        """``||Z||_F`` via the Gram trick in ``O((n_rows+n_cols) w^2)``.

        With ``include_scale=False`` the scalar multiplier is ignored,
        which is what the final normalisation step needs (the scale cancels
        there anyway).  Gram accumulation happens in float64 regardless of
        the factor precision, so the norm is stable on the float32 path.
        """
        u = self.u if self.u.dtype == np.float64 else self.u.astype(np.float64)
        v = self.v if self.v.dtype == np.float64 else self.v.astype(np.float64)
        squared = float(np.sum((u.T @ u) * (v.T @ v)))
        peak_u = peak_v = 1.0
        low, high = _SAFE_SQUARES
        if not low <= squared <= high:
            # Squares of entries below ~1e-162 underflow (and large ones
            # overflow): divide each factor by its largest magnitude and
            # scale the norm back.  Z is zero if either factor is.
            peak_u = float(np.abs(u).max(initial=0.0))
            peak_v = float(np.abs(v).max(initial=0.0))
            if peak_u and peak_v:
                u, v = u / peak_u, v / peak_v
                squared = float(np.sum((u.T @ u) * (v.T @ v)))
        # Tiny negatives can appear from rounding; clamp.
        norm = math.sqrt(max(squared, 0.0)) * peak_u * peak_v
        if include_scale and self.log_scale != 0.0:
            norm *= math.exp(self.log_scale)
        return norm

    def normalized_distance(self, other: "LowRankFactors") -> float:
        """``|| self/||self|| - other/||other|| ||_F`` without materialising.

        Used by the factored convergence test on even iterates.  Scales
        cancel by construction.
        """
        norm_self = self.frobenius_norm(include_scale=False)
        norm_other = other.frobenius_norm(include_scale=False)
        if norm_self == 0.0 or norm_other == 0.0:
            raise ZeroDivisionError("cannot normalise a zero matrix")
        cross_u = self.u.T @ other.u
        cross_v = self.v.T @ other.v
        cosine = float(np.sum(cross_u * cross_v)) / (norm_self * norm_other)
        # ||a - b||^2 = 2 - 2 cos for unit-norm a, b; clamp rounding noise.
        return math.sqrt(max(2.0 - 2.0 * cosine, 0.0))

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------
    def materialize(self, include_scale: bool = True) -> np.ndarray:
        """The dense ``n_rows x n_cols`` matrix (allocates it!)."""
        dense = self.u @ self.v.T
        if include_scale and self.log_scale != 0.0:
            dense *= math.exp(self.log_scale)
        return dense

    def query_block(
        self,
        row_index: np.ndarray | list[int],
        col_index: np.ndarray | list[int],
        include_scale: bool = True,
    ) -> np.ndarray:
        """The sub-block ``Z[rows, cols]`` (Algorithm 1 line 6).

        Costs ``O((|rows| + |cols|) w + |rows| |cols| w)`` — never touches
        the full matrix.
        """
        rows = resolve_node_index(
            row_index, self.shape[0], "row index",
            allow_empty=True, allow_duplicates=True,
        )
        cols = resolve_node_index(
            col_index, self.shape[1], "column index",
            allow_empty=True, allow_duplicates=True,
        )
        block = self.u[rows] @ self.v[cols].T
        if include_scale and self.log_scale != 0.0:
            block *= math.exp(self.log_scale)
        return block

    def recompressed(
        self,
        tol: float,
        max_rank: int | None = None,
        context: ExecutionContext | None = None,
        max_workers: "WorkerPool | int | None" = None,
    ) -> "LowRankFactors":
        """Truncate the width to the numerical rank at relative tolerance
        ``tol``.

        The machinery is the QR + SVD rounding of the low-rank SimRank
        line of work, from the R factors alone: ``R_U`` and ``R_V`` of a
        QR of each factor (by TSQR over its non-zero rows on the
        ``max_workers`` pool, see :func:`_tsqr_r`), the SVD
        ``R_U R_V^T = W_U S W_V^T`` of the small core (at most ``w x w``),
        and a cut keeping the smallest rank ``r`` whose
        discarded spectral energy satisfies
        ``sum_{i>r} s_i^2 <= tol^2 * sum_i s_i^2`` — i.e. the truncation
        error is at most ``tol`` *relative to* ``||Z||_F``:

            ||Z - Z_r||_F <= tol * ||Z||_F.

        With ``U = Q_U R_U`` and ``V = Q_V R_V`` the truncated factors are
        ``Q_U W_U[:, :r] S_r^(1/2) = U R_V^T W_V[:, :r] S_r^(-1/2)`` and
        likewise for V, so no orthonormal ``Q`` is ever formed and only
        retained singular values are inverted (each exceeds
        ``tol * s_1 / sqrt(w)``).  A zero row of U or V stays exactly zero.

        Because GSim+ normalises by the Frobenius norm at the end, a
        per-iteration recompression at tolerance ``tol`` perturbs the
        final normalised similarity by at most ~``K * tol`` over ``K``
        iterations (first order) — the solver keeps this far below the
        Theorem 4.2 spectral bound by default.

        Cost: ``O(m w^2 + (n_rows + n_cols) w r + w^3)`` for ``m``
        non-zero rows — QR work on non-zero rows only, then one product
        per factor — so recompressing every iteration keeps deep
        iterations at ~constant cost per step instead of the exponential
        ``2^k`` schedule.  Each phase charges the memory ledger of
        ``context`` what :meth:`recompression_bytes` bounds it to hold,
        before it allocates: the TSQR scan and SVD, then the output pair
        at the retained rank.

        Returns a new object in the same precision, carrying a
        :class:`TruncationInfo` record; ``max_rank`` optionally caps the
        retained rank regardless of tolerance.  A zero matrix becomes the
        rank-1 zero pair.

        Examples
        --------
        >>> import numpy as np
        >>> rng = np.random.default_rng(0)
        >>> base = rng.normal(size=(20, 2))
        >>> # Width 6 but numerical rank 2: columns are linear combos.
        >>> mix = rng.normal(size=(2, 6))
        >>> factors = LowRankFactors(base @ mix, rng.normal(size=(15, 6)))
        >>> compact = factors.recompressed(tol=1e-10)
        >>> compact.width
        2
        >>> float(np.abs(compact.materialize() - factors.materialize()).max()) < 1e-9
        True
        """
        if not (0.0 < tol < 1.0):
            raise ValueError(f"tol must be in (0, 1), got {tol}")
        if max_rank is not None and max_rank < 1:
            raise ValueError(f"max_rank must be >= 1, got {max_rank}")
        context = ExecutionContext.resolve(context)
        pool = WorkerPool.resolve(max_workers)
        width = self.width
        tsqr_bytes = self.recompression_bytes(workers=pool.max_workers)
        with context.holding(tsqr_bytes, f"recompression TSQR (width {width})"):
            r_u = _tsqr_r(self.u, pool)
            r_v = _tsqr_r(self.v, pool)
            core_u, sigma, core_vt = np.linalg.svd(r_u @ r_v.T)
        # Energy accounting in float64 even on the float32 path, so the
        # cut decision is never dominated by accumulation noise.
        s2 = np.asarray(sigma, dtype=np.float64) ** 2
        total = float(s2.sum())
        if total == 0.0:
            rank, discarded = 1, 0.0
        else:
            # tail[i] = sum_{j >= i} s_j^2, with tail[width] = 0.
            tail = np.concatenate([np.cumsum(s2[::-1])[::-1], [0.0]])
            rank = max(int(np.argmax(tail <= (tol * tol) * total)), 1)
            if max_rank is not None:
                rank = min(rank, max_rank)
            discarded = math.sqrt(max(float(tail[rank]), 0.0) / total)
        with context.holding(
            self.recompression_bytes(rank), f"recompression output (rank {rank})"
        ):
            if total == 0.0:
                new_u = np.zeros((self.shape[0], 1), dtype=self.dtype)
                new_v = np.zeros((self.shape[1], 1), dtype=self.dtype)
            else:
                # Split the singular values symmetrically so both factors
                # stay well-conditioned (the solver's per-step rescale sees
                # magnitudes ~sqrt(s) on each side instead of s on one).
                inv_root = 1.0 / np.sqrt(sigma[:rank])
                new_u = self.u @ (r_v.T @ (core_vt[:rank].T * inv_root))
                new_v = self.v @ (r_u.T @ (core_u[:, :rank] * inv_root))
        info = TruncationInfo(
            retained_rank=rank,
            discarded_rank=width - rank,
            discarded_energy=discarded,
            tolerance=float(tol),
        )
        return LowRankFactors(new_u, new_v, self.log_scale, truncation=info)

    def recompression_bytes(self, rank: int | None = None, workers: int = 1) -> int:
        """Bytes one phase of :meth:`recompressed` holds above these factors.

        Without ``rank``, the TSQR and the SVD: per worker (at most one per
        chunk), one chunk's gathered non-zero rows and LAPACK's copy, and
        two tree levels of chunk R's.  With ``rank``, the output pair at
        that rank.  Both add the ``w x w`` cores and 16 KiB of headers.
        """
        width, itemsize = self.width, self.dtype.itemsize
        cores = 16 * width * width * 8 + (16 << 10)
        if rank is not None:
            return sum(self.shape) * rank * itemsize + cores
        rows = max(self.shape)
        chunks = -(-rows // _TSQR_CHUNK_ROWS)
        chunk = min(_TSQR_CHUNK_ROWS, rows) * (2 * width * itemsize + 16)
        stack = chunks * min(width, rows) * width * itemsize
        return min(workers, chunks) * chunk + 2 * stack + cores

    def __repr__(self) -> str:
        return (
            f"LowRankFactors(shape={self.shape}, width={self.width}, "
            f"precision={self.precision!r}, log_scale={self.log_scale:.3g})"
        )
