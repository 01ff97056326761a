"""The GSimIndex: build once, persist, and serve retrievals.

Wraps the lower-level pieces (:class:`repro.core.gsim_plus.GSimPlus`,
:class:`repro.core.embeddings.LowRankFactors`, :mod:`repro.core.topk`)
behind one object with a stable on-disk format that records how the
index was built (iteration count, graph sizes, library version), so a
served score can always be traced back to its construction parameters.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.core.batch import BatchQueryEngine
from repro.core.embeddings import LowRankFactors, TruncationInfo
from repro.core.topk import ScoredPair, _factors_for, rank_row, scan_top_pairs
from repro.graphs.graph import Graph
from repro.runtime import ExecutionContext, Metrics, WorkerPool
from repro.runtime.errors import CorruptArtifactError
from repro.runtime.resilience import (
    CheckpointManager,
    atomic_write,
    content_checksum,
    read_npz,
    write_npz,
)
from repro.utils.validation import check_positive_integer, resolve_node_index

__all__ = ["GSimIndex", "IndexMetadata"]

# v2 added ``build_metrics``; v3 added the precision policy and
# recompression provenance.  Older files load with the new fields
# defaulted (float64, no recompression).
_METADATA_VERSION = 3


@dataclass(frozen=True)
class IndexMetadata:
    """Provenance recorded alongside the factors."""

    n_a: int
    n_b: int
    m_a: int
    m_b: int
    iterations: int
    graph_a_name: str
    graph_b_name: str
    content_prior: bool
    metadata_version: int = _METADATA_VERSION
    build_metrics: dict | None = None
    precision: str = "float64"
    recompress_tol: float | None = None
    truncation: dict | None = None


class GSimIndex:
    """A built GSim+ similarity index over one graph pair.

    Construct with :meth:`build` (from graphs) or :meth:`load` (from
    disk).

    Examples
    --------
    >>> from repro.graphs import Graph
    >>> a = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    >>> b = Graph.from_edges(3, [(0, 1), (1, 2)])
    >>> index = GSimIndex.build(a, b, iterations=6)
    >>> index.query([0, 1], [0]).shape
    (2, 1)
    >>> index.top_matches(0, k=2)[0].node_a
    0
    """

    def __init__(self, factors: LowRankFactors, metadata: IndexMetadata) -> None:
        self._factors = factors
        self._metadata = metadata
        self._engine = BatchQueryEngine(factors)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph_a: Graph,
        graph_b: Graph,
        iterations: int = 10,
        initial_factors: tuple[np.ndarray, np.ndarray] | None = None,
        context: ExecutionContext | None = None,
        checkpoints: CheckpointManager | str | Path | None = None,
        checkpoint_every: int = 1,
        resume_from: CheckpointManager | str | Path | None = None,
        recompress_tol: float | None = None,
        precision: str = "float64",
        max_workers: int | None = None,
    ) -> "GSimIndex":
        """Iterate GSim+ at its numerical rank and wrap the final factors.

        Every doubling step is recompressed at ``recompress_tol``, or at
        :data:`repro.core.gsim_plus.NUMERICAL_RANK_TOL` (1e-12) when it is
        ``None``, never to more than ``min(n_A, n_B)`` columns (see
        :func:`repro.core.topk._factors_for`): scores are within about
        ``K * tol`` relative Frobenius error of the exact ``2^K`` factors
        of :class:`GSimPlus`.  The tolerance used, the last truncation and
        ``precision`` are recorded in the metadata, so a served score can
        be traced back to its accuracy/precision envelope.

        The build is one ``index.build`` operation of the context.  Its
        counters (spmm calls, per-iteration widths, bytes held, the
        ``index.build_seconds`` histogram) are recorded in a fresh
        :class:`repro.runtime.ExecutionContext` when none is passed, and
        persisted in :attr:`IndexMetadata.build_metrics` either way — so
        a served score can be traced back to the run that produced the
        factors.

        ``checkpoints`` / ``checkpoint_every`` / ``resume_from`` forward
        to :meth:`GSimPlus.iterate`, so an interrupted multi-hour build
        restarts at its last snapshotted iteration instead of from
        scratch.  ``max_workers`` is the solver's worker-thread count
        (row-chunked SpMM and the recompression's TSQR; results are
        bit-identical at every count).  The default ``None`` runs one
        worker per CPU this process may use
        (:class:`repro.runtime.WorkerPool`), unlike the serial default of
        :class:`GSimPlus` and :func:`gsim_plus`; ``1`` is serial.  The
        workers share :class:`repro.graphs.mmap_csr.MmapCSRGraph` inputs
        without copying them.
        """
        iterations = check_positive_integer(iterations, "iterations")
        if context is None:
            context = ExecutionContext(metrics=Metrics())
        with context.operation("index.build", iterations=iterations):
            factors = _factors_for(
                graph_a, graph_b, iterations, context=context,
                max_workers=WorkerPool(max_workers), recompress_tol=recompress_tol,
                precision=precision, initial_factors=initial_factors,
                checkpoints=checkpoints, checkpoint_every=checkpoint_every,
                resume_from=resume_from,
            )
        truncation = factors.truncation
        assert truncation is not None
        metadata = IndexMetadata(
            n_a=graph_a.num_nodes,
            n_b=graph_b.num_nodes,
            m_a=graph_a.num_edges,
            m_b=graph_b.num_edges,
            iterations=iterations,
            graph_a_name=graph_a.name,
            graph_b_name=graph_b.name,
            content_prior=initial_factors is not None,
            build_metrics=context.metrics.snapshot(),
            precision=precision,
            recompress_tol=truncation.tolerance,
            truncation=truncation.to_dict(),
        )
        return cls(factors, metadata)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Atomically write factors + metadata to one ``.npz``.

        The archive comes from
        :func:`repro.runtime.resilience.write_npz`, which deflates each
        member as 1 MiB segments on one worker per usable CPU: plain
        :func:`numpy.load` reads it, and every member carries a CRC32.
        The write goes to a sibling temp file published with
        ``os.replace`` and embeds a SHA-256 content checksum, so a crash
        mid-save never clobbers a good index and a garbled file is
        detected on load rather than served.
        """
        path = Path(path)
        content = {
            "u": self._factors.u,
            "v": self._factors.v,
            "log_scale": np.float64(self._factors.log_scale),
            "dtype": np.str_(self._factors.dtype.name),
            "metadata_json": json.dumps(asdict(self._metadata)),
        }
        digest = content_checksum(content)
        with atomic_write(path) as tmp:
            write_npz(tmp, {**content, "checksum": digest})

    @classmethod
    def load(cls, path: str | Path) -> "GSimIndex":
        """Restore and verify an index written by :meth:`save`.

        The archive is read by :func:`repro.runtime.resilience.read_npz`,
        which inflates each member's segments in parallel into its array
        and checks their lengths and the member's CRC32; indexes written
        by ``np.savez_compressed`` (v1–v3) or before the segment table
        existed inflate one member at a time.  The SHA-256 checksum is
        then verified over the loaded content.

        Raises ``ValueError`` on missing arrays or a newer metadata
        version than this library understands, and
        :class:`repro.runtime.CorruptArtifactError` when the file is
        unreadable or fails its checksum — rebuild the index with
        :meth:`build` in that case.
        """
        path = Path(path)
        try:
            arrays = read_npz(path)
        except CorruptArtifactError as exc:
            raise CorruptArtifactError(
                f"cannot read GSimIndex file {path} ({exc}); the artifact "
                "is corrupt — rebuild it with GSimIndex.build",
                path=str(path),
            ) from exc
        missing = {"u", "v", "log_scale", "metadata_json"} - set(arrays)
        if missing:
            raise ValueError(
                f"{path} is not a GSimIndex file (missing {sorted(missing)})"
            )
        if "checksum" in arrays:
            content = {
                "u": arrays["u"],
                "v": arrays["v"],
                "log_scale": arrays["log_scale"],
                "metadata_json": str(arrays["metadata_json"]),
            }
            if "dtype" in arrays:
                content["dtype"] = arrays["dtype"]
            if content_checksum(content) != str(arrays["checksum"]):
                raise CorruptArtifactError(
                    f"checksum mismatch in GSimIndex file {path}; the "
                    "artifact is corrupt — rebuild it with GSimIndex.build",
                    path=str(path),
                )
        raw = json.loads(str(arrays["metadata_json"]))
        if raw.get("metadata_version", 0) > _METADATA_VERSION:
            raise ValueError(
                f"{path} was written by a newer library "
                f"(metadata v{raw['metadata_version']})"
            )
        metadata = IndexMetadata(**raw)
        if "dtype" in arrays:
            declared = np.dtype(str(arrays["dtype"]))
            for name in ("u", "v"):
                if arrays[name].dtype != declared:
                    raise ValueError(
                        f"{path} declares dtype {declared.name} but array "
                        f"'{name}' is {arrays[name].dtype.name}; the "
                        "artifact is inconsistent — rebuild it with "
                        "GSimIndex.build"
                    )
            dtype = declared
        else:
            # pre-v3 indexes predate the precision policy: float64 only.
            dtype = np.dtype(np.float64)
        truncation = (
            TruncationInfo.from_dict(metadata.truncation)
            if metadata.truncation is not None
            else None
        )
        factors = LowRankFactors(
            arrays["u"],
            arrays["v"],
            float(arrays["log_scale"]),
            dtype=dtype,
            truncation=truncation,
        )
        return cls(factors, metadata)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    @property
    def metadata(self) -> IndexMetadata:
        """How this index was built."""
        return self._metadata

    @property
    def factors(self) -> LowRankFactors:
        """The served factor pair (immutable; shared, not copied).

        Exposed for callers that read the whole pair rather than one
        block at a time: the direct scans of :mod:`repro.core.topk`, or a
        check of the factors against a dense oracle.
        """
        return self._factors

    @property
    def shape(self) -> tuple[int, int]:
        """``(n_A, n_B)`` of the indexed similarity."""
        return self._factors.shape

    def query(
        self,
        queries_a: np.ndarray | list[int],
        queries_b: np.ndarray | list[int],
        context: ExecutionContext | None = None,
    ) -> np.ndarray:
        """A globally-normalised similarity block.

        Each call is one ``index.query`` operation of the context: a
        span with the result-cell count and factor width, its latency in
        the ``index.query_seconds`` histogram — the per-query p50/p99
        any serving deployment steers by — the ``index.query.requests``
        / ``index.query.errors`` counters (the error-rate SLO inputs),
        and a slow-query record when an attached
        :class:`repro.runtime.telemetry.SlowQueryLog` finds it slow.
        """
        context = ExecutionContext.resolve(context)
        with context.operation("index.query") as operation:
            operation.set_attribute("width", self._factors.width)
            block = self._engine.query(queries_a, queries_b, context=context)
            operation.set_attribute("cells", int(block.size))
            return block

    def top_matches(
        self, node_a: int, k: int = 10, context: ExecutionContext | None = None
    ) -> list[ScoredPair]:
        """The ``k`` best G_B matches for one G_A node.

        The node's factor row is scored against V's non-zero rows only
        (:func:`repro.core.topk.rank_row`); ties to within rounding break
        by lowest ``node_b``.  Each call is one ``index.top_matches``
        operation of the context.
        """
        context = ExecutionContext.resolve(context)
        with context.operation("index.top_matches") as operation:
            k = check_positive_integer(k, "k")
            operation.set_attribute("k", k)
            node = int(resolve_node_index([node_a], self.shape[0], "node_a")[0])
            cols, scores = rank_row(
                self._factors.u[node], self._engine.v_targets, min(k, self.shape[1])
            )
            norm = self._engine.global_norm
            return [
                ScoredPair(node_a=node, node_b=int(col), score=float(score) / norm)
                for col, score in zip(cols, scores)
            ]

    def top_pairs(
        self,
        k: int = 10,
        block_rows: int = 1024,
        context: ExecutionContext | None = None,
    ) -> list[ScoredPair]:
        """The ``k`` globally best pairs, by the pruned scan of
        :func:`repro.core.topk.scan_top_pairs` under bounded memory.

        Scores are globally normalised (entries of the unit-Frobenius
        matrix); ties to within rounding break by lowest ``node_a`` then
        ``node_b``, and the result is identical for every ``block_rows``.
        Each call is one ``index.top_pairs`` operation of the context,
        enclosing the scan's ``topk.scan_pairs`` operation.
        """
        k = check_positive_integer(k, "k")
        block_rows = check_positive_integer(block_rows, "block_rows")
        context = ExecutionContext.resolve(context)
        with context.operation(
            "index.top_pairs",
            k=k,
            block_rows=block_rows,
            width=self._factors.width,
        ):
            return scan_top_pairs(
                self._factors,
                k,
                block_rows=block_rows,
                context=context,
                norm=self._engine.global_norm,
            )

    def __repr__(self) -> str:
        return (
            f"GSimIndex(shape={self.shape}, iterations={self._metadata.iterations}, "
            f"graphs=({self._metadata.graph_a_name!r}, "
            f"{self._metadata.graph_b_name!r}))"
        )
