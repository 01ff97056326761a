"""Out-of-core CSR graphs: ``np.memmap``-backed storage behind ``Graph``.

The paper's headline experiments run on billion-edge web crawls; holding
such a graph's CSR arrays (let alone building them from a raw edge list)
in RAM is exactly what this module avoids:

* :class:`MmapCSRGraph` — a :class:`repro.graphs.Graph` whose
  indptr/indices/data arrays (for both ``A`` and the precomputed ``A^T``)
  are read-only memory maps over an on-disk artifact.  Every algorithm
  above the ``Graph`` interface works unchanged; the OS pages CSR data in
  on demand and :meth:`release_pages` hands clean pages back mid-scan so
  resident memory tracks the *working set*, not the graph.
* :func:`convert_edge_list` — an atomic, checksummed, crash-resumable
  edge-list → artifact converter that reuses the strict/lenient parse
  modes of :mod:`repro.graphs.io` and the artifact conventions of
  :mod:`repro.runtime.resilience` (sibling-tmp + fsync + rename
  publishing, SHA-256 content checksums, a manifest written last).

Artifact layout (one directory per graph)::

    adj.indptr.bin    adj.indices.bin    adj.data.bin      # A
    adj_t.indptr.bin  adj_t.indices.bin  adj_t.data.bin    # A^T
    manifest.json       # dtypes, lengths, per-file SHA-256, written LAST
    progress.json       # conversion stage journal; deleted on completion

Arrays are raw native-endian buffers (dtype and length live in the
manifest), mapped without reading a header and assembled into zero-copy
``csr_matrix`` views by :func:`csr_from_arrays`.  Worker threads share
the mappings; nothing is copied per worker.

The converter runs in bounded memory: two streaming parse passes (count,
scatter) over :class:`repro.graphs.io.EdgeChunks`, a block-wise
canonicalisation pass (duplicates summed, stored zeros dropped, rows
sorted — the same canonical form :class:`repro.graphs.Graph` enforces, so
the mapped graph is entry-for-entry bit-identical to an in-memory load of
the same file), and an out-of-core transpose.  Each stage publishes its
outputs atomically and journals completion in ``progress.json``; a crash
— including an injected :class:`repro.runtime.FaultInjector` fault at any
``context.checkpoint`` — resumes at the first incomplete stage.
"""

from __future__ import annotations

import hashlib
import json
import mmap as _mmap_module
import os
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.graphs.graph import Graph
from repro.graphs.io import CHUNK_EDGES, EdgeChunks, _check_mode, _warn_skips
from repro.runtime.context import ExecutionContext
from repro.runtime.resilience import atomic_write, content_checksum
from repro.utils.memory import resident_nbytes

__all__ = ["MmapCSRGraph", "convert_edge_list", "csr_from_arrays"]

_FORMAT = "repro-mmap-csr-v1"
_ARRAY_NAMES = (
    "adj.indptr",
    "adj.indices",
    "adj.data",
    "adj_t.indptr",
    "adj_t.indices",
    "adj_t.data",
)
_VALUE_DTYPE = np.dtype(np.float64)


def _index_dtype(num_nodes: int, nnz: int) -> np.dtype:
    """int32 when every index fits (scipy's own choice), else int64."""
    if max(num_nodes, nnz) <= np.iinfo(np.int32).max:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


def _file_sha256(path: Path, chunk: int = 1 << 22) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        while True:
            block = handle.read(chunk)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


def _write_array(path: Path, array: np.ndarray) -> None:
    """Publish ``array`` atomically as a raw buffer."""
    with atomic_write(path) as tmp:
        with tmp.open("wb") as handle:
            handle.write(np.ascontiguousarray(array).tobytes())


class _Progress:
    """The conversion stage journal (atomic ``progress.json``)."""

    def __init__(self, root: Path) -> None:
        self.path = root / "progress.json"
        self.stages: dict[str, dict] = {}
        if self.path.exists():
            try:
                raw = json.loads(self.path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                raw = {}
            if raw.get("format") == _FORMAT:
                self.stages = raw.get("stages", {})

    def done(self, stage: str) -> dict | None:
        return self.stages.get(stage)

    def complete(self, stage: str, meta: dict) -> None:
        self.stages[stage] = meta
        with atomic_write(self.path) as tmp:
            tmp.write_text(
                json.dumps({"format": _FORMAT, "stages": self.stages}, indent=2),
                encoding="utf-8",
            )

    def clear(self) -> None:
        self.path.unlink(missing_ok=True)


def csr_from_arrays(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    shape: tuple[int, int],
) -> sp.csr_matrix:
    """A ``csr_matrix`` *viewing* the given buffers.

    scipy's constructor would copy (and try to canonicalise, mutating
    read-only mappings), so the attributes are assigned directly and the
    canonical-form flags set by contract: every artifact writer stores
    sorted, deduplicated rows with no stored zeros.
    """
    matrix = sp.csr_matrix(shape, dtype=data.dtype)
    matrix.data = np.asarray(data)
    matrix.indices = np.asarray(indices)
    matrix.indptr = np.asarray(indptr)
    matrix.has_sorted_indices = True
    matrix.has_canonical_format = True
    return matrix


class MmapCSRGraph(Graph):
    """A :class:`Graph` whose CSR arrays are read-only memory maps.

    Construct from a converted artifact directory (see
    :func:`convert_edge_list` / :meth:`from_graph`).  The full
    ``Graph`` API works unchanged; additionally:

    * :meth:`release_pages` advises the kernel to drop the (clean) CSR
      pages, bounding resident memory during streaming scans;
    * :meth:`resident_bytes` reports the pages actually in RAM right
      now, which is what the memory ledger charges for mapped graphs.

    Examples
    --------
    >>> import tempfile
    >>> from repro.graphs import Graph
    >>> g = Graph.from_edges(3, [(0, 1), (1, 2)])
    >>> m = MmapCSRGraph.from_graph(g, tempfile.mkdtemp())
    >>> (m.num_nodes, m.num_edges) == (g.num_nodes, g.num_edges)
    True
    """

    __slots__ = ("_root", "_manifest", "_arrays")

    def __init__(self, root: str | Path, verify: bool = False) -> None:
        root = Path(root)
        manifest_path = root / "manifest.json"
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise FileNotFoundError(
                f"{root} is not a converted mmap-CSR artifact (no "
                "manifest.json; run convert_edge_list first)"
            ) from None
        if manifest.get("format") != _FORMAT:
            raise ValueError(
                f"{manifest_path} has format {manifest.get('format')!r}, "
                f"expected {_FORMAT!r}"
            )
        arrays: dict[str, np.ndarray] = {}
        for array_name in _ARRAY_NAMES:
            spec = manifest["arrays"][array_name]
            path = root / spec["file"]
            dtype = np.dtype(spec["dtype"])
            length = int(spec["length"])
            expected = dtype.itemsize * length
            actual = path.stat().st_size
            if actual != expected:
                raise ValueError(
                    f"{path} is {actual} bytes, manifest says {expected}; "
                    "artifact is truncated or stale"
                )
            if verify and length and _file_sha256(path) != spec["sha256"]:
                raise ValueError(f"{path} fails its manifest checksum")
            if length:
                arrays[array_name] = np.memmap(
                    path, dtype=dtype, mode="r", shape=(length,)
                )
            else:
                arrays[array_name] = np.empty(0, dtype=dtype)
        n = int(manifest["num_nodes"])
        # Bypass Graph.__init__: it would copy + re-canonicalise; the
        # artifact is canonical by construction and must stay mapped.
        self._adj, self._adj_t = (
            csr_from_arrays(
                arrays[f"{prefix}.indptr"],
                arrays[f"{prefix}.indices"],
                arrays[f"{prefix}.data"],
                (n, n),
            )
            for prefix in ("adj", "adj_t")
        )
        self._name = str(manifest.get("name", root.name))
        self._root = root
        self._manifest = manifest
        self._arrays = arrays

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def load(cls, root: str | Path, verify: bool = False) -> "MmapCSRGraph":
        """Alias of the constructor, for symmetry with other artifacts."""
        return cls(root, verify=verify)

    @classmethod
    def from_graph(
        cls, graph: Graph, out_dir: str | Path, name: str | None = None
    ) -> "MmapCSRGraph":
        """Write an in-memory graph as an mmap artifact and map it back.

        The fast path for tests and benchmarks (no parsing); the arrays
        are written exactly as held, so the mapped graph's CSR entries
        are bit-identical to the source's.
        """
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        adj = graph.adjacency
        if not adj.has_sorted_indices:
            adj = adj.sorted_indices()
        adj_t = graph.adjacency_t
        if not adj_t.has_sorted_indices:
            adj_t = adj_t.sorted_indices()
        index_dtype = _index_dtype(graph.num_nodes, graph.num_edges)
        halves = {"adj": adj, "adj_t": adj_t}
        for prefix, matrix in halves.items():
            _write_array(
                out_dir / f"{prefix}.indptr.bin",
                matrix.indptr.astype(index_dtype, copy=False),
            )
            _write_array(
                out_dir / f"{prefix}.indices.bin",
                matrix.indices.astype(index_dtype, copy=False),
            )
            _write_array(
                out_dir / f"{prefix}.data.bin",
                matrix.data.astype(_VALUE_DTYPE, copy=False),
            )
        _publish_manifest(
            out_dir,
            name=name or graph.name,
            num_nodes=graph.num_nodes,
            nnz=graph.num_edges,
            index_dtype=index_dtype,
            source={"kind": "from_graph"},
        )
        return cls(out_dir)

    # ------------------------------------------------------------------
    # Out-of-core specifics
    # ------------------------------------------------------------------
    @property
    def root(self) -> Path:
        """The artifact directory this graph is mapped from."""
        return self._root

    def release_pages(self) -> None:
        """Advise the kernel to drop this graph's resident CSR pages.

        The mappings are read-only, so every page is clean and reloadable
        from disk; streaming scans call this between passes to keep the
        resident set at one window instead of the whole graph.
        """
        for array in self._arrays.values():
            mapping = getattr(array, "_mmap", None)
            if mapping is not None:
                try:
                    mapping.madvise(_mmap_module.MADV_DONTNEED)
                except (AttributeError, ValueError, OSError):  # pragma: no cover
                    return  # platform without madvise: RSS stays OS-managed

    def resident_bytes(self) -> int:
        """Bytes of CSR data currently resident in RAM (mincore probe)."""
        return sum(resident_nbytes(array) for array in self._arrays.values())

    def memory_bytes(self) -> int:
        """Virtual (fully-faulted) size of the mapped CSR structures.

        Deliberately the same definition as the in-memory ``Graph`` —
        what the graph *would* cost fully resident; the ledger charges
        :meth:`resident_bytes` instead for mapped graphs.
        """
        return super().memory_bytes()


# ----------------------------------------------------------------------
# Converter
# ----------------------------------------------------------------------
def _publish_manifest(
    root: Path,
    name: str,
    num_nodes: int,
    nnz: int,
    index_dtype: np.dtype,
    source: dict,
) -> None:
    """Checksum every array file and write ``manifest.json`` atomically.

    The manifest is written last, so its presence certifies a complete
    artifact; its own ``checksum`` field folds the per-file digests, so
    corruption of any component is detectable without re-hashing data.
    """
    arrays: dict[str, dict] = {}
    for array_name in _ARRAY_NAMES:
        path = root / f"{array_name}.bin"
        dtype = _VALUE_DTYPE if array_name.endswith(".data") else index_dtype
        size = path.stat().st_size
        if size % dtype.itemsize:
            raise ValueError(f"{path}: size {size} not a multiple of {dtype}")
        arrays[array_name] = {
            "file": path.name,
            "dtype": dtype.str,
            "length": size // dtype.itemsize,
            "sha256": _file_sha256(path),
        }
    manifest = {
        "format": _FORMAT,
        "name": name,
        "num_nodes": int(num_nodes),
        "nnz": int(nnz),
        "arrays": arrays,
        "source": source,
    }
    manifest["checksum"] = content_checksum(
        {array_name: spec["sha256"] for array_name, spec in arrays.items()}
        | {"num_nodes": int(num_nodes), "nnz": int(nnz)}
    )
    with atomic_write(root / "manifest.json") as tmp:
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")


def _count_stage(
    source: Path,
    root: Path,
    comment: str,
    mode: str,
    chunk_edges: int,
    context: ExecutionContext,
) -> dict:
    """Pass 1: out-degree counts -> raw indptr; node count; raw nnz.

    The node count is the one a ``nodes=N`` header declares, else
    ``max_id + 1``.
    """
    counts = np.zeros(0, dtype=np.int64)
    max_id = -1
    nnz = 0
    with source.open("rb") as handle:
        chunks = EdgeChunks(handle, chunk_edges, comment, mode)
        for src, dst, _ in chunks:
            context.checkpoint(f"mmap convert count @edge {nnz}")
            max_id = max(max_id, int(src.max()), int(dst.max()))
            chunk_counts = np.bincount(src)
            counts = np.pad(counts, (0, max(0, chunk_counts.size - counts.size)))
            counts[: chunk_counts.size] += chunk_counts
            nnz += src.size
    num_nodes = max_id + 1 if chunks.num_nodes is None else chunks.num_nodes
    # Rows past the last source row are empty.
    indptr = np.full(num_nodes + 1, nnz, dtype=np.int64)
    indptr[0] = 0
    np.cumsum(counts, out=indptr[1 : counts.size + 1])
    _write_array(root / "raw.indptr.bin", indptr)
    return {
        "num_nodes": num_nodes,
        "raw_nnz": nnz,
        "skipped": chunks.skipped,
        "first_skip_reason": chunks.first_reason,
    }


def _append_slots(keys: np.ndarray, cursor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where to append a chunk of entries to the rows named by ``keys``.

    Entry ``order[i]`` goes to ``slots[i]``; ``cursor`` (each row's next
    free slot) advances past the chunk.  The sort is stable and an entry's
    rank within its key gives it its own slot, so entries keep their chunk
    order within a row even when a key repeats.
    """
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.diff(sorted_keys, prepend=-1))
    uniques = sorted_keys[starts]
    del sorted_keys
    counts = np.diff(starts, append=keys.size)
    # slot = cursor[key] + (position - start of the key's run)
    slots = np.arange(keys.size)
    slots -= np.repeat(starts - cursor[uniques], counts)
    cursor[uniques] += counts
    return order, slots


def _scatter_stage(
    source: Path,
    root: Path,
    comment: str,
    mode: str,
    chunk_edges: int,
    num_nodes: int,
    raw_nnz: int,
    context: ExecutionContext,
) -> None:
    """Pass 2: scatter (dst, weight) into per-row slots, file order kept."""
    indptr = np.fromfile(root / "raw.indptr.bin", dtype=np.int64)
    cursor = indptr[:-1].copy()
    with atomic_write(root / "raw.indices.bin") as tmp_idx, atomic_write(
        root / "raw.data.bin"
    ) as tmp_dat, source.open("rb") as handle:
        indices = np.memmap(tmp_idx, dtype=np.int64, mode="w+", shape=(max(raw_nnz, 1),))
        data = np.memmap(tmp_dat, dtype=np.float64, mode="w+", shape=(max(raw_nnz, 1),))
        seen = 0
        # The count pass's node count makes this pass skip the same lines
        # (its skips were already reported).
        for src, dst, weight in EdgeChunks(
            handle, chunk_edges, comment, mode, num_nodes=num_nodes
        ):
            context.checkpoint(f"mmap convert scatter @edge {seen}")
            order, slots = _append_slots(src, cursor)
            indices[slots] = dst[order]
            data[slots] = weight[order]
            seen += src.size
        indices.flush()
        data.flush()
        del indices, data
        if raw_nnz == 0:
            # The placeholder element keeps np.memmap happy; truncate it.
            os.truncate(tmp_idx, 0)
            os.truncate(tmp_dat, 0)


def _canonical_stage(
    root: Path,
    num_nodes: int,
    raw_nnz: int,
    index_dtype: np.dtype,
    block_rows: int,
    context: ExecutionContext,
) -> int:
    """Block-wise canonicalisation into the final ``adj.*`` arrays.

    Per row block: duplicates summed, stored zeros dropped, columns
    sorted — the same canonical form ``Graph.__init__`` enforces (sum
    first, then eliminate, so duplicate groups summing to zero vanish
    exactly as they do on the in-memory path).  Rows are processed in
    ascending order, so the final arrays are written append-only.
    """
    raw_indptr = np.fromfile(root / "raw.indptr.bin", dtype=np.int64)
    raw_indices = (
        np.memmap(root / "raw.indices.bin", dtype=np.int64, mode="r")
        if raw_nnz
        else np.empty(0, dtype=np.int64)
    )
    raw_data = (
        np.memmap(root / "raw.data.bin", dtype=np.float64, mode="r")
        if raw_nnz
        else np.empty(0, dtype=np.float64)
    )
    final_indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    nnz = 0
    with atomic_write(root / "adj.indices.bin") as tmp_idx, atomic_write(
        root / "adj.data.bin"
    ) as tmp_dat, tmp_idx.open("wb") as idx_handle, tmp_dat.open("wb") as dat_handle:
        for start in range(0, num_nodes, block_rows):
            stop = min(start + block_rows, num_nodes)
            context.checkpoint(f"mmap convert canonical @row {start}")
            lo, hi = int(raw_indptr[start]), int(raw_indptr[stop])
            block = sp.csr_matrix(
                (
                    np.array(raw_data[lo:hi]),  # writable copies: the raw
                    np.array(raw_indices[lo:hi]),  # maps are read-only
                    raw_indptr[start : stop + 1] - lo,
                ),
                shape=(stop - start, num_nodes),
            )
            block.sum_duplicates()
            block.eliminate_zeros()
            block.sort_indices()
            idx_handle.write(
                block.indices.astype(index_dtype, copy=False).tobytes()
            )
            dat_handle.write(
                block.data.astype(_VALUE_DTYPE, copy=False).tobytes()
            )
            final_indptr[start + 1 : stop + 1] = nnz + block.indptr[1:]
            nnz += int(block.nnz)
    _write_array(root / "adj.indptr.bin", final_indptr.astype(index_dtype))
    return nnz


def _transpose_stage(
    root: Path,
    num_nodes: int,
    nnz: int,
    index_dtype: np.dtype,
    block_rows: int,
    context: ExecutionContext,
) -> None:
    """Out-of-core ``A^T`` from the canonical ``A``.

    Scanning canonical rows in ascending order and appending each entry
    at its column's cursor yields transpose rows that are already sorted
    and duplicate-free — no second canonicalisation pass needed.
    """
    indptr = np.fromfile(root / "adj.indptr.bin", dtype=index_dtype).astype(np.int64)
    indices = (
        np.memmap(root / "adj.indices.bin", dtype=index_dtype, mode="r")
        if nnz
        else np.empty(0, dtype=index_dtype)
    )
    data = (
        np.memmap(root / "adj.data.bin", dtype=_VALUE_DTYPE, mode="r")
        if nnz
        else np.empty(0, dtype=_VALUE_DTYPE)
    )
    in_degrees = np.bincount(
        np.asarray(indices, dtype=np.int64), minlength=num_nodes
    )
    indptr_t = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(in_degrees, out=indptr_t[1:])
    cursor = indptr_t[:-1].copy()
    with atomic_write(root / "adj_t.indices.bin") as tmp_idx, atomic_write(
        root / "adj_t.data.bin"
    ) as tmp_dat:
        indices_t = np.memmap(
            tmp_idx, dtype=index_dtype, mode="w+", shape=(max(nnz, 1),)
        )
        data_t = np.memmap(
            tmp_dat, dtype=_VALUE_DTYPE, mode="w+", shape=(max(nnz, 1),)
        )
        for start in range(0, num_nodes, block_rows):
            stop = min(start + block_rows, num_nodes)
            context.checkpoint(f"mmap convert transpose @row {start}")
            lo, hi = int(indptr[start]), int(indptr[stop])
            if hi == lo:
                continue
            cols = np.asarray(indices[lo:hi], dtype=np.int64)
            vals = np.asarray(data[lo:hi])
            rows = np.repeat(
                np.arange(start, stop, dtype=np.int64),
                np.diff(indptr[start : stop + 1]),
            )
            order, slots = _append_slots(cols, cursor)
            indices_t[slots] = rows[order]
            data_t[slots] = vals[order]
        indices_t.flush()
        data_t.flush()
        del indices_t, data_t
        if nnz == 0:
            os.truncate(tmp_idx, 0)
            os.truncate(tmp_dat, 0)
    _write_array(root / "adj_t.indptr.bin", indptr_t.astype(index_dtype))


def convert_edge_list(
    source: str | Path,
    out_dir: str | Path,
    mode: str = "strict",
    comment: str = "#",
    name: str | None = None,
    chunk_edges: int = CHUNK_EDGES,
    block_rows: int = 1 << 16,
    resume: bool = True,
    context: ExecutionContext | None = None,
) -> MmapCSRGraph:
    """Convert an edge-list file into an mmap-CSR artifact directory.

    Parameters
    ----------
    source:
        Edge-list file (``src dst [weight]`` per line, SNAP-style
        ``#`` comments); node ids must be non-negative integers (use
        :func:`repro.graphs.read_edge_list` with ``relabel=True`` for
        arbitrary tokens — relabelling needs a token table, which
        defeats streaming).  A ``nodes=N`` comment before the first
        edge sets the node count, as in ``read_edge_list``.
    mode:
        ``"strict"`` (default) raises on any malformed line;
        ``"lenient"`` skips malformed lines and emits one counted
        ``RuntimeWarning`` — the exact semantics of
        :func:`repro.graphs.io.read_edge_list`, whose parser
        (:class:`repro.graphs.io.EdgeChunks`) both parse passes use.
    chunk_edges, block_rows:
        Streaming granularity of the parse passes (edges per chunk) and
        the canonicalise/transpose passes (rows per block); peak memory
        is ``O(num_nodes + chunk_edges + block nnz)``, never ``O(nnz)``.
    resume:
        When True (default) a partially-converted directory continues
        from its first incomplete stage (journalled in
        ``progress.json``); when False any prior progress is discarded.
    context:
        Optional :class:`repro.runtime.ExecutionContext`; the converter
        checkpoints per chunk (label ``"mmap convert <stage>"``), so
        deadlines, cancellation, and injected faults stop it between
        chunks — and the atomic stage publishing guarantees a later
        ``resume=True`` call completes with a bit-identical artifact.

    Returns the mapped :class:`MmapCSRGraph`.  Idempotent: a directory
    whose manifest already exists is just loaded back.
    """
    _check_mode(mode)
    context = ExecutionContext.resolve(context)
    metrics = context.metrics
    source = Path(source)
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    if (root / "manifest.json").exists():
        return MmapCSRGraph(root)
    progress = _Progress(root)
    if not resume:
        progress.stages = {}
        progress.clear()

    count_meta = progress.done("count")
    if count_meta is None:
        count_meta = _count_stage(source, root, comment, mode, chunk_edges, context)
        _warn_skips(count_meta["skipped"], count_meta["first_skip_reason"], str(source))
        progress.complete("count", count_meta)
        metrics.increment("mmap_convert.stages_run")
    else:
        metrics.increment("mmap_convert.stages_resumed")
    num_nodes = int(count_meta["num_nodes"])
    raw_nnz = int(count_meta["raw_nnz"])
    index_dtype = _index_dtype(num_nodes, raw_nnz)

    if progress.done("scatter") is None:
        _scatter_stage(
            source, root, comment, mode, chunk_edges, num_nodes, raw_nnz, context
        )
        progress.complete("scatter", {})
        metrics.increment("mmap_convert.stages_run")
    else:
        metrics.increment("mmap_convert.stages_resumed")

    canonical_meta = progress.done("canonical")
    if canonical_meta is None:
        nnz = _canonical_stage(
            root, num_nodes, raw_nnz, index_dtype, block_rows, context
        )
        canonical_meta = {"nnz": nnz}
        progress.complete("canonical", canonical_meta)
        metrics.increment("mmap_convert.stages_run")
    else:
        metrics.increment("mmap_convert.stages_resumed")
    nnz = int(canonical_meta["nnz"])

    if progress.done("transpose") is None:
        _transpose_stage(root, num_nodes, nnz, index_dtype, block_rows, context)
        progress.complete("transpose", {})
        metrics.increment("mmap_convert.stages_run")
    else:
        metrics.increment("mmap_convert.stages_resumed")

    context.checkpoint("mmap convert manifest")
    _publish_manifest(
        root,
        name=name or source.stem,
        num_nodes=num_nodes,
        nnz=nnz,
        index_dtype=index_dtype,
        source={
            "kind": "edge_list",
            "path": str(source),
            "mode": mode,
            "skipped_lines": int(count_meta["skipped"]),
        },
    )
    for stale in ("raw.indptr.bin", "raw.indices.bin", "raw.data.bin"):
        (root / stale).unlink(missing_ok=True)
    progress.clear()
    metrics.increment("mmap_convert.completed")
    return MmapCSRGraph(root)
