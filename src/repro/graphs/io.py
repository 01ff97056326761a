"""Edge-list readers and writers.

Supports the plain whitespace/tab-separated edge-list format used by the
SNAP datasets the paper evaluates on (``# comment`` headers, one
``src dst [weight]`` pair per line), plus relabelling of arbitrary node ids
to the contiguous ``0..n-1`` range :class:`repro.graphs.Graph` requires.

Every reader goes through :class:`EdgeChunks`, which streams a file as
bounded ``(src, dst, weight)`` array chunks: byte blocks cut at a line
end are parsed at C speed when they hold nothing but unsigned decimal
fields, and line by line otherwise.  The line parser is the reference: the
fast path only ever accepts blocks the line parser would read to the same
edges.  Without ``relabel``, a ``nodes=N`` comment before the first edge
(what :func:`write_edge_list` writes) fixes the node count, so isolated
trailing nodes survive the round trip.  Lines end at ``\n``, ``\r\n`` or
a lone ``\r`` (universal newlines), in files and strings alike.

Two parse modes handle the reality of scraped billion-edge dumps:

``strict`` (the default)
    Any malformed line — wrong field count, unparsable weight,
    non-integer or negative id without ``relabel``, an id at or above the
    declared node count — raises ``ValueError`` naming the offending line
    number.  Right for curated inputs where a bad line means a bad
    pipeline.
``lenient``
    Malformed lines are skipped and counted; one ``RuntimeWarning``
    summarising the skip count fires at the end.  Right for raw crawls
    where a handful of torn lines should not abort an hours-long load.
"""

from __future__ import annotations

import io
import itertools
import re
import warnings
from pathlib import Path
from typing import BinaryIO, Iterator, TextIO

import numpy as np

from repro.graphs.graph import Graph
from repro.utils.validation import check_nonnegative_integer, check_positive_integer

__all__ = [
    "EdgeChunks",
    "read_edge_list",
    "read_edge_list_text",
    "write_edge_list",
]

_MODES = ("strict", "lenient")

# Edges per chunk when read_edge_list streams a file; the converter's
# default chunk size too.
CHUNK_EDGES = 1 << 20
# Lines formatted per write by write_edge_list.
_WRITE_EDGES = 1 << 16
# Bytes read per block: 16 per edge of a chunk, at most 1 MiB, which keeps
# a block's parse temporaries to about 10 MiB.
_BLOCK_BYTES = 1 << 20
# The only bytes the fast path parses: unsigned decimal fields, blanks and
# line ends.  Anything else (comments, signs, decimal points, letters,
# other whitespace) sends the block to the line parser.
_FAST_BYTES = b"0123456789 \t\r\n"
# np.fromstring saturates an int64 overflow; larger fields go to the line
# parser, which reads them with int() / float().
_FAST_LIMIT = 1 << 62
# One line of a block under universal newlines (\n, \r\n or a lone \r).
_LINE = re.compile(rb"[^\r\n]*(?:\r\n?|\n|\Z)")
# The node count written by write_edge_list's header.
_HEADER_NODES = re.compile(r"(?<!\S)nodes=(\d+)(?!\S)")


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


def _count_lines(block: bytes) -> int:
    """Line ends in ``block`` under universal newlines."""
    lines = block.count(b"\n")
    if b"\r" in block:
        lines += block.count(b"\r") - block.count(b"\r\n")
    return lines


def _empty_edges() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.float64)


def _fast_parse(
    block: bytes, comment: bytes, num_nodes: int | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The edges of ``block`` parsed at C speed, or None to use the lines.

    Accepts only blocks of unsigned decimal fields, ``src dst`` on every
    non-blank line or ``src dst weight`` on every one, with CR only as part
    of CRLF, no comment prefix and every id below ``num_nodes``.  The line
    parser reads any such block to the same values, so accepting it changes
    nothing; every other block is refused.
    """
    if comment in block or block.translate(None, _FAST_BYTES):
        return None
    if b"\r" in block and block.count(b"\r") != block.count(b"\r\n"):
        return None
    # A -1 after every line makes line ends visible in the parsed stream;
    # every field parsed before the marker is non-negative.
    marked = block.replace(b"\n", b" -1 ")
    if not block.endswith(b"\n"):
        marked += b" -1"
    try:
        stream = np.fromstring(marked, dtype=np.int64, sep=" ")
    except ValueError:
        return None
    ends = stream < 0
    fields = np.diff(np.flatnonzero(ends), prepend=-1) - 1
    fields = fields[fields != 0]
    if not fields.size:
        return _empty_edges()
    width = int(fields[0])
    if width not in (2, 3) or (fields != width).any():
        return None
    values = stream[~ends].reshape(-1, width)
    if values.max() >= _FAST_LIMIT:
        return None
    src, dst = values[:, 0], values[:, 1]
    if num_nodes is not None and max(src.max(), dst.max()) >= num_nodes:
        return None
    if width == 3:
        return src, dst, values[:, 2].astype(np.float64)
    return src, dst, np.ones(src.size)


class EdgeChunks:
    """One pass over an edge list as bounded ``(src, dst, weight)`` chunks.

    Iterating yields int64 ``src``/``dst`` and float64 ``weight`` arrays of
    ``chunk_edges`` edges each (the last chunk may be shorter), in file
    order.  The arrays are reused by the next chunk: copy what you keep.
    ``handle`` is a binary file; it is read in byte blocks cut at a line
    end, so memory stays ``O(chunk_edges)`` whatever the file size.

    Parameters
    ----------
    comment:
        Lines starting with this prefix (after leading blanks) are skipped.
    mode:
        ``"strict"`` raises ``ValueError`` naming the first malformed line;
        ``"lenient"`` skips malformed lines, counting them in
        :attr:`skipped` with the first reason in :attr:`first_reason`.
    num_nodes:
        Node count; an id at or above it is malformed.  When None, a
        ``nodes=N`` comment before the first edge sets it.
    relabel:
        Map arbitrary tokens to ``0..n-1`` in first-appearance order
        (:attr:`labels`); the header is then ignored.

    After the pass, :attr:`num_nodes` holds the node count the ids were
    checked against (None when neither given nor declared).
    """

    def __init__(
        self,
        handle: BinaryIO,
        chunk_edges: int = CHUNK_EDGES,
        comment: str = "#",
        mode: str = "strict",
        num_nodes: int | None = None,
        relabel: bool = False,
    ) -> None:
        _check_mode(mode)
        if relabel and num_nodes is not None:
            raise ValueError("num_nodes cannot be combined with relabel=True")
        self._handle = handle
        self._chunk_edges = check_positive_integer(chunk_edges, "chunk_edges")
        self._comment = comment
        self._mode = mode
        self._given = num_nodes is not None
        self.num_nodes = (
            None if num_nodes is None else check_nonnegative_integer(num_nodes, "num_nodes")
        )
        self.labels: dict[str, int] | None = {} if relabel else None
        self.skipped = 0
        self.first_reason: str | None = None

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        size = self._chunk_edges
        chunk = (np.empty(size, np.int64), np.empty(size, np.int64), np.empty(size))
        filled = 0
        for edges in self._block_edges():
            count, start = edges[0].size, 0
            while start < count:
                take = min(size - filled, count - start)
                for out, array in zip(chunk, edges):
                    out[filled : filled + take] = array[start : start + take]
                filled, start = filled + take, start + take
                if filled == size:
                    yield chunk
                    filled = 0
        if filled:
            yield tuple(array[:filled] for array in chunk)

    # ------------------------------------------------------------------
    def _blocks(self) -> Iterator[tuple[int, bytes]]:
        """``(first line number, block)`` pairs; each block ends a line."""
        size = min(_BLOCK_BYTES, 16 * self._chunk_edges)
        lineno, tail = 1, b""
        while data := self._handle.read(size):
            data = tail + data
            # A CR at the very end may be the first half of a CRLF.
            cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1
            block, tail = data[:cut], data[cut:]
            if block:
                yield lineno, block
                lineno += _count_lines(block)
        if tail:
            yield lineno, tail

    def _block_edges(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        in_header = self.labels is None and not self._given
        comment = self._comment.encode("utf-8")
        for lineno, block in self._blocks():
            if in_header:
                cut, lines = self._read_header(block)
                in_header = cut == len(block)
                block, lineno = block[cut:], lineno + lines
            if not block:
                continue
            edges = None
            if self.labels is None:
                edges = _fast_parse(block, comment, self.num_nodes)
            yield edges if edges is not None else self._parse_lines(block, lineno)

    def _read_header(self, block: bytes) -> tuple[int, int]:
        """Read the comment and blank lines that open ``block``.

        Records a ``nodes=N`` they declare; returns the byte offset of the
        first other line (``len(block)`` if there is none) and the number
        of lines before it.
        """
        offset = lines = 0
        for match in _LINE.finditer(block):
            raw = match.group()
            if not raw:
                break
            line = raw.decode("utf-8").strip()
            if line and not line.startswith(self._comment):
                break
            declared = _HEADER_NODES.findall(line)
            if declared:
                self.num_nodes = int(declared[-1])
            offset, lines = match.end(), lines + 1
        return offset, lines

    def _parse_lines(
        self, block: bytes, lineno: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The reference parser: one line at a time, every rule checked."""
        sources: list[int] = []
        targets: list[int] = []
        weights: list[float] = []
        text = io.StringIO(block.decode("utf-8"), newline=None)
        for number, raw in enumerate(text, start=lineno):
            line = raw.strip()
            if not line or line.startswith(self._comment):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                self._malformed(f"line {number}: expected 'src dst [weight]', got {line!r}")
                continue
            weight = 1.0
            if len(parts) == 3:
                try:
                    weight = float(parts[2])
                except ValueError:
                    self._malformed(f"line {number}: invalid weight {parts[2]!r}")
                    continue
            src, dst = parts[0], parts[1]
            if self.labels is not None:
                src_id = self.labels.setdefault(src, len(self.labels))
                dst_id = self.labels.setdefault(dst, len(self.labels))
            else:
                try:
                    src_id, dst_id = int(src), int(dst)
                except ValueError:
                    self._malformed(
                        f"line {number}: non-integer node id {src!r}/{dst!r}",
                        "; pass relabel=True",
                    )
                    continue
                if src_id < 0 or dst_id < 0:
                    self._malformed(
                        f"line {number}: negative node id",
                        "; node ids must be non-negative without relabelling",
                    )
                    continue
                if self.num_nodes is not None and max(src_id, dst_id) >= self.num_nodes:
                    self._malformed(
                        f"line {number}: edge ({src_id}, {dst_id}) out of range "
                        f"for {self.num_nodes} nodes"
                    )
                    continue
            sources.append(src_id)
            targets.append(dst_id)
            weights.append(weight)
        return (
            np.array(sources, dtype=np.int64),
            np.array(targets, dtype=np.int64),
            np.array(weights, dtype=np.float64),
        )

    def _malformed(self, reason: str, advice: str = "") -> None:
        if self._mode == "strict":
            raise ValueError(reason + advice)
        self.skipped += 1
        if self.first_reason is None:
            self.first_reason = reason


def _warn_skips(skipped: int, first_reason: str | None, source: str) -> None:
    if skipped:
        warnings.warn(
            f"{source}: skipped {skipped} malformed line(s) in "
            f"lenient mode (first: {first_reason})",
            RuntimeWarning,
            stacklevel=3,
        )


def _graph_from_chunks(chunks: EdgeChunks, name: str) -> Graph:
    """Read every chunk and build the CSR graph in one COO -> CSR pass."""
    parts = [tuple(array.copy() for array in chunk) for chunk in chunks]
    src, dst, weight = (
        tuple(np.concatenate(column) for column in zip(*parts)) if parts else _empty_edges()
    )
    del parts
    if chunks.labels is not None:
        num_nodes = len(chunks.labels)
    elif chunks.num_nodes is not None:
        num_nodes = chunks.num_nodes
    else:
        num_nodes = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
    weighted = not (weight == 1.0).all()
    edges = np.column_stack((src, dst, weight) if weighted else (src, dst))
    del src, dst, weight
    return Graph.from_edges(num_nodes, edges, name=name)


def read_edge_list(
    path: str | Path,
    relabel: bool = False,
    comment: str = "#",
    name: str | None = None,
    mode: str = "strict",
    num_nodes: int | None = None,
) -> Graph:
    """Read a directed graph from an edge-list file.

    The file is streamed in bounded chunks (see :class:`EdgeChunks`), so
    parser memory does not grow with the file; the graph itself is built
    in one pass from the concatenated arrays.

    Parameters
    ----------
    path:
        File with one ``src dst [weight]`` record per line.
    relabel:
        If True, arbitrary (even non-numeric) node tokens are mapped to
        ``0..n-1`` in first-appearance order.  If False, tokens must already
        be non-negative integers.
    comment:
        Lines starting with this prefix are skipped (SNAP uses ``#``).
    name:
        Graph name; defaults to the file stem.
    mode:
        ``"strict"`` (default) raises ``ValueError`` with the line number
        on any malformed line; ``"lenient"`` skips malformed lines and
        emits one counted ``RuntimeWarning``.
    num_nodes:
        Node count, when known (not with ``relabel``).  Otherwise a
        ``nodes=N`` comment before the first edge (as
        :func:`write_edge_list` writes) gives it, and failing that the
        count is ``max_id + 1``.  An id at or above a given or declared
        count is a malformed line.
    """
    path = Path(path)
    with path.open("rb") as handle:
        chunks = EdgeChunks(handle, CHUNK_EDGES, comment, mode, num_nodes, relabel)
        graph = _graph_from_chunks(chunks, name or path.stem)
    _warn_skips(chunks.skipped, chunks.first_reason, str(path))
    return graph


def read_edge_list_text(
    text: str,
    relabel: bool = False,
    comment: str = "#",
    name: str = "graph",
    mode: str = "strict",
) -> Graph:
    """Like :func:`read_edge_list` but parses an in-memory string."""
    chunks = EdgeChunks(
        io.BytesIO(text.encode("utf-8")), CHUNK_EDGES, comment, mode, relabel=relabel
    )
    graph = _graph_from_chunks(chunks, name)
    _warn_skips(chunks.skipped, chunks.first_reason, name)
    return graph


def write_edge_list(
    graph: Graph,
    path: str | Path | TextIO,
    write_weights: bool = False,
    header: bool = True,
) -> None:
    """Write ``graph`` as a SNAP-style edge list.

    Parameters
    ----------
    write_weights:
        Emit ``src dst weight`` lines instead of ``src dst``.
    header:
        Emit a ``# name=<name> nodes=<n> edges=<m>`` comment header, which
        the readers use for the node count.
    """
    coo = graph.adjacency.tocoo()
    columns = (coo.row, coo.col, coo.data) if write_weights else (coo.row, coo.col)
    line = "%d\t%d\t%g\n" if write_weights else "%d\t%d\n"

    def _emit(handle: TextIO) -> None:
        if header:
            handle.write(
                f"# name={graph.name} nodes={graph.num_nodes} edges={graph.num_edges}\n"
            )
        # One formatting call per chunk of lines, in CSR order.
        for start in range(0, coo.nnz, _WRITE_EDGES):
            rows = zip(*(part[start : start + _WRITE_EDGES].tolist() for part in columns))
            fields = tuple(itertools.chain.from_iterable(rows))
            handle.write(line * (len(fields) // len(columns)) % fields)

    if isinstance(path, (str, Path)):
        with Path(path).open("w", encoding="utf-8") as handle:
            _emit(handle)
    else:
        _emit(path)
