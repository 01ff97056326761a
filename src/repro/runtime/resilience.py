"""Resilience primitives: checkpoints and fault injection.

A billion-scale factor build *will* be interrupted — OOM kills,
preemption, bad input.  This module turns those interruptions from total
losses into bounded ones:

* :class:`CheckpointManager` — numbered, checksummed snapshots written via
  :func:`atomic_write` (sibling temp file + ``os.replace``), with
  latest-*valid*-snapshot discovery that skips corrupt files instead of
  resuming from garbage;
* :class:`FaultInjector` — a seeded hook that rides the
  :meth:`repro.runtime.context.ExecutionContext.checkpoint` polls already
  threaded through every compute loop, so tests can kill a run at exactly
  checkpoint *n* (or with a seeded probability) and assert recovery.

Both are deliberately dependency-free above :mod:`repro.runtime`: the
core solver, the index and the mmap-CSR graphs build on them.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import struct
import warnings
import zipfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Iterator, Mapping, Sequence

import numpy as np

from repro.runtime.errors import CorruptArtifactError, InjectedFault
from repro.runtime.parallel import WorkerPool

__all__ = [
    "Checkpoint",
    "CheckpointManager",
    "FaultInjector",
    "atomic_write",
    "content_checksum",
    "read_npz",
    "write_npz",
]


# ----------------------------------------------------------------------
# Atomic writes and content checksums (shared by every artifact writer)
# ----------------------------------------------------------------------
@contextmanager
def atomic_write(path: str | Path) -> Iterator[Path]:
    """Yield a sibling temp path; publish it over ``path`` on success.

    The caller writes the complete artifact to the yielded path.  On a
    clean exit the temp file is fsynced and renamed over ``path`` with
    :func:`os.replace` — atomic on POSIX — so a crash mid-write can never
    clobber an existing good artifact: readers observe either the old
    complete file or the new complete file.  On failure the temp file is
    removed and ``path`` is untouched.

    Examples
    --------
    >>> import tempfile, pathlib
    >>> target = pathlib.Path(tempfile.mkdtemp()) / "artifact.txt"
    >>> with atomic_write(target) as tmp:
    ...     _ = tmp.write_text("complete")
    >>> target.read_text()
    'complete'
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        fd = os.open(tmp, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def content_checksum(items: Mapping[str, Any]) -> str:
    """A stable SHA-256 digest of named arrays / scalars / strings.

    Arrays contribute dtype, shape, and raw bytes (in C order, hashed
    from the buffer without a copy when the array is C-contiguous);
    everything else contributes its JSON encoding.  Names are folded in
    sorted order so the digest is independent of dict insertion order.
    """
    digest = hashlib.sha256()
    for name in sorted(items):
        value = items[name]
        digest.update(name.encode("utf-8"))
        if isinstance(value, np.ndarray) or np.isscalar(value):
            array = np.asarray(value)
            digest.update(str(array.dtype).encode("ascii"))
            digest.update(str(array.shape).encode("ascii"))
            digest.update(np.ascontiguousarray(array))
        else:
            digest.update(json.dumps(value, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


# Zip records (PKWARE APPNOTE 4.3).  Every size and offset lives in a
# zip64 extra field, so neither a member nor the archive is capped at 4 GiB.
_LOCAL = struct.Struct("<IHHHHHIIIHH")  # then the name and _LOCAL_ZIP64
_LOCAL_ZIP64 = struct.Struct("<HHQQ")  # sizes
_CENTRAL = struct.Struct("<IHHHHHHIIIHHHHHII")  # then the name and both extras
_CENTRAL_ZIP64 = struct.Struct("<HHQQQ")  # sizes, local header offset
_END64 = struct.Struct("<IQHHIIQQQQ")
_END64_LOCATOR = struct.Struct("<IIQI")
_END = struct.Struct("<IHHHHIIH")
_ZIP64_VERSION = 45  # "4.5": needs zip64
_UTF8_NAME = 0x800
_DEFLATED = 8
_EPOCH = (1 << 5) | 1  # DOS date 1980-01-01: the same content gives the same bytes
_MAX32 = 0xFFFFFFFF

# Each member deflates as independent segments (see write_npz).  Its
# central-directory entry carries their table in a private extra field:
# the raw segment size, then each segment's compressed length.
_SEGMENT = 1 << 20  # raw bytes of a member's .npy body per segment
_TABLE = struct.Struct("<HHQ")  # tag, data size, raw segment size; then <I lengths
_TABLE_TAG = 0x7367  # "gs"
# An entry's extra fields share one 16-bit length.
_MAX_SEGMENTS = (0xFFFF - _CENTRAL_ZIP64.size - _TABLE.size) // 4
_FLUSH_END = b"\x00\x00\xff\xff"  # the empty stored block a full flush ends with
# Segments submitted ahead of the one being written (or checked): bounds
# the memory a save or load adds, whatever the worker count.
_IN_FLIGHT = 16


def _local_header(name: bytes, crc: int, size: int, compressed: int) -> bytes:
    fixed = _LOCAL.pack(
        0x04034B50, _ZIP64_VERSION, _UTF8_NAME, _DEFLATED, 0, _EPOCH,
        crc, _MAX32, _MAX32, len(name), _LOCAL_ZIP64.size,
    )
    return fixed + name + _LOCAL_ZIP64.pack(1, 16, size, compressed)


def _npy_segments(array: np.ndarray) -> tuple[int, list[Any]]:
    """The raw segment size and the segments of the bytes
    :func:`numpy.lib.format.write_array` writes for ``array``: its header,
    then slices of its data, uncopied when the array is C- or
    Fortran-contiguous.  The segment size doubles from ``_SEGMENT`` until
    the table fits in its extra field."""
    if array.dtype.hasobject or array.dtype.kind not in "biufcmMSUV":
        raise ValueError(f"cannot store a {array.dtype} array without pickle")
    fmt = np.lib.format
    header = io.BytesIO()
    fmt.write_array_header_1_0(header, fmt.header_data_from_array_1_0(array))
    if array.flags.f_contiguous and not array.flags.c_contiguous:
        array = array.T  # the Fortran-order bytes, as C order of the transpose
    data = memoryview(np.ascontiguousarray(array).reshape(-1).view(np.uint8))
    size = _SEGMENT
    while 1 + -(-len(data) // size) > _MAX_SEGMENTS:
        size *= 2
    body = [data[start : start + size] for start in range(0, len(data), size)]
    return size, [header.getvalue(), *body]


def _deflate(task: tuple[Any, bool]) -> tuple[Any, list[bytes]]:
    """Deflate one segment on its own, closed by a full flush, which ends
    byte-aligned and outside any block, or by the end of the stream;
    return it with its compressed blocks."""
    raw, final = task
    # Run-length strategy: no match search, but runs of zeros collapse.
    deflate = zlib.compressobj(1, zlib.DEFLATED, -15, 8, zlib.Z_RLE)
    flush = zlib.Z_FINISH if final else zlib.Z_FULL_FLUSH
    return raw, [deflate.compress(raw), deflate.flush(flush)]


def write_npz(path: str | Path, members: Mapping[str, Any]) -> None:
    """Write named arrays to ``path`` as a deflated ``.npz``.

    The archive holds what :func:`numpy.savez_compressed` would write for
    ``members`` — one ``<name>.npy`` member each, in order, deflated and
    CRC32-checked — and :func:`numpy.load` reads it.  Each member is
    deflated with zlib's run-length strategy, which skips the match
    search: on float factors, whose mantissas rarely repeat, that search
    is most of the time and saves about 1% of the size, while runs of
    zero bytes still collapse.  The container is always zip64, and every
    member is dated 1980-01-01.

    A member's ``.npy`` bytes are cut into segments: its header, then its
    data in 1 MiB pieces, slices of the array's own buffer.  Each segment
    is deflated on its own, on a :class:`repro.runtime.WorkerPool` of one
    worker per usable CPU with at most 16 segments in flight, and
    written in order.  All but the last end with a full flush, which
    ends byte-aligned after an empty stored block, so the segments join
    into the one deflate stream any zip reader inflates; the writing
    thread keeps the member's CRC32 over the raw segments.  The member's
    central-directory entry carries the segment table in a private extra
    field (tag ``0x7367``, which other readers skip): the raw segment
    size, then each segment's compressed length, so :func:`read_npz` can
    inflate the segments in parallel.  The fields of an entry share a
    64 KiB limit, so a member too large for 1 MiB segments gets larger
    ones.  Segments depend only on the content, so the same content gives
    the same bytes at every worker count.  Each member's local header
    is patched with its CRC32 and sizes once it is written.

    >>> import tempfile, pathlib
    >>> path = pathlib.Path(tempfile.mkdtemp()) / "demo.npz"
    >>> write_npz(path, {"x": np.zeros(1000), "label": "demo"})
    >>> with np.load(path) as archive:
    ...     float(archive["x"].sum()), str(archive["label"])
    (0.0, 'demo')
    """
    pool = WorkerPool()
    entries = []
    with open(path, "wb") as handle:
        for key, value in members.items():
            name = f"{key}.npy".encode("utf-8")
            offset = handle.tell()
            handle.write(_local_header(name, 0, 0, 0))
            segment, raw = _npy_segments(np.asarray(value))
            tasks = [(part, last == len(raw)) for last, part in enumerate(raw, 1)]
            crc = size = 0
            lengths = []
            for part, blocks in pool.imap(_deflate, tasks, _IN_FLIGHT):
                crc = zlib.crc32(part, crc)
                size += len(part)
                lengths.append(sum(len(block) for block in blocks))
                handle.writelines(blocks)
            compressed = sum(lengths)
            end = handle.tell()
            handle.seek(offset)
            handle.write(_local_header(name, crc, size, compressed))
            handle.seek(end)
            table = _TABLE.pack(
                _TABLE_TAG, _TABLE.size - 4 + 4 * len(lengths), segment
            ) + struct.pack(f"<{len(lengths)}I", *lengths)
            entries.append((name, crc, size, compressed, offset, table))
        directory = handle.tell()
        for name, crc, size, compressed, offset, table in entries:
            handle.write(_CENTRAL.pack(
                0x02014B50, _ZIP64_VERSION, _ZIP64_VERSION, _UTF8_NAME,
                _DEFLATED, 0, _EPOCH, crc, _MAX32, _MAX32, len(name),
                _CENTRAL_ZIP64.size + len(table), 0, 0, 0, 0, _MAX32,
            ))
            handle.write(name + _CENTRAL_ZIP64.pack(1, 24, size, compressed, offset))
            handle.write(table)
        end64 = handle.tell()
        count, length = len(entries), end64 - directory
        handle.write(_END64.pack(
            0x06064B50, _END64.size - 12, _ZIP64_VERSION, _ZIP64_VERSION,
            0, 0, count, count, length, directory,
        ))
        handle.write(_END64_LOCATOR.pack(0x07064B50, 0, end64, 1))
        handle.write(_END.pack(
            0x06054B50, 0, 0, min(count, 0xFFFF), min(count, 0xFFFF),
            min(length, _MAX32), min(directory, _MAX32), 0,
        ))


def read_npz(path: str | Path) -> dict[str, np.ndarray]:
    """Read every member of a ``.npz`` into a fresh, writable array.

    The library's one ``.npz`` reader.  A member that
    :func:`write_npz` wrote carries its segment table: its header
    segment is inflated first, then its data segments on a
    :class:`repro.runtime.WorkerPool` of one worker per usable CPU, each
    straight into its slice of the preallocated array.  Every segment
    must inflate to its raw length and end where its table says — a
    non-final one exactly at its flush, the final one at the end of the
    stream — and the member must match its CRC32.  Any other member (an
    ``np.savez``/``np.savez_compressed`` archive, or one written before
    the table existed) inflates, or is copied when stored, as one
    segment through :mod:`zipfile`, which checks its CRC32.

    Raises :class:`repro.runtime.errors.CorruptArtifactError` for an
    unreadable archive and ``FileNotFoundError`` for a missing one.

    >>> import tempfile, pathlib
    >>> path = pathlib.Path(tempfile.mkdtemp()) / "demo.npz"
    >>> write_npz(path, {"x": np.arange(3.0)})
    >>> read_npz(path)["x"]
    array([0., 1., 2.])
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle, zipfile.ZipFile(handle) as archive:
            pool = WorkerPool()
            return {
                info.filename.removesuffix(".npy"): _read_member(
                    archive, handle, info, pool
                )
                for info in archive.infolist()
            }
    except FileNotFoundError:
        raise
    except (
        OSError, EOFError, ValueError, struct.error, zlib.error, zipfile.BadZipFile
    ) as exc:
        raise CorruptArtifactError(
            f"unreadable .npz {path.name}: {exc}", path=str(path)
        ) from exc


def _empty_npy(stream: BinaryIO, size: int) -> tuple[np.ndarray, memoryview]:
    """Parse a ``.npy`` header from ``stream``, check it against the
    member's ``size``, and allocate the array it describes; return the
    array and a writable byte view of its data."""
    fmt = np.lib.format
    read_header = {
        (1, 0): fmt.read_array_header_1_0, (2, 0): fmt.read_array_header_2_0
    }.get(fmt.read_magic(stream))
    if read_header is None:
        raise ValueError("unsupported .npy format version")
    shape, fortran_order, dtype = read_header(stream)
    if dtype.hasobject:
        raise ValueError("object arrays cannot be read without pickle")
    if stream.tell() + math.prod(shape) * dtype.itemsize != size:
        raise ValueError("a .npy header does not match its member's size")
    array = np.empty(shape, dtype, order="F" if fortran_order else "C")
    data = (array.T if fortran_order else array).reshape(-1).view(np.uint8)
    return array, memoryview(data)


def _segment_table(extra: bytes) -> tuple[int, tuple[int, ...]] | None:
    """The ``(raw segment size, compressed lengths)`` table in an entry's
    extra fields, or ``None`` when it has none."""
    while len(extra) >= 4:
        tag, size = struct.unpack_from("<HH", extra)
        if tag == _TABLE_TAG:
            count = (size - 8) // 4
            if count < 1 or size != 8 + 4 * count or len(extra) < 4 + size:
                raise ValueError("malformed segment table")
            segment = _TABLE.unpack_from(extra)[2]
            if segment < 1:
                raise ValueError("malformed segment table")
            return segment, struct.unpack_from(f"<{count}I", extra, _TABLE.size)
        extra = extra[4 + size :]
    return None


def _inflate(data: bytes, limit: int, final: bool) -> bytes:
    """Inflate one segment of at most ``limit`` raw bytes, checking that
    it ends where a segment must: at the end of the stream when
    ``final``, else exactly at its full flush."""
    inflater = zlib.decompressobj(-15)
    # Room for one byte more, so a segment that runs long shows.
    raw = inflater.decompress(data, limit + 1)
    if final:
        ends = inflater.eof and not inflater.unused_data
    else:
        ends = not inflater.eof and data.endswith(_FLUSH_END)
    if len(raw) > limit or inflater.unconsumed_tail or not ends:
        raise ValueError("a deflate segment does not end where its table says")
    return raw


def _read_member(
    archive: zipfile.ZipFile,
    handle: BinaryIO,
    info: zipfile.ZipInfo,
    pool: WorkerPool,
) -> np.ndarray:
    """One member as a fresh array: its segments in parallel when it has
    a table, else one segment through ``archive``."""
    table = _segment_table(info.extra)
    if table is None:
        with archive.open(info) as stream:
            array, data = _empty_npy(stream, info.file_size)
            for start in range(0, len(data), _SEGMENT):
                stop = min(start + _SEGMENT, len(data))
                piece = stream.read(stop - start)
                if len(piece) != stop - start:
                    raise ValueError(f"{info.filename} ends early")
                data[start:stop] = piece
            if stream.read(1):
                raise ValueError(f"{info.filename} is longer than its array")
        return array
    segment, lengths = table
    if info.compress_type != zipfile.ZIP_DEFLATED or sum(lengths) != info.compress_size:
        raise ValueError(f"the segment table of {info.filename} does not add up")
    handle.seek(info.header_offset)
    local = _LOCAL.unpack(handle.read(_LOCAL.size))
    if local[0] != 0x04034B50:
        raise ValueError(f"bad local header for {info.filename}")
    handle.seek(info.header_offset + _LOCAL.size + local[9] + local[10])

    def _read(length: int) -> bytes:
        block = handle.read(length)
        if len(block) != length:
            raise ValueError(f"{info.filename} is truncated")
        return block

    # numpy reads no .npy header over 10,000 bytes.
    header = _inflate(_read(lengths[0]), 1 << 16, final=len(lengths) == 1)
    stream = io.BytesIO(header)
    array, data = _empty_npy(stream, info.file_size)
    if stream.tell() != len(header) or len(lengths) != 1 + -(-len(data) // segment):
        raise ValueError(f"the segments of {info.filename} do not match its array")

    def _into(task: tuple[bytes, int, int]) -> memoryview:
        block, start, stop = task
        raw = _inflate(block, stop - start, final=stop == len(data))
        if len(raw) != stop - start:
            raise ValueError(f"a segment of {info.filename} inflates short")
        data[start:stop] = raw
        return data[start:stop]

    tasks = (
        (_read(length), start, min(start + segment, len(data)))
        for start, length in zip(range(0, len(data), segment), lengths[1:])
    )
    crc = zlib.crc32(header)
    for raw in pool.imap(_into, tasks, _IN_FLIGHT):
        crc = zlib.crc32(raw, crc)
    if crc != info.CRC:
        raise ValueError(f"bad CRC-32 for {info.filename}")
    return array


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Checkpoint:
    """One verified snapshot: a step number, named arrays, and metadata."""

    step: int
    arrays: dict[str, np.ndarray]
    meta: dict[str, Any] = field(default_factory=dict)


class CheckpointManager:
    """Numbered, checksummed ``.npz`` snapshots in one directory.

    Every :meth:`save` goes through :func:`atomic_write`, embeds a
    SHA-256 :func:`content_checksum` of its payload, and prunes old
    snapshots down to ``keep``.  Every load re-verifies the checksum and
    raises :class:`repro.runtime.errors.CorruptArtifactError` on any
    mismatch or unreadable file; :meth:`load_latest_valid` walks
    snapshots newest-first and returns the first that verifies, so one
    corrupt file costs one snapshot interval, never the whole run.

    Examples
    --------
    >>> import tempfile
    >>> manager = CheckpointManager(tempfile.mkdtemp())
    >>> _ = manager.save(3, {"u": np.ones(2)}, meta={"kind": "demo"})
    >>> manager.load_latest_valid().step
    3
    """

    _META_KEY = "__meta_json__"
    _CHECKSUM_KEY = "__checksum__"

    def __init__(
        self, directory: str | Path, prefix: str = "checkpoint", keep: int = 3
    ) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.prefix = prefix
        self.keep = keep

    def path_for(self, step: int) -> Path:
        """Where snapshot ``step`` lives."""
        return self.directory / f"{self.prefix}-{step:08d}.npz"

    def steps(self) -> list[int]:
        """Snapshot step numbers present on disk, ascending."""
        found = []
        for entry in self.directory.glob(f"{self.prefix}-*.npz"):
            token = entry.stem.rsplit("-", 1)[-1]
            if token.isdigit():
                found.append(int(token))
        return sorted(found)

    def save(
        self,
        step: int,
        arrays: Mapping[str, np.ndarray],
        meta: Mapping[str, Any] | None = None,
    ) -> Path:
        """Write snapshot ``step`` atomically; prune beyond ``keep``."""
        if step < 0:
            raise ValueError(f"step must be non-negative, got {step}")
        reserved = [name for name in arrays if name.startswith("__")]
        if reserved:
            raise ValueError(f"array names {reserved} are reserved")
        meta_blob = json.dumps({"step": step, **(meta or {})}, sort_keys=True)
        content = {name: np.asarray(value) for name, value in arrays.items()}
        digest = content_checksum({**content, self._META_KEY: meta_blob})
        path = self.path_for(step)
        with atomic_write(path) as tmp:
            with open(tmp, "wb") as handle:
                np.savez(
                    handle,
                    **content,
                    **{
                        self._META_KEY: np.str_(meta_blob),
                        self._CHECKSUM_KEY: np.str_(digest),
                    },
                )
        self._prune()
        return path

    def load(self, step: int) -> Checkpoint:
        """Load and verify snapshot ``step``."""
        return self._read(self.path_for(step))

    def load_latest_valid(self) -> Checkpoint | None:
        """The newest snapshot that passes verification, or ``None``.

        Corrupt snapshots encountered on the way are skipped with a
        warning rather than aborting recovery.
        """
        for step in reversed(self.steps()):
            try:
                return self.load(step)
            except CorruptArtifactError as exc:
                warnings.warn(
                    f"skipping corrupt checkpoint {self.path_for(step)}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return None

    # ------------------------------------------------------------------
    def _read(self, path: Path) -> Checkpoint:
        try:
            arrays = read_npz(path)
        except FileNotFoundError as exc:
            raise CorruptArtifactError(
                f"checkpoint {path} does not exist", path=str(path)
            ) from exc
        except CorruptArtifactError as exc:
            raise CorruptArtifactError(
                f"cannot read checkpoint {path} ({exc}); the snapshot is "
                "corrupt — resume will fall back to an earlier one, or "
                "rebuild from scratch",
                path=str(path),
            ) from exc
        if self._CHECKSUM_KEY not in arrays or self._META_KEY not in arrays:
            raise CorruptArtifactError(
                f"{path} is not a checkpoint (missing integrity fields)",
                path=str(path),
            )
        stored = str(arrays.pop(self._CHECKSUM_KEY))
        meta_blob = str(arrays.pop(self._META_KEY))
        arrays = {
            name: array for name, array in arrays.items() if not name.startswith("__")
        }
        payload: dict[str, Any] = dict(arrays)
        payload[self._META_KEY] = meta_blob
        if content_checksum(payload) != stored:
            raise CorruptArtifactError(
                f"checksum mismatch in checkpoint {path}; the snapshot is "
                "corrupt — resume will fall back to an earlier one, or "
                "rebuild from scratch",
                path=str(path),
            )
        meta = json.loads(meta_blob)
        step = int(meta.pop("step"))
        return Checkpoint(step=step, arrays=arrays, meta=meta)

    def _prune(self) -> None:
        steps = self.steps()
        for step in steps[: max(0, len(steps) - self.keep)]:
            self.path_for(step).unlink(missing_ok=True)

    def __repr__(self) -> str:
        return (
            f"CheckpointManager({str(self.directory)!r}, "
            f"prefix={self.prefix!r}, keep={self.keep}, "
            f"snapshots={len(self.steps())})"
        )


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
class FaultInjector:
    """Deterministic faults at :class:`ExecutionContext` checkpoints.

    Attach one to an :class:`repro.runtime.ExecutionContext` and every
    ``context.checkpoint(what)`` poll — already threaded through each
    compute loop — also asks the injector whether to die here.  Two
    firing modes compose:

    * ``fail_at`` — fire at exactly these 1-based checkpoint ordinals
      (an int or a collection), the workhorse for crash/resume tests;
    * ``probability`` + ``seed`` — fire with a seeded Bernoulli draw per
      checkpoint, for soak-style chaos runs that still replay exactly.

    ``match`` restricts counting to checkpoints whose label contains the
    substring (e.g. ``"GSim+ iteration"``), so injection points are
    stable even when unrelated checkpoints are added elsewhere.

    Examples
    --------
    >>> injector = FaultInjector(fail_at=2)
    >>> injector.on_checkpoint("step")     # checkpoint 1: survives
    >>> try:
    ...     injector.on_checkpoint("step")  # checkpoint 2: fires
    ... except InjectedFault as exc:
    ...     exc.checkpoint_number
    2
    """

    def __init__(
        self,
        fail_at: int | Sequence[int] | None = None,
        probability: float = 0.0,
        seed: int = 0,
        match: str | None = None,
    ) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        if fail_at is None:
            self.fail_at: frozenset[int] = frozenset()
        elif isinstance(fail_at, int):
            self.fail_at = frozenset({fail_at})
        else:
            self.fail_at = frozenset(int(value) for value in fail_at)
        if any(value < 1 for value in self.fail_at):
            raise ValueError("fail_at ordinals are 1-based and must be >= 1")
        self.probability = float(probability)
        self.match = match
        self._rng = random.Random(seed)
        self.checkpoints_seen = 0
        self.faults_fired: list[tuple[int, str]] = []

    def on_checkpoint(self, what: str = "computation") -> None:
        """Count a checkpoint; raise :class:`InjectedFault` when due."""
        if self.match is not None and self.match not in what:
            return
        self.checkpoints_seen += 1
        ordinal = self.checkpoints_seen
        fire = ordinal in self.fail_at
        if not fire and self.probability > 0.0:
            fire = self._rng.random() < self.probability
        if fire:
            self.faults_fired.append((ordinal, what))
            raise InjectedFault(
                f"injected fault at checkpoint #{ordinal} ({what})",
                checkpoint_number=ordinal,
            )

    def __repr__(self) -> str:
        return (
            f"FaultInjector(fail_at={sorted(self.fail_at)}, "
            f"probability={self.probability}, seen={self.checkpoints_seen}, "
            f"fired={len(self.faults_fired)})"
        )
