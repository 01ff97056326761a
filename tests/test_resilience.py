"""Resilience layer: checkpoints, fault injection, corruption.

The crash/resume tests are the heart of this file: a fault-injected kill
at iteration *k* followed by a resume must produce **bit-identical**
factors and scores — one GSim+ iteration is a deterministic function of
its exactly round-tripped state, so any drift is a bug.
"""

from __future__ import annotations

import hashlib
import io
import math
import struct
import sys
import zipfile

import numpy as np
import pytest

from repro.core.embeddings import LowRankFactors
from repro.core.gsim_plus import GSimPlus, gsim_plus
from repro.graphs import Graph
from repro.retrieval.index import GSimIndex
from repro.runtime import ExecutionContext, Metrics, parallel, resilience
from repro.runtime.errors import CorruptArtifactError, InjectedFault
from repro.runtime.resilience import (
    CheckpointManager,
    FaultInjector,
    atomic_write,
    content_checksum,
    read_npz,
    write_npz,
)


def _flip_byte(path, offset=-20):
    """Corrupt one byte of ``path`` in place."""
    blob = bytearray(path.read_bytes())
    blob[offset] ^= 0xFF
    path.write_bytes(bytes(blob))


def _flip_payload_byte(path):
    """Corrupt one byte inside the largest npz member's compressed data.

    A fixed file offset can land in redundant zip plumbing (duplicate
    local-header fields) that a reader legitimately never consults; by
    aiming at the middle of the biggest member's payload the flip always
    hits bytes that carry array content.
    """
    import zipfile

    with zipfile.ZipFile(path) as archive:
        info = max(archive.infolist(), key=lambda entry: entry.compress_size)
        header = bytearray(path.read_bytes())[info.header_offset:]
        # local header: 26..30 hold the name/extra lengths; data follows.
        name_len = int.from_bytes(header[26:28], "little")
        extra_len = int.from_bytes(header[28:30], "little")
        data_start = info.header_offset + 30 + name_len + extra_len
    _flip_byte(path, offset=data_start + info.compress_size // 2)


def _central_entries(blob):
    """The zip64 end record's offset in an archive from ``write_npz``,
    and ``(offset, name, extra offset)`` of each central-directory entry."""
    end64 = blob.rindex(b"PK\x06\x06")
    (position,) = struct.unpack_from("<Q", blob, end64 + 48)
    entries = []
    while position < end64:
        name_len, extra_len = struct.unpack_from("<HH", blob, position + 28)
        extra = position + 46 + name_len
        entries.append((position, blob[position + 46 : extra].decode(), extra))
        position = extra + extra_len
    return end64, entries


def _table_of(path, member):
    """A member's segment table, and its ``ZipInfo``."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(f"{member}.npy")
    return resilience._segment_table(info.extra), info


def _rewrite_table(path, member, lengths, compressed=None):
    """Overwrite a member's table lengths (and its compressed size)."""
    blob = bytearray(path.read_bytes())
    _, entries = _central_entries(blob)
    extra = next(extra for _, name, extra in entries if name == f"{member}.npy")
    # The zip64 field (tag, size, three sizes) comes first, then the
    # table: tag, size, raw segment size and the lengths.
    struct.pack_into(f"<{len(lengths)}I", blob, extra + 40, *lengths)
    if compressed is not None:
        struct.pack_into("<Q", blob, extra + 12, compressed)
    path.write_bytes(bytes(blob))


def _strip_segment_tables(path):
    """Drop every segment table: readers then see each member as one
    deflate stream, as ``write_npz`` wrote it before tables existed."""
    blob = path.read_bytes()
    end64, entries = _central_entries(blob)
    directory = b""
    for position, _, extra in entries:
        record = bytearray(blob[position : extra + 28])  # up to the zip64 field
        struct.pack_into("<H", record, 30, 28)
        directory += record
    start = entries[0][0]
    tail = bytearray(blob[end64:])
    struct.pack_into("<QQ", tail, 40, len(directory), start)  # zip64 end record
    struct.pack_into("<Q", tail, 64, start + len(directory))  # its locator
    struct.pack_into("<I", tail, 88, len(directory))  # end record
    path.write_bytes(blob[:start] + directory + bytes(tail))


# ----------------------------------------------------------------------
# atomic_write / content_checksum
# ----------------------------------------------------------------------
class TestAtomicWrite:
    def test_publishes_on_success(self, tmp_path):
        target = tmp_path / "artifact.txt"
        with atomic_write(target) as tmp:
            tmp.write_text("complete")
        assert target.read_text() == "complete"
        assert list(tmp_path.iterdir()) == [target]

    def test_failure_preserves_existing_file(self, tmp_path):
        target = tmp_path / "artifact.txt"
        target.write_text("old good copy")
        with pytest.raises(RuntimeError, match="mid-write crash"):
            with atomic_write(target) as tmp:
                tmp.write_text("partial gar")
                raise RuntimeError("mid-write crash")
        assert target.read_text() == "old good copy"
        assert list(tmp_path.iterdir()) == [target]


class TestContentChecksum:
    def test_independent_of_insertion_order(self):
        a = {"u": np.arange(4.0), "v": np.ones(3), "tag": "x"}
        b = {"tag": "x", "v": np.ones(3), "u": np.arange(4.0)}
        assert content_checksum(a) == content_checksum(b)

    def test_sensitive_to_values_and_names(self):
        base = content_checksum({"u": np.arange(4.0)})
        assert content_checksum({"u": np.arange(1, 5.0)}) != base
        assert content_checksum({"w": np.arange(4.0)}) != base

    @pytest.mark.parametrize(
        "value",
        [
            np.float64(2.5),
            np.array(7),
            np.str_("metadata"),
            np.array(["ab", "c"]),
            np.asfortranarray(np.arange(12.0).reshape(3, 4)),
            np.arange(20.0).reshape(4, 5)[::2, 1:4],
            np.ones((0, 3), dtype=np.float32),
        ],
    )
    def test_digest_equals_tobytes_digest(self, value):
        # Existing indexes and checkpoints were hashed from tobytes().
        array = np.asarray(value)
        reference = hashlib.sha256()
        for part in (b"x", str(array.dtype).encode(), str(array.shape).encode()):
            reference.update(part)
        reference.update(array.tobytes())
        assert content_checksum({"x": value}) == reference.hexdigest()


class TestWriteNpz:
    @staticmethod
    def _members():
        rng = np.random.default_rng(4)
        u = rng.normal(size=(50, 6))
        u[::3] = 0.0  # zero rows, as in a factor
        return {
            "u": u,
            "v": rng.normal(size=(20, 6)).astype(np.float32),
            "log_scale": np.float64(74.8),
            "dtype": np.str_("float32"),
            "metadata_json": '{"n_a": 50, "name": "graph-\u00e9"}',
            "checksum": np.str_("ab" * 32),
            "empty": np.empty((0, 4)),
            "fortran": np.asfortranarray(rng.normal(size=(7, 3))),
        }

    def test_np_load_round_trip(self, tmp_path):
        members = self._members()
        path = tmp_path / "a.npz"
        write_npz(path, members)
        with np.load(path, allow_pickle=False) as archive:
            assert archive.files == list(members)
            for name, value in members.items():
                expected = np.asarray(value)
                loaded = archive[name]
                assert loaded.dtype == expected.dtype, name
                assert loaded.shape == expected.shape, name
                np.testing.assert_array_equal(loaded, expected)
            assert archive["fortran"].flags.f_contiguous

    def test_same_arrays_as_savez_compressed(self, tmp_path):
        members = self._members()
        write_npz(tmp_path / "new.npz", members)
        np.savez_compressed(tmp_path / "old.npz", **members)
        with np.load(tmp_path / "new.npz") as new, np.load(tmp_path / "old.npz") as old:
            assert new.files == old.files
            for name in old.files:
                assert new[name].dtype == old[name].dtype
                np.testing.assert_array_equal(new[name], old[name])

    def test_zip64_members_verify(self, tmp_path):
        import struct
        import zipfile

        path = tmp_path / "a.npz"
        write_npz(path, self._members())
        blob = path.read_bytes()
        with zipfile.ZipFile(path) as archive:
            assert archive.testzip() is None
            for info in archive.infolist():
                assert info.compress_type == zipfile.ZIP_DEFLATED
                with archive.open(info) as member:
                    assert len(member.read()) == info.file_size
                # The local header holds 0xFFFFFFFF sizes, the real ones in
                # its zip64 extra field, and the same CRC32.
                (crc, compressed, size, name_len, extra_len) = struct.unpack_from(
                    "<IIIHH", blob, info.header_offset + 14
                )
                assert (crc, compressed, size) == (info.CRC, 0xFFFFFFFF, 0xFFFFFFFF)
                extra = info.header_offset + 30 + name_len
                tag, length, file_size, compress_size = struct.unpack_from(
                    "<HHQQ", blob, extra
                )
                assert (tag, length, extra_len) == (1, 16, 20)
                assert (file_size, compress_size) == (info.file_size, info.compress_size)
                assert info.filename == blob[extra - name_len : extra].decode()

    def test_same_content_same_bytes(self, tmp_path):
        write_npz(tmp_path / "a.npz", self._members())
        write_npz(tmp_path / "b.npz", self._members())
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    def test_members_inflate_to_write_array_bytes(self, tmp_path):
        # Each member is the header and then slices of the array's own
        # buffer; it must inflate to what numpy's write_array writes.
        rng = np.random.default_rng(6)
        members = {
            **self._members(),
            "big": rng.normal(size=(300_000,)),  # more than two segments
            "scalar": np.asarray(2.5),
            "strided": np.arange(40.0).reshape(8, 5)[::2, 1:4],
        }
        path = tmp_path / "a.npz"
        write_npz(path, members)
        with zipfile.ZipFile(path) as archive:
            for name, value in members.items():
                expected = io.BytesIO()
                np.lib.format.write_array(
                    expected, np.asarray(value), allow_pickle=False
                )
                assert archive.read(f"{name}.npy") == expected.getvalue(), name

    @pytest.mark.parallel
    def test_same_bytes_at_every_worker_count(self, tmp_path, monkeypatch):
        # 4 KiB segments: the big member spans several windows of
        # segments in flight at every worker count.
        monkeypatch.setattr(resilience, "_SEGMENT", 4096)
        members = {
            **self._members(),
            "big": np.random.default_rng(6).normal(size=(40_000,)),
        }
        blobs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(parallel, "_usable_cpus", lambda: workers)
                path = tmp_path / f"workers{workers}.npz"
                write_npz(path, members)
                blobs.append(path.read_bytes())
                loaded = read_npz(path)
                for name, value in members.items():
                    np.testing.assert_array_equal(loaded[name], np.asarray(value))
        finally:
            sys.setswitchinterval(interval)
        assert blobs[0] == blobs[1] == blobs[2]

    def test_table_grows_its_segments_to_fit(self, tmp_path, monkeypatch):
        # At 16-byte segments the member would need 18,751 table entries,
        # more than an entry's 64 KiB of extra fields holds.
        monkeypatch.setattr(resilience, "_SEGMENT", 16)
        member = np.arange(37_500.0)
        path = tmp_path / "a.npz"
        write_npz(path, {"m": member})
        (segment, lengths), info = _table_of(path, "m")
        assert segment > 16
        assert len(lengths) == 1 + -(-member.nbytes // segment)
        assert len(info.extra) <= 0xFFFF
        np.testing.assert_array_equal(read_npz(path)["m"], member)
        with np.load(path) as archive:
            np.testing.assert_array_equal(archive["m"], member)

    def test_single_stream_archives_load(self, tmp_path):
        # Archives without segment tables: an older write_npz's, and
        # np.savez_compressed's.
        members = self._members()
        write_npz(tmp_path / "old.npz", members)
        _strip_segment_tables(tmp_path / "old.npz")
        np.savez_compressed(tmp_path / "savez.npz", **members)
        for name in ("old.npz", "savez.npz"):
            with zipfile.ZipFile(tmp_path / name) as archive:
                assert archive.testzip() is None
                assert all(
                    resilience._segment_table(info.extra) is None
                    for info in archive.infolist()
                )
            loaded = read_npz(tmp_path / name)
            assert list(loaded) == list(members)
            for key, value in members.items():
                assert loaded[key].dtype == np.asarray(value).dtype
                np.testing.assert_array_equal(loaded[key], np.asarray(value))

    def test_zero_runs_collapse(self, tmp_path):
        path = tmp_path / "zeros.npz"
        write_npz(path, {"z": np.zeros((4096, 64))})
        assert path.stat().st_size < 64 * 1024  # 2 MiB raw

    def test_peak_does_not_grow_with_the_member(self, tmp_path):
        # Members stream through numpy's 16 MiB chunks: doubling a member
        # from 20 to 40 MiB must not raise the peak, as holding its bytes
        # or its deflated stream (about its size) would.
        from repro.utils.memory import MemoryTracker

        peaks = []
        for size in (5 << 19, 5 << 20):
            member = np.random.default_rng(5).normal(size=size)
            with MemoryTracker() as tracker:
                write_npz(tmp_path / "big.npz", {"big": member})
            peaks.append(tracker.peak_bytes)
            del member
        assert peaks[1] <= peaks[0] + (2 << 20), peaks


# ----------------------------------------------------------------------
# CheckpointManager
# ----------------------------------------------------------------------
class TestCheckpointManager:
    def test_roundtrip(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        arrays = {"u": np.random.default_rng(0).normal(size=(5, 3))}
        manager.save(4, arrays, meta={"kind": "factors", "log_scale": 1.5})
        snapshot = manager.load(4)
        assert snapshot.step == 4
        assert np.array_equal(snapshot.arrays["u"], arrays["u"])
        assert snapshot.meta == {"kind": "factors", "log_scale": 1.5}

    def test_loaded_arrays_are_writable_and_equal(self, tmp_path):
        # A resumed build may update the loaded factors in place.
        manager = CheckpointManager(tmp_path)
        rng = np.random.default_rng(1)
        arrays = {
            "u": rng.normal(size=(6, 3)),
            "v": rng.normal(size=(4, 3)).astype(np.float32),
            "z": np.asfortranarray(rng.normal(size=(3, 5))),
        }
        manager.save(2, arrays)
        snapshot = manager.load(2)
        assert set(snapshot.arrays) == set(arrays)
        for name, saved in arrays.items():
            loaded = snapshot.arrays[name]
            assert loaded.dtype == saved.dtype
            np.testing.assert_array_equal(loaded, saved)
            assert loaded.flags.writeable
            loaded += 1.0
        np.testing.assert_array_equal(manager.load(2).arrays["u"], arrays["u"])

    def test_reserved_names_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            CheckpointManager(tmp_path).save(1, {"__meta_json__": np.ones(1)})

    def test_missing_step_is_corrupt(self, tmp_path):
        with pytest.raises(CorruptArtifactError):
            CheckpointManager(tmp_path).load(7)

    def test_truncated_file_is_corrupt(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        path = manager.save(1, {"u": np.ones(8)})
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(CorruptArtifactError):
            manager.load(1)

    def test_flipped_byte_is_corrupt(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        path = manager.save(1, {"u": np.arange(64.0)})
        _flip_byte(path, offset=len(path.read_bytes()) // 2)
        with pytest.raises(CorruptArtifactError):
            manager.load(1)

    def test_latest_valid_skips_corrupt_newest(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(1, {"u": np.ones(4)}, meta={"kind": "factors"})
        newest = manager.save(2, {"u": np.full(4, 2.0)}, meta={"kind": "factors"})
        newest.write_bytes(newest.read_bytes()[:30])
        with pytest.warns(RuntimeWarning, match="corrupt checkpoint"):
            snapshot = manager.load_latest_valid()
        assert snapshot is not None and snapshot.step == 1
        assert np.array_equal(snapshot.arrays["u"], np.ones(4))

    def test_latest_valid_empty_directory(self, tmp_path):
        assert CheckpointManager(tmp_path).load_latest_valid() is None

    def test_prune_keeps_newest(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2)
        for step in (1, 2, 3, 4):
            manager.save(step, {"u": np.ones(2)})
        assert manager.steps() == [3, 4]


# ----------------------------------------------------------------------
# FaultInjector
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_fires_at_exact_ordinal(self):
        injector = FaultInjector(fail_at=3)
        injector.on_checkpoint("a")
        injector.on_checkpoint("b")
        with pytest.raises(InjectedFault) as info:
            injector.on_checkpoint("c")
        assert info.value.checkpoint_number == 3
        assert injector.faults_fired == [(3, "c")]

    def test_match_filters_labels(self):
        injector = FaultInjector(fail_at=1, match="iteration")
        injector.on_checkpoint("unrelated poll")
        with pytest.raises(InjectedFault):
            injector.on_checkpoint("GSim+ iteration 1")

    def test_seeded_probability_replays(self):
        def pattern(seed):
            injector = FaultInjector(probability=0.3, seed=seed)
            fired = []
            for i in range(50):
                try:
                    injector.on_checkpoint(f"step {i}")
                except InjectedFault:
                    fired.append(i)
            return fired

        assert pattern(5) == pattern(5)
        assert pattern(5) != pattern(6)

    def test_rides_execution_context(self):
        injector = FaultInjector(fail_at=2)
        context = ExecutionContext(fault_injector=injector)
        context.checkpoint("one")
        with pytest.raises(InjectedFault):
            context.checkpoint("two")
        assert injector.checkpoints_seen == 2


# ----------------------------------------------------------------------
# Crash / resume equivalence (the acceptance criterion)
# ----------------------------------------------------------------------
@pytest.mark.faults
class TestCrashResume:
    def test_factored_resume_is_bit_identical(self, tmp_path, random_pair):
        graph_a, graph_b = random_pair
        iterations = 6
        baseline = gsim_plus(graph_a, graph_b, iterations=iterations)

        manager = CheckpointManager(tmp_path)
        injector = FaultInjector(fail_at=4, match="GSim+ iteration")
        context = ExecutionContext(fault_injector=injector)
        with pytest.raises(InjectedFault):
            gsim_plus(
                graph_a, graph_b, iterations=iterations,
                context=context, checkpoints=manager,
            )
        assert manager.steps(), "the killed run left no snapshots"
        assert max(manager.steps()) < iterations

        resumed = gsim_plus(
            graph_a, graph_b, iterations=iterations,
            checkpoints=manager, resume_from=manager,
        )
        assert np.array_equal(resumed.similarity, baseline.similarity)
        assert resumed.z_frobenius_log == baseline.z_frobenius_log

    def test_dense_fallback_resume_is_bit_identical(self, tmp_path, tiny_pair):
        graph_a, graph_b = tiny_pair
        iterations = 7  # widths double past min(n_A, n_B): dense regime
        baseline = gsim_plus(graph_a, graph_b, iterations=iterations)
        assert baseline.used_dense_fallback

        manager = CheckpointManager(tmp_path)
        injector = FaultInjector(fail_at=6, match="GSim+ iteration")
        context = ExecutionContext(fault_injector=injector)
        with pytest.raises(InjectedFault):
            gsim_plus(
                graph_a, graph_b, iterations=iterations,
                context=context, checkpoints=manager,
            )

        resumed = gsim_plus(
            graph_a, graph_b, iterations=iterations,
            checkpoints=manager, resume_from=manager,
        )
        assert np.array_equal(resumed.similarity, baseline.similarity)
        assert resumed.z_frobenius_log == baseline.z_frobenius_log

    @pytest.mark.recompress
    def test_recompressed_resume_is_bit_identical(self, tmp_path, random_pair):
        graph_a, graph_b = random_pair
        iterations = 6
        baseline = gsim_plus(
            graph_a, graph_b, iterations=iterations, recompress_tol=1e-8
        )

        manager = CheckpointManager(tmp_path)
        injector = FaultInjector(fail_at=4, match="GSim+ iteration")
        context = ExecutionContext(fault_injector=injector)
        with pytest.raises(InjectedFault):
            gsim_plus(
                graph_a, graph_b, iterations=iterations,
                recompress_tol=1e-8,
                context=context, checkpoints=manager,
            )
        assert manager.steps(), "the killed run left no snapshots"

        resumed = gsim_plus(
            graph_a, graph_b, iterations=iterations,
            recompress_tol=1e-8,
            checkpoints=manager, resume_from=manager,
        )
        assert np.array_equal(resumed.similarity, baseline.similarity)
        assert resumed.z_frobenius_log == baseline.z_frobenius_log
        assert resumed.truncation == baseline.truncation

    @pytest.mark.recompress
    def test_recompress_tol_mismatch_refuses_resume(self, tmp_path, random_pair):
        graph_a, graph_b = random_pair
        manager = CheckpointManager(tmp_path)
        gsim_plus(
            graph_a, graph_b, iterations=3,
            recompress_tol=1e-8, checkpoints=manager,
        )
        with pytest.raises(ValueError, match="does not match this solver"):
            gsim_plus(graph_a, graph_b, iterations=3, resume_from=manager)

    @pytest.mark.recompress
    def test_precision_mismatch_refuses_resume(self, tmp_path, random_pair):
        graph_a, graph_b = random_pair
        manager = CheckpointManager(tmp_path)
        gsim_plus(graph_a, graph_b, iterations=3, checkpoints=manager)
        with pytest.raises(ValueError, match="does not match this solver"):
            gsim_plus(
                graph_a, graph_b, iterations=3,
                precision="float32", resume_from=manager,
            )

    def test_resume_falls_back_past_corrupt_snapshot(self, tmp_path, random_pair):
        graph_a, graph_b = random_pair
        iterations = 5
        baseline = gsim_plus(graph_a, graph_b, iterations=iterations)
        manager = CheckpointManager(tmp_path, keep=10)
        injector = FaultInjector(fail_at=4, match="GSim+ iteration")
        with pytest.raises(InjectedFault):
            gsim_plus(
                graph_a, graph_b, iterations=iterations,
                context=ExecutionContext(fault_injector=injector),
                checkpoints=manager,
            )
        newest = manager.path_for(max(manager.steps()))
        _flip_payload_byte(newest)
        with pytest.warns(RuntimeWarning, match="corrupt checkpoint"):
            resumed = gsim_plus(
                graph_a, graph_b, iterations=iterations, resume_from=manager
            )
        assert np.array_equal(resumed.similarity, baseline.similarity)

    def test_resume_records_metrics(self, tmp_path, random_pair):
        graph_a, graph_b = random_pair
        manager = CheckpointManager(tmp_path)
        gsim_plus(graph_a, graph_b, iterations=3, checkpoints=manager)
        metrics = Metrics()
        gsim_plus(
            graph_a, graph_b, iterations=5,
            context=ExecutionContext(metrics=metrics),
            resume_from=manager,
        )
        tree = metrics.snapshot()
        assert tree["counters"]["gsim_plus.resumed"] == 1

    def test_fingerprint_mismatch_refuses_resume(self, tmp_path, random_pair):
        graph_a, graph_b = random_pair
        manager = CheckpointManager(tmp_path)
        gsim_plus(graph_a, graph_b, iterations=3, checkpoints=manager)
        other = Graph.from_edges(3, [(0, 1), (1, 2)], name="other")
        with pytest.raises(ValueError, match="does not match this solver"):
            gsim_plus(graph_a, other, iterations=3, resume_from=manager)

    def test_index_build_resumes(self, tmp_path, random_pair):
        graph_a, graph_b = random_pair
        baseline = GSimIndex.build(graph_a, graph_b, iterations=5)
        manager = CheckpointManager(tmp_path)
        injector = FaultInjector(fail_at=3, match="GSim+ iteration")
        with pytest.raises(InjectedFault):
            GSimIndex.build(
                graph_a, graph_b, iterations=5,
                context=ExecutionContext(fault_injector=injector),
                checkpoints=manager,
            )
        resumed = GSimIndex.build(
            graph_a, graph_b, iterations=5, resume_from=manager
        )
        queries = ([0, 1, 2], [0, 1])
        assert np.array_equal(resumed.query(*queries), baseline.query(*queries))


# ----------------------------------------------------------------------
# Numeric-health guard
# ----------------------------------------------------------------------
class TestNumericGuard:
    @staticmethod
    def _explosive_pair():
        # 1e308-weighted edges overflow float64 within one product.
        edges_a = [(0, 1, 1e308), (1, 2, 1e308), (2, 0, 1e308)]
        edges_b = [(0, 1, 1e308), (1, 0, 1e308)]
        return (
            Graph.from_edges(3, edges_a, name="hot_a"),
            Graph.from_edges(2, edges_b, name="hot_b"),
        )

    def test_guard_keeps_iterates_finite(self):
        graph_a, graph_b = self._explosive_pair()
        metrics = Metrics()
        result = gsim_plus(
            graph_a, graph_b, iterations=4,
            context=ExecutionContext(metrics=metrics),
        )
        assert np.isfinite(result.similarity).all()
        counters = metrics.snapshot()["counters"]
        repaired = counters.get("gsim_plus.nonfinite_repairs", 0)
        rescued = counters.get("gsim_plus.norm_rescales", 0)
        assert repaired + rescued > 0

    def test_step_repairs_nonfinite_entries(self):
        """A factored step whose products overflow clamps each +-inf to
        the largest finite magnitude in its factor, counts every repaired
        entry in ``gsim_plus.nonfinite_repairs``, then rescales."""
        graph_a, graph_b = self._explosive_pair()
        u = np.array([[4.0, 0.25], [-4.0, 0.5], [0.5, 2.0]])
        v = np.array([[0.5, -3.0], [2.0, 0.25]])
        metrics = Metrics()
        stepped = GSimPlus(graph_a, graph_b)._step_factors(
            LowRankFactors(u, v), ExecutionContext(metrics=metrics)
        )
        expected, repaired, log_scale = [], 0, 0.0
        for graph, factor in ((graph_a, u), (graph_b, v)):
            with np.errstate(over="ignore"):
                raw = np.hstack(
                    [graph.adjacency @ factor, graph.adjacency_t @ factor]
                )
            finite = np.isfinite(raw)
            repaired += int(raw.size - finite.sum())
            cap = np.abs(raw[finite]).max()
            peak = np.abs(np.clip(raw, -cap, cap)).max()
            expected.append(np.clip(raw, -cap, cap) / peak)
            log_scale += math.log(peak)
        assert metrics.counter("gsim_plus.nonfinite_repairs") == repaired == 10
        np.testing.assert_array_equal(stepped.u, expected[0])
        np.testing.assert_array_equal(stepped.v, expected[1])
        assert stepped.log_scale == log_scale

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_guard_can_be_disabled(self):
        graph_a, graph_b = self._explosive_pair()
        solver = GSimPlus(graph_a, graph_b, numeric_guard=False)
        try:
            result = solver.run(4)
            assert not np.isfinite(result.similarity).all()
        except (ZeroDivisionError, FloatingPointError):
            pass  # unguarded overflow may also collapse the iterate


# ----------------------------------------------------------------------
# Corrupt artifacts: index files
# ----------------------------------------------------------------------
class TestArtifactCorruption:
    def test_index_roundtrip_and_corruption(self, tmp_path, random_pair):
        graph_a, graph_b = random_pair
        index = GSimIndex.build(graph_a, graph_b, iterations=4)
        path = tmp_path / "index.npz"
        index.save(path)
        loaded = GSimIndex.load(path)
        queries = ([0, 1], [0, 1, 2])
        assert np.array_equal(loaded.query(*queries), index.query(*queries))

        _flip_payload_byte(path)
        with pytest.raises(CorruptArtifactError, match="rebuild"):
            GSimIndex.load(path)

    def test_missing_factor_file_is_not_corrupt(self, tmp_path):
        # A missing file is not a corrupt one: the caller's path is wrong.
        with pytest.raises(FileNotFoundError):
            GSimIndex.load(tmp_path / "absent.npz")

    def test_truncated_index_file(self, tmp_path, random_pair):
        graph_a, graph_b = random_pair
        index = GSimIndex.build(graph_a, graph_b, iterations=3)
        path = tmp_path / "index.npz"
        index.save(path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(CorruptArtifactError):
            GSimIndex.load(path)


class TestSegmentCorruption:
    """A segment table that disagrees with the member's data, or a damaged
    segment, makes the load refuse the index."""

    @pytest.fixture
    def saved(self, tmp_path, random_pair, monkeypatch):
        monkeypatch.setattr(resilience, "_SEGMENT", 256)  # U spans ~20 segments
        path = tmp_path / "index.npz"
        GSimIndex.build(*random_pair, iterations=4).save(path)
        (_, lengths), _ = _table_of(path, "u")
        assert len(lengths) > 4
        GSimIndex.load(path)
        return path

    def test_lengths_must_sum_to_the_member(self, saved):
        (_, lengths), _ = _table_of(saved, "u")
        _rewrite_table(saved, "u", [lengths[0], lengths[1] + 1, *lengths[2:]])
        with pytest.raises(CorruptArtifactError, match="rebuild"):
            GSimIndex.load(saved)

    def test_shifted_segment_length(self, saved):
        # Same sum: segment 1 takes the first byte of segment 2.
        (_, lengths), _ = _table_of(saved, "u")
        shifted = [lengths[0], lengths[1] + 1, lengths[2] - 1, *lengths[3:]]
        _rewrite_table(saved, "u", shifted)
        with pytest.raises(CorruptArtifactError, match="rebuild"):
            GSimIndex.load(saved)

    def test_truncated_final_segment(self, saved):
        (_, lengths), info = _table_of(saved, "u")
        _rewrite_table(
            saved, "u", [*lengths[:-1], lengths[-1] - 1], info.compress_size - 1
        )
        with pytest.raises(CorruptArtifactError, match="rebuild"):
            GSimIndex.load(saved)

    def test_flipped_byte_inside_a_segment(self, saved):
        (_, lengths), info = _table_of(saved, "u")
        local = saved.read_bytes()[info.header_offset :]
        name_len, extra_len = struct.unpack_from("<HH", local, 26)
        data = info.header_offset + 30 + name_len + extra_len
        _flip_byte(saved, offset=data + sum(lengths[:3]) + lengths[3] // 2)
        with pytest.raises(CorruptArtifactError, match="rebuild"):
            GSimIndex.load(saved)


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestResilienceCLI:
    def test_resume_requires_checkpoint_dir(self, capsys, tmp_path):
        from repro.cli import main

        edges = tmp_path / "g.txt"
        edges.write_text("0 1\n1 2\n2 0\n")
        assert main(["sim", str(edges), str(edges), "--resume"]) == 2
        assert "--resume requires --checkpoint-dir" in capsys.readouterr().err
