"""Unit tests for repro.utils (rng, timing, memory, validation) and the
wall-clock deadline."""

import time

import numpy as np
import pytest

from repro.runtime import DeadlineExceeded, WallClockDeadline
from repro.utils import (
    MemoryTracker,
    Stopwatch,
    check_integer,
    check_nonnegative_integer,
    check_positive_integer,
    check_probability,
    dense_matrix_bytes,
    ensure_rng,
    format_bytes,
    spawn_rngs,
    time_call,
)


class TestRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_deterministic(self):
        assert ensure_rng(5).integers(1000) == ensure_rng(5).integers(1000)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_bad_seed_type(self):
        with pytest.raises(TypeError, match="seed must be"):
            ensure_rng(1.5)

    def test_spawn_count(self):
        assert len(spawn_rngs(0, 3)) == 3

    def test_spawn_children_independent(self):
        a, b = spawn_rngs(7, 2)
        assert a.integers(10**9) != b.integers(10**9)

    def test_spawn_deterministic(self):
        first = [g.integers(10**9) for g in spawn_rngs(7, 2)]
        second = [g.integers(10**9) for g in spawn_rngs(7, 2)]
        assert first == second

    def test_spawn_from_generator(self):
        children = spawn_rngs(np.random.default_rng(1), 2)
        assert len(children) == 2

    def test_spawn_negative_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestStopwatch:
    def test_measures_time(self):
        sw = Stopwatch().start()
        time.sleep(0.01)
        assert sw.stop() >= 0.01

    def test_context_manager(self):
        with Stopwatch() as sw:
            time.sleep(0.005)
        assert sw.elapsed >= 0.005

    def test_double_start_rejected(self):
        sw = Stopwatch().start()
        with pytest.raises(RuntimeError, match="already running"):
            sw.start()

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError, match="not running"):
            Stopwatch().stop()

    def test_resume_accumulates(self):
        sw = Stopwatch()
        sw.start()
        time.sleep(0.005)
        first = sw.stop()
        sw.start()
        time.sleep(0.005)
        assert sw.stop() > first

    def test_lap_records(self):
        sw = Stopwatch().start()
        sw.lap()
        sw.lap()
        sw.stop()
        assert len(sw.laps) == 2
        assert sw.laps[1] >= sw.laps[0]

    def test_reset(self):
        sw = Stopwatch().start()
        sw.stop()
        sw.reset()
        assert sw.elapsed == 0.0
        assert not sw.running

    def test_time_call(self):
        result, seconds = time_call(sum, [1, 2, 3])
        assert result == 6
        assert seconds >= 0.0


class TestMemory:
    def test_dense_matrix_bytes(self):
        assert dense_matrix_bytes(10, 10) == 800

    def test_dense_matrix_bytes_negative(self):
        with pytest.raises(ValueError):
            dense_matrix_bytes(-1, 5)

    def test_format_bytes(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(2048) == "2.0 KiB"
        assert format_bytes(5 * 1024**2) == "5.0 MiB"
        assert format_bytes(3 * 1024**3) == "3.0 GiB"

    def test_format_bytes_negative(self):
        assert format_bytes(-2048) == "-2.0 KiB"

    def test_tracker_measures_allocation(self):
        with MemoryTracker() as tracker:
            block = np.ones((256, 256))
        assert tracker.peak_bytes >= block.nbytes * 0.9

    def test_tracker_peak_mib(self):
        with MemoryTracker() as tracker:
            _ = np.ones((512, 512))  # 2 MiB
        assert tracker.peak_mib >= 1.5

    def test_nested_trackers(self):
        with MemoryTracker() as outer:
            with MemoryTracker() as inner:
                _ = np.ones((128, 128))
        assert inner.peak_bytes > 0
        assert outer.peak_bytes >= inner.peak_bytes * 0.5


class TestValidation:
    def test_check_integer(self):
        assert check_integer(5, "x") == 5
        assert check_integer(np.int64(5), "x") == 5

    def test_check_integer_rejects_bool(self):
        with pytest.raises(TypeError, match="bool"):
            check_integer(True, "x")

    def test_check_integer_rejects_float(self):
        with pytest.raises(TypeError):
            check_integer(5.0, "x")

    def test_nonnegative(self):
        assert check_nonnegative_integer(0, "x") == 0
        with pytest.raises(ValueError, match=">= 0"):
            check_nonnegative_integer(-1, "x")

    def test_positive(self):
        assert check_positive_integer(1, "x") == 1
        with pytest.raises(ValueError, match=">= 1"):
            check_positive_integer(0, "x")

    def test_probability(self):
        assert check_probability(0.5, "p") == 0.5
        assert check_probability(0, "p") == 0.0
        with pytest.raises(ValueError):
            check_probability(1.1, "p")
        with pytest.raises(TypeError):
            check_probability("half", "p")
        with pytest.raises(TypeError):
            check_probability(True, "p")


class TestWallClockDeadline:
    def test_not_expired_initially(self):
        deadline = WallClockDeadline(60.0)
        assert not deadline.expired
        deadline.check()  # no raise

    def test_expires(self):
        deadline = WallClockDeadline(0.001)
        time.sleep(0.01)
        assert deadline.expired
        with pytest.raises(DeadlineExceeded, match="budget"):
            deadline.check("test work")

    def test_remaining_decreases(self):
        deadline = WallClockDeadline(10.0)
        first = deadline.remaining
        time.sleep(0.005)
        assert deadline.remaining < first

    def test_nonpositive_limit_rejected(self):
        with pytest.raises(ValueError):
            WallClockDeadline(0.0)

    def test_message_names_work(self):
        deadline = WallClockDeadline(1e-9)
        time.sleep(0.001)
        with pytest.raises(DeadlineExceeded, match="my task"):
            deadline.check("my task")
