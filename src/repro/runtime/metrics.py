"""Thread-safe named counters, gauges, and histograms.

One :class:`Metrics` instance is the observability sink of an
:class:`repro.runtime.context.ExecutionContext`.  Three kinds of
measurement are supported, all keyed by dot-separated names
(``"<layer>.<quantity>"`` by convention, e.g. ``"gsim_plus.spmm"`` or
``"batch.blocks_served"``):

* **counters** — monotonically accumulated floats (:meth:`increment`);
* **gauges** — last/max values (:meth:`set_gauge` / :meth:`record_max`);
* **histograms** — log-spaced bucketed distributions with p50/p90/p99
  estimates (:meth:`observe_histogram`): latencies, per-step factor
  widths, recompression ranks.  A histogram stores a fixed bucket
  layout, so a million observations cost a few hundred ints and two
  snapshots merge by plain bucket addition.

Every kind is bounded by its set of names: nothing grows with the number
of observations, so a sink attached to a long-lived session stays the
same size however many rebuilds or queries it records.  Wall time is a
histogram too; :meth:`repro.runtime.ExecutionContext.operation` records
one per observed call.

All mutators take one internal lock, so worker threads (e.g. the
``BatchQueryEngine`` thread pool) can aggregate into a shared instance
without losing increments.  :meth:`snapshot` returns a deep, JSON-ready
copy that later mutation cannot alter — that is what a structured
:class:`repro.runtime.errors.BudgetExceeded` carries.
"""

from __future__ import annotations

import math
import threading
from typing import Any

__all__ = ["HISTOGRAM_BUCKETS", "Metrics", "histogram_bucket_bounds"]


def _tidy(value: float) -> float | int:
    """Render integral floats as ints in snapshots (JSON neatness)."""
    return int(value) if float(value).is_integer() else float(value)


# ----------------------------------------------------------------------
# Histogram bucket layout (fixed, so snapshots merge by bucket addition)
# ----------------------------------------------------------------------
# Log-spaced: 8 buckets per decade over [1e-6, 1e4) — microseconds to
# hours when the value is seconds — plus an underflow bucket 0 and an
# overflow bucket HISTOGRAM_BUCKETS-1.  Every Metrics instance uses this
# one layout; ``merge_snapshot`` relies on it.
_HIST_MIN = 1e-6
_HIST_DECADES = 10
_HIST_PER_DECADE = 8
HISTOGRAM_BUCKETS = _HIST_DECADES * _HIST_PER_DECADE + 2


def _bucket_index(value: float) -> int:
    """The fixed-layout bucket for ``value`` (non-finite → overflow)."""
    if not math.isfinite(value) or value != value:
        return HISTOGRAM_BUCKETS - 1
    if value < _HIST_MIN:
        return 0
    index = 1 + int(math.log10(value / _HIST_MIN) * _HIST_PER_DECADE)
    return min(index, HISTOGRAM_BUCKETS - 1)


def histogram_bucket_bounds(index: int) -> tuple[float, float]:
    """``(lower, upper)`` value bounds of bucket ``index``.

    Bucket 0 is the underflow ``[0, 1e-6)``; the last bucket is the
    overflow ``[1e4, inf)``.
    """
    if not (0 <= index < HISTOGRAM_BUCKETS):
        raise IndexError(f"bucket index {index} out of range")
    if index == 0:
        return (0.0, _HIST_MIN)
    if index == HISTOGRAM_BUCKETS - 1:
        return (_HIST_MIN * 10.0 ** (_HIST_DECADES), math.inf)
    lower = _HIST_MIN * 10.0 ** ((index - 1) / _HIST_PER_DECADE)
    upper = _HIST_MIN * 10.0 ** (index / _HIST_PER_DECADE)
    return (lower, upper)


class _Histogram:
    """Sparse bucket counts plus exact count/sum/min/max."""

    __slots__ = ("buckets", "count", "total", "low", "high")

    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.low = math.inf
        self.high = -math.inf

    def add(self, value: float) -> None:
        index = _bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        if value < self.low:
            self.low = value
        if value > self.high:
            self.high = value

    def merge(self, snapshot: dict[str, Any]) -> None:
        for key, count in snapshot.get("buckets", {}).items():
            index = int(key)
            self.buckets[index] = self.buckets.get(index, 0) + int(count)
        self.count += int(snapshot.get("count", 0))
        self.total += float(snapshot.get("sum", 0.0))
        if "min" in snapshot and float(snapshot["min"]) < self.low:
            self.low = float(snapshot["min"])
        if "max" in snapshot and float(snapshot["max"]) > self.high:
            self.high = float(snapshot["max"])

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate, clamped to [min, max].

        Exact to within one bucket width (a factor of ``10^(1/8)`` ≈ 1.33
        in the log-spaced span): the estimate is the geometric midpoint
        of the bucket holding the q-th observation.
        """
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= target:
                lower, upper = histogram_bucket_bounds(index)
                if index == 0:
                    estimate = lower
                elif math.isinf(upper):
                    estimate = lower
                else:
                    estimate = math.sqrt(lower * upper)
                return min(max(estimate, self.low), self.high)
        return self.high  # pragma: no cover - cumulative always reaches

    def to_snapshot(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": float(self.total),
            "min": float(self.low) if self.count else 0.0,
            "max": float(self.high) if self.count else 0.0,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "buckets": {
                str(index): self.buckets[index] for index in sorted(self.buckets)
            },
        }


class Metrics:
    """A hierarchy-free bag of named measurements.

    Examples
    --------
    >>> metrics = Metrics()
    >>> metrics.increment("solver.iterations")
    >>> metrics.increment("solver.spmm", 4)
    >>> metrics.observe_histogram("solver.width", 2)
    >>> metrics.counter("solver.spmm")
    4.0
    >>> snap = metrics.snapshot()
    >>> snap["counters"]["solver.iterations"], snap["histograms"]["solver.width"]["max"]
    (1, 2.0)
    """

    __slots__ = ("_lock", "_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, _Histogram] = {}

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def increment(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the counter ``name`` (creating it at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + float(amount)

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0.0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, 0.0)

    # ------------------------------------------------------------------
    # Gauges
    # ------------------------------------------------------------------
    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = float(value)

    def record_max(self, name: str, value: float) -> None:
        """Raise gauge ``name`` to ``value`` if larger (peak tracking)."""
        with self._lock:
            current = self._gauges.get(name)
            if current is None or value > current:
                self._gauges[name] = float(value)

    def gauge(self, name: str) -> float | None:
        """Current value of gauge ``name`` (None when never set)."""
        with self._lock:
            return self._gauges.get(name)

    # ------------------------------------------------------------------
    # Histograms
    # ------------------------------------------------------------------
    def observe_histogram(self, name: str, value: float) -> None:
        """Fold ``value`` into histogram ``name`` (fixed log-spaced buckets).

        The layout spans ``[1e-6, 1e4)`` with 8 buckets per decade plus
        underflow/overflow buckets — for values in seconds that covers
        microsecond queries to multi-hour builds at ~33% bucket
        resolution.  Count, sum, min and max are tracked exactly.

        Non-finite (NaN/±inf) and non-positive observations have no home
        in a log-spaced layout; rather than silently misbucketing them
        (NaN into overflow, negatives into underflow) they are rejected
        and counted under the ``<name>.invalid_observations`` counter, so
        a buggy instrument shows up in the export instead of skewing the
        percentiles.
        """
        with self._lock:
            self._observe_locked(name, float(value))

    def _observe_locked(self, name: str, value: float) -> None:
        if not math.isfinite(value) or value <= 0.0:
            counter = f"{name}.invalid_observations"
            self._counters[counter] = self._counters.get(counter, 0.0) + 1.0
            return
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = _Histogram()
        histogram.add(value)

    def _record_call(
        self, histogram: str, seconds: float, counters: tuple[str, ...]
    ) -> None:
        """One operation's exit under one lock acquisition: ``seconds``
        into ``histogram`` and one more on each of ``counters``."""
        with self._lock:
            self._observe_locked(histogram, float(seconds))
            for counter in counters:
                self._counters[counter] = self._counters.get(counter, 0.0) + 1.0

    def histogram(self, name: str) -> dict[str, Any]:
        """Snapshot form of histogram ``name`` (zero-count when absent).

        Keys: ``count``, ``sum``, ``min``, ``max``, ``p50``/``p90``/
        ``p99`` (bucket-resolution estimates clamped to the observed
        range), and ``buckets`` (sparse ``{bucket_index: count}`` with
        string keys, JSON-ready).
        """
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                return _Histogram().to_snapshot()
            return histogram.to_snapshot()

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """A deep, JSON-serialisable copy of every measurement."""
        with self._lock:
            return {
                "counters": {
                    name: _tidy(value) for name, value in sorted(self._counters.items())
                },
                "gauges": {
                    name: _tidy(value) for name, value in sorted(self._gauges.items())
                },
                "histograms": {
                    name: histogram.to_snapshot()
                    for name, histogram in sorted(self._histograms.items())
                },
            }

    def merge_snapshot(self, snapshot: dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` from another instance into this one.

        Counters add, gauges take the max, histograms add bucket by
        bucket — the right semantics for aggregating per-cell metrics into
        a session total.  The ``timers`` and ``series`` sections of
        snapshots written before those kinds were removed (old run
        journals carry them) are ignored.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.increment(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.record_max(name, value)
        for name, entry in snapshot.get("histograms", {}).items():
            with self._lock:
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = self._histograms[name] = _Histogram()
                histogram.merge(entry)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"Metrics(counters={len(self._counters)}, "
                f"gauges={len(self._gauges)}, "
                f"histograms={len(self._histograms)})"
            )
