"""Operational telemetry: exporters, resource sampling, slow queries, SLOs.

:mod:`repro.runtime.metrics` and :mod:`repro.runtime.trace` record what
one process observed; this module makes those observations *outlive* the
process and *mean something operationally*:

* :class:`MetricsExporter` renders any :meth:`Metrics.snapshot` as
  Prometheus text-exposition format (counters, gauges, and the
  log-spaced histograms as cumulative ``_bucket{le=...}`` series) and as
  an append-only JSONL time-series one snapshot per line;
* :class:`PeriodicFlusher` is a bounded, daemonized, exception-safe
  background thread that snapshots and exports every ``interval_seconds``
  during long runs (sweeps, index builds, top-k scans), so a crash or
  kill -9 still leaves a dashboard-readable trail on disk;
* :class:`ResourceMonitor` samples process-level signals — RSS and peak
  RSS, CPU time, GC collections, live thread count, and the
  :class:`repro.runtime.budget.MemoryLedger` high-water — into gauges on
  the same cadence;
* :class:`SlowQueryLog` is a bounded ring of structured records for every
  retrieval call above a latency threshold (query id, operation,
  duration, result width, worker count, trace span id), exported
  alongside the metrics;
* :class:`SLOTracker` evaluates declared objectives (``"p99(
  index.query_seconds) < 50ms"``, ``"error_rate(index.query) < 0.1%"``)
  against histogram/counter snapshots and reports per-objective budget
  burn;
* :class:`TelemetrySession` bundles all of the above behind one
  ``start()``/``close()`` pair — what the CLI's ``--telemetry-dir``
  flag opens.

Everything here is read-only with respect to the computation: attaching
a session never changes results (the acceptance tests assert bit
identity), and the per-call overhead is one threshold comparison plus
the histogram observation the retrieval layer already paid for.
"""

from __future__ import annotations

import gc
import json
import math
import os
import re
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.runtime.budget import MemoryLedger
from repro.runtime.metrics import Metrics, histogram_bucket_bounds

__all__ = [
    "MetricsExporter",
    "PeriodicFlusher",
    "ResourceMonitor",
    "SLObjective",
    "SLOReport",
    "SLOTracker",
    "SlowQuery",
    "SlowQueryLog",
    "TelemetrySession",
    "render_slo_report",
]


# ----------------------------------------------------------------------
# Prometheus / JSONL exporter
# ----------------------------------------------------------------------
_INVALID_METRIC_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_INVALID_LEADING = re.compile(r"^[^a-zA-Z_:]")


def _prom_name(*parts: str) -> str:
    """A valid Prometheus metric name from dot-separated fragments."""
    joined = "_".join(part for part in parts if part)
    name = _INVALID_METRIC_CHARS.sub("_", joined)
    if _INVALID_LEADING.match(name):
        name = "_" + name
    return name


def _prom_number(value: float) -> str:
    """Prometheus-flavoured float rendering (``+Inf``/``-Inf``/``NaN``)."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class MetricsExporter:
    """Render :meth:`Metrics.snapshot` trees for machines, not post-mortems.

    Two formats:

    * :meth:`prometheus_text` — the text exposition format any Prometheus
      scraper (or ``promtool check metrics``) accepts.  Counters export as
      ``<ns>_<name>_total``, gauges as gauges, and histograms as
      cumulative ``_bucket{le="..."}`` series (the fixed log-spaced layout
      of :mod:`repro.runtime.metrics`) with ``_sum`` and ``_count``;
    * :meth:`append_jsonl` — one ``{"ts": ..., **snapshot}`` object per
      line, append-only, so repeated flushes build a replayable
      time-series a notebook can ``json.loads`` line by line.

    Examples
    --------
    >>> metrics = Metrics()
    >>> metrics.increment("index.queries", 3)
    >>> text = MetricsExporter().prometheus_text(metrics.snapshot())
    >>> "repro_index_queries_total 3" in text
    True
    """

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = _prom_name(namespace) if namespace else ""

    # -- rendering -----------------------------------------------------
    def prometheus_text(self, snapshot: dict[str, Any]) -> str:
        lines: list[str] = []

        def emit(name: str, kind: str, value: float, help_text: str) -> None:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            lines.append(f"{name} {_prom_number(float(value))}")

        for raw, value in snapshot.get("counters", {}).items():
            emit(
                _prom_name(self.namespace, raw, "total"), "counter",
                value, f"counter {raw}",
            )
        for raw, value in snapshot.get("gauges", {}).items():
            emit(
                _prom_name(self.namespace, raw), "gauge",
                value, f"gauge {raw}",
            )
        for raw, hist in snapshot.get("histograms", {}).items():
            name = _prom_name(self.namespace, raw)
            lines.append(f"# HELP {name} histogram {raw}")
            lines.append(f"# TYPE {name} histogram")
            cumulative = 0
            buckets = {int(k): int(v) for k, v in hist.get("buckets", {}).items()}
            for index in sorted(buckets):
                cumulative += buckets[index]
                upper = histogram_bucket_bounds(index)[1]
                le = "+Inf" if math.isinf(upper) else _prom_number(upper)
                lines.append(f'{name}_bucket{{le="{le}"}} {cumulative}')
            count = int(hist.get("count", 0))
            lines.append(f'{name}_bucket{{le="+Inf"}} {count}')
            lines.append(f"{name}_sum {_prom_number(float(hist.get('sum', 0.0)))}")
            lines.append(f"{name}_count {count}")
        return "\n".join(lines) + "\n"

    # -- writing -------------------------------------------------------
    def write_prometheus(
        self, snapshot: dict[str, Any], path: str | os.PathLike
    ) -> None:
        """Write :meth:`prometheus_text` via a temp file + ``os.replace``,
        so a scraper never reads a half-written exposition."""
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(self.prometheus_text(snapshot), encoding="utf-8")
        os.replace(tmp, path)

    def append_jsonl(
        self,
        snapshot: dict[str, Any],
        path: str | os.PathLike,
        timestamp: float | None = None,
    ) -> None:
        """Append one ``{"ts": ..., **snapshot}`` line to ``path``."""
        record = {"ts": time.time() if timestamp is None else float(timestamp)}
        record.update(snapshot)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")


# ----------------------------------------------------------------------
# Resource monitor
# ----------------------------------------------------------------------
def _proc_status_kib(fields: Sequence[str]) -> dict[str, int]:
    """``{field: KiB}`` parsed from ``/proc/self/status`` (empty off-Linux)."""
    wanted = set(fields)
    found: dict[str, int] = {}
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                key, _, rest = line.partition(":")
                if key in wanted:
                    found[key] = int(rest.split()[0])
    except OSError:
        pass
    return found


class ResourceMonitor:
    """Sample process-level signals into a :class:`Metrics` sink.

    Each :meth:`sample` sets the ``process.*`` gauges (RSS, peak RSS, CPU
    seconds, GC collections, thread count) and — when a
    :class:`MemoryLedger` is attached — the ``memory.ledger_*`` gauges,
    so the flusher exports resource truth next to the compute metrics.
    RSS comes from ``/proc/self/status`` (VmRSS/VmHWM) with a
    ``resource.getrusage`` fallback, so the monitor degrades gracefully
    off Linux instead of raising.
    """

    def __init__(
        self, metrics: Metrics, ledger: MemoryLedger | None = None
    ) -> None:
        self.metrics = metrics
        self.ledger = ledger
        self.samples = 0

    def sample(self) -> dict[str, float]:
        """Take one sample; returns the gauge values it recorded."""
        values: dict[str, float] = {}
        status = _proc_status_kib(("VmRSS", "VmHWM", "Threads"))
        if "VmRSS" in status:
            values["process.rss_bytes"] = status["VmRSS"] * 1024.0
        if "VmHWM" in status:
            values["process.peak_rss_bytes"] = status["VmHWM"] * 1024.0
        if not values:  # pragma: no cover - non-Linux fallback
            try:
                import resource

                usage = resource.getrusage(resource.RUSAGE_SELF)
                # ru_maxrss is KiB on Linux, bytes on macOS; both monotone.
                values["process.peak_rss_bytes"] = float(usage.ru_maxrss) * 1024.0
            except Exception:
                pass
        times = os.times()
        values["process.cpu_seconds"] = float(times.user + times.system)
        values["process.gc_collections"] = float(
            sum(generation["collections"] for generation in gc.get_stats())
        )
        values["process.threads"] = float(threading.active_count())
        if self.ledger is not None:
            values["memory.ledger_held_bytes"] = float(self.ledger.held_bytes)
            values["memory.ledger_peak_bytes"] = float(self.ledger.peak_bytes)
        for name, value in values.items():
            if name.endswith("peak_rss_bytes") or name.endswith("peak_bytes"):
                self.metrics.record_max(name, value)
            else:
                self.metrics.set_gauge(name, value)
        self.samples += 1
        self.metrics.set_gauge("telemetry.resource_samples", float(self.samples))
        return values


# ----------------------------------------------------------------------
# Slow-query log
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SlowQuery:
    """One retrieval call that crossed the latency threshold."""

    query_id: int
    operation: str
    duration_seconds: float
    timestamp: float
    attributes: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "query_id": self.query_id,
            "operation": self.operation,
            "duration_seconds": self.duration_seconds,
            "timestamp": self.timestamp,
            **self.attributes,
        }


class SlowQueryLog:
    """A thread-safe bounded ring of :class:`SlowQuery` records.

    Retrieval entry points call :meth:`maybe_record` with every call's
    duration; only calls at or above ``threshold_seconds`` are kept (the
    fast path is one float comparison).  The ring holds the most recent
    ``capacity`` records — a log attached to a long-lived serving context
    degrades to "most recent window", never to unbounded growth.
    ``total_recorded`` keeps counting even as old records fall out.

    Examples
    --------
    >>> log = SlowQueryLog(threshold_seconds=0.1, capacity=2)
    >>> log.maybe_record("index.query", 0.05)   # fast: dropped
    False
    >>> log.maybe_record("index.query", 0.25, k=10)
    True
    >>> log.records()[0].operation
    'index.query'
    """

    def __init__(
        self, threshold_seconds: float = 0.1, capacity: int = 1024
    ) -> None:
        if threshold_seconds < 0:
            raise ValueError(
                f"threshold_seconds must be >= 0, got {threshold_seconds}"
            )
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.threshold_seconds = float(threshold_seconds)
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._ring: deque[SlowQuery] = deque(maxlen=self.capacity)
        self._next_id = 1
        self.total_recorded = 0

    def maybe_record(
        self, operation: str, duration_seconds: float, **attributes: Any
    ) -> bool:
        """Record the call if it is slow; returns whether it was kept."""
        if duration_seconds < self.threshold_seconds:
            return False
        with self._lock:
            query_id = self._next_id
            self._next_id += 1
            self._ring.append(
                SlowQuery(
                    query_id=query_id,
                    operation=operation,
                    duration_seconds=float(duration_seconds),
                    timestamp=time.time(),
                    attributes=dict(attributes),
                )
            )
            self.total_recorded += 1
        return True

    def records(self) -> list[SlowQuery]:
        """The retained records, oldest first (a copy)."""
        with self._lock:
            return list(self._ring)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready summary: threshold, totals, and the retained ring."""
        with self._lock:
            return {
                "threshold_seconds": self.threshold_seconds,
                "capacity": self.capacity,
                "total_recorded": self.total_recorded,
                "records": [record.to_dict() for record in self._ring],
            }

    def write_jsonl(self, path: str | os.PathLike) -> None:
        """Write the retained ring, one record per line (full rewrite:
        the ring is bounded, so the file is too)."""
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            for record in self.records():
                handle.write(json.dumps(record.to_dict(), sort_keys=True))
                handle.write("\n")
        os.replace(tmp, path)


# ----------------------------------------------------------------------
# SLO tracking
# ----------------------------------------------------------------------
_SLO_PATTERN = re.compile(
    r"^\s*(?P<fn>p50|p90|p99|mean|max|count|error_rate|rate)\s*"
    r"\(\s*(?P<target>[^)]+?)\s*\)\s*"
    r"(?P<op><=|<)\s*"
    r"(?P<value>[-+0-9.eE]+)\s*(?P<unit>ms|us|s|%)?\s*$"
)

_UNIT_SCALE = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "%": 1e-2, None: 1.0}


@dataclass(frozen=True)
class SLObjective:
    """One declared objective over a metrics snapshot.

    Built from a compact declaration string::

        p99(index.query_seconds) < 50ms       # histogram percentile
        mean(index.query_seconds) <= 0.01     # histogram mean (sum/count)
        error_rate(index.query) < 0.1%        # counters <t>.errors/<t>.requests
        rate(sweep.quarantined/sweep.cells) < 0.05

    ``ms``/``us`` suffixes scale to seconds, ``%`` to a ratio.
    """

    fn: str
    target: str
    threshold: float
    inclusive: bool
    declaration: str

    @classmethod
    def parse(cls, declaration: str) -> "SLObjective":
        match = _SLO_PATTERN.match(declaration)
        if match is None:
            raise ValueError(
                f"cannot parse SLO {declaration!r}; expected e.g. "
                "'p99(index.query_seconds) < 50ms' or "
                "'error_rate(index.query) < 0.1%'"
            )
        threshold = float(match["value"]) * _UNIT_SCALE[match["unit"]]
        return cls(
            fn=match["fn"],
            target=match["target"],
            threshold=threshold,
            inclusive=match["op"] == "<=",
            declaration=declaration.strip(),
        )

    def observe(self, snapshot: dict[str, Any]) -> float:
        """The objective's observed value in ``snapshot`` (0 when the
        run never recorded it, see :meth:`recorded`)."""
        value = self._read(snapshot)
        return 0.0 if value is None else value

    def recorded(self, snapshot: dict[str, Any]) -> bool:
        """Whether ``snapshot`` holds the metric :meth:`observe` reads:
        the histogram, the ``<t>.requests`` counter of ``error_rate`` or
        the denominator counter of ``rate``.  An objective on a metric
        the run never recorded observes 0 and passes, which usually
        means a misspelt or renamed metric rather than a healthy run."""
        return self._read(snapshot) is not None

    def _read(self, snapshot: dict[str, Any]) -> float | None:
        if self.fn in ("p50", "p90", "p99", "max", "count", "mean"):
            hist = snapshot.get("histograms", {}).get(self.target)
            if hist is None:
                return None
            if not hist.get("count"):
                return 0.0
            if self.fn == "mean":
                return float(hist["sum"]) / float(hist["count"])
            return float(hist[self.fn])
        if self.fn == "error_rate":
            num_name = f"{self.target}.errors"
            den_name = f"{self.target}.requests"
        else:  # rate(a/b)
            num_name, slash, den_name = self.target.partition("/")
            if not slash:
                raise ValueError(
                    f"rate() target must be 'numerator/denominator', "
                    f"got {self.target!r}"
                )
        counters = snapshot.get("counters", {})
        denominator = counters.get(den_name.strip())
        if denominator is None:
            return None
        numerator = float(counters.get(num_name.strip(), 0))
        return numerator / float(denominator) if denominator else 0.0


@dataclass(frozen=True)
class SLOReport:
    """One objective's verdict against one snapshot.

    ``budget_burn`` is observed/threshold: 1.0 means the budget is
    exactly spent, above 1.0 the objective is (or is about to be)
    violated — the number a burn-rate alert pages on.
    """

    objective: SLObjective
    observed: float
    ok: bool
    budget_burn: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "slo": self.objective.declaration,
            "observed": self.observed,
            "threshold": self.objective.threshold,
            "ok": self.ok,
            "budget_burn": self.budget_burn,
        }


class SLOTracker:
    """Evaluate declared objectives against metrics snapshots.

    Examples
    --------
    >>> metrics = Metrics()
    >>> for _ in range(100):
    ...     metrics.observe_histogram("index.query_seconds", 0.001)
    >>> tracker = SLOTracker(["p99(index.query_seconds) < 50ms"])
    >>> tracker.evaluate(metrics.snapshot())[0].ok
    True
    """

    def __init__(self, objectives: Iterable[SLObjective | str] = ()) -> None:
        self.objectives: list[SLObjective] = [
            obj if isinstance(obj, SLObjective) else SLObjective.parse(obj)
            for obj in objectives
        ]

    def declare(self, declaration: str) -> SLObjective:
        """Parse and add one objective; returns it."""
        objective = SLObjective.parse(declaration)
        self.objectives.append(objective)
        return objective

    def evaluate(self, snapshot: dict[str, Any]) -> list[SLOReport]:
        """One :class:`SLOReport` per objective, in declaration order."""
        reports = []
        for objective in self.objectives:
            observed = objective.observe(snapshot)
            if objective.inclusive:
                ok = observed <= objective.threshold
            else:
                ok = observed < objective.threshold
            burn = (
                observed / objective.threshold
                if objective.threshold > 0
                else (0.0 if observed == 0 else math.inf)
            )
            reports.append(
                SLOReport(
                    objective=objective, observed=observed, ok=ok,
                    budget_burn=burn,
                )
            )
        return reports

    def violated(self, snapshot: dict[str, Any]) -> list[SLOReport]:
        """Only the failing reports (empty when all objectives hold)."""
        return [report for report in self.evaluate(snapshot) if not report.ok]


def render_slo_report(reports: Sequence[SLOReport]) -> str:
    """A fixed-width human-readable verdict table."""
    if not reports:
        return "no SLOs declared"
    width = max(len(r.objective.declaration) for r in reports)
    lines = []
    for report in reports:
        verdict = "ok" if report.ok else "VIOLATED"
        lines.append(
            f"{report.objective.declaration:<{width}}  "
            f"observed={report.observed:.6g}  "
            f"burn={report.budget_burn:.2f}  {verdict}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Periodic flusher
# ----------------------------------------------------------------------
class PeriodicFlusher:
    """A daemon thread exporting metrics snapshots every N seconds.

    Parameters
    ----------
    source:
        A :class:`Metrics` instance or a zero-argument callable returning
        a snapshot dict (e.g. ``context.snapshot`` to fold live budget
        gauges in).
    directory:
        Output directory; each flush rewrites ``metrics.prom``
        (atomically) and appends one line to ``metrics.jsonl``.
    interval_seconds:
        Flush cadence.  The wait uses an event, so :meth:`stop` returns
        promptly instead of sleeping out the interval.
    resource_monitor, slow_query_log:
        Optional companions sampled/exported on the same cadence.
    max_flushes:
        Hard bound on automatic flushes (a runaway-cadence backstop; the
        default of one million at the default cadence is weeks).

    The flush body is exception-safe: an export failure (disk full,
    directory removed) is counted in :attr:`flush_errors` and the thread
    keeps running — telemetry must never take down the computation it
    observes.  The thread is daemonized so a hung flush cannot block
    interpreter exit.
    """

    def __init__(
        self,
        source: Metrics | Callable[[], dict[str, Any]],
        directory: str | os.PathLike,
        interval_seconds: float = 5.0,
        exporter: MetricsExporter | None = None,
        resource_monitor: ResourceMonitor | None = None,
        slow_query_log: SlowQueryLog | None = None,
        max_flushes: int = 1_000_000,
    ) -> None:
        if interval_seconds <= 0:
            raise ValueError(
                f"interval_seconds must be positive, got {interval_seconds}"
            )
        if max_flushes < 1:
            raise ValueError(f"max_flushes must be >= 1, got {max_flushes}")
        self._snapshot: Callable[[], dict[str, Any]] = (
            source.snapshot if isinstance(source, Metrics) else source
        )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.interval_seconds = float(interval_seconds)
        self.exporter = exporter if exporter is not None else MetricsExporter()
        self.resource_monitor = resource_monitor
        self.slow_query_log = slow_query_log
        self.max_flushes = int(max_flushes)
        self.flushes = 0
        self.flush_errors = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def prometheus_path(self) -> Path:
        return self.directory / "metrics.prom"

    @property
    def jsonl_path(self) -> Path:
        return self.directory / "metrics.jsonl"

    @property
    def slow_query_path(self) -> Path:
        return self.directory / "slow_queries.jsonl"

    def flush_now(self) -> None:
        """One synchronous flush; raises on export failure (the thread
        body wraps this and counts instead)."""
        if self.resource_monitor is not None:
            self.resource_monitor.sample()
        snapshot = self._snapshot()
        self.exporter.write_prometheus(snapshot, self.prometheus_path)
        self.exporter.append_jsonl(snapshot, self.jsonl_path)
        if self.slow_query_log is not None:
            self.slow_query_log.write_jsonl(self.slow_query_path)
        self.flushes += 1

    def _run(self) -> None:
        while not self._stop.wait(self.interval_seconds):
            if self.flushes >= self.max_flushes:
                break
            try:
                self.flush_now()
            except Exception:
                self.flush_errors += 1

    def start(self) -> "PeriodicFlusher":
        """Start the background thread (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="telemetry-flusher", daemon=True
            )
            self._thread.start()
        return self

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def stop(self, flush: bool = True, timeout: float = 5.0) -> None:
        """Stop the thread; by default take one final flush so the last
        window of a run is never lost."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        if flush:
            try:
                self.flush_now()
            except Exception:
                self.flush_errors += 1

    def __enter__(self) -> "PeriodicFlusher":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


# ----------------------------------------------------------------------
# The bundle the CLI opens
# ----------------------------------------------------------------------
class TelemetrySession:
    """Everything ``--telemetry-dir`` stands up, behind start()/close().

    Owns a :class:`SlowQueryLog` (hand :attr:`slow_queries` to the
    :class:`repro.runtime.ExecutionContext` driving the run), a
    :class:`ResourceMonitor` writing into ``metrics``, and a
    :class:`PeriodicFlusher` exporting ``source()`` (default
    ``metrics.snapshot``) to ``directory`` every ``interval_seconds``.
    :meth:`close` stops the flusher with a final flush, rewrites the
    slow-query log, evaluates the declared SLOs, and writes
    ``slo_report.json``; it is safe on every failure path (wrap the run
    in ``try/finally``) so post-mortems always have data.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        metrics: Metrics,
        source: Callable[[], dict[str, Any]] | None = None,
        interval_seconds: float = 5.0,
        slow_query_threshold: float = 0.1,
        slow_query_capacity: int = 1024,
        objectives: Iterable[SLObjective | str] = (),
        ledger: MemoryLedger | None = None,
        namespace: str = "repro",
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.metrics = metrics
        self._source = source if source is not None else metrics.snapshot
        self.slow_queries = SlowQueryLog(
            threshold_seconds=slow_query_threshold,
            capacity=slow_query_capacity,
        )
        self.resources = ResourceMonitor(metrics, ledger=ledger)
        self.slos = SLOTracker(objectives)
        self.flusher = PeriodicFlusher(
            self._source,
            self.directory,
            interval_seconds=interval_seconds,
            exporter=MetricsExporter(namespace),
            resource_monitor=self.resources,
            slow_query_log=self.slow_queries,
        )
        self._closed = False

    @property
    def slo_report_path(self) -> Path:
        return self.directory / "slo_report.json"

    def start(self) -> "TelemetrySession":
        self.flusher.start()
        return self

    def close(self) -> list[SLOReport]:
        """Final flush + slow-query rewrite + SLO evaluation (idempotent
        after the first call returns its reports again)."""
        self.flusher.stop(flush=True)
        try:
            snapshot = self._source()
        except Exception:  # pragma: no cover - source died with the run
            snapshot = self.metrics.snapshot()
        reports = self.slos.evaluate(snapshot)
        if self.slos.objectives:
            try:
                with open(self.slo_report_path, "w", encoding="utf-8") as handle:
                    json.dump(
                        [report.to_dict() for report in reports],
                        handle, indent=2, sort_keys=True,
                    )
                    handle.write("\n")
            except OSError:  # pragma: no cover - telemetry never raises
                pass
        self._closed = True
        return reports

    def __enter__(self) -> "TelemetrySession":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
