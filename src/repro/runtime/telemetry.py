"""Run-level observability: the slow-query log and service-level objectives.

:mod:`repro.runtime.metrics` and :mod:`repro.runtime.trace` record what
one process observed; this module judges it:

* :class:`SlowQueryLog` is a bounded ring of structured records for every
  retrieval call above a latency threshold (query id, operation,
  duration, result width, worker count, trace span id);
* :class:`SLOTracker` evaluates declared objectives (``"p99(
  index.query_seconds) < 50ms"``, ``"error_rate(index.query) < 0.1%"``)
  against histogram/counter snapshots and reports per-objective budget
  burn.

The CLI's ``--metrics`` record carries both next to the metrics
snapshot.  Everything here is read-only with respect to the computation:
attaching a log never changes results, and the per-call overhead is one
threshold comparison.
"""

from __future__ import annotations

import math
import re
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

__all__ = [
    "SLObjective",
    "SLOReport",
    "SLOTracker",
    "SlowQuery",
    "SlowQueryLog",
    "render_slo_report",
]


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
        rate(sweep.errors/sweep.cells) < 0.05

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
        if match["fn"] == "rate" and "/" not in match["target"]:
            raise ValueError(
                f"rate() target must be 'numerator/denominator', "
                f"got {match['target']!r}"
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
            num_name, _, den_name = self.target.partition("/")
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
    >>> from repro.runtime import Metrics
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
