"""The ExecutionContext: one object a compute loop polls and reports to.

Every long-running entry point in the library accepts an optional
``context`` and does four things at each natural checkpoint (an
iteration, a row block, a query pair):

1. **poll the deadline** — :meth:`ExecutionContext.checkpoint` raises a
   structured :class:`repro.runtime.errors.DeadlineExceeded` once the
   armed wall-clock budget runs out;
2. **poll the cancellation token** — a caller (another thread, a signal
   handler) flips :meth:`CancellationToken.cancel` and the loop stops at
   its next checkpoint with :class:`repro.runtime.errors.Cancelled`;
3. **charge working sets** — :meth:`ExecutionContext.charge` (or
   :meth:`ExecutionContext.holding` for a scoped charge) accounts bytes
   against the live :class:`repro.runtime.budget.MemoryLedger` *before*
   allocating, converting would-be OOMs into clean structured failures;
4. **record metrics** — counters, gauges and histograms on
   :attr:`ExecutionContext.metrics`.

A request-level call (a query, a scan, a build) is observed through one
primitive, :meth:`ExecutionContext.operation`: its exit records the
span, the ``<name>_seconds`` histogram, the ``<name>.requests`` /
``<name>.errors`` counters and the slow-query record from one timing.

Public entry points turn a missing context into :data:`NULL_CONTEXT`
with ``context = ExecutionContext.resolve(context)``.  The null context
checkpoints, charges and records nothing, and its ``operation()``
returns a shared no-op span, so compute loops never branch on a missing
context and the untraced path opens no span and builds no operation
object.  All structured failures carry a metrics snapshot, so an
interrupted run still reports how far it got.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Iterator

from repro.runtime.budget import MemoryLedger, WallClockDeadline
from repro.runtime.errors import Cancelled, DeadlineExceeded, MemoryBudgetExceeded
from repro.runtime.metrics import Metrics
from repro.runtime.trace import _NULL_SPAN, NULL_TRACER, NullTracer, Tracer

__all__ = ["NULL_CONTEXT", "CancellationToken", "ExecutionContext"]


class CancellationToken:
    """A thread-safe one-way flag polled at checkpoints.

    Examples
    --------
    >>> token = CancellationToken()
    >>> token.cancelled
    False
    >>> token.cancel()
    >>> token.cancelled
    True
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation; irreversible."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        """Whether cancellation has been requested."""
        return self._event.is_set()


class ExecutionContext:
    """Deadline + memory budget + cancellation + metrics for one run.

    Parameters
    ----------
    deadline:
        An armed :class:`repro.runtime.budget.WallClockDeadline`, or
        ``None`` for no time budget.
    memory:
        A live :class:`repro.runtime.budget.MemoryLedger`, or ``None``
        for no memory budget.
    cancellation:
        A :class:`CancellationToken` shared with whoever may cancel.
    metrics:
        The :class:`repro.runtime.metrics.Metrics` sink; a fresh one is
        created when omitted, so ``ExecutionContext()`` is a pure
        metrics-collection context with no budgets at all.
    fault_injector:
        An optional :class:`repro.runtime.resilience.FaultInjector` (or
        anything with an ``on_checkpoint(what)`` method) consulted at
        every :meth:`checkpoint`, so tests can deterministically kill a
        run at its *n*-th checkpoint and assert recovery.
    tracer:
        An optional :class:`repro.runtime.trace.Tracer`.  Instrumented
        loops open hierarchical spans on it (per iteration, per shard,
        per query); when omitted it defaults to the shared
        :data:`repro.runtime.trace.NULL_TRACER`, whose no-op spans keep
        the untraced path allocation-free.
    slow_queries:
        An optional :class:`repro.runtime.telemetry.SlowQueryLog`.
        Every :meth:`operation` (``GSimIndex.build``/``query``/
        ``top_matches``/``top_pairs``, the top-k scans, batch blocks)
        reports its latency to it on exit; calls above its threshold
        land in the bounded ring as structured records.  ``None`` (the
        default) costs one ``is None`` check per operation.

    Examples
    --------
    >>> context = ExecutionContext.start(deadline_seconds=60.0)
    >>> context.checkpoint("warm-up")   # within budget: no-op
    >>> context.metrics.increment("demo.steps")
    >>> context.metrics.counter("demo.steps")
    1.0
    """

    __slots__ = (
        "deadline",
        "memory",
        "cancellation",
        "metrics",
        "fault_injector",
        "tracer",
        "slow_queries",
    )

    def __init__(
        self,
        deadline: WallClockDeadline | None = None,
        memory: MemoryLedger | None = None,
        cancellation: CancellationToken | None = None,
        metrics: Metrics | None = None,
        fault_injector: "Any | None" = None,
        tracer: "Tracer | NullTracer | None" = None,
        slow_queries: "Any | None" = None,
    ) -> None:
        self.deadline = deadline
        self.memory = memory
        self.cancellation = cancellation
        self.metrics = metrics if metrics is not None else Metrics()
        self.fault_injector = fault_injector
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.slow_queries = slow_queries

    @classmethod
    def start(
        cls,
        deadline_seconds: float | None = None,
        memory_limit_bytes: int | None = None,
        cancellation: CancellationToken | None = None,
        metrics: Metrics | None = None,
        fault_injector: "Any | None" = None,
        tracer: "Tracer | NullTracer | None" = None,
        slow_queries: "Any | None" = None,
    ) -> "ExecutionContext":
        """Arm a context from plain limits (the common construction)."""
        deadline = (
            WallClockDeadline(deadline_seconds)
            if deadline_seconds is not None
            else None
        )
        memory = (
            MemoryLedger(memory_limit_bytes)
            if memory_limit_bytes is not None
            else None
        )
        return cls(
            deadline=deadline,
            memory=memory,
            cancellation=cancellation,
            metrics=metrics,
            fault_injector=fault_injector,
            tracer=tracer,
            slow_queries=slow_queries,
        )

    @staticmethod
    def resolve(context: "ExecutionContext | None") -> "ExecutionContext":
        """``context`` itself, or :data:`NULL_CONTEXT` for ``None``.

        Public entry points call this once, so everything below them
        takes a non-optional context (the idiom of
        :meth:`repro.runtime.WorkerPool.resolve`).
        """
        return NULL_CONTEXT if context is None else context

    # ------------------------------------------------------------------
    # Cooperative enforcement
    # ------------------------------------------------------------------
    def checkpoint(self, what: str = "computation") -> None:
        """Poll cancellation and deadline; raise structured failures.

        Raised exceptions carry :meth:`Metrics.snapshot` of everything
        recorded so far.
        """
        if self.cancellation is not None and self.cancellation.cancelled:
            raise Cancelled(
                f"{what} cancelled", metrics=self.metrics.snapshot()
            )
        if self.deadline is not None and self.deadline.expired:
            raise DeadlineExceeded(
                f"{what} exceeded its {self.deadline.limit_seconds:.1f}s "
                "wall-clock budget",
                metrics=self.metrics.snapshot(),
            )
        if self.fault_injector is not None:
            self.fault_injector.on_checkpoint(what)

    def charge(self, num_bytes: float, what: str = "allocation") -> None:
        """Charge a working set against the ledger (no-op without one).

        On a breach the raised
        :class:`repro.runtime.errors.MemoryBudgetExceeded` carries the
        metrics snapshot; on success the peak is mirrored into the
        ``memory.peak_bytes`` gauge.
        """
        if self.memory is None:
            return
        try:
            self.memory.charge(num_bytes, what)
        except MemoryBudgetExceeded as exc:
            exc.metrics = self.metrics.snapshot()
            raise
        self.metrics.record_max("memory.peak_bytes", self.memory.peak_bytes)

    def release(self, num_bytes: float) -> None:
        """Return a charged working set to the ledger (no-op without one)."""
        if self.memory is not None:
            self.memory.release(num_bytes)

    @contextmanager
    def holding(self, num_bytes: float, what: str = "allocation") -> Iterator[None]:
        """Charge ``num_bytes`` for the duration of the block.

        The charge happens on entry, so a breach raises before the block
        allocates; the bytes are released on exit, also on failure.
        """
        self.charge(num_bytes, what)
        try:
            yield
        finally:
            self.release(num_bytes)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def operation(self, name: str, **attributes: Any) -> "_Operation":
        """Observe one request-level call: ``with context.operation(name):``.

        On exit, from one timing, it records the span ``name`` on
        :attr:`tracer`, the ``<name>_seconds`` histogram, the
        ``<name>.requests`` counter (plus ``<name>.errors`` when the
        block raised), and a :attr:`slow_queries` record carrying the
        attributes as they stand at exit, the span id (``None``
        untraced) and a boolean ``error``.  When traced, the histogram
        observation is the span's ``duration`` exactly.  Attributes known
        only inside the block go through ``set_attribute``.
        """
        return _Operation(self, name, attributes)

    def snapshot(self) -> dict[str, Any]:
        """The metrics snapshot, with live budget state folded in."""
        snap = self.metrics.snapshot()
        if self.deadline is not None:
            snap["gauges"]["deadline.elapsed_seconds"] = self.deadline.elapsed
            snap["gauges"]["deadline.limit_seconds"] = self.deadline.limit_seconds
        if self.memory is not None:
            snap["gauges"]["memory.held_bytes"] = self.memory.held_bytes
            snap["gauges"]["memory.peak_bytes"] = self.memory.peak_bytes
            snap["gauges"]["memory.limit_bytes"] = self.memory.limit_bytes
        return snap

    def __repr__(self) -> str:
        parts = []
        if self.deadline is not None:
            parts.append(f"deadline={self.deadline.limit_seconds:.1f}s")
        if self.memory is not None:
            parts.append(f"memory={self.memory.limit_bytes}B")
        if self.cancellation is not None:
            parts.append(f"cancelled={self.cancellation.cancelled}")
        return f"ExecutionContext({', '.join(parts)})"


class _Operation:
    """One observed call (see :meth:`ExecutionContext.operation`)."""

    __slots__ = ("_context", "_span", "name", "attributes", "start")

    def __init__(
        self, context: ExecutionContext, name: str, attributes: dict[str, Any]
    ) -> None:
        self._context = context
        self.name = name
        self.attributes = attributes

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach one key/value to the span and the slow-query record."""
        self.attributes[key] = value

    def __enter__(self) -> "_Operation":
        tracer = self._context.tracer
        if tracer.enabled:
            span = tracer.span(self.name)
            span.attributes = self.attributes  # one dict for span and record
            span.__enter__()
            self.start = span.start
        else:
            span = _NULL_SPAN
            self.start = time.perf_counter()
        self._span = span
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        span = self._span
        if span is _NULL_SPAN:
            end = time.perf_counter()
        else:
            span.__exit__(exc_type, exc, tb)
            end = span.end
        duration = end - self.start
        name, context = self.name, self._context
        requests = f"{name}.requests"
        context.metrics._record_call(
            f"{name}_seconds",
            duration,
            (requests,) if exc_type is None else (requests, f"{name}.errors"),
        )
        if context.slow_queries is not None:
            record = {
                **self.attributes,
                "span_id": span.span_id,
                "error": exc_type is not None,
            }
            context.slow_queries.maybe_record(name, duration, **record)


class _NullMetrics(Metrics):
    """The sink of :data:`NULL_CONTEXT`: every mutator, the operation
    exit's ``_record_call`` included, does nothing, so its snapshot stays
    empty also under a real context that borrows it.  The no-ops take the
    mutators' positional arguments, so a call builds no argument tuple or
    dict."""

    __slots__ = ()

    def _ignore(self, name: str, value: float = 1.0) -> None:
        pass

    increment = set_gauge = record_max = observe_histogram = _ignore

    def merge_snapshot(self, snapshot: dict[str, Any]) -> None:
        pass

    def _record_call(
        self, histogram: str, seconds: float, counters: tuple[str, ...]
    ) -> None:
        pass


class _NullContext(ExecutionContext):
    """The type of :data:`NULL_CONTEXT`."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(metrics=_NullMetrics(), tracer=NULL_TRACER)

    def holding(self, num_bytes: float, what: str = "allocation") -> Any:
        return _HOLD_NOTHING

    def operation(self, name: str, **attributes: Any) -> Any:
        return _NULL_SPAN


_HOLD_NOTHING = nullcontext()

#: The shared do-nothing context that :meth:`ExecutionContext.resolve`
#: puts in place of ``None``.  It has no deadline, ledger, cancellation
#: token, fault injector or slow-query log; its checkpoints, charges and
#: metrics are no-ops, its tracer is ``NULL_TRACER`` and its
#: ``operation()`` returns the shared no-op span.  It holds no state, so
#: one instance serves every thread of a long-lived process.
NULL_CONTEXT: ExecutionContext = _NullContext()
