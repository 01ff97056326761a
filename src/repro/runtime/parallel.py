"""Worker pools: sharded execution that cooperates with ExecutionContext.

Every hot loop in the library — the SpMM factor steps, the blocked top-k
scans, the independent sweep cells, batched index queries — decomposes
into *shards* whose results are merged deterministically.  This module
provides the one pool abstraction they all share:

* :class:`WorkerPool` — a thread pool with an explicit serial mode
  (``max_workers=1`` executes shards inline in the calling thread).
  Serial is the default of every entry point that takes ``max_workers``
  except :meth:`repro.retrieval.index.GSimIndex.build`, which, like the
  index archive's codec (:func:`repro.runtime.resilience.write_npz` and
  ``read_npz``), runs one worker per usable CPU.
  BLAS-backed dense GEMMs and scipy's sparse-times-dense kernels release
  the GIL, so threads give real parallelism on those paths with zero
  serialisation cost, and workers share the caller's arrays (including
  memory-mapped graphs) without copying them.
* :func:`shard_ranges` — contiguous ``(start, stop)`` row ranges of
  near-equal size.
* :func:`shard_rows_by_nnz` — contiguous CSR row ranges balanced by
  stored-entry count, so skew-degree graphs do not leave workers idle.

Cooperation with :class:`repro.runtime.ExecutionContext`:

* the context is checkpointed between shard submissions and before every
  shard body, so cancellation and deadline expiry propagate into workers
  at shard granularity (shard bodies may poll more finely themselves);
* per-shard wall time lands in the ``parallel.shard_seconds`` histogram
  and shard/task counts in ``parallel.shards``, so a metrics snapshot
  shows how much work ran under the pool and how evenly;
* budget breaches raised inside a worker surface to the caller exactly
  as the serial path would raise them — the first failing shard in
  submission order wins, and queued shards are skipped;
* when the context carries a :class:`repro.runtime.trace.Tracer`, every
  shard records a ``parallel.shard`` span parented to the span that was
  open in the *submitting* thread at :meth:`WorkerPool.map` time, so
  worker-thread spans stitch under their logical parent in the exported
  trace rather than floating as roots.

Determinism: :meth:`WorkerPool.map` returns results in submission order
regardless of completion order, so any shard decomposition whose merge
is order-independent (or performed on the ordered result list) yields
results independent of ``max_workers``.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from repro.runtime.context import ExecutionContext

__all__ = ["WorkerPool", "shard_ranges", "shard_rows_by_nnz"]

T = TypeVar("T")
R = TypeVar("R")

_SKIPPED = object()  # sentinel: shard short-circuited after an earlier error


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one (``os.cpu_count()`` ignores affinity and cpusets)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def shard_ranges(total: int, num_shards: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into ≤ ``num_shards`` contiguous near-equal
    ``(start, stop)`` ranges (empty ranges are dropped).

    Examples
    --------
    >>> shard_ranges(10, 3)
    [(0, 3), (3, 6), (6, 10)]
    >>> shard_ranges(2, 4)
    [(0, 1), (1, 2)]
    """
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if num_shards < 1:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    num_shards = min(num_shards, total) or (1 if total else 0)
    bounds = np.linspace(0, total, num_shards + 1).astype(np.int64)
    return [
        (int(bounds[i]), int(bounds[i + 1]))
        for i in range(num_shards)
        if bounds[i + 1] > bounds[i]
    ]


def shard_rows_by_nnz(
    indptr: np.ndarray, num_shards: int
) -> list[tuple[int, int]]:
    """Contiguous CSR row ranges with near-equal stored-entry counts.

    ``indptr`` is the CSR index pointer (length ``rows + 1``); the cost of
    ``A[start:stop] @ X`` is proportional to the nnz in the range, so
    balancing by nnz rather than row count keeps skew-degree shards even.
    """
    indptr = np.asarray(indptr)
    rows = int(indptr.shape[0]) - 1
    if rows < 0:
        raise ValueError("indptr must have at least one entry")
    if num_shards < 1:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    num_shards = min(num_shards, rows) or (1 if rows else 0)
    if num_shards <= 1:
        return [(0, rows)] if rows else []
    total = int(indptr[-1])
    # Cut where the cumulative nnz crosses each equal-share boundary; fall
    # back to equal row counts for edgeless matrices.
    if total == 0:
        return shard_ranges(rows, num_shards)
    targets = np.linspace(0, total, num_shards + 1)[1:-1]
    cuts = np.searchsorted(indptr[1:], targets, side="left") + 1
    bounds = np.unique(np.concatenate(([0], cuts, [rows])))
    return [
        (int(bounds[i]), int(bounds[i + 1])) for i in range(len(bounds) - 1)
    ]


class WorkerPool:
    """A shard executor: threads when ``max_workers > 1``, inline otherwise.

    Parameters
    ----------
    max_workers:
        Worker thread count.  ``None`` resolves to the CPUs this process
        may run on (its affinity mask where the platform reports one, so
        a process pinned to 2 of 64 CPUs gets 2 workers, else
        ``os.cpu_count()``); ``1`` is the serial mode (shards run inline,
        in order, in the calling thread — the determinism-debugging
        configuration).

    Examples
    --------
    >>> pool = WorkerPool(max_workers=2)
    >>> pool.map(lambda x: x * x, [1, 2, 3])
    [1, 4, 9]
    >>> WorkerPool(max_workers=1).serial
    True
    """

    __slots__ = ("max_workers",)

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is None:
            max_workers = _usable_cpus()
        if not isinstance(max_workers, (int, np.integer)) or isinstance(
            max_workers, bool
        ):
            raise TypeError(f"max_workers must be an int, got {max_workers!r}")
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = int(max_workers)

    @classmethod
    def resolve(cls, workers: "WorkerPool | int | None") -> "WorkerPool":
        """Normalise an entry-point argument into a pool.

        ``None`` means *serial* (the default of every entry point that
        resolves its argument here), an int is a worker count, and an
        existing pool passes through.
        """
        if isinstance(workers, cls):
            return workers
        return cls(max_workers=1 if workers is None else workers)

    @property
    def serial(self) -> bool:
        """True when shards run inline in the calling thread."""
        return self.max_workers == 1

    def map(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        context: ExecutionContext | None = None,
        what: str = "parallel shards",
    ) -> list[R]:
        """Apply ``fn`` to every item; results come back in item order.

        The context (when given) is checkpointed before every shard, so a
        cancelled token or expired deadline stops the work at shard
        granularity; per-shard wall time lands in the
        ``parallel.shard_seconds`` histogram.  The first shard to fail — in
        *submission* order, independent of thread scheduling — has its
        exception re-raised here, and shards that had not started yet are
        skipped.
        """
        work: Sequence[T] = list(items)
        context = ExecutionContext.resolve(context)
        # Captured in the submitting thread: worker-thread shard spans
        # stitch under the span that submitted them, not under whatever
        # happens to be open on the worker's own stack.
        parent = context.tracer.current_span()
        context.checkpoint(what)
        context.metrics.record_max("parallel.workers", self.max_workers)
        if not work:
            return []
        if self.serial or len(work) == 1:
            return [self._run_shard(fn, item, context, what, parent) for item in work]
        abort = threading.Event()

        def _guarded(item: T) -> R:
            if abort.is_set():
                return _SKIPPED  # type: ignore[return-value]
            try:
                return self._run_shard(fn, item, context, what, parent)
            except BaseException:
                abort.set()
                raise
        with ThreadPoolExecutor(max_workers=self.max_workers) as executor:
            futures = [executor.submit(_guarded, item) for item in work]
            results: list[R] = []
            first_error: BaseException | None = None
            for future in futures:
                try:
                    outcome = future.result()
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    if first_error is None:
                        first_error = exc
                    continue
                if outcome is _SKIPPED and first_error is not None:
                    continue
                results.append(outcome)
            if first_error is not None:
                raise first_error
            return results

    def imap(
        self, fn: Callable[[T], R], items: Iterable[T], in_flight: int
    ) -> Iterator[R]:
        """Yield ``fn(item)`` for every item, in item order.

        Items are drawn lazily, in the consuming thread, at most
        ``in_flight`` ahead of the last result yielded, so a long stream
        of large results stays in bounded memory while the consumer works
        on one result and the workers on the next ones.  A serial pool
        computes each result inline when it is asked for.  A failing
        item's exception is raised when its result is reached; items not
        yet started are cancelled.
        """
        if self.serial:
            yield from (fn(item) for item in items)
            return
        with ThreadPoolExecutor(max_workers=self.max_workers) as executor:
            pending: deque[Future[R]] = deque()
            try:
                for item in items:
                    pending.append(executor.submit(fn, item))
                    if len(pending) >= in_flight:
                        yield pending.popleft().result()
                while pending:
                    yield pending.popleft().result()
            finally:
                for future in pending:
                    future.cancel()

    @staticmethod
    def _run_shard(
        fn: Callable[[T], R],
        item: T,
        context: ExecutionContext,
        what: str,
        parent=None,
    ) -> R:
        context.checkpoint(what)
        start = time.perf_counter()
        try:
            with context.tracer.span("parallel.shard", parent=parent) as span:
                span.set_attribute("what", what)
                return fn(item)
        finally:
            context.metrics.observe_histogram(
                "parallel.shard_seconds", time.perf_counter() - start
            )
            context.metrics.increment("parallel.shards")

    def __repr__(self) -> str:
        return f"WorkerPool(max_workers={self.max_workers})"

