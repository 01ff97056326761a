"""The index-generation manager: background rebuilds, atomic swaps.

``IndexGenerationManager`` builds a succession of immutable
:class:`repro.dynamic.lifecycle.generation.IndexGeneration` objects over
one pair of :class:`repro.dynamic.graph.DynamicGraph` instances and
keeps exactly one of them *live*; it holds no record of retired ones, so
its state does not grow with the number of rebuilds.  The contract:

* **Writers never block readers.**  A graph mutation marks the live
  generation stale and (in eager mode, or at the next blocking query)
  enqueues a rebuild that runs on a dedicated background thread under a
  checkpointed :class:`repro.runtime.ExecutionContext` with
  :class:`repro.runtime.RetryPolicy` backoff — a killed attempt resumes
  from its last checkpoint, bit-identically.
* **Swaps are atomic and drain readers.**  A finished build is installed
  by a pointer flip under the manager's lock; queries in flight keep the
  old generation alive through its reader count and it retires (memory
  released, telemetry event) only when the count drains to zero.
* **Readers choose their consistency.**  :meth:`lease` implements the
  three serving policies (``block`` / ``serve_stale`` / ``shed``)
  against a :class:`repro.dynamic.lifecycle.policy.StalenessBudget`;
  stale service is annotated and counted (``lifecycle.stale_served``),
  sheds raise a structured
  :class:`repro.runtime.errors.IndexUnavailableError`.
* **Failures degrade, never poison.**  A failed rebuild leaves the
  last-good generation untouched; repeated failures trip a
  :class:`repro.dynamic.lifecycle.policy.CircuitBreaker` that pins it
  and surfaces a degraded-health flag in :meth:`health` until a
  half-open probe succeeds.

Rebuild coalescing: N mutations arriving during one build produce at
most one follow-up build (targeting the latest graph state), not N —
the request flag is level-triggered, and absorbed mutations are counted
in ``lifecycle.rebuilds_coalesced``.
"""

from __future__ import annotations

import threading
import time

from repro.dynamic.graph import DynamicGraph
from repro.dynamic.lifecycle.generation import GenerationLease, IndexGeneration
from repro.dynamic.lifecycle.policy import (
    MISSING,
    CircuitBreaker,
    Staleness,
    StalenessBudget,
    check_policy,
)
from repro.retrieval.index import GSimIndex
from repro.runtime import ExecutionContext, Metrics, RetryPolicy
from repro.runtime.budget import WallClockDeadline
from repro.runtime.errors import IndexUnavailableError
from repro.runtime.resilience import CheckpointManager
from repro.utils.validation import check_positive_integer

__all__ = ["IndexGenerationManager"]


class IndexGenerationManager:
    """Versioned, atomically swapped index generations over two graphs.

    Parameters
    ----------
    graph_a, graph_b:
        The evolving graph pair.
    iterations:
        GSim+ depth of every generation.
    context:
        The :class:`repro.runtime.ExecutionContext` whose metrics,
        tracer, memory ledger, cancellation token, and slow-query log
        all lifecycle activity reports to.  A fresh metrics-only context
        is created when omitted.
    staleness_budget:
        Bounds under which ``serve_stale``/``shed`` queries accept a
        lagging generation; default unbounded.
    retry_policy:
        Backoff for transient rebuild failures *within* one rebuild
        cycle; each retry resumes from the latest checkpoint.
    circuit_breaker:
        Gates rebuild *cycles* once they fail repeatedly.
    checkpoint_dir:
        Directory for mid-build snapshots; enables crash/resume of
        rebuilds.  Cleared whenever the rebuild target changes (a stale
        target's snapshots are unusable) and pruned to
        ``keep_checkpoints`` after every successful swap.
    wait_timeout:
        Default seconds a blocking lease waits for a fresh generation.
    rebuild_deadline_seconds:
        Optional per-attempt wall-clock budget for one rebuild.
    eager:
        When true, subscribe to both graphs and enqueue rebuilds at
        write time; when false (default) rebuilds are triggered by the
        first lease that needs one — deterministic, no background work
        unless queried.
    rebuild_fault_injector:
        Test hook: a :class:`repro.runtime.FaultInjector` consulted only
        by rebuild attempts (never by readers), so chaos tests can kill
        a build at a seeded step without touching the query path.
    max_workers / recompress_tol / precision:
        Forwarded to :meth:`repro.retrieval.index.GSimIndex.build`.
    """

    def __init__(
        self,
        graph_a: DynamicGraph,
        graph_b: DynamicGraph,
        iterations: int = 10,
        context: ExecutionContext | None = None,
        staleness_budget: StalenessBudget | None = None,
        retry_policy: RetryPolicy | None = None,
        circuit_breaker: CircuitBreaker | None = None,
        checkpoint_dir=None,
        checkpoint_every: int = 1,
        keep_checkpoints: int = 2,
        wait_timeout: float = 60.0,
        rebuild_deadline_seconds: float | None = None,
        eager: bool = False,
        failure_pause_seconds: float = 0.25,
        rebuild_fault_injector=None,
        max_workers: int | None = None,
        recompress_tol: float | None = None,
        precision: str = "float64",
        graph_name_a: str = "A",
        graph_name_b: str = "B",
    ) -> None:
        self._graph_a = graph_a
        self._graph_b = graph_b
        self.iterations = check_positive_integer(iterations, "iterations")
        self._context = context if context is not None else ExecutionContext()
        self.staleness_budget = (
            staleness_budget if staleness_budget is not None else StalenessBudget()
        )
        self._retry_policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(max_attempts=3, base_delay=0.05, max_delay=2.0)
        )
        self._breaker = (
            circuit_breaker
            if circuit_breaker is not None
            else CircuitBreaker(failure_threshold=3, reset_timeout=30.0)
        )
        self._breaker_last_state = self._breaker.state
        self._checkpoints = (
            CheckpointManager(checkpoint_dir, prefix="generation", keep=4)
            if checkpoint_dir is not None
            else None
        )
        self._checkpoint_every = check_positive_integer(
            checkpoint_every, "checkpoint_every"
        )
        self._keep_checkpoints = check_positive_integer(
            keep_checkpoints, "keep_checkpoints"
        )
        if wait_timeout < 0:
            raise ValueError(f"wait_timeout must be non-negative, got {wait_timeout}")
        self.wait_timeout = float(wait_timeout)
        self._rebuild_deadline = rebuild_deadline_seconds
        self._failure_pause = float(failure_pause_seconds)
        self._rebuild_fault_injector = rebuild_fault_injector
        self._max_workers = max_workers
        self._recompress_tol = recompress_tol
        self._precision = precision
        self._name_a = graph_name_a
        self._name_b = graph_name_b

        self._cond = threading.Condition(threading.Lock())
        self._build_lock = threading.Lock()  # one builder at a time
        self._live: IndexGeneration | None = None
        self._next_ordinal = 1
        self._rebuild_requested = False
        self._rebuilding = False
        self._closed = False
        self._worker: threading.Thread | None = None
        self._last_failure: str | None = None
        self._failure_epoch = 0
        self._ckpt_target: tuple[int, int] | None = None

        self._eager = bool(eager)
        if self._eager:
            self._graph_a.subscribe(self._on_mutation)
            self._graph_b.subscribe(self._on_mutation)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def context(self) -> ExecutionContext:
        """The execution context lifecycle activity reports to."""
        return self._context

    @property
    def live_generation(self) -> IndexGeneration | None:
        """The currently served generation (None before the first build)."""
        with self._cond:
            return self._live

    @property
    def live_ordinal(self) -> int | None:
        """Ordinal of the live generation, or None."""
        with self._cond:
            return self._live.ordinal if self._live is not None else None

    @property
    def is_stale(self) -> bool:
        """Whether the live generation lags the graphs (or none exists)."""
        with self._cond:
            return not self._staleness_locked().fresh

    def staleness(self) -> Staleness:
        """The live generation's current staleness measurement."""
        with self._cond:
            return self._staleness_locked()

    def health(self) -> dict:
        """One structured health row for dashboards and status endpoints."""
        with self._cond:
            staleness = self._staleness_locked()
            breaker_state = self._breaker.state
            return {
                "live_generation": (
                    self._live.ordinal if self._live is not None else None
                ),
                "live_fingerprint": (
                    self._live.fingerprint if self._live is not None else None
                ),
                "staleness": (
                    staleness.to_dict() if self._live is not None else None
                ),
                "degraded": breaker_state == "open",
                "breaker": breaker_state,
                "consecutive_failures": self._breaker.consecutive_failures,
                "last_failure": self._last_failure,
                "rebuild_in_flight": self._rebuilding,
                "rebuild_pending": self._rebuild_requested,
                "generations_built": self._next_ordinal - 1,
                "closed": self._closed,
            }

    # ------------------------------------------------------------------
    # Leasing (the read path)
    # ------------------------------------------------------------------
    def lease(
        self, policy: str = "serve_stale", wait_timeout: float | None = None
    ) -> GenerationLease:
        """Acquire a generation to read under, per the serving policy.

        Returns a :class:`GenerationLease` (use as a context manager);
        the leased generation cannot retire until the lease is released,
        so a swap that lands mid-query never tears the reader's view.

        * ``block`` — only a fresh generation will do; trigger a rebuild
          if none is pending and wait up to ``wait_timeout`` (default:
          the manager's).  Raises :class:`IndexUnavailableError` on
          timeout, on a failed rebuild cycle, or when the circuit
          breaker is open.
        * ``serve_stale`` — serve the live generation immediately while
          it is within the staleness budget *or* pinned by an open
          breaker; beyond the budget, fall back to the blocking wait.
        * ``shed`` — never wait: serve fresh or within-budget, otherwise
          raise immediately.
        """
        check_policy(policy)
        timeout = self.wait_timeout if wait_timeout is None else float(wait_timeout)
        deadline = time.monotonic() + timeout
        metrics = self._context.metrics
        waited = False
        with self._cond:
            entry_epoch = self._failure_epoch
            while True:
                if self._closed:
                    raise RuntimeError("IndexGenerationManager is closed")
                live = self._live
                staleness = self._staleness_locked()
                if live is not None and staleness.fresh:
                    live.acquire()
                    metrics.set_gauge("lifecycle.version_lag", 0)
                    return GenerationLease(live, staleness, degraded=False)
                degraded = self._breaker.state == "open"
                metrics.set_gauge(
                    "lifecycle.version_lag",
                    staleness.version_lag if live is not None else -1,
                )
                if live is not None and policy in ("serve_stale", "shed"):
                    if degraded or self.staleness_budget.allows(staleness):
                        live.acquire()
                        metrics.increment("lifecycle.stale_served")
                        if policy == "serve_stale" and not degraded:
                            # keep the background refresh coming
                            self._request_rebuild_locked()
                        return GenerationLease(live, staleness, degraded=degraded)
                if policy == "shed":
                    metrics.increment("lifecycle.shed")
                    raise IndexUnavailableError(
                        "no index generation within the staleness budget "
                        "(shed policy does not wait)",
                        reason="shed" if live is not None else "no_generation",
                        staleness=staleness.to_dict() if live is not None else None,
                    )
                if degraded:
                    metrics.increment("lifecycle.shed")
                    raise IndexUnavailableError(
                        "index rebuilds are failing (circuit breaker open) "
                        f"and no acceptable generation exists; last failure: "
                        f"{self._last_failure}",
                        reason="degraded",
                        staleness=staleness.to_dict() if live is not None else None,
                    )
                if self._failure_epoch != entry_epoch:
                    metrics.increment("lifecycle.shed")
                    raise IndexUnavailableError(
                        f"index rebuild failed while waiting: {self._last_failure}",
                        reason="rebuild_failed",
                        staleness=staleness.to_dict() if live is not None else None,
                    )
                self._request_rebuild_locked()
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    metrics.increment("lifecycle.shed")
                    raise IndexUnavailableError(
                        f"timed out after {timeout:.1f}s waiting for a fresh "
                        "index generation",
                        reason="timeout",
                        staleness=staleness.to_dict() if live is not None else None,
                    )
                if not waited:
                    waited = True
                    metrics.increment("lifecycle.waits")
                self._cond.wait(min(remaining, 0.25))

    # ------------------------------------------------------------------
    # Rebuild control (the write path)
    # ------------------------------------------------------------------
    def request_rebuild(self) -> None:
        """Mark the live generation stale and enqueue a background
        rebuild (idempotent; coalesces with any rebuild in flight)."""
        with self._cond:
            if self._closed:
                return
            if self._rebuild_requested or self._rebuilding:
                self._context.metrics.increment("lifecycle.rebuilds_coalesced")
            self._request_rebuild_locked()

    def rebuild_now(self) -> IndexGeneration:
        """Synchronously build and install a generation in this thread.

        Used by ``SimilaritySession.refresh`` and warm-up paths.  Counts
        as a circuit-breaker probe: it runs even when the breaker is
        open, and its outcome feeds back into the breaker.  Build
        failures re-raise to the caller; the previous generation stays
        installed and serving, so a failed forced rebuild never poisons
        the session.
        """
        installed = self._run_rebuild_cycle(force=True)
        if installed is None:
            # The graphs were already fresh under the build lock.
            with self._cond:
                assert self._live is not None
                return self._live
        return installed

    def warm(self) -> IndexGeneration:
        """Ensure a first generation exists (build synchronously if not)."""
        with self._cond:
            if self._live is not None:
                return self._live
        return self.rebuild_now()

    def close(self, join_timeout: float = 10.0) -> None:
        """Stop the background worker and detach from the graphs.

        In-flight leases stay valid; new leases raise.  Idempotent.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
            worker = self._worker
        if self._eager:
            self._graph_a.unsubscribe(self._on_mutation)
            self._graph_b.unsubscribe(self._on_mutation)
        if worker is not None and worker is not threading.current_thread():
            worker.join(timeout=join_timeout)

    def __enter__(self) -> "IndexGenerationManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _on_mutation(self, graph: DynamicGraph) -> None:
        self.request_rebuild()

    def _request_rebuild_locked(self) -> None:
        if self._closed:
            return
        self._rebuild_requested = True
        if self._worker is None or not self._worker.is_alive():
            self._worker = threading.Thread(
                target=self._worker_loop,
                name="gsim-lifecycle-rebuild",
                daemon=True,
            )
            self._worker.start()
        self._cond.notify_all()

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not self._closed and not self._rebuild_requested:
                    self._cond.wait()
                if self._closed:
                    return
                self._rebuilding = True
            try:
                self._run_rebuild_cycle(force=False)
            except BaseException as exc:  # pragma: no cover - defensive
                # force=False cycles record their own failures and return;
                # anything landing here is a bug in the cycle itself.
                # Record it so blocked waiters shed instead of hanging.
                with self._cond:
                    self._last_failure = f"{type(exc).__name__}: {exc}"
                    self._failure_epoch += 1
                    self._cond.notify_all()
            finally:
                with self._cond:
                    self._rebuilding = False
                    self._cond.notify_all()

    def _run_rebuild_cycle(self, force: bool) -> IndexGeneration | None:
        """One build-and-install attempt cycle.

        ``force=True`` (synchronous callers) bypasses the breaker's
        refusal — it acts as the half-open probe — and re-raises build
        failures.  ``force=False`` (the worker) respects the breaker,
        records failures, and paces itself instead of raising.  It
        pauses after releasing the build lock, so a forced rebuild never
        waits out the worker's pause.
        """
        with self._build_lock:
            generation, pause = self._attempt_locked(force)
        if pause > 0:
            with self._cond:
                if not self._closed:
                    self._cond.wait(pause)
        return generation

    def _attempt_locked(self, force: bool) -> tuple[IndexGeneration | None, float]:
        """One attempt under the build lock: the installed generation (or
        ``None``) and how long the worker should pause before the next."""
        metrics = self._context.metrics
        tracer = self._context.tracer
        if not force and not self._breaker.allow_attempt():
            metrics.increment("lifecycle.rebuilds_refused")
            self._note_breaker_state()
            return None, min(max(self._breaker.seconds_until_probe(), 0.01), 1.0)
        # Re-check under the build lock: a competing rebuild_now may
        # have already installed a generation for the current state.
        # Forced rebuilds skip this — refresh() means rebuild, always.
        if not force:
            with self._cond:
                if self._live is not None and self._staleness_locked().fresh:
                    self._rebuild_requested = False
                    return None, 0.0
        try:
            built = self._build_candidate()
        except BaseException as exc:
            self._breaker.record_failure()
            self._note_breaker_state()
            metrics.increment("lifecycle.rebuild_failures")
            tracer.event(
                "lifecycle.rebuild_failed",
                severity="error",
                error=f"{type(exc).__name__}: {exc}",
            )
            with self._cond:
                self._last_failure = f"{type(exc).__name__}: {exc}"
                self._failure_epoch += 1
                self._cond.notify_all()
            if force:
                raise
            return None, self._failure_pause
        self._breaker.record_success()
        self._note_breaker_state()
        generation = self._install(*built)
        if self._checkpoints is not None:
            pruned = self._checkpoints.prune(keep_last=self._keep_checkpoints)
            if pruned:
                metrics.increment("lifecycle.checkpoints_pruned", pruned)
        return generation, 0.0

    def _build_candidate(self):
        """Build an index for the graphs' current state (not installed)."""
        snap_a, va, ea = self._graph_a.freeze(name=self._name_a)
        snap_b, vb, eb = self._graph_b.freeze(name=self._name_b)
        target = (va, vb)
        if self._checkpoints is not None and self._ckpt_target != target:
            # Snapshots of a previous target are unusable (and, worse,
            # could fingerprint-match on same-shaped graphs): drop them.
            self._checkpoints.clear()
            self._ckpt_target = target
        deadline = (
            WallClockDeadline(self._rebuild_deadline)
            if self._rebuild_deadline is not None
            else None
        )

        def attempt() -> GSimIndex:
            # Each attempt records into its own Metrics, so the index's
            # build_metrics describe that build alone; the session's
            # metrics still count every attempt, failed or not.
            metrics = Metrics()
            try:
                return GSimIndex.build(
                    snap_a,
                    snap_b,
                    iterations=self.iterations,
                    context=ExecutionContext(
                        deadline=deadline,
                        memory=self._context.memory,
                        cancellation=self._context.cancellation,
                        metrics=metrics,
                        fault_injector=self._rebuild_fault_injector,
                        tracer=self._context.tracer,
                        slow_queries=self._context.slow_queries,
                    ),
                    checkpoints=self._checkpoints,
                    checkpoint_every=self._checkpoint_every,
                    resume_from=self._checkpoints,
                    recompress_tol=self._recompress_tol,
                    precision=self._precision,
                    max_workers=self._max_workers,
                )
            finally:
                self._context.metrics.merge_snapshot(metrics.snapshot())

        with self._context.operation(
            "lifecycle.rebuild",
            target_versions=str(target),
            versions=list(target),
            iterations=self.iterations,
        ) as operation:
            start = time.perf_counter()
            index = self._retry_policy.call(
                attempt,
                what="index generation rebuild",
                on_retry=self._note_retry,
            )
            build_seconds = time.perf_counter() - start
            operation.set_attribute("width", index.factors.width)
        # Hold the generation's working set on the ledger until it retires.
        self._context.charge(index.memory_bytes(), "index generation")
        return index, target, (ea, eb), build_seconds

    def _note_retry(self, attempt: int, exc: BaseException) -> None:
        self._context.metrics.increment("lifecycle.rebuild_retries")
        self._context.tracer.event(
            "lifecycle.rebuild_retry",
            severity="warning",
            attempt=attempt,
            error=f"{type(exc).__name__}: {exc}",
        )

    def _install(
        self,
        index: GSimIndex,
        target: tuple[int, int],
        edge_clock: tuple[int, int],
        build_seconds: float,
    ) -> IndexGeneration:
        # Fingerprinting hashes the factor arrays — do it outside the
        # serving lock; the ordinal is assigned under it.
        generation = IndexGeneration(
            ordinal=0,
            index=index,
            versions=target,
            edge_clock=edge_clock,
            built_at=time.time(),
            build_seconds=build_seconds,
            iterations=self.iterations,
            on_retire=self._on_retire,
        )
        metrics = self._context.metrics
        with self._cond:
            generation.ordinal = self._next_ordinal
            self._next_ordinal += 1
            old = self._live
            self._live = generation
            self._last_failure = None
            current = (self._graph_a.version, self._graph_b.version)
            if current == target:
                self._rebuild_requested = False
            self._cond.notify_all()
        metrics.increment("lifecycle.rebuilds")
        metrics.set_gauge("lifecycle.live_generation", generation.ordinal)
        metrics.set_gauge("lifecycle.live_width", generation.factors.width)
        self._context.tracer.event(
            "lifecycle.generation_installed",
            severity="info",
            generation=generation.ordinal,
            versions=str(target),
            build_seconds=build_seconds,
        )
        if old is not None:
            old.mark_retired()
        return generation

    def _on_retire(self, generation: IndexGeneration) -> None:
        self._context.metrics.increment("lifecycle.generations_retired")
        self._context.release(generation.index.memory_bytes())
        self._context.tracer.event(
            "lifecycle.generation_retired",
            severity="info",
            generation=generation.ordinal,
        )

    def _note_breaker_state(self) -> None:
        state = self._breaker.state
        if state != self._breaker_last_state:
            self._context.metrics.increment(f"lifecycle.breaker_{state}")
            self._context.tracer.event(
                "lifecycle.breaker_transition",
                severity="warning" if state != "closed" else "info",
                state=state,
            )
            self._breaker_last_state = state

    def _staleness_locked(self) -> Staleness:
        live = self._live
        if live is None:
            return MISSING
        version_lag = (
            (self._graph_a.version - live.versions[0])
            + (self._graph_b.version - live.versions[1])
        )
        edge_delta = (
            (self._graph_a.edges_changed - live.edge_clock[0])
            + (self._graph_b.edges_changed - live.edge_clock[1])
        )
        return Staleness(
            version_lag=version_lag,
            age_seconds=time.time() - live.built_at,
            edge_delta=edge_delta,
        )

    def __repr__(self) -> str:
        with self._cond:
            live = self._live.ordinal if self._live is not None else None
            return (
                f"IndexGenerationManager(live=#{live}, "
                f"generations={self._next_ordinal - 1}, "
                f"breaker={self._breaker.state!r}, closed={self._closed})"
            )
