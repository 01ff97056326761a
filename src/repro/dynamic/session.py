"""Version-tracked GSim+ similarity over evolving graphs.

``SimilaritySession`` binds a pair of :class:`DynamicGraph` objects and
serves query blocks / top-k retrievals from versioned, atomically
swapped index generations owned by an
:class:`repro.dynamic.lifecycle.IndexGenerationManager`.  Factor
recomputation happens on a background thread (with retry/backoff and
optional checkpointed crash-resume); what a query does while a rebuild
is pending is a per-session (or per-call) *policy*:

* ``block`` (default) — wait, deadline-capped, for a fresh generation:
  the historical lazy-recompute behaviour, minus the poisoning (a failed
  rebuild leaves the previous generation serving and the next query
  retries cleanly);
* ``serve_stale`` — answer immediately from the last-good generation
  while it is within the session's :class:`StalenessBudget`;
* ``shed`` — never wait: raise a structured
  :class:`repro.runtime.IndexUnavailableError` instead of queueing.

The session reports staleness/recompute statistics through the shared
:class:`repro.runtime.Metrics` sink (``session.*`` and ``lifecycle.*``
counters); :attr:`SimilaritySession.stats` remains a plain
:class:`SessionStats` view over those counters, and
:meth:`SimilaritySession.query_info` returns the block together with
the generation/staleness annotation it was served under.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dynamic.graph import DynamicGraph
from repro.dynamic.lifecycle import (
    CircuitBreaker,
    IndexGenerationManager,
    StalenessBudget,
    check_policy,
)
from repro.runtime import NULL_CONTEXT, ExecutionContext, RetryPolicy
from repro.utils.validation import check_positive_integer

__all__ = ["AnnotatedBlock", "SessionStats", "SimilaritySession"]


@dataclass
class SessionStats:
    """Counters describing how the session has been used."""

    queries: int = 0
    recomputes: int = 0
    cache_hits: int = 0
    stale_served: int = 0
    shed: int = 0


@dataclass(frozen=True)
class AnnotatedBlock:
    """A similarity block plus the generation it was served from."""

    block: np.ndarray
    generation: int
    fingerprint: str
    stale: bool
    degraded: bool
    staleness: dict = field(default_factory=dict)


class SimilaritySession:
    """GSim+ state over two evolving graphs, served from versioned
    generations that swap atomically under rebuilds.

    Examples
    --------
    >>> from repro.dynamic import DynamicGraph
    >>> a = DynamicGraph(4, [(0, 1), (1, 2), (2, 3)])
    >>> b = DynamicGraph(3, [(0, 1), (1, 2)])
    >>> session = SimilaritySession(a, b, iterations=6)
    >>> session.query([0, 1], [0, 1]).shape
    (2, 2)
    >>> a.add_edge(3, 0)     # graph changes ...
    >>> _ = session.query([0], [0])   # ... next query gets a rebuild
    >>> session.stats.recomputes
    2
    >>> session.close()
    """

    def __init__(
        self,
        graph_a: DynamicGraph,
        graph_b: DynamicGraph,
        iterations: int = 10,
        context: ExecutionContext | None = None,
        policy: str = "block",
        staleness_budget: StalenessBudget | None = None,
        wait_timeout: float = 60.0,
        eager_rebuild: bool = False,
        checkpoint_dir=None,
        retry_policy: RetryPolicy | None = None,
        circuit_breaker: CircuitBreaker | None = None,
        max_workers: int | None = None,
        recompress_tol: float | None = None,
        precision: str = "float64",
        rebuild_fault_injector=None,
    ) -> None:
        self._graph_a = graph_a
        self._graph_b = graph_b
        self.iterations = check_positive_integer(iterations, "iterations")
        self.policy = check_policy(policy)
        # ``stats`` reads its counters back from the metrics sink, which
        # the null context's keeps nothing of: build a real context.
        if context is None or context is NULL_CONTEXT:
            context = ExecutionContext()
        self._context = context
        self._manager = IndexGenerationManager(
            graph_a,
            graph_b,
            iterations=self.iterations,
            context=self._context,
            staleness_budget=staleness_budget,
            retry_policy=retry_policy,
            circuit_breaker=circuit_breaker,
            checkpoint_dir=checkpoint_dir,
            wait_timeout=wait_timeout,
            eager=eager_rebuild,
            rebuild_fault_injector=rebuild_fault_injector,
            max_workers=max_workers,
            recompress_tol=recompress_tol,
            precision=precision,
        )

    @property
    def context(self) -> ExecutionContext:
        """The execution context the session charges its work against."""
        return self._context

    @property
    def lifecycle(self) -> IndexGenerationManager:
        """The generation manager (health, live generation, manual control)."""
        return self._manager

    @property
    def stats(self) -> SessionStats:
        """Usage counters, read from the shared metrics sink."""
        metrics = self._context.metrics
        return SessionStats(
            queries=int(metrics.counter("session.queries")),
            recomputes=int(metrics.counter("lifecycle.rebuilds")),
            cache_hits=int(metrics.counter("session.cache_hits")),
            stale_served=int(metrics.counter("lifecycle.stale_served")),
            shed=int(metrics.counter("lifecycle.shed")),
        )

    # ------------------------------------------------------------------
    # Lifecycle management
    # ------------------------------------------------------------------
    @property
    def stale(self) -> bool:
        """Whether the live generation lags the graphs' current versions."""
        return self._manager.is_stale

    def refresh(self) -> None:
        """Force a synchronous rebuild from the graphs' current state.

        Runs in the calling thread as one ``session.refresh`` operation
        of the session's context, and re-raises build failures; on
        failure the previous generation stays installed and serving, so
        the session is never left half-updated.
        """
        with self._context.operation("session.refresh"):
            self._manager.rebuild_now()

    def health(self) -> dict:
        """The lifecycle health row (degraded flag, breaker state, ...)."""
        return self._manager.health()

    def close(self) -> None:
        """Stop the background rebuild worker (idempotent)."""
        self._manager.close()

    def __enter__(self) -> "SimilaritySession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self,
        queries_a: np.ndarray | list[int],
        queries_b: np.ndarray | list[int],
        normalization: str = "global",
        policy: str | None = None,
    ) -> np.ndarray:
        """The normalised similarity block for the current graph state.

        ``normalization`` follows :class:`repro.core.gsim_plus.GSimPlus`
        (``"global"`` default here: across updates, globally normalised
        scores stay comparable).  ``policy`` overrides the session's
        serving policy for this one call.
        """
        return self.query_info(
            queries_a, queries_b, normalization=normalization, policy=policy
        ).block

    def query_info(
        self,
        queries_a: np.ndarray | list[int],
        queries_b: np.ndarray | list[int],
        normalization: str = "global",
        policy: str | None = None,
    ) -> AnnotatedBlock:
        """Like :meth:`query`, annotated with generation and staleness.

        The block is the leased generation's
        :meth:`repro.retrieval.GSimIndex.query`, one ``index.query``
        operation of the session's context.
        """
        _check_normalization(normalization)
        policy = self.policy if policy is None else check_policy(policy)
        pre_ordinal = self._manager.live_ordinal
        with self._manager.lease(policy) as lease:
            self._note_query(lease, pre_ordinal)
            block = lease.index.query(queries_a, queries_b, context=self._context)
            return AnnotatedBlock(
                block=_normalized(block, normalization),
                generation=lease.generation.ordinal,
                fingerprint=lease.generation.fingerprint,
                stale=lease.stale,
                degraded=lease.degraded,
                staleness=lease.staleness.to_dict(),
            )

    def query_many(
        self,
        requests,
        normalization: str = "global",
        policy: str | None = None,
        max_workers: int | None = None,
    ) -> list[np.ndarray]:
        """Answer many ``(queries_a, queries_b)`` blocks under one lease.

        The whole batch is served from a single generation — a swap that
        lands mid-batch cannot mix factor versions across the results —
        by its :meth:`repro.retrieval.GSimIndex.query_many`, and comes
        back in request order for every worker count.
        """
        _check_normalization(normalization)
        policy = self.policy if policy is None else check_policy(policy)
        request_list = list(requests)
        pre_ordinal = self._manager.live_ordinal
        with self._manager.lease(policy) as lease:
            self._note_query(lease, pre_ordinal, count=len(request_list))
            blocks = lease.index.query_many(
                request_list, max_workers=max_workers, context=self._context
            )
            return [_normalized(block, normalization) for block in blocks]

    def top_matches(
        self, node_a: int, k: int = 5, policy: str | None = None
    ) -> list[tuple[int, float]]:
        """The ``k`` most similar G_B nodes for one G_A node, with scores.

        Ranked by the leased generation's
        :meth:`repro.retrieval.GSimIndex.top_matches`.
        """
        k = check_positive_integer(k, "k")
        policy = self.policy if policy is None else check_policy(policy)
        pre_ordinal = self._manager.live_ordinal
        with self._manager.lease(policy) as lease:
            self._note_query(lease, pre_ordinal)
            matches = lease.index.top_matches(
                node_a, k=k, context=self._context
            )
            return [(match.node_b, match.score) for match in matches]

    # ------------------------------------------------------------------
    def _note_query(self, lease, pre_ordinal, count: int = 1) -> None:
        metrics = self._context.metrics
        metrics.increment("session.queries", count)
        # A cache hit in the historical sense: served from a generation
        # that already existed and was still fresh when we asked.
        if (
            not lease.stale
            and pre_ordinal is not None
            and lease.generation.ordinal == pre_ordinal
        ):
            metrics.increment("session.cache_hits", count)


def _check_normalization(normalization: str) -> None:
    if normalization not in ("block", "global"):
        raise ValueError(f"unknown normalization {normalization!r}")


def _normalized(block: np.ndarray, normalization: str) -> np.ndarray:
    """A globally normalised index block, or (``"block"``) the block
    divided by its own norm."""
    if normalization == "global":
        return block
    norm = float(np.linalg.norm(block))
    if norm == 0.0:
        raise ZeroDivisionError("similarity collapsed to zero")
    return block / norm
