"""Immutable, versioned index generations and reader leases.

An :class:`IndexGeneration` is one fully built :class:`repro.retrieval.
index.GSimIndex` frozen together with the exact graph state it was built
from: the two graph version counters, the cumulative edge-mutation
clocks, and a SHA-256 *fingerprint* over the factor arrays and build
parameters.  Generations are never mutated after construction — the
lifecycle manager swaps a pointer between them — so a reader that has
acquired one can never observe a torn or partially built index.

Retirement is reader-count driven: when the manager installs a
successor it calls :meth:`IndexGeneration.mark_retired`, but the
generation's arrays are only actually released once every in-flight
reader has called :meth:`IndexGeneration.release` (the pointer flip
drains old readers instead of interrupting them).  Readers hold
generations through :class:`GenerationLease`, a context manager the
manager hands out, which carries the staleness annotation the query
result is served under.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

from repro.core.embeddings import LowRankFactors
from repro.retrieval.index import GSimIndex
from repro.runtime.resilience import content_checksum

from repro.dynamic.lifecycle.policy import Staleness

__all__ = ["GenerationLease", "IndexGeneration", "generation_fingerprint"]


def generation_fingerprint(
    factors: LowRankFactors,
    versions: tuple[int, int],
    iterations: int,
) -> str:
    """A content digest binding factor arrays to the graph state they
    were built from.

    Covers the raw ``U``/``V`` bytes, the log-scale, the two graph
    version counters, and the iteration count — so two generations agree
    on their fingerprint iff they hold bit-identical factors built from
    the same graph versions under the same depth.
    """
    return content_checksum(
        {
            "u": factors.u,
            "v": factors.v,
            "log_scale": np.float64(factors.log_scale),
            "versions": list(versions),
            "iterations": iterations,
        }
    )


class IndexGeneration:
    """One immutable build of the index, pinned to a graph state.

    Parameters
    ----------
    ordinal:
        1-based install order within its manager.
    index:
        The built :class:`GSimIndex` (immutable from here on).
    versions:
        ``(graph_a.version, graph_b.version)`` the build consumed.
    edge_clock:
        ``(graph_a.edges_changed, graph_b.edges_changed)`` at build time,
        used to compute the accumulated edge delta of later mutations.
    built_at:
        Wall-clock install time (``time.time()``).
    build_seconds:
        How long the build took (for slow-rebuild records).
    on_retire:
        Callback fired exactly once, when the generation is retired
        *and* its reader count has drained to zero.
    """

    def __init__(
        self,
        ordinal: int,
        index: GSimIndex,
        versions: tuple[int, int],
        edge_clock: tuple[int, int],
        built_at: float,
        build_seconds: float,
        iterations: int,
        on_retire: Callable[["IndexGeneration"], None] | None = None,
    ) -> None:
        self.ordinal = ordinal
        self.index = index
        self.versions = versions
        self.edge_clock = edge_clock
        self.built_at = built_at
        self.build_seconds = build_seconds
        self.iterations = iterations
        self.fingerprint = generation_fingerprint(
            index.factors, versions, iterations
        )
        self._on_retire = on_retire
        self._lock = threading.Lock()
        self._readers = 0
        self._retire_pending = False
        self._retired = False

    @property
    def factors(self) -> LowRankFactors:
        """The factor pair this generation serves."""
        return self.index.factors

    @property
    def readers(self) -> int:
        """In-flight reader count."""
        with self._lock:
            return self._readers

    @property
    def retired(self) -> bool:
        """Whether the generation has fully retired (drained + replaced)."""
        with self._lock:
            return self._retired

    # ------------------------------------------------------------------
    def acquire(self) -> None:
        """Register one in-flight reader.

        The manager only acquires the *live* generation while holding
        its own lock, so acquisition can never race a retirement: a
        generation with a pending retire is by definition no longer
        live.
        """
        with self._lock:
            if self._retired:
                raise RuntimeError(
                    f"generation #{self.ordinal} is retired; "
                    "acquire must go through the lifecycle manager"
                )
            self._readers += 1

    def release(self) -> None:
        """Drop one reader; retire the generation if it was the last
        holdout of a pending retirement."""
        fire = False
        with self._lock:
            if self._readers <= 0:
                raise RuntimeError(
                    f"generation #{self.ordinal} released more than acquired"
                )
            self._readers -= 1
            if self._retire_pending and self._readers == 0:
                self._retire_pending = False
                self._retired = True
                fire = True
        if fire and self._on_retire is not None:
            self._on_retire(self)

    def mark_retired(self) -> None:
        """The manager replaced this generation: retire now if drained,
        otherwise when the last reader releases."""
        fire = False
        with self._lock:
            if self._retired or self._retire_pending:
                return
            if self._readers == 0:
                self._retired = True
                fire = True
            else:
                self._retire_pending = True
        if fire and self._on_retire is not None:
            self._on_retire(self)

    def __repr__(self) -> str:
        return (
            f"IndexGeneration(#{self.ordinal}, versions={self.versions}, "
            f"readers={self.readers}, retired={self.retired})"
        )


class GenerationLease:
    """A reader's hold on one generation, plus its serving annotation.

    Use as a context manager; the generation's reader count is held for
    the ``with`` body and released on exit, so an atomic swap that
    happens mid-query retires the old generation only after this lease
    (and every other in-flight one) lets go.

    Attributes
    ----------
    generation:
        The :class:`IndexGeneration` being read.
    staleness:
        The :class:`repro.dynamic.lifecycle.policy.Staleness` measured
        at lease time.
    stale:
        Whether the lease serves a generation that lags the graphs.
    degraded:
        Whether the generation was pinned by an open circuit breaker
        (repeated rebuild failures) rather than chosen by the budget.
    """

    __slots__ = ("generation", "staleness", "stale", "degraded", "_released")

    def __init__(
        self,
        generation: IndexGeneration,
        staleness: Staleness,
        degraded: bool = False,
    ) -> None:
        self.generation = generation
        self.staleness = staleness
        self.stale = not staleness.fresh
        self.degraded = degraded
        self._released = False

    @property
    def factors(self) -> LowRankFactors:
        """The leased generation's factor pair."""
        return self.generation.factors

    @property
    def index(self) -> GSimIndex:
        """The leased generation's index."""
        return self.generation.index

    def annotation(self) -> dict:
        """The generation/staleness annotation attached to results."""
        return {
            "generation": self.generation.ordinal,
            "fingerprint": self.generation.fingerprint,
            "staleness": self.staleness.to_dict(),
            "stale": self.stale,
            "degraded": self.degraded,
        }

    def release(self) -> None:
        """Idempotently drop the reader hold."""
        if not self._released:
            self._released = True
            self.generation.release()

    def __enter__(self) -> "GenerationLease":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:
        return (
            f"GenerationLease(#{self.generation.ordinal}, stale={self.stale}, "
            f"degraded={self.degraded})"
        )
