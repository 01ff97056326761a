"""Structured budget failures.

Every cooperative abort in the runtime layer raises a subclass of
:class:`BudgetExceeded` so callers can (a) distinguish *why* a run was
stopped via :attr:`BudgetExceeded.reason` and (b) recover the metrics
collected up to the abort via :attr:`BudgetExceeded.metrics` — a run that
hits its budget still tells you how far it got.

The hierarchy deliberately keeps the historical class names
(:class:`DeadlineExceeded`, :class:`MemoryBudgetExceeded`) that the
baselines and the experiment harness have always raised/caught; they are
now structured instead of bare ``RuntimeError`` subclasses.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "BudgetExceeded",
    "Cancelled",
    "CorruptArtifactError",
    "DeadlineExceeded",
    "IndexUnavailableError",
    "InjectedFault",
    "MemoryBudgetExceeded",
    "TransientError",
]


class BudgetExceeded(RuntimeError):
    """A computation was stopped by a resource budget or cancellation.

    Attributes
    ----------
    reason:
        One of ``"budget"``, ``"deadline"``, ``"memory"``, ``"cancelled"``.
    metrics:
        Snapshot (see :meth:`repro.runtime.metrics.Metrics.snapshot`) of the
        metrics collected before the abort, or ``None`` when the failure was
        raised outside an :class:`repro.runtime.context.ExecutionContext`.
    """

    reason: str = "budget"

    def __init__(self, message: str, *, metrics: dict[str, Any] | None = None) -> None:
        super().__init__(message)
        self.metrics = metrics


class DeadlineExceeded(BudgetExceeded):
    """A computation ran (or is predicted to run) past its time budget."""

    reason = "deadline"


class MemoryBudgetExceeded(BudgetExceeded):
    """A working set (live or predicted) exceeds the memory budget."""

    reason = "memory"


class Cancelled(BudgetExceeded):
    """A computation observed its cancellation token at a checkpoint."""

    reason = "cancelled"


class TransientError(RuntimeError):
    """A failure expected to succeed on retry (I/O hiccup, preemption).

    :class:`repro.runtime.resilience.RetryPolicy` classifies subclasses of
    this (and plain ``OSError``) as retryable; everything else — bad input,
    exhausted budgets, cancellation — is fatal and surfaces immediately.
    """


class InjectedFault(TransientError):
    """A deterministic fault raised by a test-time fault injector.

    Attributes
    ----------
    checkpoint_number:
        Ordinal (1-based) of the :class:`ExecutionContext` checkpoint at
        which the fault fired, so tests can assert *where* a run died.
    """

    def __init__(self, message: str, *, checkpoint_number: int = 0) -> None:
        super().__init__(message)
        self.checkpoint_number = checkpoint_number


class IndexUnavailableError(RuntimeError):
    """A query was shed because no acceptable index generation exists.

    Raised by the live-index lifecycle layer when the serving policy
    cannot be satisfied: a ``shed``-policy query found only generations
    beyond the staleness budget, a ``block``-policy wait timed out, or
    the rebuild circuit breaker is open and no last-good generation is
    available to pin.  Structured so admission-control layers can map it
    to a retryable 503 instead of an opaque failure.

    Attributes
    ----------
    reason:
        One of ``"shed"`` (budget exceeded under a no-wait policy),
        ``"timeout"`` (a blocking wait expired), ``"degraded"`` (the
        circuit breaker is open), ``"rebuild_failed"`` (the rebuild a
        blocking wait depended on failed), or ``"no_generation"``
        (nothing has been built yet).
    staleness:
        JSON-friendly staleness measurement at decision time (see
        :meth:`repro.dynamic.lifecycle.policy.Staleness.to_dict`), or
        ``None`` when no generation exists.
    """

    def __init__(
        self,
        message: str,
        *,
        reason: str = "shed",
        staleness: "dict[str, Any] | None" = None,
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.staleness = staleness


class CorruptArtifactError(RuntimeError):
    """A persisted artifact failed its integrity check on load.

    Raised instead of returning silently-garbled factors when a saved
    ``.npz`` (index, checkpoint) is truncated, bit-flipped, or
    otherwise fails checksum verification.  The documented fallback is to
    rebuild the artifact from its source graphs (``gsim_plus`` /
    ``GSimIndex.build``) — the message names it so operators see the
    remedy next to the failure.

    Attributes
    ----------
    path:
        The offending file, when known.
    """

    def __init__(self, message: str, *, path: "str | None" = None) -> None:
        super().__init__(message)
        self.path = path
