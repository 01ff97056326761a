"""Algorithm registry and measured-run machinery.

Every experiment driver goes through :func:`run_algorithm`:

1. the instance parameters are fed to the algorithm's Table 1 cost model;
2. the memory/time guards may veto the run (recorded as OOM / TIMEOUT,
   mirroring the paper's crash / did-not-finish outcomes);
3. otherwise the algorithm executes for real under a stopwatch and a
   tracemalloc tracker, and the measurement is recorded.

The :data:`ALGORITHMS` registry holds one :class:`AlgorithmSpec` per
competitor with a uniform call signature
``run(graph_a, graph_b, queries_a, queries_b, iterations, context) ->
ndarray``.  Measured runs execute under one
:class:`repro.runtime.ExecutionContext` per cell — armed wall-clock
deadline, live memory ledger, and a metrics sink whose snapshot is stored
on the resulting :class:`RunRecord`.
"""

from __future__ import annotations

import enum
import time
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.baselines.gsim import gsim_partial
from repro.baselines.gsvd import gsvd
from repro.baselines.ned import TreeSizeLimitExceeded, ned_query
from repro.baselines.rolesim import rolesim_query
from repro.baselines.structsim import structsim_query
from repro.core.complexity import InstanceParams, predict_cost
from repro.core.gsim_plus import gsim_plus
from repro.experiments.guards import (
    Deadline,
    DeadlineExceeded,
    MemoryBudget,
    MemoryBudgetExceeded,
)
from repro.graphs.graph import Graph
from repro.runtime import BudgetExceeded, ExecutionContext
from repro.runtime.parallel import WorkerPool
from repro.runtime.resilience import RetryPolicy
from repro.utils.memory import MemoryTracker
from repro.utils.timing import Stopwatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.journal import RunJournal

__all__ = [
    "ALGORITHMS",
    "AlgorithmSpec",
    "CellTask",
    "ExperimentConfig",
    "Outcome",
    "RunRecord",
    "run_algorithm",
    "run_cells",
]

RunFn = Callable[
    [Graph, Graph, np.ndarray, np.ndarray, int, "ExecutionContext | None"],
    np.ndarray,
]


class Outcome(enum.Enum):
    """Terminal state of one experiment cell."""

    OK = "ok"
    OOM = "oom"
    TIMEOUT = "timeout"
    ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered competitor.

    Attributes
    ----------
    name:
        Display name used in figures (matches the paper's labels).
    run:
        Uniform entry point returning the query-block scores.
    cost_model:
        Key into :data:`repro.core.complexity.COST_MODELS`.
    units_per_second:
        Calibration constant converting the model's dominant-term operation
        count into predicted seconds on this hardware.  Vectorised NumPy
        kernels sustain ~1e8 units/s; per-pair Python loops far less.
        Used only by the predictive time gate — measured runs report real
        wall clock.
    working_set_factor:
        Multiplier on the model's space estimate accounting for temporaries
        (e.g. GSim holds S, the updated S, and one product at once).
    """

    name: str
    run: RunFn
    cost_model: str
    units_per_second: float
    working_set_factor: float = 1.0


@dataclass
class RunRecord:
    """Measurement (or vetoed prediction) for one cell of a figure."""

    algorithm: str
    dataset: str
    outcome: Outcome
    seconds: float | None = None
    memory_bytes: float | None = None
    predicted_seconds: float | None = None
    predicted_bytes: float | None = None
    params: dict[str, object] = field(default_factory=dict)
    note: str = ""
    metrics: dict | None = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        """True when the cell executed and was measured."""
        return self.outcome is Outcome.OK

    def to_dict(self) -> dict:
        """A JSON-serialisable form (used by the run journal)."""
        data = asdict(self)
        data["outcome"] = self.outcome.value
        return data

    @classmethod
    def from_dict(cls, raw: dict) -> "RunRecord":
        """Inverse of :meth:`to_dict`."""
        data = dict(raw)
        data["outcome"] = Outcome(data["outcome"])
        return cls(**data)


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for a figure/table driver.

    ``retry_policy`` and ``journal`` opt a sweep into the resilience
    layer: transient per-cell failures are retried (and quarantined as
    structured ERROR records when they keep failing), and completed cells
    are journalled after every cell so an interrupted sweep can be
    re-run executing only the missing cells.

    ``max_workers`` parallelises the *cells* of a sweep (each cell keeps
    its own :class:`repro.runtime.ExecutionContext`); cells are
    independent, so records come back identical to a serial sweep except
    for timings — and per-cell memory, which is reported from the
    context's memory ledger instead of tracemalloc when cells run
    concurrently (tracemalloc is process-global and cannot attribute
    allocations to a cell).

    ``context`` is the sweep's :class:`repro.runtime.ExecutionContext`
    (``None`` means :data:`repro.runtime.NULL_CONTEXT`).  Its tracer
    records one ``sweep.run`` root span and one ``sweep.cell`` span per
    cell (attributes: cell key, algorithm, dataset, outcome, attempts,
    journal replay), stitched under the root even when cells run on
    worker threads.  Each cell runs under a context of its own (armed
    deadline, fresh ledger, fresh metrics for :attr:`RunRecord.metrics`)
    that borrows the sweep context's tracer and slow-query log, so
    solver and shard spans nest inside their cell and retrieval calls
    land in one slow-query ring.  Every finished cell's metric snapshot
    is merged into the sweep context's metrics as the cell completes,
    with the ``sweep.cells`` and ``sweep.quarantined`` counters, so a
    :class:`repro.runtime.telemetry.PeriodicFlusher` watching them
    exports sweep progress at cell granularity.  The context only
    observes: results are bit-identical with or without it.
    """

    scale: str = "small"
    iterations: int = 10
    seed: int = 7
    memory_budget: MemoryBudget = field(default_factory=MemoryBudget)
    deadline: Deadline = field(default_factory=Deadline)
    retry_policy: RetryPolicy | None = None
    journal: "RunJournal | None" = None
    max_workers: int = 1
    precision: str = "float64"
    recompress_tol: float | None = None
    solver_workers: int | None = None
    context: ExecutionContext | None = None

    def solver_options(self) -> dict[str, object]:
        """Non-default GSim+ solver knobs, for :func:`run_algorithm`.

        Defaults map to an empty dict so journal cell keys (and
        measured behaviour) are unchanged for existing sweeps.

        ``solver_workers`` parallelises the SpMM *inside* each GSim+ cell
        (``max_workers`` parallelises across cells).  Results are
        bit-identical either way, so journal keys are again only extended
        for non-default values.
        """
        options: dict[str, object] = {}
        if self.precision != "float64":
            options["precision"] = self.precision
        if self.recompress_tol is not None:
            options["recompress_tol"] = self.recompress_tol
        if self.solver_workers is not None:
            options["max_workers"] = self.solver_workers
        return options

    # k per profile such that 2^k stays well below the scaled |V_B|
    # (paper regime: 2^10 = 1024 << |V_B| = 10,000).  Past that point
    # GSim+ correctly reverts to dense GSim and the speed gap closes by
    # design, so shape comparisons use the factored regime.
    _SCALE_ITERATIONS = {"tiny": 5, "small": 7, "medium": 9, "paper": 10}

    @classmethod
    def for_scale(cls, scale: str, seed: int = 7, **overrides) -> "ExperimentConfig":
        """Config whose iteration count keeps 2^k below the scaled |V_B|."""
        if scale not in cls._SCALE_ITERATIONS:
            raise KeyError(
                f"unknown scale {scale!r}; choose from {sorted(cls._SCALE_ITERATIONS)}"
            )
        return cls(
            scale=scale,
            iterations=cls._SCALE_ITERATIONS[scale],
            seed=seed,
            **overrides,
        )


# ----------------------------------------------------------------------
# Uniform adapters
# ----------------------------------------------------------------------
def _run_gsim_plus(
    graph_a: Graph,
    graph_b: Graph,
    queries_a: np.ndarray,
    queries_b: np.ndarray,
    iterations: int,
    context: ExecutionContext | None = None,
    **solver_options,
) -> np.ndarray:
    return gsim_plus(
        graph_a,
        graph_b,
        iterations=iterations,
        queries_a=queries_a,
        queries_b=queries_b,
        context=context,
        **solver_options,
    ).similarity


def _run_gsvd(
    graph_a: Graph,
    graph_b: Graph,
    queries_a: np.ndarray,
    queries_b: np.ndarray,
    iterations: int,
    context: ExecutionContext | None = None,
    **_solver_options,
) -> np.ndarray:
    result = gsvd(graph_a, graph_b, iterations=iterations, rank=10, context=context)
    return result.query_block(queries_a, queries_b)


def _run_gsim(
    graph_a: Graph,
    graph_b: Graph,
    queries_a: np.ndarray,
    queries_b: np.ndarray,
    iterations: int,
    context: ExecutionContext | None = None,
    **_solver_options,
) -> np.ndarray:
    return gsim_partial(
        graph_a, graph_b, queries_a, queries_b, iterations=iterations, context=context
    ).similarity


def _run_structsim(
    graph_a: Graph,
    graph_b: Graph,
    queries_a: np.ndarray,
    queries_b: np.ndarray,
    iterations: int,
    context: ExecutionContext | None = None,
    **_solver_options,
) -> np.ndarray:
    return structsim_query(
        graph_a, graph_b, queries_a, queries_b, levels=iterations, context=context
    )


def _run_ned(
    graph_a: Graph,
    graph_b: Graph,
    queries_a: np.ndarray,
    queries_b: np.ndarray,
    iterations: int,
    context: ExecutionContext | None = None,
    **_solver_options,
) -> np.ndarray:
    # NED's tree depth plays the role of k; depth 3 already explodes on
    # non-trivial graphs (the point the paper makes), so cap it there and
    # let the cooperative deadline / tree-size limit catch the blow-ups.
    depth = min(iterations, 3)
    return ned_query(
        graph_a, graph_b, queries_a, queries_b, depth=depth,
        size_limit=500_000, context=context,
    )


def _run_rolesim(
    graph_a: Graph,
    graph_b: Graph,
    queries_a: np.ndarray,
    queries_b: np.ndarray,
    iterations: int,
    context: ExecutionContext | None = None,
    **_solver_options,
) -> np.ndarray:
    # RoleSim converges within a handful of iterations; cap at 3 so the
    # all-pairs loops get a fighting chance on the smallest profile.
    return rolesim_query(
        graph_a, graph_b, queries_a, queries_b,
        iterations=min(iterations, 3), context=context,
    )


ALGORITHMS: dict[str, AlgorithmSpec] = {
    "GSim+": AlgorithmSpec(
        name="GSim+",
        run=_run_gsim_plus,
        cost_model="gsim+",
        units_per_second=2.0e8,
        working_set_factor=2.0,  # U_k plus the doubled U_{k+1}.
    ),
    "GSVD": AlgorithmSpec(
        name="GSVD",
        run=_run_gsvd,
        cost_model="gsvd",
        units_per_second=1.0e8,
        # Table 1 charges GSVD Θ(n_A n_B) space with the same dense working
        # set as GSim — the paper shows both crashing on WT and larger.
        working_set_factor=3.0,
    ),
    "GSim": AlgorithmSpec(
        name="GSim",
        run=_run_gsim,
        cost_model="gsim",
        units_per_second=2.0e8,
        working_set_factor=3.0,  # S, the update, and one product temporary.
    ),
    "SS-BC*": AlgorithmSpec(
        name="SS-BC*",
        run=_run_structsim,
        cost_model="ss-bc",
        units_per_second=3.0e6,
        working_set_factor=1.0,
    ),
    "NED": AlgorithmSpec(
        name="NED",
        run=_run_ned,
        cost_model="ned",
        units_per_second=4.0e7,
        working_set_factor=1.0,
    ),
    "RSim": AlgorithmSpec(
        name="RSim",
        run=_run_rolesim,
        cost_model="rsim",
        units_per_second=1.0e6,
        working_set_factor=2.0,  # previous + updated all-pairs matrices.
    ),
}


def instance_params(
    graph_a: Graph,
    graph_b: Graph,
    queries_a: np.ndarray,
    queries_b: np.ndarray,
    iterations: int,
) -> InstanceParams:
    """Collect the Table 1 model inputs for one instance."""
    combined_nodes = graph_a.num_nodes + graph_b.num_nodes
    combined_edges = graph_a.num_edges + graph_b.num_edges
    d_avg = max(1.0, combined_edges / max(combined_nodes, 1))
    d_max = max(graph_a.max_degree(), graph_b.max_degree(), 1)
    # NED's L (average nodes per tree level) grows like d_avg^level; use
    # the level-2 width as the representative L the cubic term sees.
    tree_level_width = max(2.0, d_avg**2)
    return InstanceParams(
        n_a=graph_a.num_nodes,
        n_b=graph_b.num_nodes,
        m_a=graph_a.num_edges,
        m_b=graph_b.num_edges,
        q_a=int(queries_a.size),
        q_b=int(queries_b.size),
        iterations=iterations,
        d_avg=d_avg,
        d_max=int(d_max),
        tree_level_width=tree_level_width,
    )


def cell_key(algorithm: str, dataset: str, params: dict[str, object]) -> str:
    """The canonical identity of one sweep cell (for the run journal).

    Folds in every instance parameter the runner records (graph sizes,
    query sizes, iteration count), so sweeping any axis — k, |V_B|, |Q|
    — yields distinct keys while a re-run of the same sweep maps onto
    the same ones.
    """
    rendered = ",".join(f"{key}={params[key]}" for key in sorted(params))
    return f"{algorithm}|{dataset}|{rendered}"


def run_algorithm(
    spec: AlgorithmSpec,
    graph_a: Graph,
    graph_b: Graph,
    queries_a: np.ndarray,
    queries_b: np.ndarray,
    iterations: int,
    memory_budget: MemoryBudget | None = None,
    deadline: Deadline | None = None,
    dataset: str = "",
    retry_policy: RetryPolicy | None = None,
    journal: "RunJournal | None" = None,
    track_memory: bool = True,
    context: ExecutionContext | None = None,
    trace_parent=None,
    solver_options: dict[str, object] | None = None,
) -> RunRecord:
    """Gate, execute, and measure one experiment cell.

    ``solver_options`` carries non-default solver knobs (currently
    GSim+'s ``precision`` / ``recompress_tol``); they fold into the
    journal cell key so a float32 or recompressed sweep never replays a
    float64 cell, while default runs keep their historical keys.

    Never raises for resource vetoes — those come back as OOM/TIMEOUT
    records, exactly like the crossed-out cells in the paper's figures.
    Attempted cells run under an :class:`repro.runtime.ExecutionContext`
    carrying the armed deadline and a live memory ledger; the context's
    metric snapshot (including partial metrics from interrupted runs) is
    stored on the record.

    With a ``retry_policy``, transient failures (I/O hiccups, injected
    faults) are retried with backoff; a cell that keeps failing is
    *quarantined* as a structured ERROR record rather than aborting the
    sweep.  With a ``journal``, an already-journalled cell is replayed
    without executing and every finished cell is persisted immediately,
    making multi-hour sweeps resumable cell by cell.

    ``track_memory=False`` skips the tracemalloc tracker (which is
    process-global, so concurrent cells would see each other's
    allocations) and reports the cell's memory from its context's
    memory-ledger peak instead; :func:`run_cells` sets this
    automatically when the sweep runs on a worker pool.

    ``context`` is the sweep's context (see :class:`ExperimentConfig`).
    The whole cell — journal replays, every retry attempt, and
    quarantine — runs inside one ``sweep.cell`` span on its tracer
    (attributes: cell key, algorithm, dataset, outcome, attempts,
    ``replayed``); ``trace_parent`` stitches it under the submitting
    sweep's root span when cells execute on worker threads.  The
    finished cell's metric snapshot (replayed cells included) is merged
    into ``context.metrics`` and counted in ``sweep.cells``; a
    quarantined cell is also counted in ``sweep.quarantined`` and logs a
    ``sweep.quarantined`` event.
    """
    memory_budget = memory_budget or MemoryBudget()
    deadline = deadline or Deadline()
    dataset = dataset or graph_a.name
    context = ExecutionContext.resolve(context)
    params = instance_params(graph_a, graph_b, queries_a, queries_b, iterations)
    record_params: dict[str, object] = {
        "n_a": params.n_a,
        "n_b": params.n_b,
        "m_a": params.m_a,
        "m_b": params.m_b,
        "q_a": params.q_a,
        "q_b": params.q_b,
        "k": iterations,
    }
    if solver_options:
        record_params.update(solver_options)
    key = cell_key(spec.name, dataset, record_params)
    with context.tracer.span("sweep.cell", parent=trace_parent) as cell_span:
        cell_span.set_attribute("cell", key)
        cell_span.set_attribute("algorithm", spec.name)
        cell_span.set_attribute("dataset", dataset)
        if journal is not None:
            replayed = journal.get(key)
            if replayed is not None:
                cell_span.set_attribute("replayed", True)
                cell_span.set_attribute("outcome", replayed.outcome.value)
                _count_cell(context, replayed)
                return replayed

        max_attempts = retry_policy.max_attempts if retry_policy is not None else 1
        record: RunRecord | None = None
        for attempt in range(1, max_attempts + 1):
            try:
                record = _execute_cell(
                    spec, graph_a, graph_b, queries_a, queries_b, iterations,
                    memory_budget, deadline, dataset, params, record_params,
                    context, track_memory=track_memory,
                    solver_options=solver_options,
                )
            except Exception as exc:
                if retry_policy is None or not retry_policy.is_transient(exc):
                    raise
                if attempt >= max_attempts:
                    record = RunRecord(
                        algorithm=spec.name,
                        dataset=dataset,
                        outcome=Outcome.ERROR,
                        params=dict(record_params),
                        note=f"quarantined after {attempt} attempts: {exc}",
                        attempts=attempt,
                    )
                    context.metrics.increment("sweep.quarantined")
                    context.tracer.event(
                        "sweep.quarantined",
                        severity="error",
                        span=cell_span,
                        cell=key,
                        attempts=attempt,
                        error=str(exc),
                    )
                    break
                time.sleep(retry_policy.delay(attempt))
                continue
            record.attempts = attempt
            break
        assert record is not None
        cell_span.set_attribute("outcome", record.outcome.value)
        cell_span.set_attribute("attempts", record.attempts)
        if journal is not None:
            journal.record(key, record)
        _count_cell(context, record)
        return record


def _count_cell(context: ExecutionContext, record: RunRecord) -> None:
    """Fold a finished cell into the sweep context's metrics."""
    if record.metrics:
        context.metrics.merge_snapshot(record.metrics)
    context.metrics.increment("sweep.cells")


def _execute_cell(
    spec: AlgorithmSpec,
    graph_a: Graph,
    graph_b: Graph,
    queries_a: np.ndarray,
    queries_b: np.ndarray,
    iterations: int,
    memory_budget: MemoryBudget,
    deadline: Deadline,
    dataset: str,
    params: InstanceParams,
    record_params: dict[str, object],
    sweep: ExecutionContext,
    track_memory: bool = True,
    solver_options: dict[str, object] | None = None,
) -> RunRecord:
    """One gated, measured attempt (structured vetoes become records)."""
    solver_options = solver_options or {}
    time_units, space_bytes = predict_cost(spec.cost_model, params)
    predicted_seconds = time_units / spec.units_per_second
    predicted_bytes = space_bytes * spec.working_set_factor
    record = RunRecord(
        algorithm=spec.name,
        dataset=dataset,
        outcome=Outcome.OK,
        predicted_seconds=predicted_seconds,
        predicted_bytes=predicted_bytes,
        params=dict(record_params),
    )
    try:
        memory_budget.check(predicted_bytes, spec.name)
        deadline.check_predicted(predicted_seconds, spec.name)
    except MemoryBudgetExceeded as exc:
        record.outcome = Outcome.OOM
        record.note = str(exc)
        return record
    except DeadlineExceeded as exc:
        record.outcome = Outcome.TIMEOUT
        record.note = str(exc)
        return record

    stopwatch = Stopwatch()
    context = ExecutionContext(
        deadline=deadline.arm(), memory=memory_budget.ledger(),
        tracer=sweep.tracer, slow_queries=sweep.slow_queries,
    )
    tracker: MemoryTracker | None = None
    try:
        if track_memory:
            with MemoryTracker() as tracker:
                with stopwatch:
                    spec.run(
                        graph_a, graph_b, queries_a, queries_b, iterations,
                        context, **solver_options,
                    )
        else:
            with stopwatch:
                spec.run(
                    graph_a, graph_b, queries_a, queries_b, iterations,
                    context, **solver_options,
                )
    except DeadlineExceeded as exc:
        record.outcome = Outcome.TIMEOUT
        record.note = str(exc)
        record.metrics = exc.metrics or context.snapshot()
        return record
    except MemoryBudgetExceeded as exc:
        # The live ledger caught a working set the predictive model missed
        # (e.g. GSim+'s dense rank-cap fallback).
        record.outcome = Outcome.OOM
        record.note = str(exc)
        record.metrics = exc.metrics or context.snapshot()
        return record
    except TreeSizeLimitExceeded as exc:
        # NED's k-adjacent trees blew past their cap — the paper reports
        # this as NED being "unresponsive".
        record.outcome = Outcome.TIMEOUT
        record.note = str(exc)
        record.metrics = context.snapshot()
        return record
    except BudgetExceeded as exc:
        # Remaining structured interruptions (e.g. cancellation).
        record.outcome = Outcome.ERROR
        record.note = str(exc)
        record.metrics = exc.metrics or context.snapshot()
        return record
    except MemoryError as exc:  # pragma: no cover - defensive
        record.outcome = Outcome.OOM
        record.note = str(exc)
        record.metrics = context.snapshot()
        return record
    except ZeroDivisionError as exc:
        # Degenerate instance (e.g. an edgeless G_B sample): the similarity
        # iterate collapsed.  Record rather than crash the whole figure.
        record.outcome = Outcome.ERROR
        record.note = str(exc)
        record.metrics = context.snapshot()
        return record
    record.seconds = stopwatch.elapsed
    if tracker is not None:
        record.memory_bytes = float(tracker.peak_bytes)
    elif context.memory is not None:
        # Ledger peak: the charged working set, not allocator truth — but
        # attributable to this cell even with other cells in flight.
        record.memory_bytes = float(context.memory.peak_bytes)
    record.metrics = context.snapshot()
    return record


@dataclass(frozen=True)
class CellTask:
    """One independent cell of a sweep, ready to hand to :func:`run_cells`."""

    spec: AlgorithmSpec
    graph_a: Graph
    graph_b: Graph
    queries_a: np.ndarray
    queries_b: np.ndarray
    iterations: int
    dataset: str = ""


def run_cells(
    tasks: "list[CellTask]", config: ExperimentConfig
) -> list[RunRecord]:
    """Run a sweep's independent cells, serially or on a worker pool.

    Each cell goes through :func:`run_algorithm` unchanged — predictive
    gating, per-cell retry/quarantine, and journal replay/persist all
    compose with the pool (the journal is lock-protected).  Records come
    back in task order for every ``config.max_workers``, and algorithm
    *results* are identical to a serial sweep because cells share no
    state.  Measurements are measurements, though: timings shift with
    CPU contention, memory is ledger- instead of tracemalloc-reported,
    and — because tracemalloc itself slows allocation-heavy Python loops
    severalfold — a cell sitting near the wall-clock limit can TIMEOUT
    in a (tracked) serial sweep yet finish in an (untracked) parallel
    one.  Predictive vetoes (``>1day`` / predicted-OOM) never vary.
    """
    pool = WorkerPool.resolve(config.max_workers)
    track_memory = pool.serial or len(tasks) <= 1
    context = ExecutionContext.resolve(config.context)

    with context.tracer.span("sweep.run") as root:
        root.set_attribute("cells", len(tasks))
        root.set_attribute("max_workers", pool.max_workers)

        # Precision / recompression are GSim+ knobs; baseline cells keep
        # their historical keys (and behaviour) in mixed sweeps.
        solver_options = config.solver_options()

        def _run(task: CellTask) -> RunRecord:
            cell_options = solver_options if task.spec.name == "GSim+" else None
            return run_algorithm(
                task.spec,
                task.graph_a,
                task.graph_b,
                task.queries_a,
                task.queries_b,
                task.iterations,
                memory_budget=config.memory_budget,
                deadline=config.deadline,
                dataset=task.dataset,
                retry_policy=config.retry_policy,
                journal=config.journal,
                track_memory=track_memory,
                context=context,
                trace_parent=root,
                solver_options=cell_options,
            )

        return pool.map(_run, tasks, what="sweep cells")
