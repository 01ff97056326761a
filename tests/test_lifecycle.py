"""Live-index lifecycle: generations, swaps, chaos, serving policies.

The acceptance tests at the bottom are the point of the suite: a
fault-injected kill mid-rebuild must leave readers on bit-identical
last-good answers, the retried rebuild must resume from its checkpoint
and install a generation exactly equal to a from-scratch build, and a
concurrent writer/reader stress run must never surface a torn
generation (every leased fingerprint re-verifies against the leased
arrays) or drop a query.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.dynamic import (
    DynamicGraph,
    SimilaritySession,
    StalenessBudget,
)
from repro.dynamic.lifecycle import (
    CircuitBreaker,
    IndexGeneration,
    IndexGenerationManager,
    Staleness,
    check_policy,
    generation_fingerprint,
)
from repro.graphs import erdos_renyi_graph, random_node_sample
from repro.retrieval.index import GSimIndex
from repro.runtime import NULL_CONTEXT, ExecutionContext, Metrics, Tracer
from repro.runtime.errors import IndexUnavailableError, InjectedFault
from repro.runtime.resilience import (
    CheckpointManager,
    FaultInjector,
    RetryPolicy,
)

pytestmark = pytest.mark.lifecycle

ITERATIONS = 4


def _dynamic_pair() -> tuple[DynamicGraph, DynamicGraph]:
    """A small seeded (G_A, G_B) dynamic pair."""
    base_a = erdos_renyi_graph(30, 90, seed=1)
    base_b = random_node_sample(base_a, 12, seed=2)
    graph_a = DynamicGraph(base_a.num_nodes)
    graph_a.add_edges([(s, d) for s, d, _ in base_a.edges()])
    graph_b = DynamicGraph(base_b.num_nodes)
    graph_b.add_edges([(s, d) for s, d, _ in base_b.edges()])
    return graph_a, graph_b


def _fresh_edge(graph: DynamicGraph, rng: np.random.Generator) -> tuple[int, int]:
    """A random (src, dst) not currently in the graph."""
    while True:
        src = int(rng.integers(graph.num_nodes))
        dst = int(rng.integers(graph.num_nodes))
        if src != dst and not graph.has_edge(src, dst):
            return src, dst


def _fast_retry(attempts: int = 3) -> RetryPolicy:
    return RetryPolicy(max_attempts=attempts, base_delay=0.0, max_delay=0.0)


def _flip_payload_byte(path):
    """Corrupt one byte inside the largest npz member's compressed data."""
    import zipfile

    with zipfile.ZipFile(path) as archive:
        info = max(archive.infolist(), key=lambda entry: entry.compress_size)
        header = bytearray(path.read_bytes())[info.header_offset:]
        # local header: 26..30 hold the name/extra lengths; data follows.
        name_len = int.from_bytes(header[26:28], "little")
        extra_len = int.from_bytes(header[28:30], "little")
        data_start = info.header_offset + 30 + name_len + extra_len
    blob = bytearray(path.read_bytes())
    blob[data_start + info.compress_size // 2] ^= 0xFF
    path.write_bytes(bytes(blob))


class FlakyInjector:
    """Duck-typed fault injector that fails while ``active`` is set."""

    def __init__(self, match: str = "GSim+ iteration") -> None:
        self.match = match
        self.active = True
        self.fired = 0

    def on_checkpoint(self, what: str = "computation") -> None:
        if self.active and self.match in what:
            self.fired += 1
            raise InjectedFault(
                f"flaky fault at {what!r}", checkpoint_number=self.fired
            )


# ----------------------------------------------------------------------
# Serving policies & staleness budgets
# ----------------------------------------------------------------------
class TestPolicy:
    def test_check_policy_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown serving policy"):
            check_policy("eventually")

    def test_fresh_is_always_allowed(self):
        budget = StalenessBudget(
            max_version_lag=0, max_age_seconds=0.0, max_edge_delta=0
        )
        assert budget.allows(Staleness(0, 1e9, 1e9))

    def test_each_currency_is_enforced(self):
        stale = Staleness(version_lag=3, age_seconds=10.0, edge_delta=7)
        assert StalenessBudget().allows(stale)  # unbounded default
        assert not StalenessBudget(max_version_lag=2).allows(stale)
        assert not StalenessBudget(max_age_seconds=5.0).allows(stale)
        assert not StalenessBudget(max_edge_delta=6).allows(stale)
        assert StalenessBudget(
            max_version_lag=3, max_age_seconds=10.0, max_edge_delta=7
        ).allows(stale)

    def test_negative_bounds_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            StalenessBudget(max_version_lag=-1)

    def test_from_error_bound_scales_with_slack(self):
        graph_a = erdos_renyi_graph(30, 90, seed=1)
        graph_b = random_node_sample(graph_a, 12, seed=2)
        tight = StalenessBudget.from_error_bound(graph_a, graph_b, iterations=8)
        loose = StalenessBudget.from_error_bound(
            graph_a, graph_b, iterations=8, slack=100.0
        )
        assert tight.max_edge_delta >= 1
        assert loose.max_edge_delta >= tight.max_edge_delta
        with pytest.raises(ValueError, match="slack"):
            StalenessBudget.from_error_bound(
                graph_a, graph_b, iterations=8, slack=0.0
            )


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=60.0)
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow_attempt()
        assert breaker.seconds_until_probe() > 0

    def test_open_half_open_close_cycle(self):
        clock = [0.0]
        transitions = []
        breaker = CircuitBreaker(
            failure_threshold=1,
            reset_timeout=10.0,
            clock=lambda: clock[0],
            on_transition=lambda old, new: transitions.append((old, new)),
        )
        breaker.record_failure()
        assert breaker.state == "open"
        clock[0] = 10.0
        assert breaker.state == "half_open"
        # exactly one probe is admitted
        assert breaker.allow_attempt()
        assert not breaker.allow_attempt()
        breaker.record_success()
        assert breaker.state == "closed"
        assert transitions == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]

    def test_failed_probe_reopens(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=5.0, clock=lambda: clock[0]
        )
        breaker.record_failure()
        clock[0] = 5.0
        assert breaker.allow_attempt()
        breaker.record_failure()
        assert breaker.state == "open"
        # the timeout restarts from the re-open
        assert breaker.seconds_until_probe() == pytest.approx(5.0)


# ----------------------------------------------------------------------
# Generations: immutability, fingerprints, reader draining
# ----------------------------------------------------------------------
class TestIndexGeneration:
    @staticmethod
    def _generation(versions=(1, 1), on_retire=None) -> IndexGeneration:
        graph_a = erdos_renyi_graph(20, 60, seed=5)
        graph_b = random_node_sample(graph_a, 8, seed=6)
        index = GSimIndex.build(graph_a, graph_b, iterations=3)
        return IndexGeneration(
            ordinal=1,
            index=index,
            versions=versions,
            edge_clock=(60, 24),
            built_at=time.time(),
            build_seconds=0.01,
            iterations=3,
            on_retire=on_retire,
        )

    def test_fingerprint_binds_factors_to_graph_state(self):
        generation = self._generation(versions=(1, 1))
        same = generation_fingerprint(generation.factors, (1, 1), 3)
        assert generation.fingerprint == same
        assert generation_fingerprint(generation.factors, (2, 1), 3) != same
        assert generation_fingerprint(generation.factors, (1, 1), 4) != same

    def test_retirement_drains_readers(self):
        retired = []
        generation = self._generation(on_retire=retired.append)
        generation.acquire()
        generation.acquire()
        generation.mark_retired()
        assert not generation.retired  # two readers still in flight
        generation.release()
        assert not generation.retired
        generation.release()
        assert generation.retired
        assert retired == [generation]

    def test_immediate_retirement_when_drained(self):
        retired = []
        generation = self._generation(on_retire=retired.append)
        generation.mark_retired()
        assert generation.retired
        assert retired == [generation]
        generation.mark_retired()  # idempotent
        assert retired == [generation]

    def test_acquire_after_retirement_raises(self):
        generation = self._generation()
        generation.mark_retired()
        with pytest.raises(RuntimeError, match="retired"):
            generation.acquire()

    def test_unbalanced_release_raises(self):
        generation = self._generation()
        with pytest.raises(RuntimeError, match="released more than acquired"):
            generation.release()


# ----------------------------------------------------------------------
# DynamicGraph mutation validation
# ----------------------------------------------------------------------
class TestDynamicGraphValidation:
    def test_duplicate_add_edge_rejected_and_counted(self):
        metrics = Metrics()
        graph = DynamicGraph(4, metrics=metrics)
        graph.add_edge(0, 1)
        version = graph.version
        with pytest.raises(ValueError, match="duplicate add_edge"):
            graph.add_edge(0, 1)
        assert graph.version == version  # rejected mutations don't bump
        assert graph.rejected_mutations == 1
        assert metrics.snapshot()["counters"]["graph.rejected_mutations"] == 1

    def test_reweighting_is_a_legitimate_update(self):
        graph = DynamicGraph(4, [(0, 1)])
        graph.add_edge(0, 1, weight=2.5)
        assert graph.rejected_mutations == 0
        assert list(graph.edges()) == [(0, 1, 2.5)]

    def test_remove_missing_edge_rejected(self):
        graph = DynamicGraph(4, [(0, 1)])
        with pytest.raises(KeyError, match="does not exist"):
            graph.remove_edge(1, 0)
        assert graph.rejected_mutations == 1
        assert graph.num_edges == 1

    def test_zero_weight_rejected(self):
        graph = DynamicGraph(4)
        with pytest.raises(ValueError, match="non-zero"):
            graph.add_edge(0, 1, weight=0.0)
        assert graph.rejected_mutations == 1

    def test_out_of_range_node_rejected(self):
        graph = DynamicGraph(3)
        with pytest.raises(IndexError, match="out of range"):
            graph.add_edge(0, 3)
        assert graph.rejected_mutations == 1

    def test_batch_rejected_whole(self):
        graph = DynamicGraph(5, [(0, 1)])
        version = graph.version
        with pytest.raises(ValueError, match="batch was rejected whole"):
            graph.add_edges([(1, 2), (0, 1)])  # (0, 1) duplicates the graph
        with pytest.raises(ValueError, match="batch was rejected whole"):
            graph.add_edges([(2, 3), (2, 3)])  # duplicate within the batch
        assert graph.num_edges == 1
        assert graph.version == version
        assert graph.rejected_mutations == 2

    def test_edge_clock_counts_mutations_not_calls(self):
        graph = DynamicGraph(6)
        graph.add_edges([(0, 1), (1, 2), (2, 3)])
        assert graph.version == 1
        assert graph.edges_changed == 3
        graph.remove_edge(0, 1)
        assert graph.edges_changed == 4
        graph.add_node()
        assert graph.edges_changed == 4  # structural, not an edge change

    def test_subscribers_fire_outside_the_lock(self):
        graph = DynamicGraph(4)
        seen = []

        def callback(g):
            # Reading under the callback must not deadlock.
            seen.append((g.version, g.num_edges))

        graph.subscribe(callback)
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        graph.unsubscribe(callback)
        graph.add_edge(2, 3)
        assert seen == [(1, 1), (2, 2)]

    def test_freeze_is_atomic(self):
        graph = DynamicGraph(4, [(0, 1), (1, 2)])
        snapshot, version, clock = graph.freeze()
        assert snapshot.num_edges == 2
        assert version == graph.version
        assert clock == graph.edges_changed


# ----------------------------------------------------------------------
# CheckpointManager.prune
# ----------------------------------------------------------------------
class TestCheckpointPrune:
    def test_prune_keeps_newest(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=10)
        for step in (1, 2, 3, 4, 5):
            manager.save(step, {"u": np.ones(2)})
        assert manager.prune(keep_last=2) == 3
        assert manager.steps() == [4, 5]
        assert manager.prune(keep_last=2) == 0  # idempotent

    def test_prune_zero_clears_everything(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=10)
        manager.save(1, {"u": np.ones(2)})
        assert manager.prune(keep_last=0) == 1
        assert manager.steps() == []

    def test_prune_rejects_negative(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        with pytest.raises(ValueError, match="non-negative"):
            manager.prune(keep_last=-1)


# ----------------------------------------------------------------------
# The generation manager
# ----------------------------------------------------------------------
class TestManagerBasics:
    def test_warm_builds_first_generation(self):
        graph_a, graph_b = _dynamic_pair()
        with IndexGenerationManager(
            graph_a, graph_b, iterations=ITERATIONS
        ) as manager:
            generation = manager.warm()
            assert generation.ordinal == 1
            assert manager.warm() is generation  # idempotent
            with manager.lease("block") as lease:
                assert not lease.stale
                assert lease.generation is generation
            health = manager.health()
            assert health["live_generation"] == 1
            assert not health["degraded"]
            assert health["breaker"] == "closed"

    def test_build_seconds_is_timed_under_the_null_context(self):
        graph_a, graph_b = _dynamic_pair()
        with IndexGenerationManager(
            graph_a, graph_b, iterations=ITERATIONS, context=NULL_CONTEXT
        ) as manager:
            generation = manager.warm()
        assert generation.build_seconds > 0

    def test_block_lease_rebuilds_after_mutation(self):
        graph_a, graph_b = _dynamic_pair()
        with IndexGenerationManager(
            graph_a, graph_b, iterations=ITERATIONS
        ) as manager:
            manager.warm()
            graph_a.add_edge(*_fresh_edge(graph_a, np.random.default_rng(9)))
            assert manager.is_stale
            with manager.lease("block", wait_timeout=30.0) as lease:
                assert not lease.stale
                assert lease.generation.ordinal == 2
            assert not manager.is_stale

    def test_rebuild_equals_from_scratch_build(self):
        graph_a, graph_b = _dynamic_pair()
        with IndexGenerationManager(
            graph_a, graph_b, iterations=ITERATIONS
        ) as manager:
            generation = manager.warm()
            snap_a, va, _ = graph_a.freeze(name="A")
            snap_b, vb, _ = graph_b.freeze(name="B")
            scratch = GSimIndex.build(snap_a, snap_b, iterations=ITERATIONS)
            assert np.array_equal(generation.factors.u, scratch.factors.u)
            assert np.array_equal(generation.factors.v, scratch.factors.v)
            assert generation.fingerprint == generation_fingerprint(
                scratch.factors, (va, vb), ITERATIONS
            )

    def test_mutations_coalesce_into_one_rebuild(self):
        graph_a, graph_b = _dynamic_pair()
        rng = np.random.default_rng(11)
        with IndexGenerationManager(
            graph_a, graph_b, iterations=ITERATIONS
        ) as manager:
            manager.warm()
            for _ in range(10):
                graph_a.add_edge(*_fresh_edge(graph_a, rng))
            with manager.lease("block", wait_timeout=30.0) as lease:
                assert lease.generation.ordinal == 2
            # ten mutations, one rebuild: the request flag is
            # level-triggered, not an event queue
            assert manager.health()["generations_built"] == 2

    def test_serve_stale_annotates_and_counts(self):
        graph_a, graph_b = _dynamic_pair()
        metrics = Metrics()
        context = ExecutionContext(metrics=metrics)
        with IndexGenerationManager(
            graph_a, graph_b, iterations=ITERATIONS, context=context
        ) as manager:
            manager.warm()
            graph_a.add_edge(*_fresh_edge(graph_a, np.random.default_rng(13)))
            with manager.lease("serve_stale") as lease:
                assert lease.stale
                assert lease.generation.ordinal == 1
                annotation = lease.annotation()
                assert annotation["staleness"]["version_lag"] == 1
                assert annotation["staleness"]["edge_delta"] == 1
                assert not annotation["degraded"]
            assert metrics.snapshot()["counters"]["lifecycle.stale_served"] == 1

    def test_shed_policy_never_waits(self):
        graph_a, graph_b = _dynamic_pair()
        budget = StalenessBudget(max_version_lag=0)
        with IndexGenerationManager(
            graph_a,
            graph_b,
            iterations=ITERATIONS,
            staleness_budget=budget,
        ) as manager:
            with pytest.raises(IndexUnavailableError) as info:
                manager.lease("shed")
            assert info.value.reason == "no_generation"
            manager.warm()
            graph_a.add_edge(*_fresh_edge(graph_a, np.random.default_rng(17)))
            with pytest.raises(IndexUnavailableError) as info:
                manager.lease("shed")
            assert info.value.reason == "shed"
            assert info.value.staleness["version_lag"] == 1

    def test_stale_within_budget_is_served_under_shed(self):
        graph_a, graph_b = _dynamic_pair()
        budget = StalenessBudget(max_version_lag=5)
        with IndexGenerationManager(
            graph_a, graph_b, iterations=ITERATIONS, staleness_budget=budget
        ) as manager:
            manager.warm()
            graph_a.add_edge(*_fresh_edge(graph_a, np.random.default_rng(19)))
            with manager.lease("shed") as lease:
                assert lease.stale
                assert lease.generation.ordinal == 1

    def test_block_timeout_sheds_with_reason(self):
        graph_a, graph_b = _dynamic_pair()
        injector = FlakyInjector()
        with IndexGenerationManager(
            graph_a,
            graph_b,
            iterations=ITERATIONS,
            retry_policy=_fast_retry(1),
            circuit_breaker=CircuitBreaker(failure_threshold=100),
            rebuild_fault_injector=injector,
            failure_pause_seconds=0.0,
        ) as manager:
            with pytest.raises(IndexUnavailableError) as info:
                manager.lease("block", wait_timeout=0.4)
            # which structured reason wins depends on scheduling (the
            # failure epoch, the breaker, or the deadline may fire
            # first) — the invariant is: shed with a reason, never hang
            assert info.value.reason in ("timeout", "rebuild_failed", "degraded")

    def test_lease_after_close_raises(self):
        graph_a, graph_b = _dynamic_pair()
        manager = IndexGenerationManager(graph_a, graph_b, iterations=ITERATIONS)
        manager.warm()
        manager.close()
        with pytest.raises(RuntimeError, match="closed"):
            manager.lease("serve_stale")

    def test_swap_retires_old_generation_and_releases_memory(self):
        graph_a, graph_b = _dynamic_pair()
        metrics = Metrics()
        context = ExecutionContext(metrics=metrics)
        with IndexGenerationManager(
            graph_a, graph_b, iterations=ITERATIONS, context=context
        ) as manager:
            first = manager.warm()
            graph_a.add_edge(*_fresh_edge(graph_a, np.random.default_rng(23)))
            second = manager.rebuild_now()
            assert second.ordinal == 2
            assert first.retired
            counters = metrics.snapshot()["counters"]
            assert counters["lifecycle.generations_retired"] == 1
            assert counters["lifecycle.rebuilds"] == 2

    def test_checkpoints_pruned_after_swap(self, tmp_path):
        graph_a, graph_b = _dynamic_pair()
        with IndexGenerationManager(
            graph_a,
            graph_b,
            iterations=ITERATIONS,
            checkpoint_dir=tmp_path,
            keep_checkpoints=1,
        ) as manager:
            manager.warm()
            checkpoints = CheckpointManager(tmp_path, prefix="generation")
            assert len(checkpoints.steps()) <= 1

    def test_telemetry_is_threaded_through(self):
        graph_a, graph_b = _dynamic_pair()
        metrics = Metrics()
        tracer = Tracer()
        context = ExecutionContext(metrics=metrics, tracer=tracer)
        with IndexGenerationManager(
            graph_a, graph_b, iterations=ITERATIONS, context=context
        ) as manager:
            manager.warm()
        tree = metrics.snapshot()
        assert tree["counters"]["lifecycle.rebuilds"] == 1
        assert tree["gauges"]["lifecycle.live_generation"] == 1
        assert "lifecycle.rebuild_seconds" in tree["histograms"]
        names = {span.name for span in tracer.spans()}
        assert "lifecycle.rebuild" in names
        assert any(
            event["name"] == "lifecycle.generation_installed"
            for event in tracer.events()
        )


# ----------------------------------------------------------------------
# Failure handling: retries, breaker, degraded health
# ----------------------------------------------------------------------
class TestManagerFailures:
    def test_failed_rebuild_pins_last_good(self):
        graph_a, graph_b = _dynamic_pair()
        injector = FlakyInjector()
        injector.active = False
        with IndexGenerationManager(
            graph_a,
            graph_b,
            iterations=ITERATIONS,
            retry_policy=_fast_retry(1),
            rebuild_fault_injector=injector,
            failure_pause_seconds=0.0,
        ) as manager:
            first = manager.warm()
            baseline = first.factors.query_block([0, 1], [0, 1])
            injector.active = True
            graph_a.add_edge(*_fresh_edge(graph_a, np.random.default_rng(29)))
            with pytest.raises(InjectedFault):
                manager.rebuild_now()
            # last-good still serves, bit-identically
            with manager.lease("serve_stale") as lease:
                assert lease.generation is first
                assert np.array_equal(
                    lease.factors.query_block([0, 1], [0, 1]), baseline
                )
            health = manager.health()
            assert health["live_generation"] == 1
            assert health["last_failure"] is not None
            # The serve_stale lease asked for a background refresh, which
            # retries (no failure pause) until the breaker opens.  Wait for
            # that: a background retry after the fault clears would
            # install generation 2 before the forced rebuild below.
            deadline = time.monotonic() + 10.0
            while (
                manager.health()["breaker"] != "open"
                and time.monotonic() < deadline
            ):
                time.sleep(0.001)
            # recovery: the next forced rebuild succeeds and goes fresh
            injector.active = False
            second = manager.rebuild_now()
            assert second.ordinal == 2
            assert not manager.is_stale
            assert manager.health()["last_failure"] is None

    def test_repeated_failures_trip_breaker_and_degrade(self):
        graph_a, graph_b = _dynamic_pair()
        injector = FlakyInjector()
        injector.active = False
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=60.0)
        metrics = Metrics()
        with IndexGenerationManager(
            graph_a,
            graph_b,
            iterations=ITERATIONS,
            context=ExecutionContext(metrics=metrics),
            retry_policy=_fast_retry(1),
            circuit_breaker=breaker,
            rebuild_fault_injector=injector,
            failure_pause_seconds=0.0,
        ) as manager:
            first = manager.warm()
            injector.active = True
            graph_a.add_edge(*_fresh_edge(graph_a, np.random.default_rng(31)))
            for _ in range(2):
                with pytest.raises(InjectedFault):
                    manager.rebuild_now()
            health = manager.health()
            assert health["degraded"]
            assert health["breaker"] == "open"
            assert health["consecutive_failures"] == 2
            # an open breaker pins last-good for serve_stale even beyond
            # any budget, annotated as degraded
            with manager.lease("serve_stale") as lease:
                assert lease.degraded
                assert lease.generation is first
            # blocking queries shed instead of hanging
            with pytest.raises(IndexUnavailableError) as info:
                manager.lease("block", wait_timeout=5.0)
            assert info.value.reason == "degraded"
            assert metrics.snapshot()["counters"]["lifecycle.breaker_open"] == 1

    def test_forced_probe_closes_breaker(self):
        graph_a, graph_b = _dynamic_pair()
        injector = FlakyInjector()
        injector.active = False
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=60.0)
        with IndexGenerationManager(
            graph_a,
            graph_b,
            iterations=ITERATIONS,
            retry_policy=_fast_retry(1),
            circuit_breaker=breaker,
            rebuild_fault_injector=injector,
            failure_pause_seconds=0.0,
        ) as manager:
            manager.warm()
            injector.active = True
            graph_a.add_edge(*_fresh_edge(graph_a, np.random.default_rng(37)))
            with pytest.raises(InjectedFault):
                manager.rebuild_now()
            assert manager.health()["breaker"] == "open"
            # rebuild_now acts as the probe without waiting for the
            # reset timeout; success closes the breaker
            injector.active = False
            generation = manager.rebuild_now()
            assert generation.ordinal == 2
            assert manager.health()["breaker"] == "closed"
            assert not manager.health()["degraded"]


# ----------------------------------------------------------------------
# Chaos: kill-mid-rebuild, checkpoint resume, corrupted checkpoints
# ----------------------------------------------------------------------
class TestChaos:
    def test_killed_rebuild_resumes_from_checkpoint_bit_identically(
        self, tmp_path
    ):
        graph_a, graph_b = _dynamic_pair()
        metrics = Metrics()
        injector = FaultInjector(fail_at=3, match="GSim+ iteration")
        with IndexGenerationManager(
            graph_a,
            graph_b,
            iterations=ITERATIONS,
            context=ExecutionContext(metrics=metrics),
            checkpoint_dir=tmp_path,
            retry_policy=_fast_retry(3),
            rebuild_fault_injector=injector,
        ) as manager:
            # the first build is killed at iteration 3, retried by the
            # retry policy, and the retry resumes from the checkpoint
            generation = manager.warm()
            counters = metrics.snapshot()["counters"]
            assert counters["lifecycle.rebuild_retries"] == 1
            assert counters["gsim_plus.resumed"] == 1
            snap_a, va, _ = graph_a.freeze(name="A")
            snap_b, vb, _ = graph_b.freeze(name="B")
            scratch = GSimIndex.build(snap_a, snap_b, iterations=ITERATIONS)
            assert np.array_equal(generation.factors.u, scratch.factors.u)
            assert np.array_equal(generation.factors.v, scratch.factors.v)
            assert generation.fingerprint == generation_fingerprint(
                scratch.factors, (va, vb), ITERATIONS
            )

    def test_corrupted_checkpoint_recovery(self, tmp_path):
        graph_a, graph_b = _dynamic_pair()
        injector = FaultInjector(fail_at=3, match="GSim+ iteration")
        with IndexGenerationManager(
            graph_a,
            graph_b,
            iterations=ITERATIONS,
            checkpoint_dir=tmp_path,
            keep_checkpoints=4,
            retry_policy=_fast_retry(1),  # no in-cycle retry
            rebuild_fault_injector=injector,
            failure_pause_seconds=0.0,
        ) as manager:
            with pytest.raises(InjectedFault):
                manager.rebuild_now()
            checkpoints = CheckpointManager(tmp_path, prefix="generation")
            steps = checkpoints.steps()
            assert steps, "the killed build left no snapshots"
            # corrupt the newest snapshot inside its largest member's
            # payload (a fixed offset can land in redundant zip plumbing
            # the loader never consults)
            _flip_payload_byte(checkpoints.path_for(max(steps)))
            # the next rebuild skips the corrupt snapshot with a warning
            # and still installs a generation equal to a scratch build
            with pytest.warns(RuntimeWarning, match="corrupt checkpoint"):
                generation = manager.rebuild_now()
            snap_a, _, _ = graph_a.freeze(name="A")
            snap_b, _, _ = graph_b.freeze(name="B")
            scratch = GSimIndex.build(snap_a, snap_b, iterations=ITERATIONS)
            assert np.array_equal(generation.factors.u, scratch.factors.u)
            assert np.array_equal(generation.factors.v, scratch.factors.v)

    def test_stale_target_checkpoints_are_discarded(self, tmp_path):
        graph_a, graph_b = _dynamic_pair()
        injector = FaultInjector(fail_at=3, match="GSim+ iteration")
        with IndexGenerationManager(
            graph_a,
            graph_b,
            iterations=ITERATIONS,
            checkpoint_dir=tmp_path,
            retry_policy=_fast_retry(1),
            rebuild_fault_injector=injector,
            failure_pause_seconds=0.0,
        ) as manager:
            with pytest.raises(InjectedFault):
                manager.rebuild_now()
            # the graphs move on: the killed build's snapshots target a
            # version that will never be installed
            graph_a.add_edge(*_fresh_edge(graph_a, np.random.default_rng(41)))
            generation = manager.rebuild_now()
            snap_a, _, _ = graph_a.freeze(name="A")
            snap_b, _, _ = graph_b.freeze(name="B")
            scratch = GSimIndex.build(snap_a, snap_b, iterations=ITERATIONS)
            assert np.array_equal(generation.factors.u, scratch.factors.u)
            assert np.array_equal(generation.factors.v, scratch.factors.v)


# ----------------------------------------------------------------------
# Concurrency: swaps vs in-flight readers, writer/reader stress
# ----------------------------------------------------------------------
class TestConcurrency:
    def test_swap_during_held_lease_drains_not_tears(self):
        graph_a, graph_b = _dynamic_pair()
        with IndexGenerationManager(
            graph_a, graph_b, iterations=ITERATIONS
        ) as manager:
            first = manager.warm()
            lease = manager.lease("serve_stale")
            before = lease.factors.query_block([0, 1, 2], [0, 1])
            graph_a.add_edge(*_fresh_edge(graph_a, np.random.default_rng(43)))
            second = manager.rebuild_now()
            assert second.ordinal == 2
            # the old generation is replaced but not retired: the lease
            # still reads bit-identical data
            assert not first.retired
            assert np.array_equal(
                lease.factors.query_block([0, 1, 2], [0, 1]), before
            )
            lease.release()
            assert first.retired

    def test_swap_during_in_flight_query_many(self):
        graph_a, graph_b = _dynamic_pair()
        session = SimilaritySession(
            graph_a, graph_b, iterations=ITERATIONS, policy="serve_stale"
        )
        try:
            session.refresh()
            requests = [([i % graph_a.num_nodes], [0, 1]) for i in range(120)]
            results: dict = {}

            def reader():
                results["blocks"] = session.query_many(requests)

            # generations are immutable: holding a reference to the
            # pre-swap one keeps its arrays comparable after retirement
            first = session.lifecycle.live_generation
            thread = threading.Thread(target=reader)
            thread.start()
            rng = np.random.default_rng(47)
            graph_a.add_edge(*_fresh_edge(graph_a, rng))
            session.refresh()  # swap lands while the batch may be in flight
            thread.join(timeout=60.0)
            assert not thread.is_alive()
            blocks = results["blocks"]
            assert len(blocks) == len(requests)
            second = session.lifecycle.live_generation
            assert second.ordinal == 2
            # the whole batch must be internally consistent: every block
            # equals the expectation from exactly one generation
            consistent = any(
                all(
                    np.array_equal(block, want)
                    for block, want in zip(
                        blocks, _expected_blocks(generation, requests)
                    )
                )
                for generation in (first, second)
            )
            assert consistent, "query_many mixed factor generations"
        finally:
            session.close()

    def test_writer_reader_stress_never_tears(self):
        graph_a, graph_b = _dynamic_pair()
        metrics = Metrics()
        context = ExecutionContext(metrics=metrics)
        manager = IndexGenerationManager(
            graph_a,
            graph_b,
            iterations=ITERATIONS,
            context=context,
            eager=True,
        )
        mutations = 60
        burst = 5
        readers = 4
        errors: list = []
        reads: list = []
        stop = threading.Event()

        def writer():
            rng = np.random.default_rng(53)
            try:
                for step in range(mutations):
                    if step % 10 == 9:
                        # exercise deletions too
                        src, dst, _ = next(iter(graph_a.edges()))
                        graph_a.remove_edge(src, dst)
                    else:
                        graph_a.add_edge(*_fresh_edge(graph_a, rng))
                    if step % burst == burst - 1:
                        # Writes within a burst land back to back, while
                        # the rebuild the burst's first write requested is
                        # still pending: they coalesce by construction.
                        time.sleep(0.002)
            except BaseException as exc:  # pragma: no cover - fail loudly
                errors.append(exc)
            finally:
                stop.set()

        def reader(seed):
            rng = np.random.default_rng(seed)
            try:
                while not stop.is_set():
                    node = int(rng.integers(graph_a.num_nodes))
                    with manager.lease("serve_stale") as lease:
                        # torn-generation check: the fingerprint taken at
                        # build time must re-verify against the arrays
                        # this lease actually exposes
                        recomputed = generation_fingerprint(
                            lease.factors,
                            lease.generation.versions,
                            lease.generation.iterations,
                        )
                        assert recomputed == lease.generation.fingerprint
                        block = lease.factors.query_block([node], [0])
                        assert block.shape == (1, 1)
                        assert np.isfinite(block).all()
                    reads.append(1)
            except BaseException as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        try:
            manager.warm()
            threads = [threading.Thread(target=writer)] + [
                threading.Thread(target=reader, args=(60 + i,))
                for i in range(readers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
                assert not thread.is_alive()
            assert not errors, errors
            assert len(reads) >= readers  # nobody dropped out early
            assert graph_a.rejected_mutations == 0
            # settle and verify the final state exactly
            final = manager.rebuild_now()
            assert not manager.is_stale
            snap_a, va, _ = graph_a.freeze(name="A")
            snap_b, vb, _ = graph_b.freeze(name="B")
            scratch = GSimIndex.build(snap_a, snap_b, iterations=ITERATIONS)
            assert np.array_equal(final.factors.u, scratch.factors.u)
            assert np.array_equal(final.factors.v, scratch.factors.v)
            assert final.fingerprint == generation_fingerprint(
                scratch.factors, (va, vb), ITERATIONS
            )
            counters = metrics.snapshot()["counters"]
            # Two rebuilds were explicit: the warm-up and the final
            # rebuild_now.  The rest were driven by the mutations, and
            # coalescing kept them fewer than the writes.
            driven = counters["lifecycle.rebuilds"] - 2
            assert counters["lifecycle.rebuilds_coalesced"] > 0
            assert 0 < driven < mutations
        finally:
            manager.close()


def _expected_blocks(generation, requests):
    """The globally normalised blocks ``generation`` would serve."""
    return [generation.index.query(qa, qb) for qa, qb in requests]


# ----------------------------------------------------------------------
# The session facade
# ----------------------------------------------------------------------
class TestSessionLifecycle:
    def test_failed_recompute_does_not_poison(self):
        graph_a, graph_b = _dynamic_pair()
        injector = FlakyInjector()
        injector.active = False
        session = SimilaritySession(
            graph_a,
            graph_b,
            iterations=ITERATIONS,
            retry_policy=_fast_retry(1),
            rebuild_fault_injector=injector,
        )
        try:
            baseline = session.query([0, 1], [0, 1])
            injector.active = True
            graph_a.add_edge(*_fresh_edge(graph_a, np.random.default_rng(67)))
            with pytest.raises(InjectedFault):
                session.refresh()
            # previous factors still serve; nothing half-updated
            served = session.query([0, 1], [0, 1], policy="serve_stale")
            assert np.array_equal(served, baseline)
            # ... and the next recompute retries cleanly
            injector.active = False
            fresh = session.query([0, 1], [0, 1])
            assert session.stats.recomputes == 2
            assert fresh.shape == (2, 2)
        finally:
            session.close()

    def test_policy_override_per_call(self):
        graph_a, graph_b = _dynamic_pair()
        with SimilaritySession(
            graph_a, graph_b, iterations=ITERATIONS, policy="block"
        ) as session:
            session.refresh()
            graph_a.add_edge(*_fresh_edge(graph_a, np.random.default_rng(71)))
            info = session.query_info([0], [0], policy="serve_stale")
            assert info.stale
            assert info.generation == 1
        # session closed by the context manager
        with pytest.raises(RuntimeError, match="closed"):
            session.query([0], [0])

    def test_shed_session_policy(self):
        graph_a, graph_b = _dynamic_pair()
        budget = StalenessBudget(max_version_lag=0)
        with SimilaritySession(
            graph_a,
            graph_b,
            iterations=ITERATIONS,
            policy="shed",
            staleness_budget=budget,
        ) as session:
            session.refresh()
            assert session.query([0], [0]).shape == (1, 1)
            graph_a.add_edge(*_fresh_edge(graph_a, np.random.default_rng(73)))
            with pytest.raises(IndexUnavailableError) as info:
                session.query([0], [0])
            assert info.value.reason == "shed"
            assert session.stats.shed == 1

    def test_eager_rebuild_goes_fresh_without_queries(self):
        graph_a, graph_b = _dynamic_pair()
        with SimilaritySession(
            graph_a, graph_b, iterations=ITERATIONS, eager_rebuild=True
        ) as session:
            session.refresh()
            graph_a.add_edge(*_fresh_edge(graph_a, np.random.default_rng(79)))
            deadline = time.monotonic() + 30.0
            while session.stale and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not session.stale  # the write itself triggered the build

    def test_query_info_annotation_fields(self):
        graph_a, graph_b = _dynamic_pair()
        with SimilaritySession(
            graph_a, graph_b, iterations=ITERATIONS
        ) as session:
            info = session.query_info([0, 1], [0, 1])
            assert info.block.shape == (2, 2)
            assert info.generation == 1
            assert len(info.fingerprint) == 64
            assert not info.stale
            assert not info.degraded
            assert info.staleness["fresh"]

    def test_session_blocks_are_the_leased_index_blocks(self):
        graph_a, graph_b = _dynamic_pair()
        requests = [([0, 1, 2], [0, 1]), ([5], [3, 4, 7]), ([], [0])]
        with SimilaritySession(
            graph_a, graph_b, iterations=ITERATIONS
        ) as session:
            blocks = session.query_many(requests)
            single = session.query(*requests[0])
            own = session.query_many(requests[:2], normalization="block")
            with session.lifecycle.lease("block") as lease:
                expected = [lease.index.query(qa, qb) for qa, qb in requests]
        assert all(np.array_equal(b, e) for b, e in zip(blocks, expected))
        assert np.array_equal(single, expected[0])
        for block, want in zip(own, expected):
            assert np.array_equal(block, want / np.linalg.norm(want))

    def test_zero_block_under_block_normalization_raises(self):
        # Nodes 3 and 4 of G_A have no edges, so no walk reaches them and
        # their similarity rows are zero.
        graph_a = DynamicGraph(5, [(0, 1), (1, 2), (2, 0)])
        graph_b = DynamicGraph(3, [(0, 1), (1, 2), (2, 0)])
        with SimilaritySession(
            graph_a, graph_b, iterations=ITERATIONS
        ) as session:
            assert not session.query([3, 4], [0]).any()
            with pytest.raises(ZeroDivisionError):
                session.query([3, 4], [0], normalization="block")
            with pytest.raises(ZeroDivisionError):
                session.query_many([([0], [0]), ([3], [1])], normalization="block")

    def test_session_state_does_not_grow_with_rebuilds(self):
        graph_a, graph_b = _dynamic_pair()
        with SimilaritySession(
            graph_a, graph_b, iterations=ITERATIONS
        ) as session:

            def build_metric_names():
                session.refresh()
                live = session.lifecycle.live_generation
                snapshot = live.index.metadata.build_metrics
                return {kind: sorted(snapshot[kind]) for kind in snapshot}

            for _ in range(2):
                session.refresh()
            settled = build_metric_names()
            for _ in range(10):
                session.refresh()
            assert build_metric_names() == settled
            live = session.lifecycle.live_generation
            built = live.index.metadata.build_metrics
            snapshot = session.context.snapshot()
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        assert snapshot["histograms"]["session.refresh_seconds"]["count"] == 14
        assert snapshot["counters"]["session.refresh.requests"] == 14
        # A generation's build_metrics describe its own build; the
        # session's metrics count all 14.
        assert built["counters"]["index.build.requests"] == 1
        assert built["counters"]["gsim_plus.iterations"] == ITERATIONS
        assert snapshot["counters"]["index.build.requests"] == 14
        assert snapshot["counters"]["gsim_plus.iterations"] == 14 * ITERATIONS

    def test_top_matches_and_normalizations_still_work(self):
        graph_a, graph_b = _dynamic_pair()
        with SimilaritySession(
            graph_a, graph_b, iterations=ITERATIONS
        ) as session:
            matches = session.top_matches(0, k=3)
            # A session serving only matches still observes them.
            snapshot = session.context.snapshot()
            assert snapshot["counters"]["index.top_matches.requests"] == 1
            histograms = snapshot["histograms"]
            assert histograms["index.top_matches_seconds"]["count"] == 1
            assert "index.query.requests" not in snapshot["counters"]
            with session.lifecycle.lease("block") as lease:
                expected = lease.index.top_matches(0, k=3)
            assert matches == [(m.node_b, m.score) for m in expected]
            assert len(matches) == 3
            assert all(isinstance(node, int) for node, _ in matches)
            scores = [score for _, score in matches]
            assert scores == sorted(scores, reverse=True)
            block = session.query([0], [0], normalization="block")
            assert block.shape == (1, 1)
            with pytest.raises(ValueError, match="unknown normalization"):
                session.query([0], [0], normalization="rowwise")
