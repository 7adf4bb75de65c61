"""Unit tests for the resilience policies (Section 2.7): retry backoff,
deadlines and their propagation, per-node circuit breakers, hedged-read
metering, and scheduler failure attribution.

The chaos drill (test_chaos_drill.py) exercises these end to end; this
file pins each mechanism's contract in isolation.
"""

import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro import define_array
from repro.core.errors import (
    DeadlineExceededError,
    GridError,
    NodeFailedError,
    QuorumError,
    TransientIOError,
)
from repro.cluster import (
    BreakerConfig,
    CircuitBreaker,
    Deadline,
    DegradedResult,
    FaultInjector,
    Grid,
    HashPartitioner,
    HedgePolicy,
    ResiliencePolicy,
    RetryPolicy,
    check_deadline,
    current_deadline,
    deadline_scope,
)
from repro.cluster.resilience import MeterBuffer, sleep_under_deadline
from repro.cluster.scheduler import PartitionScheduler
from repro.storage.loader import LoadRecord

N = 4
WINDOW = ((1, 1), (100, 100))


def records(n, seed=0):
    rng = np.random.default_rng(seed)
    seen, out = set(), []
    while len(out) < n:
        c = (int(rng.integers(1, 101)), int(rng.integers(1, 101)))
        if c in seen:
            continue
        seen.add(c)
        out.append(LoadRecord(c, (float(rng.normal()),)))
    return out


def schema(name="sky"):
    return define_array(name, {"flux": "float"}, ["x", "y"]).bind([100, 100])


def loaded_grid(tmp_path, sub, injector=None, k=2, n_records=120, **kw):
    grid = Grid(N, tmp_path / sub, fault_injector=injector, **kw)
    arr = grid.create_array("sky", schema(), HashPartitioner(N), replication=k)
    arr.load(records(n_records))
    return grid, arr


class TestRetryPolicy:
    def test_backoff_doubles_then_caps(self):
        p = RetryPolicy(backoff_base_ms=1.0, backoff_max_ms=8.0,
                        jitter_frac=0.0)
        assert [p.backoff_ms(a) for a in range(1, 7)] == [
            1.0, 2.0, 4.0, 8.0, 8.0, 8.0
        ]

    def test_cap_is_hard_ceiling_including_jitter(self):
        p = RetryPolicy(backoff_base_ms=1.0, backoff_max_ms=8.0,
                        jitter_frac=1.0)
        for attempt in range(1, 20):
            assert p.backoff_ms(attempt, key=("sky", 3)) <= 8.0

    def test_jitter_is_deterministic_per_key(self):
        p = RetryPolicy(jitter_frac=0.25, seed=7)
        a = p.backoff_ms(2, key=("sky", 1))
        b = p.backoff_ms(2, key=("sky", 1))
        assert a == b
        # Different partitions (and different seeds) de-correlate.
        assert p.backoff_ms(2, key=("sky", 2)) != a
        assert RetryPolicy(jitter_frac=0.25, seed=8).backoff_ms(
            2, key=("sky", 1)
        ) != a

    def test_jitter_bounded_by_frac(self):
        p = RetryPolicy(backoff_base_ms=1.0, backoff_max_ms=1e9,
                        jitter_frac=0.1)
        for attempt in range(1, 10):
            raw = 1.0 * 2 ** (attempt - 1)
            got = p.backoff_ms(attempt, key="k")
            assert raw <= got <= raw * 1.1

    def test_retryable_classification(self):
        p = RetryPolicy()
        assert p.retryable(NodeFailedError("node 2 is dead"))
        assert p.retryable(TransientIOError("disk hiccup"))
        assert not p.retryable(QuorumError("all replicas dead"))
        assert not p.retryable(ValueError("a bug"))

    def test_validation(self):
        with pytest.raises(GridError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(GridError):
            RetryPolicy(backoff_base_ms=-1.0)
        with pytest.raises(GridError):
            RetryPolicy(jitter_frac=1.5)
        with pytest.raises(GridError):
            RetryPolicy().backoff_ms(0)


class TestDeadline:
    def test_expiry_and_check(self):
        d = Deadline.after_ms(10_000)
        assert not d.expired
        assert 0 < d.remaining_ms() <= 10_000
        d.check("should not raise")

        d.t_deadline = time.perf_counter() - 1.0  # force expiry
        assert d.expired
        assert d.remaining_ms() == 0.0
        with pytest.raises(DeadlineExceededError) as ei:
            d.check("the scan")
        assert ei.value.budget_ms == 10_000
        assert "the scan" in str(ei.value)

    def test_budget_must_be_positive(self):
        with pytest.raises(GridError):
            Deadline.after_ms(0)
        with pytest.raises(GridError):
            Deadline.after_ms(-5)

    def test_scope_install_and_restore(self):
        assert current_deadline() is None
        d = Deadline.after_ms(1000)
        with deadline_scope(d) as active:
            assert active is d
            assert current_deadline() is d
        assert current_deadline() is None

    def test_none_scope_passes_enclosing_through(self):
        d = Deadline.after_ms(1000)
        with deadline_scope(d):
            with deadline_scope(None):
                assert current_deadline() is d
            assert current_deadline() is d

    def test_check_deadline_is_free_without_scope(self):
        check_deadline("nothing installed")  # no-op, no raise

    def test_check_deadline_raises_in_scope(self):
        d = Deadline.after_ms(1000)
        d.t_deadline = time.perf_counter() - 1.0
        with deadline_scope(d):
            with pytest.raises(DeadlineExceededError):
                check_deadline("operator filter")

    def test_sleep_under_deadline_wakes_on_expiry(self):
        d = Deadline.after_ms(15)
        t0 = time.perf_counter()
        with pytest.raises(DeadlineExceededError):
            sleep_under_deadline(10_000, d, what="slow site")
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        # Woke at the deadline, not after the full 10 s nap.
        assert elapsed_ms < 2_000

    def test_sleep_without_deadline_sleeps_fully(self):
        t0 = time.perf_counter()
        sleep_under_deadline(5, None)
        assert (time.perf_counter() - t0) * 1e3 >= 4.0

    def test_scheduler_propagates_ambient_deadline(self):
        sched = PartitionScheduler(4)
        d = Deadline.after_ms(60_000)
        with deadline_scope(d):
            seen = sched.map([
                (lambda: current_deadline()) for _ in range(8)
            ])
        assert all(got is d for got in seen)

    def test_waiting_scheduler_hands_workers_the_deadline(self):
        sched = PartitionScheduler(4, waits=lambda: True)
        barrier = threading.Barrier(4, timeout=5)
        d = Deadline.after_ms(60_000)
        with deadline_scope(d):
            seen = sched.map([
                (lambda: (barrier.wait(), current_deadline())[1])
                for _ in range(4)
            ])
        assert all(got is d for got in seen)

    def test_scheduler_without_deadline(self):
        sched = PartitionScheduler(4)
        seen = sched.map([(lambda: current_deadline()) for _ in range(8)])
        assert all(got is None for got in seen)


class TestCircuitBreaker:
    def config(self, threshold=3, cooldown=4):
        return BreakerConfig(failure_threshold=threshold, cooldown=cooldown)

    def test_trips_open_after_threshold(self):
        b = CircuitBreaker("n0", self.config())
        for _ in range(2):
            b.record_failure()
        assert b.state == "closed"
        b.record_failure()
        assert b.state == "open"
        assert b.transitions == [("closed", "open")]

    def test_success_resets_consecutive_count(self):
        b = CircuitBreaker("n0", self.config())
        b.record_failure()
        b.record_failure()
        b.record_success()
        b.record_failure()
        b.record_failure()
        assert b.state == "closed"

    def test_open_skips_cooldown_then_probes(self):
        b = CircuitBreaker("n0", self.config(threshold=1, cooldown=3))
        b.record_failure()
        assert b.state == "open"
        # The next cooldown-1 requests are refused (skipped to replicas)...
        assert not b.allow()
        assert not b.allow()
        assert b.skips == 2
        # ...then the breaker half-opens and admits a single probe.
        assert b.allow()
        assert b.state == "half_open"
        # A concurrent request during the probe is refused.
        assert not b.allow()
        b.record_success()
        assert b.state == "closed"

    def test_probe_failure_reopens(self):
        b = CircuitBreaker("n0", self.config(threshold=1, cooldown=2))
        b.record_failure()
        assert not b.allow()
        assert b.allow()  # the probe
        b.record_failure()
        assert b.state == "open"
        assert b.transitions == [
            ("closed", "open"), ("open", "half_open"), ("half_open", "open"),
        ]

    def test_force_admits_through_open(self):
        b = CircuitBreaker("n0", self.config(threshold=1, cooldown=100))
        b.record_failure()
        assert b.allow(force=True)  # final-pass override: no QuorumError
        assert b.state == "half_open"
        b.record_success()
        assert b.state == "closed"

    def test_abandon_releases_probe_without_judging(self):
        b = CircuitBreaker("n0", self.config(threshold=1, cooldown=1))
        b.record_failure()
        assert b.allow()  # half-open probe admitted
        b.abandon()  # deadline expired mid-read: not the node's fault
        assert b.state == "half_open"
        assert b.allow()  # probe slot is free again

    def test_thread_safety_under_concurrent_hammering(self):
        b = CircuitBreaker("n0", self.config(threshold=2, cooldown=2))
        barrier = threading.Barrier(8)

        def hammer():
            barrier.wait()
            for i in range(200):
                if b.allow(force=(i % 17 == 0)):
                    (b.record_failure if i % 3 else b.record_success)()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert b.state in ("closed", "open", "half_open")
        # Transitions alternate consistently: each starts where the last ended.
        for (_, prev_new), (nxt_old, _) in zip(
            b.transitions, b.transitions[1:]
        ):
            assert prev_new == nxt_old

    def test_validation(self):
        with pytest.raises(GridError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(GridError):
            BreakerConfig(cooldown=0)

    def test_snapshot(self):
        b = CircuitBreaker("n3", self.config(threshold=1, cooldown=1))
        b.record_failure()
        snap = b.snapshot()
        assert snap["name"] == "n3"
        assert snap["state"] == "open"
        assert snap["transitions"] == 1


class TestHedgePolicy:
    def test_disabled_by_default(self):
        assert not HedgePolicy().enabled
        assert HedgePolicy(delay_ms=5.0).enabled

    def test_validation(self):
        with pytest.raises(GridError):
            HedgePolicy(delay_ms=-1.0)

    def test_meter_buffer_commit_replays(self, tmp_path):
        grid = Grid(2, tmp_path)
        buf = MeterBuffer()
        buf.record(0, -1, 64, "gather")
        buf.record(1, -1, 32, "gather")
        buf.counter(grid.nodes[0], "cells_scanned", 3)
        before = grid.ledger.total_bytes()
        buf.commit(grid)
        assert grid.ledger.total_bytes() - before == 96
        assert grid.nodes[0].counters.snapshot()["cells_scanned"] == 3

    def test_dropped_buffer_meters_nothing(self, tmp_path):
        grid = Grid(2, tmp_path)
        buf = MeterBuffer()
        buf.record(0, -1, 64, "gather")
        del buf  # the losing hedge attempt: never committed
        assert grid.ledger.total_bytes() == 0


class TestResiliencePolicy:
    def test_describe_round_trips_parameters(self):
        pol = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3, backoff_max_ms=16.0),
            breaker=BreakerConfig(failure_threshold=2, cooldown=5),
            hedge=HedgePolicy(delay_ms=7.5),
        )
        d = pol.describe()
        assert d["retry"]["max_attempts"] == 3
        assert d["retry"]["backoff_max_ms"] == 16.0
        assert d["breaker"] == {"failure_threshold": 2, "cooldown": 5}
        assert d["hedge"] == {"delay_ms": 7.5}

    def test_default_policy_is_seeded_from_the_injector(self, tmp_path):
        inj = FaultInjector(seed=11)
        grid = Grid(N, tmp_path, fault_injector=inj)
        assert grid.resilience.retry.max_attempts == RetryPolicy().max_attempts
        assert grid.resilience.retry.seed == 11  # jitter follows the drill seed
        assert not grid.resilience.hedge.enabled

    def test_explicit_policy_wins_and_hedge_override_composes(self, tmp_path):
        pol = ResiliencePolicy(retry=RetryPolicy(max_attempts=5))
        grid = Grid(N, tmp_path / "a", resilience=pol)
        assert grid.resilience is pol
        grid2 = Grid(
            N, tmp_path / "b",
            resilience=replace(pol, hedge=HedgePolicy(delay_ms=3.0)),
        )
        assert grid2.resilience.retry.max_attempts == 5
        assert grid2.resilience.hedge.delay_ms == 3.0

    def test_snapshot_shape(self, tmp_path):
        grid = Grid(N, tmp_path)
        snap = grid.resilience_snapshot()
        assert snap["failovers"] == 0
        assert snap["hedges"] == 0
        assert snap["breaker_transitions"] == 0
        assert len(snap["breakers"]) == N
        assert grid.metrics_snapshot()["resilience"]["policy"]["hedge"] == {
            "delay_ms": None
        }


class TestSchedulerFailureAttribution:
    def test_sibling_failures_attached(self):
        sched = PartitionScheduler(4)

        def fail(i):
            raise NodeFailedError(f"task {i} failed")

        with pytest.raises(NodeFailedError) as ei:
            sched.map([(lambda i=i: fail(i)) for i in range(4)])
        # Lowest-indexed failure wins deterministically...
        assert "task 0" in str(ei.value)
        # ...and the other three ride along as a structured attribute.
        siblings = ei.value.sibling_failures
        assert len(siblings) == 3
        assert all(isinstance(e, NodeFailedError) for e in siblings)
        if hasattr(ei.value, "__notes__"):  # py >= 3.11
            assert any("also failed" in n for n in ei.value.__notes__)

    def test_no_siblings_on_single_failure(self):
        sched = PartitionScheduler(4)
        tasks = [lambda: 1, lambda: (_ for _ in ()).throw(ValueError("x"))]
        with pytest.raises(ValueError) as ei:
            sched.map(tasks + [lambda: 2, lambda: 3])
        assert ei.value.sibling_failures == ()


class TestDegradedReadsUnderParallelism:
    """Satellite: degraded-mode coverage reports must stay exact when
    partition reads fan out across worker threads."""

    def test_coverage_report_parallel_matches_serial(self, tmp_path):
        losses = {}
        for sub, par in (("ser", 1), ("par", 4)):
            inj = FaultInjector(seed=3)
            grid, arr = loaded_grid(tmp_path, sub, inj, k=1, parallelism=par)
            inj.kill(2)
            got = arr.subsample(WINDOW, degraded=True)
            assert isinstance(got, DegradedResult)
            losses[sub] = (
                got.coverage.missing,
                sorted(
                    (c, cell.flux)
                    for c, cell in got.array.cells(include_null=False)
                ),
            )
        assert losses["ser"] == losses["par"]
        missing, _ = losses["par"]
        assert all(name == "sky" for name, _p in missing)

    def test_kill_mid_batch_under_parallel_gather(self, tmp_path):
        inj = FaultInjector(seed=9)
        grid, arr = loaded_grid(tmp_path, "mid", inj, k=2, parallelism=4)
        _, healthy = loaded_grid(tmp_path, "ok", k=2, parallelism=4)
        expected = healthy.subsample(WINDOW)
        # The kill lands on a gather tick, i.e. while some worker is
        # mid-scan: the partial read is discarded and the partition
        # fails over to its replica.
        inj.schedule_kill(1, after=5)
        got = arr.subsample(WINDOW)
        assert not grid.nodes[1].alive
        assert got.content_equal(expected)
        assert any(e.failed_site == 1 for e in grid.failover_log)

    def test_breaker_opens_mid_query_and_read_survives(self, tmp_path):
        inj = FaultInjector(seed=5)
        pol = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=4, seed=5),
            breaker=BreakerConfig(failure_threshold=1, cooldown=2),
        )
        grid, arr = loaded_grid(
            tmp_path, "brk", inj, k=2, parallelism=4, resilience=pol,
        )
        _, healthy = loaded_grid(tmp_path, "ok", k=2, parallelism=4)
        expected = healthy.subsample(WINDOW)
        # Enough transient read faults on node 0 to trip its breaker
        # (threshold 1) during the query; replicas serve the rest.
        inj.schedule_transient_reads(0, 8)
        got = arr.subsample(WINDOW)
        assert got.content_equal(expected)
        snap = grid.resilience_snapshot()
        assert any(
            b["transitions"] > 0 and b["name"] == "node_0"
            for b in snap["breakers"]
        )
        counts = inj.counts()
        assert counts.get("io_transient_read", 0) > 0

    def test_deadline_partial_mode_under_parallelism(self, tmp_path):
        inj = FaultInjector(seed=1)
        grid, arr = loaded_grid(tmp_path, "slow", inj, k=1, parallelism=4)
        inj.set_slow_reads(1, 200.0)
        t0 = time.perf_counter()
        got = arr.subsample(
            WINDOW, deadline=Deadline.after_ms(40), on_unavailable="partial"
        )
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        assert isinstance(got, DegradedResult)
        assert not got.coverage.complete
        assert elapsed_ms < 1_000  # bounded: nowhere near the 200 ms naps
        assert grid.resilience_counters["deadline_misses"] > 0

    def test_deadline_raise_mode_propagates(self, tmp_path):
        inj = FaultInjector(seed=1)
        grid, arr = loaded_grid(tmp_path, "slow", inj, k=1, parallelism=4)
        inj.set_slow_reads(1, 200.0)
        with pytest.raises(DeadlineExceededError):
            arr.subsample(WINDOW, deadline=Deadline.after_ms(40))


class TestHedgedAttemptsTraceTheStatement:
    """A hedged attempt runs on a helper thread: a fault event inside it
    names the statement, and only the winner's counters reach the
    operator span (the loser's, like its meters, are discarded)."""

    def hedged_grid(self, tmp_path):
        from repro import SciDB

        db = SciDB(tmp_path / "db")
        inj = FaultInjector(seed=5)
        grid = db.create_grid(
            "g", n_nodes=N, replication=2, fault_injector=inj,
            resilience=ResiliencePolicy(hedge=HedgePolicy(delay_ms=10.0)),
        )
        # One bucket per node: every attempt, winner or loser, loads one.
        arr = grid.create_array(
            "sky", schema(), HashPartitioner(N), stride=(100, 100)
        )
        arr.load(records(120))
        db.register("sky", arr)
        inj.set_slow_reads(2, 100.0)
        return db, grid, arr

    def test_slow_read_events_carry_the_query_id(self, tmp_path):
        from repro.obs.recorder import FlightRecorder, use_flight_recorder

        rec = FlightRecorder()
        with use_flight_recorder(rec):
            db, grid, _arr = self.hedged_grid(tmp_path)
            db.execute("select subsample(sky, x >= 1 and x <= 100)")
            qid = db.profiles(1)[0].query_id
        slow_reads = rec.events(kind="fault.slow_read")
        assert slow_reads and {e.query_id for e in slow_reads} == {qid}
        assert grid.resilience_snapshot()["hedge_wins"] >= 1

    def test_only_the_winners_counters_reach_the_span(self, tmp_path):
        from repro.cluster.readpath import read_partitions
        from repro.obs import tracing

        _db, grid, arr = self.hedged_grid(tmp_path)

        def loads():
            return sum(
                node.storage.total_stats()["cache_hits"]
                + node.storage.total_stats()["cache_misses"]
                for node in grid.nodes
            )

        before = loads()
        with tracing.root("statement") as span:
            read_partitions(arr, reason="gather")
            time.sleep(0.3)  # every losing attempt finishes under the span
        assert grid.resilience_snapshot()["hedge_wins"] >= 1
        assert loads() - before > N  # the losers did read, but off the span
        counters = span.counters
        assert counters.get("cache_hits", 0) + counters.get("cache_misses", 0) == N
