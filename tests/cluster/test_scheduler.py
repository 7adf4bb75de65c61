"""Unit tests for the intra-query partition scheduler."""

import threading

import pytest

from repro.cluster import PartitionScheduler, default_parallelism
from repro.core.errors import GridError
from repro.obs import tracing


class TestDefaults:
    def test_default_parallelism_caps_at_eight(self):
        assert default_parallelism(1) == 1
        assert default_parallelism(4) == 4
        assert default_parallelism(8) == 8
        assert default_parallelism(16) == 8

    def test_parallelism_must_be_positive(self):
        with pytest.raises(GridError):
            PartitionScheduler(0)
        with pytest.raises(GridError):
            PartitionScheduler(-3)


class TestMap:
    def test_results_in_task_order(self):
        sched = PartitionScheduler(4, waits=lambda: True)
        # Later tasks finish first (they wait on earlier tasks' events),
        # yet results must come back in submission order.
        n = 6
        done = [threading.Event() for _ in range(n)]

        def task(i):
            # Task i waits for all *later* tasks to have started... keep it
            # simple: even tasks wait on their odd successor's completion.
            if i % 2 == 0 and i + 1 < n:
                done[i + 1].wait(timeout=5)
            done[i].set()
            return i * 10

        assert sched.map([lambda i=i: task(i) for i in range(n)]) == [
            0, 10, 20, 30, 40, 50
        ]

    def test_serial_runs_inline_on_calling_thread(self):
        sched = PartitionScheduler(1)
        threads = []
        sched.map([lambda: threads.append(threading.get_ident())
                   for _ in range(4)])
        assert set(threads) == {threading.get_ident()}

    def test_parallel_uses_worker_threads(self):
        sched = PartitionScheduler(4, waits=lambda: True)
        barrier = threading.Barrier(4, timeout=5)
        threads = set()

        def task():
            barrier.wait()  # force 4 concurrent workers
            threads.add(threading.get_ident())

        sched.map([task] * 4)
        assert len(threads) == 4
        assert threading.get_ident() not in threads

    def test_tasks_that_cannot_wait_run_inline(self):
        waiting = []
        sched = PartitionScheduler(4, waits=lambda: bool(waiting))
        threads = []
        sched.map([lambda: threads.append(threading.get_ident())] * 4)
        assert set(threads) == {threading.get_ident()}
        # Asked per batch: once the owner's tasks can wait, the pool runs.
        waiting.append(True)
        barrier = threading.Barrier(2, timeout=5)
        sched.map([barrier.wait] * 2)
        assert not barrier.broken

    def test_single_task_runs_inline_even_when_parallel(self):
        sched = PartitionScheduler(8)
        threads = []
        sched.map([lambda: threads.append(threading.get_ident())])
        assert threads == [threading.get_ident()]

    def test_empty_batch(self):
        assert PartitionScheduler(4).map([]) == []

    def test_first_error_by_index_wins(self):
        sched = PartitionScheduler(4)
        ran = []

        def ok(i):
            ran.append(i)
            return i

        def boom(i, exc):
            ran.append(i)
            raise exc(f"task {i}")

        with pytest.raises(ValueError, match="task 1"):
            sched.map([
                lambda: ok(0),
                lambda: boom(1, ValueError),
                lambda: ok(2),
                lambda: boom(3, KeyError),
            ])
        # Every task still ran to completion before the raise.
        assert sorted(ran) == [0, 1, 2, 3]

    def test_serial_runs_every_task_and_keeps_siblings(self):
        """One failure policy at every parallelism: a serial batch runs
        all its tasks, raises the lowest-index failure and carries the
        rest as siblings, exactly as a pooled batch does."""
        ran = []

        def task(i):
            ran.append(i)
            if i in (1, 3):
                raise ValueError(f"task {i}")
            return i

        with pytest.raises(ValueError, match="task 1") as ei:
            PartitionScheduler(1).map([lambda i=i: task(i) for i in range(4)])
        assert ran == [0, 1, 2, 3]
        assert [str(e) for e in ei.value.sibling_failures] == ["task 3"]

    def test_serial_error_propagates(self):
        sched = PartitionScheduler(1)
        with pytest.raises(RuntimeError):
            sched.map([lambda: (_ for _ in ()).throw(RuntimeError("x"))])


class TestObservability:
    def test_batch_and_task_counters(self):
        sched = PartitionScheduler(2)
        sched.map([lambda: 1, lambda: 2, lambda: 3])
        sched.map([lambda: 4])
        assert sched.batches == 2
        assert sched.tasks == 4

    def test_annotates_open_span_with_parallelism(self):
        with tracing.root("op:test") as sp:
            PartitionScheduler(5).map([lambda: None, lambda: None])
        assert sp.attrs["parallelism"] == 5

    def test_workers_adopt_parent_span(self):
        """Counters accumulated inside worker threads land on the span
        that was open at fan-out time — explain's reconciliation relies
        on this."""
        with tracing.root("op:gather") as sp:
            PartitionScheduler(4).map([
                (lambda: tracing.add_current("bytes_moved", 10))
                for _ in range(8)
            ])
        assert sp.counters["bytes_moved"] == 80

    def test_waiting_workers_adopt_parent_span(self):
        with tracing.root("op:gather") as sp:
            barrier = threading.Barrier(4, timeout=5)

            def task():
                barrier.wait()  # force 4 concurrent workers
                tracing.add_current("bytes_moved", 10)

            PartitionScheduler(4, waits=lambda: True).map([task] * 4)
        assert sp.counters["bytes_moved"] == 40

    def test_adopt_restores_stack(self):
        with tracing.root("outer") as outer:
            with tracing.adopt(outer):
                tracing.add_current("k", 1)
            assert tracing.current_span() is outer
        assert outer.counters["k"] == 1

    def test_adopt_none_is_noop(self):
        with tracing.adopt(None):
            # nothing is being traced: no span appears on this thread
            assert tracing.current_span() is None
