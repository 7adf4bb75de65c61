"""Span nesting, exception safety, self-times and the no-op fast path."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import tracing
from repro.obs.tracing import NULL_SPAN, Span


class TestNesting:
    def test_parent_child_links(self):
        with tracing.root("outer") as outer:
            with tracing.span("inner") as inner:
                pass
        assert outer.parent is None and outer.root is outer
        assert outer.children == [inner]
        assert inner.parent is outer and inner.root is outer
        assert inner.closed and outer.closed

    def test_sibling_spans_stay_exclusive(self):
        with tracing.root("root") as root:
            with tracing.span("a") as a:
                a.add("cells", 3)
            with tracing.span("b") as b:
                b.add("cells", 4)
        assert [c.name for c in root.children] == ["a", "b"]
        assert root.counters == {}  # nothing leaked upward
        assert root.total("cells") == 7  # but subtree totals roll up

    def test_add_current_lands_on_innermost(self):
        with tracing.root("outer") as outer:
            tracing.add_current("n", 1)
            with tracing.span("inner") as inner:
                tracing.add_current("n", 10)
        assert outer.counters["n"] == 1
        assert inner.counters["n"] == 10

    def test_marks_deduplicate(self):
        with tracing.root("s") as sp:
            for site in (0, 1, 1, 2, 1):
                tracing.mark_current("nodes", site)
        assert sp.marks["nodes"] == {0, 1, 2}

    def test_find_and_render(self):
        with tracing.root("query") as root:
            with tracing.span("op:subsample") as sub:
                sub.add("cells_scanned", 9)
        assert root.find("op:subsample") is sub
        assert root.find("nope") is None
        text = root.render()
        assert "op:subsample" in text
        assert "cells_scanned=9" in text

    def test_duration_is_monotonic_and_positive(self):
        with tracing.root("timed") as sp:
            pass
        assert sp.duration_ms >= 0
        assert sp.t_end >= sp.t_start

    def test_self_times_sum_to_the_root(self):
        with tracing.root("root") as root:
            with tracing.span("a"):
                with tracing.span("a1"):
                    pass
            with tracing.span("b"):
                pass
        assert all(sp.self_ms >= 0 for sp in root.walk())
        assert sum(sp.self_ms for sp in root.walk()) == pytest.approx(
            root.duration_ms
        )

    def test_an_inner_root_nests_instead_of_starting_a_second_tree(self):
        with tracing.root("service") as outer:
            with tracing.root("query") as inner:
                assert tracing.current_span() is inner
        assert inner.parent is outer and inner.root is outer
        assert tracing.current_span() is None


class TestExceptionSafety:
    def test_raising_span_still_closes_and_records_error(self):
        with pytest.raises(ValueError):
            with tracing.root("boom") as sp:
                raise ValueError("bad cell")
        assert sp.closed
        assert sp.error == "ValueError: bad cell"

    def test_recorder_reusable_after_exception(self):
        with pytest.raises(RuntimeError):
            with tracing.root("first"):
                raise RuntimeError("x")
        # The stack must be clean: a new root is a fresh tree, not a
        # child of the dead one.
        assert tracing.current_span() is None
        with tracing.root("second") as sp:
            pass
        assert sp.parent is None
        assert tracing.current_span() is None

    def test_exception_in_nested_span_unwinds_whole_stack(self):
        with pytest.raises(KeyError):
            with tracing.root("a") as a:
                with tracing.span("b"):
                    with tracing.span("c"):
                        raise KeyError("deep")
        assert tracing.current_span() is None
        for sp in a.walk():
            assert sp.closed, f"span {sp.name} left open"
        # Only the innermost carries the error; outer spans closed on the
        # same exception propagating through them.
        assert a.find("c").error == "KeyError: 'deep'"


class TestNoopPath:
    def test_noop_recorder_returns_shared_null_span(self):
        # "No-op recorder" is now simply a thread with no root open.
        with tracing.span("anything", big=list(range(100))) as sp:
            sp.add("x", 1)
            sp.mark("y", 2)
            sp.annotate(z=3)
        # Identity: the same shared object every time, no Span allocated.
        assert sp is NULL_SPAN
        with tracing.span("other") as sp2:
            pass
        assert sp2 is NULL_SPAN
        assert not isinstance(sp, Span)
        assert tracing.current_span() is None
        assert tracing.current_query_id() is None
        assert not tracing.enabled()

    def test_add_current_is_noop_when_disabled(self):
        tracing.add_current("k", 5)  # must not raise, must not record
        tracing.add_current_pair("k", 5, "j", 6)
        tracing.mark_current("k", 5)
        tracing.annotate_current(k=5)
        assert tracing.current_span() is None

    def test_default_recorder_is_noop(self):
        # Production code paths are untraced unless something opts in
        # with a root, and opting in ends with the block.
        assert not tracing.enabled()
        with tracing.root("on"):
            assert tracing.enabled()
        assert not tracing.enabled()


class TestThreads:
    def test_recorder_is_per_thread(self):
        # The trace context is a per-thread stack.  A raw spawned thread
        # does NOT inherit another thread's open span (the partition
        # scheduler adopts it explicitly at fan-out), so concurrent
        # statements can never interleave spans into each other's trees.
        seen = {}

        def work(label):
            seen["enabled"] = tracing.enabled()
            with tracing.span(label) as sp:
                seen[label] = sp

        with tracing.root("main-root") as root:
            t = threading.Thread(target=work, args=("worker",))
            t.start()
            t.join()
        assert seen["enabled"] is False
        assert seen["worker"] is tracing.NULL_SPAN
        assert root.children == []

    def test_explicitly_installed_recorder_keeps_stacks_disjoint(self):
        # "Installing" is adopt(): a worker that adopts the coordinator's
        # span (what the scheduler does) records into that tree, carries
        # its statement's id, and leaves its own stack empty afterwards.
        seen = {}

        def work(parent):
            with tracing.adopt(parent):
                seen["query_id"] = tracing.current_query_id()
                with tracing.span("worker") as sp:
                    seen["parent"] = sp.parent
            seen["after"] = tracing.current_span()

        with tracing.root("main-root") as root:
            root.query_id = "q-000007"
            t = threading.Thread(target=work, args=(root,))
            t.start()
            t.join()
            assert tracing.current_span() is root  # untouched by the worker
        assert seen == {"query_id": "q-000007", "parent": root, "after": None}
        assert [c.name for c in root.children] == ["worker"]

    def test_concurrent_recorders_stay_disjoint(self):
        # Two threads each tracing a statement of their own must end up
        # with exactly their own tree — one shared recorder used to
        # absorb (then truncate) the other thread's.
        def work(label):
            with tracing.root(label) as root:
                with tracing.span(label + "-child"):
                    pass
            return root

        labels = [f"t{i}" for i in range(4)]
        with ThreadPoolExecutor(4) as pool:
            roots = list(pool.map(work, labels))
        for label, root in zip(labels, roots):
            assert [sp.name for sp in root.walk()] == [label, label + "-child"]
