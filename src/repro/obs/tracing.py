"""Hierarchical tracing spans: one trace context per thread.

A :class:`Span` is one timed region of work: it has a name, a monotonic
start/end (``time.perf_counter``), a parent link, free-form attributes,
additive *counters* (``span.add("bytes_moved", n)``) and set-valued
*marks* (``span.mark("nodes", site)`` — deduplicating, for "which nodes
did this touch").

A thread either has a current span or it does not.  :func:`root` opens a
real span wherever a statement enters the engine — as the thread's root
if nothing is open, nested under the current span otherwise, so an inner
entry point never starts a second tree.  :func:`span` opens a child only
*under* a current span; on a thread with none it hands back the shared,
stateless :data:`NULL_SPAN`, so the instrumented hot paths of an untraced
statement cost one function call and allocate nothing.  Stacks are per
thread: two threads executing statements concurrently build disjoint
trees, and a worker thread joins a statement's tree only by
:func:`adopt`-ing the coordinator's open span (the partition scheduler
does this at fan-out), after which its ``add_current``/``mark_current``
calls — and the events it emits — land on the owning statement.
Instrumentation that would do real work to *compute* an annotation
(counting cells, say) should guard on :func:`enabled` first.

Exception safety is part of the contract: a span whose body raises is
still closed, records the error on itself, and leaves the thread's stack
consistent, so one failing query never poisons the next trace.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from threading import get_ident as _get_ident
from typing import Any, Callable, Iterator, Optional

__all__ = [
    "Span",
    "NULL_SPAN",
    "root",
    "span",
    "current_span",
    "current_query_id",
    "add_current",
    "add_current_pair",
    "mark_current",
    "annotate_current",
    "adopt",
    "enabled",
]


class Span:
    """One timed, counted region of work in a trace tree.

    Annotation is thread-safe: the parallel partition scheduler lets
    worker threads :func:`adopt` the coordinator's open span, so several
    workers may accumulate into the same counters concurrently.
    """

    __slots__ = (
        "name", "attrs", "_counters_mt", "marks", "parent", "root",
        "query_id", "children", "error", "t_start", "t_end", "_lock",
    )

    def __init__(
        self,
        name: str,
        parent: "Optional[Span]" = None,
        attrs: Optional[dict] = None,
    ) -> None:
        self.name = name
        self.parent = parent
        if parent is None:
            self.root = self
        else:
            self.root = parent.root
            parent.children.append(self)
        #: on a root: the statement's id, stamped on events emitted under it
        self.query_id: Optional[str] = None
        self.children: list[Span] = []
        self.attrs: dict[str, Any] = dict(attrs) if attrs else {}
        # Counters are sharded per writing thread so the hot accumulate
        # path (hundreds of calls per traced query) needs no lock: each
        # thread mutates only its own inner dict, and readers merge.
        self._counters_mt: dict[int, dict[str, float]] = {}
        self.marks: dict[str, set] = {}
        self.error: Optional[str] = None
        self._lock = threading.Lock()
        self.t_start = time.perf_counter()
        self.t_end: Optional[float] = None

    # -- annotation -------------------------------------------------------------

    def add(self, key: str, n: float = 1) -> None:
        """Accumulate *n* into the additive counter *key*."""
        shards = self._counters_mt
        mine = shards.get(_get_ident())
        if mine is None:
            mine = shards.setdefault(_get_ident(), {})
        mine[key] = mine.get(key, 0) + n

    @property
    def counters(self) -> dict[str, float]:
        """Merged view of the additive counters (read path only)."""
        shards = list(self._counters_mt.values())
        if len(shards) == 1:
            return dict(shards[0])
        merged: dict[str, float] = {}
        for shard in shards:
            for key, n in shard.items():
                merged[key] = merged.get(key, 0) + n
        return merged

    def mark(self, key: str, value: Any) -> None:
        """Add *value* to the deduplicating mark set *key*."""
        with self._lock:
            bucket = self.marks.get(key)
            if bucket is None:
                bucket = self.marks[key] = set()
            bucket.add(value)

    def annotate(self, **attrs: Any) -> None:
        with self._lock:
            self.attrs.update(attrs)

    # -- lifecycle --------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self.t_end is not None

    def close(self, error: Optional[str] = None) -> None:
        if self.t_end is None:
            self.t_end = time.perf_counter()
        if error is not None:
            self.error = error

    @property
    def duration_ms(self) -> float:
        """Wall time in milliseconds (up to now if still open)."""
        end = self.t_end if self.t_end is not None else time.perf_counter()
        return (end - self.t_start) * 1e3

    @property
    def self_ms(self) -> float:
        """Wall time not covered by child spans.  Over a tree the
        self-times telescope: they sum to the root's ``duration_ms``."""
        return self.duration_ms - sum(c.duration_ms for c in self.children)

    # -- traversal --------------------------------------------------------------

    def walk(self) -> Iterator["Span"]:
        """This span and all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Optional[Span]":
        """First descendant (or self) with *name*."""
        for sp in self.walk():
            if sp.name == name:
                return sp
        return None

    def total(self, key: str) -> float:
        """Sum of counter *key* over this span and all descendants."""
        return sum(sp.counters.get(key, 0) for sp in self.walk())

    def render(self, indent: int = 0) -> str:
        """Human-readable trace tree (for logs and debugging)."""
        pad = "  " * indent
        bits = [f"{pad}{self.name}  {self.duration_ms:.3f} ms"]
        if self.counters:
            stats = " ".join(
                f"{k}={v:g}" for k, v in sorted(self.counters.items())
            )
            bits[0] += f"  [{stats}]"
        if self.error is not None:
            bits[0] += f"  ERROR: {self.error}"
        for child in self.children:
            bits.append(child.render(indent + 1))
        return "\n".join(bits)

    def __repr__(self) -> str:
        state = f"{self.duration_ms:.3f} ms" if self.closed else "open"
        return f"<Span {self.name!r} {state} {len(self.children)} children>"


class _NullSpan:
    """A shared, stateless stand-in: context manager and span in one."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def add(self, key: str, n: float = 1) -> None:
        pass

    def mark(self, key: str, value: Any) -> None:
        pass

    def annotate(self, **attrs: Any) -> None:
        pass


#: The singleton no-op span; identity-comparable in tests.
NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager that opens/closes one span on a thread's stack."""

    __slots__ = ("stack", "name", "attrs", "span", "on_close")

    def __init__(
        self, stack: "list[Span]", name: str, attrs: dict,
        on_close: "Optional[Callable[[Span], None]]" = None,
    ) -> None:
        self.stack = stack
        self.name = name
        self.attrs = attrs
        self.on_close = on_close
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        stack = self.stack
        sp = self.span = Span(
            self.name, parent=stack[-1] if stack else None, attrs=self.attrs
        )
        stack.append(sp)
        return sp

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        sp = self.span
        assert sp is not None
        _pop(self.stack, sp)
        sp.close(error=None if exc is None else f"{exc_type.__name__}: {exc}")
        if self.on_close is not None:
            self.on_close(sp)
        return False


def _pop(stack: "list[Span]", sp: Span) -> None:
    # Pop robustly: an exception that skipped inner __exit__s must not
    # leave the stack pointing at a dead span.
    if stack and stack[-1] is sp:
        stack.pop()
    else:  # pragma: no cover - defensive
        try:
            stack.remove(sp)
        except ValueError:
            pass


#: Each thread's stack of open spans (absent or empty: nothing traced).
_local = threading.local()


def _stack() -> "list[Span]":
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def root(name: str, **attrs: Any) -> _SpanContext:
    """Open a real span: the thread's root, or nested if one is open."""
    return _SpanContext(_stack(), name, attrs)


def span(
    name: str, on_close: "Optional[Callable[[Span], None]]" = None, **attrs: Any
) -> "_SpanContext | _NullSpan":
    """Open a child of the current span (the null span if there is none).
    *on_close* is handed the span once it has closed — timed, its error
    recorded — and is never called for the null span."""
    stack = getattr(_local, "stack", None)
    return _SpanContext(stack, name, attrs, on_close) if stack else NULL_SPAN


def current_span() -> Optional[Span]:
    stack = getattr(_local, "stack", None)
    return stack[-1] if stack else None


def current_query_id() -> Optional[str]:
    """The id of the statement this thread is working for, if any."""
    stack = getattr(_local, "stack", None)
    return stack[-1].root.query_id if stack else None


def enabled() -> bool:
    """True when this thread has a current span.

    Instrumentation whose *annotation itself* costs real work (counting
    cells, hashing) should check this before computing.
    """
    return bool(getattr(_local, "stack", None))


def add_current(key: str, n: float = 1) -> None:
    """Accumulate into the innermost open span, if any (cheap when off).

    This is the hottest tracing entry point (per-chunk/per-transfer call
    sites), so the enabled path is inlined: thread-local stack lookup
    plus one lock-free write into the span's per-thread counter shard.
    """
    stack = getattr(_local, "stack", None)
    if stack:
        shards = stack[-1]._counters_mt
        ident = _get_ident()
        mine = shards.get(ident)
        if mine is None:
            mine = shards.setdefault(ident, {})
        mine[key] = mine.get(key, 0) + n


def add_current_pair(key1: str, n1: float, key2: str, n2: float) -> None:
    """Accumulate two counters with one stack/shard lookup.

    The transfer-metering path records ``bytes_moved`` and ``transfers``
    together for every gather; fusing them halves the per-transfer
    tracing cost, which is what keeps always-on query-profile capture
    inside its latency budget (E22).
    """
    stack = getattr(_local, "stack", None)
    if stack:
        shards = stack[-1]._counters_mt
        ident = _get_ident()
        mine = shards.get(ident)
        if mine is None:
            mine = shards.setdefault(ident, {})
        mine[key1] = mine.get(key1, 0) + n1
        mine[key2] = mine.get(key2, 0) + n2


def mark_current(key: str, value: Any) -> None:
    stack = getattr(_local, "stack", None)
    if stack:
        stack[-1].mark(key, value)


def annotate_current(**attrs: Any) -> None:
    stack = getattr(_local, "stack", None)
    if stack:
        stack[-1].annotate(**attrs)


@contextmanager
def adopt(span: Optional[Span]) -> Iterator[None]:
    """Install *span* as this thread's innermost open span for the block.

    The partition scheduler captures the coordinator's current span at
    fan-out time and adopts it inside each worker thread, so per-cell
    instrumentation (``add_current``/``mark_current``, ledger metering)
    keeps landing on the operator span that owns the work — the explain
    report's bytes-moved reconciliation survives parallel execution —
    and events the worker emits carry the owning statement's id.  The
    span is *not* closed on exit; only the thread-local stack entry is
    removed.  ``adopt(None)`` (nothing is being traced) does nothing.
    """
    if span is None:
        yield
        return
    stack = _stack()
    stack.append(span)
    try:
        yield
    finally:
        _pop(stack, span)
