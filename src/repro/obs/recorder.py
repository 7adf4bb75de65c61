"""The flight recorder: the one operational record, bounded in memory.

Cumulative facts are counted once, by their owners (see
:mod:`repro.obs`); what the recorder adds is the account of *what
happened to a statement* — the §2.7 designer loop and the paper's "the
system must explain what it did" both presuppose telemetry that persists
beyond a single call.  Three bounded stores, composed by one
:class:`FlightRecorder`:

* :class:`EventLog` — a ring buffer of typed :class:`RecordedEvent`
  records (node kill/rebuild, breaker open/close, rebalance lifecycle,
  WAL tears, deadline misses, quarantines, cache eviction pressure …),
  each stamped with a **monotonic sequence number** (the deterministic
  ordering drills reconcile against), a wall-clock timestamp (for
  humans) and the ``query_id`` of the statement whose thread — or
  adopted worker — emitted it (``None`` outside any statement).
  Per-kind totals survive ring eviction, so completeness reconciliation
  works even after the ring wraps.
* :class:`QueryProfileStore` — the last N statements, each a
  :class:`QueryProfile`: the statement's span tree from the moment it
  entered the engine (parse → plan → execute, self-times summing to its
  wall time), and the physical plan that ran
  (:class:`~repro.query.planner.PhysicalOp`) carrying per-op time /
  cells / bytes / parallelism / failovers, the cache hit ratio and the
  planner's predictions (``estimated`` is their flat summary) —
  ``db.profiles()`` / ``db.profile(id)`` replay any recent query's
  explain after the fact.  Statements at or over ``slow_query_ms`` are
  also held in a second, smaller ring (``db.slow_queries()``); the
  statement count and latency sum stay exact past eviction.
* :class:`GaugeSampler` — fixed-size rings of per-node gauge samples
  (cells stored, WAL depth, cache bytes, breaker state, imbalance), so
  trends survive.  Sampling is explicit (:meth:`FlightRecorder.sample`).

One process-wide recorder (swap with :func:`set_flight_recorder`) keeps
the hook sites one-liners::

    from repro.obs import recorder as flight
    flight.emit("node_rebuild", node=3, cells=1200)

Cost discipline: with the recorder disabled, :func:`emit` is one
function call and one attribute check and no statement opens a span —
nothing allocates.  Every store is capped (ring buffers, last-N
deques), so a long-running service's recorder memory is a constant.
"""

from __future__ import annotations

import json
import math
import threading
import time
import weakref
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, TYPE_CHECKING

from . import tracing

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..query.planner import PhysicalOp

__all__ = [
    "RecordedEvent",
    "EventLog",
    "QueryProfile",
    "QueryProfileStore",
    "GaugeSampler",
    "FlightRecorder",
    "emit",
    "get_flight_recorder",
    "set_flight_recorder",
    "use_flight_recorder",
]


@dataclass(frozen=True)
class RecordedEvent:
    """One structured operational event.

    ``seq`` is a recorder-wide monotonic sequence number — two events'
    relative order is exactly their emission order, which is what drills
    reconcile (wall-clock ``ts`` is for humans and exports only).
    ``query_id`` joins the event to the statement it happened to.
    """

    seq: int
    ts: float
    kind: str
    node: Optional[int] = None
    array: Optional[str] = None
    detail: dict[str, Any] = field(default_factory=dict)
    query_id: Optional[str] = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"seq": self.seq, "ts": self.ts, "kind": self.kind}
        if self.node is not None:
            out["node"] = self.node
        if self.array is not None:
            out["array"] = self.array
        if self.query_id is not None:
            out["query_id"] = self.query_id
        if self.detail:
            out["detail"] = self.detail
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, default=str)

    def __str__(self) -> str:
        bits = [f"#{self.seq}", self.kind]
        if self.node is not None:
            bits.append(f"node={self.node}")
        if self.array is not None:
            bits.append(f"array={self.array}")
        if self.query_id is not None:
            bits.append(f"query={self.query_id}")
        bits.extend(f"{k}={v}" for k, v in self.detail.items())
        return " ".join(bits)


class EventLog:
    """A bounded, thread-safe ring of :class:`RecordedEvent` records.

    The ring keeps the newest ``capacity`` events; :attr:`emitted` and
    the per-kind :meth:`counts` keep counting past eviction, so "did we
    see every injected kill" reconciles even after the ring wraps.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("event log capacity must be >= 1")
        self.capacity = capacity
        self._ring: deque[RecordedEvent] = deque(maxlen=capacity)
        self._seq = 0
        self._evicted = 0
        self._counts: dict[str, int] = {}
        self._lock = threading.Lock()

    def emit(
        self,
        kind: str,
        node: Optional[int] = None,
        array: Optional[str] = None,
        **detail: Any,
    ) -> RecordedEvent:
        query_id = tracing.current_query_id()
        with self._lock:
            self._seq += 1
            event = RecordedEvent(
                seq=self._seq,
                ts=time.time(),
                kind=kind,
                node=node,
                array=array,
                detail=detail,
                query_id=query_id,
            )
            if len(self._ring) == self.capacity:
                self._evicted += 1
            self._ring.append(event)
            self._counts[kind] = self._counts.get(kind, 0) + 1
        return event

    def events(
        self,
        kind: Optional[str] = None,
        node: Optional[int] = None,
        since_seq: int = 0,
    ) -> list[RecordedEvent]:
        """Retained events oldest-first, optionally filtered."""
        with self._lock:
            out = list(self._ring)
        if kind is not None:
            out = [e for e in out if e.kind == kind]
        if node is not None:
            out = [e for e in out if e.node == node]
        if since_seq:
            out = [e for e in out if e.seq > since_seq]
        return out

    def counts(self) -> dict[str, int]:
        """All-time events by kind (survives ring eviction)."""
        with self._lock:
            return dict(self._counts)

    @property
    def emitted(self) -> int:
        """Total events ever emitted (``seq`` of the newest one)."""
        with self._lock:
            return self._seq

    @property
    def evicted(self) -> int:
        """Events pushed out of the ring by newer ones."""
        with self._lock:
            return self._evicted

    def clear(self) -> None:
        """Drop the retained events.  The totals are NOT reset: sequence
        numbers stay monotonic for the recorder's lifetime (``since_seq``
        bookmarks stay valid) and so do the per-kind counts (exported
        counters never go backwards)."""
        with self._lock:
            self._ring.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def __repr__(self) -> str:
        return f"<EventLog {len(self)}/{self.capacity} retained, {self.emitted} emitted>"


@dataclass
class QueryProfile:
    """One statement's retained record.

    Opened where the statement enters the engine
    (:meth:`FlightRecorder.statement`) and stored when its root span
    closes.  ``span`` is that root — parse, plan, execute and the
    operator spans beneath it, whose ``self_ms`` sum to ``total_ms``.
    ``root`` is the physical plan the executor ran — the tree
    ``EXPLAIN ANALYZE`` renders (time / cells / bytes / parallelism /
    failovers / cache hits per operator) — so :meth:`render` replays the
    explain after the fact.  ``estimated`` is a view of it: the
    planner's flattened predictions (cells, ms, chunks to read, chunks
    to prune, routes), so every retained profile supports
    estimated-vs-actual comparison; it is ``None`` only when the
    statement had no physical plan (DDL).
    """

    query_id: str
    statement: str
    started_at: float
    total_ms: float = 0.0
    rewrites: list[str] = field(default_factory=list)
    root: Optional[PhysicalOp] = None
    cells_examined: int = 0
    error: Optional[str] = None
    #: the slow threshold of the database that ran it (None: the recorder's)
    slow_ms: Optional[float] = None
    #: the statement's root span (None on a hand-built profile)
    span: Optional[tracing.Span] = None

    @property
    def estimated(self) -> Optional[dict[str, Any]]:
        """The planner's predictions for this statement (cells/ms/chunks/
        chunks_pruned/strategies); None when nothing was planned (DDL)."""
        return self.root.estimated() if self.root is not None else None

    def _sum(self, attr: str) -> float:
        if self.root is None:
            return 0
        return sum(getattr(p, attr) for p in self.root.walk())

    @property
    def bytes_moved(self) -> int:
        return int(self._sum("bytes_moved"))

    @property
    def cells_scanned(self) -> int:
        return int(self._sum("cells_scanned"))

    @property
    def failovers(self) -> int:
        if self.root is None:
            return 0
        return int(
            sum(p.counters.get("failovers", 0) for p in self.root.walk())
        )

    @property
    def cache_hit_ratio(self) -> Optional[float]:
        """Chunk-cache hit ratio over the whole plan; None if no operator
        read through the cache."""
        hits = self._sum("cache_hits")
        total = hits + self._sum("cache_misses")
        return hits / total if total else None

    def render(self) -> str:
        """Replay this query's explain from the retained profile."""
        lines = [f"PROFILE {self.query_id}  {self.statement}"]
        for rw in self.rewrites:
            lines.append(f"  rewrite: {rw}")
        if self.root is not None:
            lines.append(self.root.render_measured(1))
        if self.span is not None:
            phases = ", ".join(
                f"{sp.name} {sp.duration_ms:.3f} ms"
                for sp in self.span.walk()
                if sp.parent is not None and not sp.name.startswith("op:")
            )
            if phases:
                lines.append(f"  phases: {phases}")
        estimated = self.estimated
        lines.append(
            f"  total: {self.total_ms:.3f} ms, {self.bytes_moved} bytes moved"
            + (f", estimated: {estimated}" if estimated else "")
        )
        if self.error:
            lines.append(f"  ERROR: {self.error}")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form (``GET /profile``): the scalar fields, the
        operator tree, and :meth:`render`'s text."""
        out = {
            key: getattr(self, key)
            for key in (
                "query_id", "statement", "started_at", "total_ms", "rewrites",
                "cells_examined", "error", "estimated",
            )
        }
        out["operators"] = self.root.to_dict() if self.root is not None else None
        out["rendered"] = self.render()
        return out

    def __str__(self) -> str:
        return self.render()


class QueryProfileStore:
    """The last N statements, addressable by ``query_id``.

    Ids are handed out from a monotonic counter (``q-000001`` …), so a
    seeded drill's ids are deterministic.  Statements flagged *slow* are
    also held — by reference — in a second, smaller ring, so they stay
    addressable after the main ring has moved on.  The statement count
    and latency sum are all-time totals; the latency quantiles describe
    the retained ring.
    """

    #: slow statements kept after the main ring evicted them
    SLOW_CAPACITY = 128

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("profile store capacity must be >= 1")
        self.capacity = capacity
        self._ring: deque[QueryProfile] = deque(maxlen=capacity)
        self._slow: deque[QueryProfile] = deque(maxlen=self.SLOW_CAPACITY)
        self._by_id: dict[str, QueryProfile] = {}
        self._next = 0
        self._count = 0
        self._total_ms = 0.0
        self._lock = threading.Lock()

    def next_query_id(self) -> str:
        with self._lock:
            self._next += 1
            return f"q-{self._next:06d}"

    def add(self, profile: QueryProfile, slow: bool = False) -> None:
        with self._lock:
            if len(self._ring) == self.capacity:
                evicted = self._ring[0]
                self._by_id.pop(evicted.query_id, None)
            self._ring.append(profile)
            self._by_id[profile.query_id] = profile
            self._count += 1
            self._total_ms += profile.total_ms
            if slow:
                self._slow.append(profile)

    def get(self, query_id: str) -> Optional[QueryProfile]:
        with self._lock:
            found = self._by_id.get(query_id)
            if found is None:
                found = next(
                    (p for p in self._slow if p.query_id == query_id), None
                )
            return found

    def profiles(self, n: Optional[int] = None) -> list[QueryProfile]:
        """Retained profiles oldest-first (the last *n* if given)."""
        with self._lock:
            out = list(self._ring)
        return out[-n:] if n is not None else out

    def slow(self) -> list[QueryProfile]:
        """The retained slow statements, oldest first."""
        with self._lock:
            return list(self._slow)

    def latency(self) -> dict[str, float]:
        """Statement latency: all-time ``count``/``sum`` (exact past
        eviction) and ``p50``/``p95`` over the retained ring."""
        with self._lock:
            times = sorted(p.total_ms for p in self._ring)
            count, total = self._count, self._total_ms

        def quantile(q: float) -> float:
            if not times:
                return 0.0
            return times[max(0, math.ceil(q * len(times)) - 1)]

        return {
            "count": count, "sum": total,
            "p50": quantile(0.50), "p95": quantile(0.95),
        }

    def clear(self) -> None:
        """Drop the retained profiles (ids and totals keep counting)."""
        with self._lock:
            self._ring.clear()
            self._slow.clear()
            self._by_id.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def __repr__(self) -> str:
        return f"<QueryProfileStore {len(self)}/{self.capacity}>"


class GaugeSampler:
    """Fixed-size rings of timestamped gauge samples, keyed by series.

    A series key is a plain string (``"grid.node3.cells"``); each holds
    the newest ``capacity`` ``(seq, ts, value)`` points.  Memory is
    capped at ``capacity`` points × the number of distinct series, and
    the series population is bounded by grids × nodes × a fixed gauge
    list, so trends survive without unbounded growth.
    """

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError("sampler capacity must be >= 1")
        self.capacity = capacity
        self._series: dict[str, deque[tuple[int, float, float]]] = {}
        self._samples_taken = 0
        self._lock = threading.Lock()

    def record(self, key: str, value: float, seq: int = 0) -> None:
        with self._lock:
            ring = self._series.get(key)
            if ring is None:
                ring = self._series[key] = deque(maxlen=self.capacity)
            ring.append((seq, time.time(), float(value)))

    def note_sample(self) -> int:
        """Count one sampling pass; returns its ordinal (used as seq)."""
        with self._lock:
            self._samples_taken += 1
            return self._samples_taken

    @property
    def samples_taken(self) -> int:
        with self._lock:
            return self._samples_taken

    def keys(self) -> list[str]:
        with self._lock:
            return sorted(self._series)

    def series(self, key: str) -> list[tuple[int, float, float]]:
        """Retained ``(seq, ts, value)`` points for *key*, oldest-first."""
        with self._lock:
            ring = self._series.get(key)
            return list(ring) if ring is not None else []

    def latest(self, key: str) -> Optional[float]:
        with self._lock:
            ring = self._series.get(key)
            return ring[-1][2] if ring else None

    def clear(self) -> None:
        with self._lock:
            self._series.clear()
            self._samples_taken = 0

    def __repr__(self) -> str:
        return (
            f"<GaugeSampler {len(self.keys())} series, "
            f"{self.samples_taken} passes>"
        )


#: breaker states as gauge values (closed < half-open < open)
_BREAKER_LEVEL = {"closed": 0.0, "half_open": 1.0, "open": 2.0}


class FlightRecorder:
    """Event log + statement records + gauge sampler, as one instrument.

    ``enabled`` gates events and statement capture together (the stores
    stay allocated but untouched when off).  ``slow_query_ms`` is the
    wall time at or over which a statement counts as slow.  Gauge
    sampling is explicit — :meth:`sample` takes one pass over every
    watched grid.  Grids are held through weak references so a recorder
    never keeps a torn-down grid alive.
    """

    def __init__(
        self,
        enabled: bool = True,
        event_capacity: int = 4096,
        profile_capacity: int = 256,
        slow_query_ms: float = 100.0,
    ) -> None:
        if slow_query_ms < 0:
            raise ValueError("slow_query_ms must be >= 0")
        self.enabled = enabled
        self.slow_query_ms = slow_query_ms
        self.events_log = EventLog(capacity=event_capacity)
        self.profile_store = QueryProfileStore(capacity=profile_capacity)
        self.sampler = GaugeSampler()
        self._grids: dict[str, "weakref.ref[Any]"] = {}
        self._grids_lock = threading.Lock()

    # -- events ----------------------------------------------------------------

    def emit(
        self,
        kind: str,
        node: Optional[int] = None,
        array: Optional[str] = None,
        **detail: Any,
    ) -> Optional[RecordedEvent]:
        if not self.enabled:
            return None
        return self.events_log.emit(kind, node=node, array=array, **detail)

    def events(
        self,
        kind: Optional[str] = None,
        node: Optional[int] = None,
        since_seq: int = 0,
    ) -> list[RecordedEvent]:
        return self.events_log.events(kind=kind, node=node, since_seq=since_seq)

    def event_counts(self) -> dict[str, int]:
        return self.events_log.counts()

    # -- statement records -----------------------------------------------------

    @contextmanager
    def statement(
        self, statement: Any, name: str = "query", force: bool = False,
        slow_ms: Optional[float] = None,
    ) -> Iterator[Optional[QueryProfile]]:
        """Open the record of *statement* (text, or a parse tree — kept as
        ``<NodeType>``) where it enters the engine, slow at *slow_ms*.

        The outermost entry point — the service's ``execute_query``,
        ``db.explain`` or ``Executor.run`` — opens the root span, mints
        the query id and stores the record when the root closes; an
        entry point that finds a span already open nests under it and is
        handed the record its root carries.  Yields ``None``, and opens
        nothing, when the recorder is off (unless *force*: EXPLAIN
        traces regardless).
        """
        outer = tracing.current_span()
        if outer is not None:
            with tracing.span(name):
                yield outer.root.attrs.get("record")
            return
        if not (self.enabled or force):
            yield None
            return
        record = QueryProfile(
            query_id=self.profile_store.next_query_id(),
            statement=(
                statement
                if isinstance(statement, str)
                else f"<{type(statement).__name__}>"
            ),
            started_at=time.time(),
            slow_ms=slow_ms,
        )
        try:
            with tracing.root(name, record=record) as root:
                root.query_id = record.query_id
                record.span = root
                yield record
        finally:
            del root.attrs["record"]  # the record holds the span, not both ways
            record.total_ms = root.duration_ms
            record.error = root.error
            self.record_profile(record)

    def record_profile(self, profile: QueryProfile) -> None:
        if self.enabled:
            self.profile_store.add(profile, slow=profile.total_ms >= self._slow(profile))

    def slow_queries(self, threshold: Optional[float] = None) -> list[QueryProfile]:
        """Retained statements at or over *threshold* (default: each one's
        own ``slow_ms``, else ``slow_query_ms``), oldest first."""
        return [p for p in self.profile_store.slow()
                if p.total_ms >= self._slow(p, threshold)]

    def _slow(self, profile: QueryProfile, threshold: Optional[float] = None) -> float:
        given = (threshold, profile.slow_ms, self.slow_query_ms)
        return next(t for t in given if t is not None)

    def profiles(self, n: Optional[int] = None) -> list[QueryProfile]:
        return self.profile_store.profiles(n)

    def profile(self, query_id: str) -> Optional[QueryProfile]:
        return self.profile_store.get(query_id)

    # -- gauge sampling --------------------------------------------------------

    def watch_grid(self, name: str, grid: Any) -> None:
        """Register *grid* (weakly) for gauge sampling under *name*."""
        with self._grids_lock:
            self._grids[name] = weakref.ref(grid)

    def watched_grids(self) -> dict[str, Any]:
        """Live watched grids (dead weakrefs are dropped in passing)."""
        out: dict[str, Any] = {}
        with self._grids_lock:
            for name, ref in list(self._grids.items()):
                grid = ref()
                if grid is None:
                    del self._grids[name]
                else:
                    out[name] = grid
        return out

    def sample(self) -> int:
        """Take one gauge sample of every watched grid; returns the
        number of series updated.  Safe to call from a drill loop —
        reads only in-memory state (O(nodes × arrays), no I/O, nothing
        metered)."""
        grids = self.watched_grids()
        if not grids:
            return 0
        seq = self.sampler.note_sample()
        updated = 0
        for gname, grid in grids.items():
            for node in grid.nodes:
                prefix = f"{gname}.node{node.node_id}"
                cells = 0
                if node.alive:
                    for a in grid.names():
                        try:
                            cells += node.cell_count(a)
                        except Exception:
                            continue  # partition not provisioned here yet
                cache = node.storage.chunk_cache
                gauges = {
                    "alive": 1.0 if node.alive else 0.0,
                    "cells": float(cells),
                    "wal_depth": float(node.wal.records_appended),
                    "cache_bytes": float(
                        cache.bytes_cached if cache is not None else 0
                    ),
                    "breaker": _BREAKER_LEVEL.get(
                        grid.breakers[node.node_id].state, 0.0
                    ),
                }
                for metric, value in gauges.items():
                    self.sampler.record(f"{prefix}.{metric}", value, seq=seq)
                    updated += 1
            imbalance = 0.0
            for name in grid.names():
                try:
                    imbalance = max(imbalance, grid.get_array(name).imbalance())
                except Exception:
                    continue  # e.g. every replica of a chain down mid-drill
            self.sampler.record(f"{gname}.imbalance", imbalance, seq=seq)
            self.sampler.record(
                f"{gname}.alive_nodes", float(len(grid.alive_nodes())), seq=seq
            )
            updated += 2
        return updated

    # -- lifecycle -------------------------------------------------------------

    def clear(self) -> None:
        self.events_log.clear()
        self.profile_store.clear()
        self.sampler.clear()

    def summary(self) -> dict[str, Any]:
        """A JSON-able self-description for ``metrics_snapshot``."""
        return {
            "enabled": self.enabled,
            "events": {
                "retained": len(self.events_log),
                "emitted": self.events_log.emitted,
                "evicted": self.events_log.evicted,
                "by_kind": self.events_log.counts(),
            },
            "profiles": {
                "retained": len(self.profile_store),
                "capacity": self.profile_store.capacity,
                "slow": len(self.slow_queries()),
                "slow_query_ms": self.slow_query_ms,
            },
            "sampler": {
                "series": len(self.sampler.keys()),
                "passes": self.sampler.samples_taken,
            },
        }

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return (
            f"<FlightRecorder {state}: {len(self.events_log)} events, "
            f"{len(self.profile_store)} profiles>"
        )


_flight = FlightRecorder()


def get_flight_recorder() -> FlightRecorder:
    """The process-wide flight recorder every hook site emits into."""
    return _flight


def set_flight_recorder(recorder: FlightRecorder) -> FlightRecorder:
    """Install *recorder* process-wide; returns the previous one."""
    global _flight
    old = _flight
    _flight = recorder
    return old


@contextmanager
def use_flight_recorder(recorder: FlightRecorder) -> Iterator[FlightRecorder]:
    """Activate *recorder* for the duration of the block (tests)."""
    old = set_flight_recorder(recorder)
    try:
        yield recorder
    finally:
        set_flight_recorder(old)


def emit(
    kind: str,
    node: Optional[int] = None,
    array: Optional[str] = None,
    **detail: Any,
) -> Optional[RecordedEvent]:
    """Emit one event into the process recorder (cheap no-op when off).

    This is the hook-site entry point: with the recorder disabled the
    cost is one global read and one attribute check — nothing allocates,
    so instrumented paths stay within noise of uninstrumented ones.
    """
    rec = _flight
    if not rec.enabled:
        return None
    return rec.events_log.emit(kind, node=node, array=array, **detail)
