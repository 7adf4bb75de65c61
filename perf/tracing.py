"""The outside-in layer profile: spans around the engine's public calls.

Imported by the traced run only.  :func:`install` replaces the public
callables of each layer (``SciDB.execute``, ``Executor.run``,
``Planner.plan``, the ``core.ops`` catalog entries, ``DistributedArray``
operators, ``PartitionScheduler.map``, ``PersistentArray.scan``,
``Bucket.from_bytes``/``to_bytes``, ``RTree.search``, ``BulkLoader.load``,
``WriteAheadLog``, ``QueryService.handle``, ``ShimClient`` verbs, …) with
wrappers that record a span — name, start, end, parent, statement id —
and otherwise change nothing.  Spans *inside* the program are a later
issue; here every layer is timed from its boundary.

Self time
---------
A span's *busy* time is the time its call was on the stack (for a
generator: the time spent inside ``next()``, not the consumer's time
between yields).  Its *self* time is busy minus the busy time of the
spans it called on the same thread.  ``PartitionScheduler.map`` hands its
tasks to worker threads: the task spans keep the ``map`` span as parent
but run on another thread, so they are not subtracted — the caller's
blocked time stays visible as ``cluster.scheduler.wait_ms`` and the
workers' busy time is reported separately (``cluster.node.scan_sum_ms``),
never double-counted.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from workloads import Op, Sample

_now = time.perf_counter


class Span:
    __slots__ = (
        "name", "start", "end", "busy", "child", "parent", "stmt",
        "thread", "count",
    )

    def __init__(self, name: str, parent: "Optional[Span]", stmt: Optional[int]):
        self.name = name
        self.parent = parent
        self.stmt = stmt
        self.thread = threading.get_ident()
        self.start = self.end = _now()
        self.busy = 0.0
        #: busy time of same-thread children
        self.child = 0.0
        #: layer-specific count (cells in, entries yielded, bytes out)
        self.count = 0

    @property
    def self_time(self) -> float:
        return self.busy - self.child


class Tracer:
    """Span store plus the driver's per-statement bookkeeping."""

    def __init__(self, workload: Any) -> None:
        self.workload = workload
        self.spans: list[Span] = []
        self.statements: dict[int, dict[str, Any]] = {}
        self._local = threading.local()
        self._next_stmt = 0
        self._lock = threading.Lock()
        self.t0 = _now()

    # -- span plumbing ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent: Optional[Span] = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        stmt = parent.stmt if parent is not None else getattr(
            self._local, "stmt", None
        )
        span = Span(name, parent, stmt)
        self.spans.append(span)
        return span

    def enter(self, span: Span) -> float:
        self._stack().append(span)
        return _now()

    def leave(self, span: Span, entered: float) -> None:
        now = _now()
        elapsed = now - entered
        span.busy += elapsed
        span.end = now
        stack = self._stack()
        stack.pop()
        if stack:  # stacks are per thread: the caller on this thread
            stack[-1].child += elapsed

    # -- wrappers --------------------------------------------------------------

    def traced(
        self, fn: Callable, name: "str | Callable[..., str]",
        count: Optional[Callable[..., int]] = None,
    ) -> Callable:
        """Wrap a plain callable.  *name* may be computed from the call's
        arguments; *count* reads a layer count off arguments and result
        (outside the timed interval)."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = self.open(name if isinstance(name, str) else name(*args))
            entered = self.enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(span, entered)
            if count is not None:
                span.count = count(result, *args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def traced_generator(self, fn: Callable, name: str) -> Callable:
        """Wrap a generator function: busy time is time inside
        ``next()``; ``count`` is the number of items yielded."""
        tracer = self

        class Traced:
            def __init__(self, inner: Iterator) -> None:
                self.inner = inner
                self.span: Optional[Span] = None

            def __iter__(self) -> "Traced":
                return self

            def __next__(self) -> Any:
                if self.span is None:
                    self.span = tracer.open(name)
                entered = tracer.enter(self.span)
                try:
                    item = next(self.inner)
                finally:
                    tracer.leave(self.span, entered)
                self.span.count += 1
                return item

        def wrapper(*args: Any, **kwargs: Any) -> Traced:
            return Traced(fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    def traced_map(self, fn: Callable) -> Callable:
        """``PartitionScheduler.map``: a span for the caller's wait, and
        one per task closure so spans cross into the worker threads."""

        def wrapper(scheduler: Any, tasks: Any) -> Any:
            span = self.open("cluster.scheduler.map")

            def crossing(task: Callable) -> Callable:
                def run() -> Any:
                    task_span = self.open("cluster.node.task", parent=span)
                    entered = self.enter(task_span)
                    try:
                        return task()
                    finally:
                        self.leave(task_span, entered)
                return run

            wrapped = [crossing(task) for task in tasks]
            span.count = len(wrapped)
            entered = self.enter(span)
            try:
                return fn(scheduler, wrapped)
            finally:
                self.leave(span, entered)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- the driver's hooks (untimed) --------------------------------------------

    def before(self, op: Op, client: int) -> None:
        with self._lock:
            self._next_stmt += 1
            stmt = self._next_stmt
        self._local.stmt = stmt
        self.statements[stmt] = {
            "cls": op.cls,
            "kind": "read" if op.read else op.cls,
            "client": client,
            "thread": threading.get_ident(),
            "counters": self._counters(),
        }

    def after(self, op: Op, sample: Sample, raw: Any) -> None:
        record = self.statements[self._local.stmt]
        self._local.stmt = None
        before = record["counters"]
        record["counters"] = {
            k: v - before.get(k, 0) for k, v in self._counters().items()
        }
        #: the driver fills in ``sample.scale`` after the closing probe
        record["sample"] = sample
        record["facts"] = op.facts(raw) if raw is not None else {}

    def _counters(self) -> dict[str, float]:
        """Counters the layers already expose, summed over the grid."""
        from repro.obs.recorder import get_flight_recorder

        out: dict[str, float] = {
            "events": get_flight_recorder().events_log.emitted,
        }
        grid = self.workload.grid
        if grid is None or self.workload.clients > 1:
            return out
        for node in grid.nodes:
            if not node.alive:
                continue
            for key, value in node.storage.total_stats().items():
                out[key] = out.get(key, 0) + value
            out["cells_scanned"] = (
                out.get("cells_scanned", 0) + node.counters.cells_scanned
            )
            if node.storage.chunk_cache is not None:
                out["evictions"] = (
                    out.get("evictions", 0) + node.storage.chunk_cache.evictions
                )
            out["wal_bytes"] = out.get("wal_bytes", 0) + node.wal.path.stat().st_size
        # The ledger is reset between rounds, never within a statement.
        out["bytes_moved"] = sum(t.nbytes for t in grid.ledger.transfers)
        return out

    # -- output --------------------------------------------------------------------

    def write(self, path: Path, header: dict[str, Any]) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        spans = [
            {
                "name": s.name,
                "start_ms": round((s.start - self.t0) * 1e3, 4),
                "end_ms": round((s.end - self.t0) * 1e3, 4),
                "busy_ms": round(s.busy * 1e3, 4),
                "self_ms": round(s.self_time * 1e3, 4),
                "parent": index.get(id(s.parent)),
                "stmt": s.stmt,
                "thread": s.thread,
                "count": s.count,
            }
            for s in self.spans
        ]
        statements = {
            str(k): {
                "cls": rec["cls"], "client": rec["client"],
                "wall_ms": rec["sample"].ms, "factor": rec["sample"].scale,
                "counters": rec["counters"], "facts": rec["facts"],
            }
            for k, rec in self.statements.items() if "sample" in rec
        }
        path.write_text(json.dumps(
            {**header, "statements": statements, "spans": spans}
        ))


# --------------------------------------------------------------------------
# installation
# --------------------------------------------------------------------------


def _cells_in(result: Any, *args: Any) -> int:
    """Input cells of a ``core.ops`` call: its array arguments."""
    from repro.core.array import SciArray

    return sum(a.count_occupied() for a in args if isinstance(a, SciArray))


def install(tracer: Tracer) -> None:
    """Replace each layer's public callables with traced ones."""
    from repro.cluster.grid import DistributedArray, Grid
    from repro.cluster.scheduler import PartitionScheduler
    from repro.core.ops import OPERATORS
    from repro.database import SciDB
    from repro.obs.recorder import FlightRecorder
    from repro.query import executor as executor_module
    from repro.query.executor import Executor
    from repro.query.planner import Planner
    from repro.service.admission import AdmissionController
    from repro.service.client import ShimClient
    from repro.service.server import QueryService, ResultPager
    from repro.service.session import SessionManager
    from repro.storage.bucket import Bucket
    from repro.storage.loader import BulkLoader
    from repro.storage.manager import PersistentArray
    from repro.storage.rtree import RTree
    from repro.storage.wal import WriteAheadLog

    def method(cls: type, attr: str, name: Any, count: Any = None) -> None:
        setattr(cls, attr, tracer.traced(getattr(cls, attr), name, count))

    def generator(cls: type, attr: str, name: str) -> None:
        setattr(cls, attr, tracer.traced_generator(getattr(cls, attr), name))

    method(SciDB, "execute", "query.db.execute")
    method(Executor, "run", "query.executor.run")
    executor_module.parse_statement = tracer.traced(
        executor_module.parse_statement, "query.parser.parse"
    )
    method(Planner, "plan", "query.planner.plan")
    for op in ("filter", "sjoin", "aggregate", "regrid", "subsample"):
        OPERATORS[op] = tracer.traced(
            OPERATORS[op], f"core.ops.{op}", count=_cells_in
        )

    for op in ("subsample", "aggregate", "regrid", "sjoin", "materialize",
               "filter", "load_checkpointed"):
        method(DistributedArray, op, f"cluster.grid.{op}")
    method(Grid, "rebuild_node", "cluster.grid.rebuild_node")
    PartitionScheduler.map = tracer.traced_map(PartitionScheduler.map)

    generator(PersistentArray, "scan", "storage.manager.scan")
    method(PersistentArray, "merge_small_buckets", "storage.manager.merge")
    generator(RTree, "search", "storage.rtree.search")
    Bucket.from_bytes = classmethod(tracer.traced(
        Bucket.from_bytes.__func__, "storage.bucket.decode"
    ))
    method(Bucket, "to_bytes", "storage.bucket.encode")
    method(BulkLoader, "load", "storage.loader.load")
    for verb in ("log_write", "log_load_commit"):
        method(WriteAheadLog, verb, "storage.wal.append")
    method(WriteAheadLog, "commit", "storage.wal.commit")

    method(QueryService, "handle",
           lambda service, path, params: f"service.handle{path}")
    for verb in ("open", "get", "release"):
        method(SessionManager, verb, "service.session")
    for verb in ("acquire_query", "release_query", "charge_read"):
        method(AdmissionController, verb, "service.admission")
    method(ResultPager, "read", "service.pager.read",
           count=lambda out, *args: len(out))
    for verb in ("new_session", "execute_query", "read_bytes",
                 "release_session"):
        method(ShimClient, verb, f"service.client.{verb}")

    method(FlightRecorder, "record_profile", "obs.recorder.profile")


# --------------------------------------------------------------------------
# spans -> per-layer metrics
# --------------------------------------------------------------------------


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Fold spans and counter deltas into the per-layer metrics.

    ``*_ms`` are means per read statement (write-path metrics: per
    ingest batch; merge: per merge cycle) in the workload's timing unit —
    each span is divided by the host speed factor of its statement."""
    stmts = {k: v for k, v in tracer.statements.items() if "sample" in v}
    kinds: dict[str, list[int]] = defaultdict(list)
    for stmt, record in stmts.items():
        kinds[record["kind"]].append(stmt)
    reads, batches, merges = kinds["read"], kinds["ingest_batch"], kinds["merge"]

    def factor(stmt: Optional[int]) -> float:
        return stmts[stmt]["sample"].scale if stmt in stmts else 1.0

    busy: dict[tuple[str, str], float] = defaultdict(float)
    self_: dict[tuple[str, str], float] = defaultdict(float)
    calls: dict[tuple[str, str], int] = defaultdict(int)
    counts: dict[tuple[str, str], int] = defaultdict(int)
    own_thread_self: dict[int, float] = defaultdict(float)
    slowest_task: dict[int, float] = defaultdict(float)
    for span in tracer.spans:
        record = stmts.get(span.stmt)
        kind = record["kind"] if record is not None else "none"
        scale = 1e3 / factor(span.stmt)
        key = (span.name, kind)
        busy[key] += span.busy * scale
        self_[key] += span.self_time * scale
        calls[key] += 1
        counts[key] += span.count
        if record is None:
            continue
        if span.name == "cluster.node.task":
            slowest_task[span.stmt] = max(
                slowest_task[span.stmt], span.busy * scale
            )
        if span.thread == record["thread"]:
            own_thread_self[span.stmt] += span.self_time * 1e3

    def per(table: dict, name: str, kind: str, n: int) -> float:
        return table[(name, kind)] / n if n else 0.0

    def prefix(table: dict, start: str, kind: str, n: int,
               skip: tuple[str, ...] = ()) -> float:
        total = sum(
            v for (name, k), v in table.items()
            if k == kind and name.startswith(start) and name not in skip
        )
        return total / n if n else 0.0

    def counter(key: str, over: list[int]) -> float:
        return sum(stmts[s]["counters"].get(key, 0) for s in over)

    def fact(key: str, over: list[int]) -> float:
        return sum(stmts[s]["facts"].get(key, 0) for s in over)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    n_r, n_b, n_m = len(reads), len(batches), len(merges)
    every = reads + batches + merges
    wall = sum(stmts[s]["sample"].ms for s in every)
    m: dict[str, float] = {}

    m["driver.layer_sum_ratio"] = ratio(
        sum(own_thread_self[s] for s in every), wall
    )

    # service (svc_small): client round trips against server-side handling
    roundtrip = prefix(busy, "service.client.", "read", 1)
    requests = sum(
        c for (name, k), c in calls.items()
        if k == "read" and name.startswith("service.client.")
    )
    handled = prefix(busy, "service.handle/", "none", 1,
                     skip=("service.handle/new_session",
                           "service.handle/release_session"))
    m["service.roundtrip_ms"] = ratio(roundtrip, requests)
    m["service.requests_per_stmt"] = ratio(requests, n_r)
    m["service.transport_ms"] = ratio(roundtrip - handled, n_r) if requests else 0.0
    m["service.handle_execute_ms"] = per(busy, "service.handle/execute_query", "none", n_r)
    m["service.handle_read_ms"] = per(busy, "service.handle/read_bytes", "none", n_r)
    m["service.session_ms"] = per(self_, "service.session", "none", n_r)
    m["service.admission_ms"] = per(self_, "service.admission", "none", n_r)
    m["service.pager_read_ms"] = per(self_, "service.pager.read", "none", n_r)
    m["service.pager_us_per_cell"] = ratio(
        self_[("service.pager.read", "none")] * 1e3, fact("result_cells", reads)
    ) if requests else 0.0
    m["service.result_bytes_per_stmt"] = ratio(fact("result_bytes", reads), n_r)

    # query: the engine runs on the statement's thread in-process and on
    # a server thread (no statement id) behind the service
    q = "none" if requests else "read"
    m["query.parser.parse_ms"] = per(busy, "query.parser.parse", q, n_r)
    m["query.planner.plan_ms"] = per(busy, "query.planner.plan", q, n_r)
    m["query.executor.self_ms"] = (
        per(self_, "query.executor.run", q, n_r)
        + per(self_, "query.db.execute", q, n_r)
    )
    result_cells = fact("result_cells", reads)
    m["query.executor.result_cells_per_stmt"] = ratio(result_cells, n_r)
    m["query.executor.cells_examined_per_result_cell"] = ratio(
        fact("cells_examined", reads), result_cells
    )

    for op in ("filter", "sjoin", "aggregate", "regrid", "subsample"):
        key = (f"core.ops.{op}", q)
        m[f"core.ops.{op}_us_per_cell"] = ratio(self_[key] * 1e3, counts[key])

    load = ("cluster.grid.load_checkpointed",)
    m["cluster.grid.op_ms"] = prefix(busy, "cluster.grid.", "read", n_r, skip=load)
    m["cluster.grid.self_ms"] = prefix(self_, "cluster.grid.", "read", n_r, skip=load)
    m["cluster.scheduler.wait_ms"] = per(self_, "cluster.scheduler.map", "read", n_r)
    m["cluster.scheduler.tasks_per_stmt"] = ratio(
        calls[("cluster.node.task", "read")], n_r
    )
    m["cluster.node.scan_sum_ms"] = per(busy, "cluster.node.task", "read", n_r)
    m["cluster.node.scan_max_ms"] = ratio(
        sum(slowest_task[s] for s in reads), n_r
    )
    m["cluster.node.cells_scanned_per_stmt"] = ratio(
        counter("cells_scanned", reads), n_r
    )
    m["cluster.ledger.bytes_moved_per_stmt"] = ratio(
        counter("bytes_moved", reads), n_r
    )
    m["cluster.grid.load_ms"] = per(busy, "cluster.grid.load_checkpointed",
                                    "ingest_batch", n_b)

    m["storage.manager.scan_ms"] = per(busy, "storage.manager.scan", "read", n_r)
    for key in ("buckets_read", "buckets_pruned", "buckets_value_pruned",
                "bytes_read"):
        m[f"storage.manager.{key}_per_stmt"] = ratio(counter(key, reads), n_r)
    hits, misses = counter("cache_hits", reads), counter("cache_misses", reads)
    m["storage.cache.hit_ratio"] = ratio(hits, hits + misses)
    m["storage.cache.evictions"] = counter("evictions", every)
    m["storage.bucket.decode_ms"] = per(busy, "storage.bucket.decode", "read", n_r)
    m["storage.rtree.search_ms"] = per(busy, "storage.rtree.search", "read", n_r)
    m["storage.rtree.entries_per_search"] = ratio(
        counts[("storage.rtree.search", "read")],
        calls[("storage.rtree.search", "read")],
    )

    user_bytes = fact("cells", batches) * 16
    m["storage.loader.load_ms"] = per(busy, "storage.loader.load", "ingest_batch", n_b)
    m["storage.loader.retries"] = fact("retries", batches)
    m["storage.loader.quarantined"] = fact("quarantined", batches)
    m["storage.bucket.encode_ms"] = per(busy, "storage.bucket.encode", "ingest_batch", n_b)
    m["storage.wal.append_ms"] = per(busy, "storage.wal.append", "ingest_batch", n_b)
    m["storage.wal.commit_ms"] = per(busy, "storage.wal.commit", "ingest_batch", n_b)
    m["storage.wal.commits_per_batch"] = ratio(
        calls[("storage.wal.commit", "ingest_batch")], n_b
    )
    m["storage.wal.bytes_per_user_byte"] = ratio(
        counter("wal_bytes", batches), user_bytes
    )
    m["storage.manager.bytes_written_per_user_byte"] = ratio(
        counter("bytes_written", batches + merges), user_bytes
    )
    m["storage.manager.spills_per_batch"] = ratio(counter("spills", batches), n_b)
    m["storage.manager.merge_ms"] = per(busy, "storage.manager.merge", "merge", n_m)

    n_all = len(every)
    m["obs.recorder.events_per_stmt"] = ratio(counter("events", every), n_all)
    m["obs.recorder.profiles_per_stmt"] = ratio(
        sum(c for (name, _), c in calls.items() if name == "obs.recorder.profile"),
        n_all,
    )
    return m
