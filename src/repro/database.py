"""The SciDB facade: one object wiring every requirement together.

The subpackages are deliberately independent (each reproduces one section
of the paper); :class:`SciDB` is the assembled system a user would
actually adopt — a catalog with durable storage, the query executor with
both language bindings, provenance logging on every derivation, updatable
(no-overwrite) arrays with named versions, and in-situ attachment of
external files.

    >>> db = SciDB(directory)
    >>> db.execute("define array Remote (s1 = float) (I, J)")
    >>> db.execute("create M as Remote [64, 64]")
    >>> db.query(array("M").subsample(dim("I") >= 2).node)
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence, Union

from .cluster.faults import FaultInjector
from .cluster.grid import DistributedArray, Grid
from .cluster.resilience import Deadline, ResiliencePolicy, deadline_scope
from .core.array import SciArray
from .core.errors import PlanError, ProvenanceError, SchemaError, VersionError
from .core.schema import ArraySchema
from .history.transactions import UpdatableArray
from .history.versions import Version, VersionTree
from .obs import tracing
from .obs.explain import ExplainReport
from .obs.export import events_jsonl, prometheus_text, status_text
from .obs.health import HealthModel, HealthReport
from .obs.recorder import (
    FlightRecorder,
    QueryProfile,
    RecordedEvent,
    get_flight_recorder,
)
from .provenance.itemstore import ItemLineageStore
from .provenance.log import ProvenanceEngine
from .provenance.trace import Item, trace_backward, trace_forward
from .query.ast import Node
from .query.executor import ExecutionResult, Executor
from .query.planner import PhysicalOp, Planner, PlannerConfig
from .storage.insitu import InSituArray, open_in_situ
from .storage.loader import LoadRecord, LoadReport, load_stream
from .storage.manager import StorageManager
from .storage.quarantine import QuarantineStore
from .storage.wal import WriteAheadLog

__all__ = ["SciDB"]


def _ledger_totals(grids: "Iterable[Grid]") -> dict[str, int]:
    """Combined movement bytes by reason across *grids*."""
    totals: dict[str, int] = {}
    for grid in grids:
        for reason, nbytes in grid.ledger.by_reason().items():
            totals[reason] = totals.get(reason, 0) + nbytes
    return totals


def _grid_status(grids: "Iterable[Grid]") -> dict[str, Any]:
    """Elastic-operations status across *grids*: in-flight and completed
    rebalance migrations plus node rebuilds.  Empty when nothing ever
    moved — idle explains stay clean."""
    active: list[dict] = []
    completed: list[dict] = []
    rebuilds: list[dict] = []
    for grid in grids:
        snap = grid.rebalance_snapshot()
        active.extend(snap["active"])
        completed.extend(snap["completed"])
        rebuilds.extend(asdict(r) for r in grid.rebuilds)
    if not (active or completed or rebuilds):
        return {}
    return {
        "rebalance": {
            "active": active,
            "completed": completed,
            "cells_moved": sum(r["cells_moved"] for r in completed)
            + sum(p["cells_moved"] for p in active),
            "cells_remaining": sum(p["cells_remaining"] for p in active),
            "throttle_hits": sum(r["throttle_hits"] for r in completed)
            + sum(p["throttle_hits"] for p in active),
            "aborted": sum(1 for r in completed if r["aborted"]),
        },
        "rebuilds": rebuilds,
    }


class SciDB:
    """An assembled single-node SciDB instance.

    Parameters
    ----------
    directory:
        Root for durable state (bucket files, the write-ahead log).
        ``None`` runs fully in memory (no persistence, no WAL).
    record_item_lineage:
        Also record Trio-style item-level lineage for every derivation
        (fast traces, large space — Section 2.12's trade-off).
    enable_pushdown:
        Planner optimization switch (Section 2.2.1).
    slow_query_ms:
        Statements at or above this wall time land in
        :meth:`slow_queries`.  Passing a value gives this database its
        own threshold, which its statements carry into the process
        flight recorder; otherwise it is the recorder's (default 100 ms).
    """

    def __init__(
        self,
        directory: "str | Path | None" = None,
        record_item_lineage: bool = False,
        enable_pushdown: bool = True,
        slow_query_ms: Optional[float] = None,
    ) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.itemstore = ItemLineageStore() if record_item_lineage else None
        self.provenance = ProvenanceEngine(itemstore=self.itemstore)
        self.executor = Executor(
            planner=Planner(PlannerConfig(enable_pushdown=enable_pushdown)),
            provenance=self.provenance,
        )
        self.executor.slow_ms = slow_query_ms
        self.storage: Optional[StorageManager] = None
        self.wal: Optional[WriteAheadLog] = None
        if self.directory is not None:
            self.storage = StorageManager(self.directory / "arrays")
            self.wal = WriteAheadLog(self.directory / "wal.log")
        self._updatable: dict[str, UpdatableArray] = {}
        self._version_trees: dict[str, VersionTree] = {}
        self._grids: dict[str, Grid] = {}
        self._quarantines: dict[str, QuarantineStore] = {}
        self._health = HealthModel()

    # -- statements (both bindings) ---------------------------------------------

    def execute(
        self,
        statement: "str | Node",
        timeout_ms: Optional[float] = None,
        planner: Optional[PlannerConfig] = None,
    ) -> ExecutionResult:
        """Run one statement: textual AQL or a parse tree (Section 2.4).

        *timeout_ms* installs a :class:`~repro.cluster.resilience.Deadline`
        for the statement: the executor checks it cooperatively at every
        operator boundary and the grid read path checks it per replica
        attempt and mid-scan, raising
        :class:`~repro.core.errors.DeadlineExceededError` on expiry.

        *planner* overrides the optimizer's switches for this statement
        only — e.g. ``PlannerConfig(enable_pruning=False)`` forces full
        scans (the pruning-equivalence test battery's control arm), and
        ``PlannerConfig(enable_pushdown=False)`` evaluates the tree
        exactly as written.
        """
        with deadline_scope(
            Deadline.after_ms(timeout_ms) if timeout_ms is not None else None
        ):
            return self.executor.run(statement, config=planner)

    def query(
        self,
        statement: "str | Node",
        timeout_ms: Optional[float] = None,
        planner: Optional[PlannerConfig] = None,
    ) -> SciArray:
        """Like :meth:`execute`, returning the result array directly."""
        return self.execute(
            statement, timeout_ms=timeout_ms, planner=planner
        ).array

    def execute_script(
        self,
        text: str,
        timeout_ms: Optional[float] = None,
        planner: Optional[PlannerConfig] = None,
    ) -> list[ExecutionResult]:
        """Run a multi-statement script; one deadline covers the whole
        script, and *planner* overrides apply to every statement — the
        same contract as :meth:`execute` (previously both were silently
        dropped here)."""
        with deadline_scope(
            Deadline.after_ms(timeout_ms) if timeout_ms is not None else None
        ):
            return self.executor.run_script(text, config=planner)

    # -- observability (EXPLAIN ANALYZE, metrics, slow queries) -------------------

    def explain(
        self,
        statement: "str | Node",
        timeout_ms: Optional[float] = None,
        planner: Optional[PlannerConfig] = None,
    ) -> ExplainReport:
        """Execute *statement* under tracing and return the plan tree
        annotated with actual measurements — the record the executor
        filled while it ran, plus the ledger delta and the grid's status.

        Every operator node carries its wall time, cells scanned, chunks
        touched, nodes visited and bytes moved — plus resilience counters
        (failovers, breaker skips, hedges, deadline misses) when the grid
        read path took evasive action; the report also records the
        movement-ledger delta the query caused, which the per-operator
        ``bytes_moved`` figures reconcile with.  *timeout_ms* behaves as
        in :meth:`execute`.
        """
        if not isinstance(statement, (str, Node)):
            raise PlanError(
                "explain needs a statement string or parse tree, got "
                f"{type(statement).__name__}"
            )
        text = (
            statement
            if isinstance(statement, str)
            else f"<{type(statement).__name__}>"
        )
        grids = self._observed_grids()
        before = _ledger_totals(grids)
        # EXPLAIN traces whether or not the recorder is on; the executor
        # nests under this span, and the plan it ran — every operator
        # measured as its span closed — comes back on the result.
        with get_flight_recorder().statement(
            text, name="explain", force=True, slow_ms=self.executor.slow_ms
        ), deadline_scope(
            Deadline.after_ms(timeout_ms) if timeout_ms is not None else None
        ):
            span = tracing.current_span()
            result = self.executor.run(statement, config=planner)
        after = _ledger_totals(grids)
        root = result.planned.physical
        for leaf in root.walk() if root is not None else ():
            if leaf.op == "scan":
                self._describe_scan(leaf)
        return ExplainReport(
            statement=text,
            rewrites=list(result.rewrites),
            root=root,
            total_ms=span.duration_ms,
            ledger_delta={
                reason: after[reason] - before.get(reason, 0)
                for reason in after
                if after[reason] - before.get(reason, 0)
            },
            cells_examined=result.cells_examined,
            grid_status=_grid_status(grids),
        )

    def metrics_snapshot(self) -> dict[str, Any]:
        """The unified operational view, *pulled* from the components
        that own each count — nothing is pushed to a registry.

        ``counters``: statements (the recorder's statement ring), bucket
        and byte I/O (every :class:`StorageManager`'s ``total_stats``),
        chunk-cache hits/misses/evictions (each :class:`ChunkCache`),
        WAL appends/commits (each :class:`WriteAheadLog`), committed
        load batches and scheduler batches/tasks, summed over this
        database's own store and every grid node, and the derivation
        log's length; ``gauges`` the catalog's size.  ``histograms`` holds
        the statement latency summary; ``grids`` each grid's ledger and
        per-node accounting; ``flight_recorder`` the event totals by
        kind (every discrete occurrence: kills, rejections, tears …).
        """
        recorder = get_flight_recorder()
        latency = recorder.profile_store.latency()
        stores = [self.storage] if self.storage is not None else []
        wals = [self.wal] if self.wal is not None else []
        counters = Counter({
            "query.statements": latency["count"],
            "provenance.commands": len(self.provenance.log),
        })
        for grid in self._grids.values():
            stores.extend(node.storage for node in grid.nodes)
            wals.extend(n.wal for n in grid.nodes)
            counters["scheduler.batches"] += grid.scheduler.batches
            counters["scheduler.tasks"] += grid.scheduler.tasks
        for store in stores:
            stats = store.total_stats()
            for key in (
                "buckets_written", "bytes_written", "buckets_read",
                "bytes_read", "buckets_value_pruned",
            ):
                counters[f"storage.{key}"] += stats.get(key, 0)
            counters["ingest.batch_commits"] += stats.get("load_batches", 0)
            cache = store.chunk_cache
            if cache is not None:
                counters["cache.hit"] += cache.hits
                counters["cache.miss"] += cache.misses
                counters["cache.evict"] += cache.evictions
        for wal in wals:
            counters["wal.appends"] += wal.records_appended
            counters["wal.commits"] += wal.commits
        return {
            "counters": dict(counters),
            "gauges": {"catalog.arrays": len(self.executor.arrays)},
            "histograms": {"query.latency_ms": latency},
            "grids": {
                name: grid.metrics_snapshot()
                for name, grid in self._grids.items()
            },
            "flight_recorder": recorder.summary(),
        }

    def slow_queries(self) -> list[QueryProfile]:
        """Retained statements at or over :attr:`slow_query_ms`, oldest
        first (kept past the main profile ring's eviction)."""
        return get_flight_recorder().slow_queries(self.slow_query_ms)

    @property
    def slow_query_ms(self) -> float:
        """This database's slow threshold: its own, else the recorder's."""
        own = self.executor.slow_ms
        return get_flight_recorder().slow_query_ms if own is None else own

    # -- the flight recorder (continuous telemetry) -------------------------------

    @property
    def flight_recorder(self) -> FlightRecorder:
        """The process-wide flight recorder this database reports from."""
        return get_flight_recorder()

    def events(
        self,
        kind: Optional[str] = None,
        node: Optional[int] = None,
        since_seq: int = 0,
    ) -> list[RecordedEvent]:
        """Retained operational events, oldest first (optionally filtered)."""
        return get_flight_recorder().events(
            kind=kind, node=node, since_seq=since_seq
        )

    def profiles(self, n: Optional[int] = None) -> list[QueryProfile]:
        """The last *n* completed query profiles, oldest first."""
        return get_flight_recorder().profiles(n)

    def profile(self, query_id: str) -> Optional[QueryProfile]:
        """Replay one retained query's profile by its ``q-NNNNNN`` id."""
        return get_flight_recorder().profile(query_id)

    def sample(self) -> int:
        """Take one gauge-sampling pass over every watched grid now;
        returns the number of series updated.  Grids this database
        created are watched automatically; sampling never runs unless
        asked."""
        recorder = get_flight_recorder()
        self._watch_grids(recorder)
        return recorder.sample()

    def health(self) -> HealthReport:
        """Per-node and cluster status rolled up from live grid state
        and the flight recorder's event history."""
        return self._health.assess(
            dict(self._grids), recorder=get_flight_recorder()
        )

    def status(self) -> str:
        """The one-screen operational report (health, load, recent
        events, recent query profiles) — print it."""
        return status_text(
            self.health(),
            recorder=get_flight_recorder(),
            snapshot=self.metrics_snapshot(),
        )

    def prometheus(self) -> str:
        """The unified metrics snapshot in Prometheus text exposition."""
        return prometheus_text(self.metrics_snapshot())

    def events_jsonl(self) -> str:
        """The retained event ring as JSON Lines (one event per line)."""
        return events_jsonl(self.events())

    def _watch_grids(self, recorder: FlightRecorder) -> None:
        for name, grid in self._grids.items():
            recorder.watch_grid(name, grid)

    def _observed_grids(self) -> list[Grid]:
        """Named grids plus any grid reachable through a registered
        distributed array (deduplicated by identity)."""
        seen: dict[int, Grid] = {id(g): g for g in self._grids.values()}
        for arr in self.executor.arrays.values():
            if isinstance(arr, DistributedArray):
                seen.setdefault(id(arr.grid), arr.grid)
        return list(seen.values())

    def _describe_scan(self, leaf: PhysicalOp) -> None:
        """Catalog annotations for a scan leaf of an explain report."""
        arr = self.executor.arrays.get(leaf.scan.array)
        if isinstance(arr, DistributedArray):
            # Logical cell count: the union of live partitions' stored
            # addresses (in-memory snapshots, no reads metered), so
            # replicas are not double-counted the way cell_count() —
            # deliberately a *balance* metric — counts them.
            seen: set = set()
            for node in arr.grid.nodes:
                if node.alive:
                    seen.update(node.partition(arr.name).live_coords())
            leaf.cells_out = len(seen)
            leaf.nodes_visited = len(arr.grid.nodes)
            leaf.distributed = True
        elif isinstance(arr, SciArray):
            leaf.cells_out = arr.count_occupied()

    # -- catalog ---------------------------------------------------------------------

    def register(self, name: str, array: SciArray) -> SciArray:
        return self.executor.register(name, array)

    def lookup(self, name: str) -> SciArray:
        return self.executor.lookup(name)

    def arrays(self) -> list[str]:
        return sorted(self.executor.arrays)

    # -- updatable arrays and versions (Sections 2.5, 2.11) ----------------------------

    def create_updatable(
        self,
        schema: ArraySchema,
        bounds: Optional[Sequence[Union[int, str]]] = None,
        name: Optional[str] = None,
    ) -> UpdatableArray:
        """Create a no-overwrite, time-travelled array and register it."""
        arr = UpdatableArray(schema, bounds=list(bounds) if bounds else None,
                             name=name)
        if arr.name in self._updatable:
            raise SchemaError(f"updatable array {arr.name!r} already exists")
        self._updatable[arr.name] = arr
        if self.wal is not None:
            self.wal.log_create(arr)
            self.wal.commit()
            arr.on_commit = self._log_commit
        return arr

    def recover(self) -> list[str]:
        """Replay the write-ahead log after a crash (Section 2.9's service
        contrast: loaded data gets recovery; in-situ data does not).

        Reconstructs every WAL-logged updatable array — full history,
        deletion flags and commit times — re-arms their durability hooks,
        and returns the recovered names.  Versions are not logged and do
        not survive.
        """
        if self.wal is None:
            raise SchemaError("this SciDB instance has no storage directory")
        recovered = self.wal.recover_updatable()
        for name, arr in recovered.items():
            self._updatable[name] = arr
            arr.on_commit = self._log_commit
        return sorted(recovered)

    def _log_commit(self, array, history, writes, when) -> None:
        """Every updatable array's durability hook (one WAL record)."""
        self.wal.log_commit(array.name, history, writes, when)
        self.wal.commit()

    def updatable(self, name: str) -> UpdatableArray:
        try:
            return self._updatable[name]
        except KeyError:
            raise SchemaError(f"no updatable array named {name!r}") from None

    def create_version(
        self, base_name: str, version_name: str,
        parent: Optional[str] = None,
    ) -> Version:
        """Create a named version off an updatable array (Section 2.11)."""
        tree = self._version_trees.get(base_name)
        if tree is None:
            tree = VersionTree(self.updatable(base_name))
            self._version_trees[base_name] = tree
        return tree.create(version_name, parent=parent)

    def version(self, base_name: str, version_name: str) -> Version:
        tree = self._version_trees.get(base_name)
        if tree is None:
            raise VersionError(f"array {base_name!r} has no versions")
        return tree.get(version_name)

    # -- durable storage (Section 2.8) ---------------------------------------------------

    def persist(self, name: str, stride: Optional[Sequence[int]] = None,
                codec: str = "auto") -> int:
        """Spill a catalog array to bucketed disk storage; returns cells
        written."""
        if self.storage is None:
            raise SchemaError("this SciDB instance has no storage directory")
        array = self.lookup(name)
        pa = self.storage.create_array(
            name, array.schema, stride=stride, codec=codec
        )
        n = 0
        for coords, cell in array.cells():
            pa.append(coords, None if cell is None else cell.values)
            n += 1
        pa.flush()
        return n

    def ingest(
        self,
        name: str,
        stream: "Iterable[LoadRecord] | InSituArray",
        schema: Optional[ArraySchema] = None,
        batch_size: int = 64,
        tolerant: bool = True,
        quarantine: Optional[QuarantineStore] = None,
        load_epoch: int = 0,
        max_retries: int = 3,
    ) -> LoadReport:
        """Crash-safe bulk load into a persisted, catalogued array.

        *stream* is an iterable of
        :class:`~repro.storage.loader.LoadRecord` or an attached
        :class:`~repro.storage.insitu.InSituArray` (whose offset-tagged
        record stream and schema are used directly).  Batches of
        *batch_size* records commit atomically to durable storage; calling
        :meth:`ingest` again with the same *name*, stream, and
        *load_epoch* after a crash resumes from the last committed batch
        instead of reloading from record zero.  In the default tolerant
        mode malformed records are quarantined — inspect them afterwards
        via :meth:`quarantined`.

        The loaded array is (re)registered in the query catalog, and the
        :class:`~repro.storage.loader.LoadReport` is returned.
        """
        if self.storage is None:
            raise SchemaError("this SciDB instance has no storage directory")
        if isinstance(stream, InSituArray):
            schema = schema or stream.schema
            stream = stream.records()
        if schema is None:
            target = self.storage.get_array(name)
        else:
            target = self.storage.ensure_array(name, schema)
        report = load_stream(
            target, stream, batch_size, load_epoch, tolerant, quarantine,
            max_retries,
        )
        self.register(name, target.to_sciarray(name))
        if report.quarantine is not None:
            self._quarantines[name] = report.quarantine
        return report

    def quarantined(self, name: str) -> Optional[QuarantineStore]:
        """Quarantined records from the last :meth:`ingest` of *name*
        (``None`` if it has never been tolerantly ingested)."""
        return self._quarantines.get(name)

    def restore(self, name: str) -> SciArray:
        """Materialise a persisted array back into the catalog."""
        if self.storage is None:
            raise SchemaError("this SciDB instance has no storage directory")
        return self.register(name, self.storage.get_array(name).to_sciarray(name))

    # -- the shared-nothing grid (Section 2.7) ---------------------------------------------

    def create_grid(
        self,
        name: str = "grid",
        n_nodes: int = 4,
        replication: int = 1,
        fault_injector: Optional[FaultInjector] = None,
        memory_budget: int = 1 << 20,
        parallelism: Optional[int] = None,
        chunk_cache_bytes: int = 8 << 20,
        resilience: Optional[ResiliencePolicy] = None,
    ) -> Grid:
        """Create a named shared-nothing grid rooted under this database.

        ``replication`` sets the grid's default replica factor — with
        k > 1 every loaded cell lands on k sites and queries survive
        (k - 1)-site failures per replica chain; see
        :mod:`repro.cluster.replication`.  A seeded
        :class:`~repro.cluster.faults.FaultInjector` can be attached for
        deterministic, thread-safe failure drills.

        ``parallelism`` (default ``min(8, n_nodes)``) is the width of a
        fan-out whose partition reads can wait (a slow read or a hedge);
        other statements run their partitions on their own thread.  ``chunk_cache_bytes`` sizes each node's
        decompressed-chunk LRU cache (0 disables it).  ``resilience``
        overrides the grid's retry/breaker/hedge bundle
        (:class:`~repro.cluster.resilience.ResiliencePolicy`); its
        ``hedge=HedgePolicy(delay_ms=...)`` enables hedged backup reads
        against the next replica after that many milliseconds without an
        answer.
        """
        if self.directory is None:
            raise SchemaError("this SciDB instance has no storage directory")
        if name in self._grids:
            raise SchemaError(f"grid {name!r} already exists")
        grid = Grid(
            n_nodes,
            self.directory / "grids" / name,
            memory_budget=memory_budget,
            fault_injector=fault_injector,
            default_replication=replication,
            parallelism=parallelism,
            chunk_cache_bytes=chunk_cache_bytes,
            resilience=resilience,
        )
        self._grids[name] = grid
        get_flight_recorder().watch_grid(name, grid)
        return grid

    def grid(self, name: str = "grid") -> Grid:
        try:
            return self._grids[name]
        except KeyError:
            raise SchemaError(f"no grid named {name!r}") from None

    def grids(self) -> list[str]:
        return sorted(self._grids)

    # -- in-situ data (Section 2.9) --------------------------------------------------------

    def attach(self, path: "str | Path", name: Optional[str] = None,
               **options: Any) -> InSituArray:
        """Attach an external file through its adaptor — no load stage.

        The adaptor is *not* entered in the query catalog (it lacks the
        DBMS services the catalog implies); call ``.load()`` on it and
        :meth:`register` the result to promote it.
        """
        adaptor = open_in_situ(path, **options)
        if name:
            adaptor.name = name
        return adaptor

    # -- provenance (Section 2.12) ------------------------------------------------------------

    def derivation_log(self) -> str:
        return self.provenance.log.describe()

    def trace_backward(self, array: str, coords: tuple) -> list:
        return trace_backward(self.provenance, self._trace_item(array, coords))

    def trace_forward(self, array: str, coords: tuple) -> set[Item]:
        return trace_forward(self.provenance, self._trace_item(array, coords))

    def _trace_item(self, array: Any, coords: Any) -> tuple[str, tuple]:
        """Validate a lineage query's target; typed errors on junk."""
        if not isinstance(array, str):
            raise ProvenanceError(
                f"array name must be a string, got {type(array).__name__}"
            )
        if (
            array not in self.executor.arrays
            and self.provenance.log.command_producing(array) is None
        ):
            raise ProvenanceError(
                f"no array named {array!r} in the catalog"
            )
        if isinstance(coords, (str, bytes)) or not hasattr(coords, "__iter__"):
            raise ProvenanceError(
                "coordinates must be an iterable of integers, got "
                f"{type(coords).__name__}"
            )
        try:
            cell = tuple(int(v) for v in coords)
        except (TypeError, ValueError):
            raise ProvenanceError(
                f"malformed coordinates {coords!r}: expected integers"
            ) from None
        return array, cell

    def __repr__(self) -> str:
        where = self.directory or "memory"
        return (
            f"<SciDB at {where}: {len(self.executor.arrays)} arrays, "
            f"{len(self.provenance.log)} logged commands>"
        )
