"""The five workloads: what each builds, issues per round, and checks.

Every workload issues the same six read statement classes (window,
filter, aggregate, scan, regrid, sjoin — the SS-DB query families) so one
metric name means one thing everywhere; what differs is the deployment
the statements run against, and therefore the layer that does the work:

==============  ==========================================================
embedded_ops    in-memory arrays, ``SciDB()`` — core.ops + query only
grid_hot        4-node k=2 disk grid, default 8 MiB chunk cache (fits)
grid_cold       same grid, 16 KiB chunk cache (< half of one array/node)
svc_small       16x16 arrays behind ``QueryService``, two HTTP clients
ingest_mixed    same grid; each round ingests 256 cells, reads them back
==============  ==========================================================

A workload is driven through four calls: :meth:`Workload.build` (the
set-up the driver times), :meth:`Workload.run_round`, an untimed
:meth:`Workload.after_round`, and :meth:`Workload.close`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import datagen
import oracle
from datagen import (
    EPOCHS,
    OBS_BASE_ROWS,
    OBS_BATCH_ROWS,
    OBS_COLS,
    READ_CLASSES,
    REGRID,
    SIDE,
    STRIDE,
    SVC_SIDE,
    Planes,
    rng_for,
)

from repro import SciDB, define_array
from repro.cluster import HashPartitioner
from repro.core.array import SciArray
from repro.service import QueryService, ServiceConfig
from repro.service.client import ShimClient, Throttled
from repro.storage.loader import LoadRecord

N_NODES = 4
REPLICATION = 2
#: grid_cold's per-node chunk cache; one node's decoded ``sky`` is ~39 KB
COLD_CACHE_BYTES = 16384
HOT_CACHE_BYTES = 8 << 20
#: ingest_mixed merges small buckets on every node each this many rounds
MERGE_EVERY = 2
#: svc_small drains ``scan`` in pages of this size (3 pages per result)
SCAN_PAGE_BYTES = 1500
PERF_DIR = Path(__file__).resolve().parent


# --------------------------------------------------------------------------
# operations and samples
# --------------------------------------------------------------------------


@dataclass
class Op:
    """One operation of a round: a timed call and its untimed check."""

    cls: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    #: counts toward ``stmt_per_s`` (ingest batches and merges do not)
    read: bool = True
    #: what the traced run wants to know about the raw result
    facts: Callable[[Any], dict] = field(default=lambda raw: {})


@dataclass
class Sample:
    cls: str
    ms: float
    ok: bool
    read: bool
    client: int = 0
    #: host speed factor the sample is divided by (1: reported raw)
    scale: float = 1.0


def run_op(op: Op, client: int = 0, observer: Any = None) -> Sample:
    """Time one operation; an exception or an oracle mismatch is a
    failed operation, not a crash.  *observer* is the traced run's
    ``Tracer``: its ``before(op, client)`` and ``after(op, sample, raw)``
    hooks run outside the timed interval."""
    if observer is not None:
        observer.before(op, client)
    raw, failed = None, False
    t0 = time.perf_counter()
    try:
        raw = op.run()
    except Exception as exc:  # noqa: BLE001 — counted and reported
        failed = True
        print(f"[perf] {op.cls} raised {type(exc).__name__}: {exc}",
              file=sys.stderr)
    ms = (time.perf_counter() - t0) * 1e3
    ok = False
    if not failed:
        try:
            ok = bool(op.check(raw))
        except Exception as exc:  # noqa: BLE001 — a broken result is a failure
            print(f"[perf] {op.cls} check raised {type(exc).__name__}: {exc}",
                  file=sys.stderr)
        if not ok:
            print(f"[perf] {op.cls}: result differs from the oracle",
                  file=sys.stderr)
    sample = Sample(op.cls, ms, ok, op.read, client)
    if observer is not None:
        observer.after(op, sample, None if failed else raw)
    return sample


# --------------------------------------------------------------------------
# observed answers
# --------------------------------------------------------------------------


def observe_array(array: SciArray) -> oracle.Answer:
    values = {
        a: np.asarray(array.to_numpy(a, fill=np.nan), dtype=float)
        for a in array.attr_names
    }
    return oracle.Answer(values, array.count_present(), array.count_occupied())


def observe_csv(text: str, shape: tuple[int, ...]) -> oracle.Answer:
    """Parse a drained CSV+ body (``{x,y} a,b`` header, then one
    ``{i,j} v,w`` line per PRESENT cell) back into dense planes."""
    lines = text.splitlines()
    attrs = lines[0].split(" ", 1)[1].split(",")
    values = {a: np.full(shape, np.nan) for a in attrs}
    for line in lines[1:]:
        pos, vals = line.split(" ", 1)
        index = tuple(int(c) - 1 for c in pos[1:-1].split(","))
        for a, v in zip(attrs, vals.split(",")):
            values[a][index] = float(v)
    return oracle.Answer(values, len(lines) - 1, None)


def expected_answers(
    planes: Planes,
    st: datagen.Statements,
    join: tuple[Planes, Planes],
) -> dict[str, oracle.Answer]:
    ndim = planes["flux"].ndim
    factors = (REGRID, REGRID) + (1,) * (ndim - 2)
    return {
        "window": oracle.window(planes, st.window),
        "filter": oracle.filter_gt(planes, "flux", st.threshold),
        "aggregate": oracle.aggregate_sum(planes, "flux"),
        "scan": oracle.filter_gt(planes, "flux", 0.5),
        "regrid": oracle.regrid_avg(planes, "flux", factors),
        "sjoin": oracle.sjoin(*join),
    }


def statement_op(db: SciDB, cls: str, text: str, want: oracle.Answer) -> Op:
    return Op(
        cls,
        run=lambda: db.execute(text),
        check=lambda res: oracle.matches(want, observe_array(res.array)),
        facts=lambda res: {
            "result_cells": res.array.count_present(),
            "cells_examined": res.cells_examined,
        },
    )


def records(planes: Planes, x0: int = 0):
    """2-D planes as a load stream; row 0 lands at x = *x0* + 1."""
    flux, err = planes["flux"], planes["err"]
    for x in range(flux.shape[0]):
        for y in range(flux.shape[1]):
            yield LoadRecord(
                (x0 + x + 1, y + 1), (float(flux[x, y]), float(err[x, y]))
            )


SKY = define_array("Sky", {"flux": "float", "err": "float"}, ["x", "y"])


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


class Workload:
    """Base: one driver thread issuing every operation of a round, in
    the same order every round."""

    #: divide samples by the host speed factor (in-process CPU work)
    normalise = True
    clients = 1

    def __init__(self, seed: int, scratch: Path, traced: bool = False) -> None:
        self.seed = seed
        self.scratch = scratch
        self.traced = traced
        self.grid = None

    def build(self) -> None:
        raise NotImplementedError

    def round_ops(self) -> list[Op]:
        raise NotImplementedError

    def run_round(
        self, observer: Any = None,
        probe: Optional[Callable[[], float]] = None,
    ) -> list[Sample]:
        """Every operation of the round once.  With *probe* (the host
        speed probe) each sample's factor is the mean of the probes
        taken just before and just after it."""
        samples = []
        before = probe() if probe else 1.0
        for op in self.round_ops():
            sample = run_op(op, 0, observer)
            after = probe() if probe else 1.0
            sample.scale = (before + after) / 2.0
            before = after
            samples.append(sample)
        return samples

    def after_round(self) -> None:
        """Untimed housekeeping between rounds."""
        if self.grid is not None:
            # The movement ledger is append-only (one Transfer per cell
            # gathered); left alone its size tracks how many rounds the
            # host managed, not what a round costs.
            self.grid.ledger.reset()

    def finish(self, observer: Any = None) -> list[Sample]:
        """Operations attempted once, after the last round."""
        return []

    def extras(self) -> dict[str, float]:
        """Per-layer figures read off the workload's own state at the
        end of a traced run."""
        if self.grid is None:
            return {}
        nodes = [n for n in self.grid.nodes if n.alive]
        return {
            "cluster.grid.failovers": float(len(self.grid.failover_log)),
            "cluster.grid.read_retries": float(
                sum(n.counters.read_retries for n in nodes)
            ),
            "cluster.grid.hedges": float(
                self.grid.resilience_snapshot()["hedges"]
            ),
            "storage.cache.bytes": float(sum(
                n.storage.chunk_cache.bytes_cached for n in nodes
            )),
            "driver.stored_bytes_per_user_byte":
                stored_bytes(self.scratch) / self.user_bytes(),
        }

    def user_bytes(self) -> int:
        """Cells x 8 B x attributes the workload has stored."""
        raise NotImplementedError

    def child_rss_mb(self) -> float:
        return 0.0

    def close(self) -> None:
        pass


class EmbeddedOps(Workload):
    """In-memory arrays through ``db.execute``: ``core.ops`` and
    ``query`` do all the work; storage, cluster and service do none."""

    def build(self) -> None:
        cube = datagen.planes(rng_for(self.seed, 1), (SIDE, SIDE, EPOCHS))
        epoch = [{a: p[:, :, t] for a, p in cube.items()} for t in (0, 1)]
        st = datagen.read_statements(
            rng_for(self.seed, 2), "R", cube["flux"], join=("E1", "E2"), ndim=3
        )
        db = SciDB()
        cube_schema = define_array(
            "Cube", {"flux": "float", "err": "float"}, ["x", "y", "t"]
        )
        db.register("R", SciArray.from_numpy(cube_schema, cube, name="R"))
        for name, planes in zip(("E1", "E2"), epoch):
            db.register(name, SciArray.from_numpy(SKY, planes, name=name))
        want = expected_answers(cube, st, (epoch[0], epoch[1]))
        self._ops = [
            statement_op(db, cls, st.text[cls], want[cls]) for cls in READ_CLASSES
        ]

    def round_ops(self) -> list[Op]:
        return self._ops


class GridReads(Workload):
    """``sky`` and co-partitioned ``ref`` on a 4-node k=2 disk grid at
    default parallelism.  With the default chunk cache (grid_hot) every
    bucket is decoded once and fan-out, merge and gather dominate; with a
    cache smaller than half of one array's working set (grid_cold) every
    bucket touched is read, located and decoded again."""

    def __init__(self, cache_bytes: int, *args: Any) -> None:
        super().__init__(*args)
        self.cache_bytes = cache_bytes

    def build(self) -> None:
        sky = datagen.planes(rng_for(self.seed, 1), (SIDE, SIDE))
        ref = datagen.planes(rng_for(self.seed, 3), (SIDE, SIDE))
        st = datagen.read_statements(
            rng_for(self.seed, 2), "sky", sky["flux"], join=("sky", "ref")
        )
        self.db, self.grid = make_grid(self.scratch, self.cache_bytes)
        schema = SKY.bind([SIDE, SIDE])
        for name, planes in (("sky", sky), ("ref", ref)):
            arr = self.grid.create_array(
                name, schema, HashPartitioner(N_NODES), stride=(STRIDE, STRIDE)
            )
            arr.load(records(planes))
            self.db.register(name, arr)
        want = expected_answers(sky, st, (sky, ref))
        self._ops = [
            statement_op(self.db, cls, st.text[cls], want[cls])
            for cls in READ_CLASSES
        ]

    def round_ops(self) -> list[Op]:
        return self._ops

    def user_bytes(self) -> int:
        return 2 * SIDE * SIDE * 2 * 8  # sky + ref, two float attributes


def make_grid(scratch: Path, cache_bytes: int):
    db = SciDB(scratch / "db")
    grid = db.create_grid(
        "g", n_nodes=N_NODES, replication=REPLICATION,
        chunk_cache_bytes=cache_bytes,
    )
    return db, grid


def stored_bytes(root: Path) -> int:
    """Bytes on disk under a workload's directory: buckets, WALs and
    cursors of every replica."""
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class IngestMixed(Workload):
    """Writes beside reads on the grid.  Each round: one 256-cell
    ``load_checkpointed`` (default batch size, so a WAL commit and a spill
    per 64 records), a ``window`` over the slab just acknowledged
    (read-your-writes), then the other five classes over the fixed base
    rows; every MERGE_EVERY-th round ends with ``merge_small_buckets`` on
    every node.  After the last round one node is crashed and rebuilt from
    its flushed WAL and every acknowledged cell is read back."""

    PROBE_NODE = 1

    def build(self) -> None:
        base_shape = (OBS_BASE_ROWS, OBS_COLS)
        base = datagen.planes(rng_for(self.seed, 1), base_shape)
        ref = datagen.planes(rng_for(self.seed, 3), base_shape)
        st = datagen.read_statements(
            rng_for(self.seed, 2), "obs", base["flux"], join=("obs", "ref"),
            within=f"x <= {OBS_BASE_ROWS}",
        )
        self.db, self.grid = make_grid(self.scratch, HOT_CACHE_BYTES)
        part = HashPartitioner(N_NODES)
        stride = (STRIDE, STRIDE)
        self.obs = self.grid.create_array(
            "obs", SKY.bind([4096, OBS_COLS]), part, stride=stride
        )
        ref_arr = self.grid.create_array(
            "ref", SKY.bind(list(base_shape)), part, stride=stride
        )
        self.obs.load(records(base))
        ref_arr.load(records(ref))
        self.db.register("obs", self.obs)
        self.db.register("ref", ref_arr)
        want = expected_answers(base, st, (base, ref))
        self._base_ops = [
            statement_op(self.db, cls, st.text[cls], want[cls])
            for cls in READ_CLASSES if cls != "window"
        ]
        #: the driver's model of every acknowledged row of ``obs``
        self.model: Planes = {a: p.copy() for a, p in base.items()}
        self.round_no = 0
        self.merges = 0
        self.wal_acked: dict[int, int] = {}
        self.stored_ratio = 0.0
        self.rebuild_ms = 0.0
        self._note_ack()

    def round_ops(self) -> list[Op]:
        self.round_no += 1
        x0 = self.model["flux"].shape[0]
        rng = rng_for(self.seed, 4, self.round_no)
        batch = {
            "flux": datagen.clustered(rng, (OBS_BATCH_ROWS, OBS_COLS), x0),
            "err": datagen.noise(rng, (OBS_BATCH_ROWS, OBS_COLS)),
        }
        n_cells = OBS_BATCH_ROWS * OBS_COLS
        epoch = self.round_no

        def ingest():
            return self.obs.load_checkpointed(
                records(batch, x0), load_epoch=epoch
            )

        def acknowledged(report) -> bool:
            ok = (
                report.records_loaded == n_cells
                and report.records_quarantined == 0
            )
            if ok:
                for a in self.model:
                    self.model[a] = np.vstack([self.model[a], batch[a]])
                self._note_ack()
            return ok

        lo, hi = x0 + 1, x0 + OBS_BATCH_ROWS
        slab = statement_op(
            self.db, "window",
            f"select subsample(obs, x >= {lo} and x <= {hi})",
            oracle.window(batch, ((1, OBS_BATCH_ROWS), (1, OBS_COLS))),
        )
        ops = [
            Op("ingest_batch", ingest, acknowledged, read=False,
               facts=lambda report: {
                   "cells": report.records_loaded,
                   "retries": report.records_retried,
                   "quarantined": report.records_quarantined,
                   "commits": report.batches_committed,
               }),
            slab,
            *self._base_ops,
        ]
        if self.round_no % MERGE_EVERY == 0:
            ops.append(Op("merge", self._merge, lambda n: True, read=False))
        return ops

    def _merge(self) -> int:
        return sum(
            node.partition("obs").merge_small_buckets()
            for node in self.grid.nodes
        )

    def _note_ack(self) -> None:
        """Bytes of each node's WAL the OS held when the batch was
        acknowledged — all a crash is allowed to keep."""
        for node in self.grid.nodes:
            self.wal_acked[node.node_id] = node.wal.path.stat().st_size

    def after_round(self) -> None:
        super().after_round()
        if self.round_no % MERGE_EVERY == 0:
            # Sampled right after a completed merge cycle, so the ratio
            # does not depend on where the run stopped.
            self.merges += 1
            self.stored_ratio = stored_bytes(self.scratch) / self.user_bytes()

    def user_bytes(self) -> int:
        rows = self.model["flux"].shape[0] + OBS_BASE_ROWS  # obs + ref
        return rows * OBS_COLS * 2 * 8

    def finish(self, observer: Any = None) -> list[Sample]:
        return [run_op(Op("durability", self._crash_and_rebuild,
                          self._survived, read=False), 0, observer)]

    def _crash_and_rebuild(self):
        node = self.grid.nodes[self.PROBE_NODE]
        node.fail()
        # Killing a process leaves the OS cache intact; the probe itself
        # discards whatever was not flushed when the last batch was
        # acknowledged.  rebuild_node() then restarts the node with empty
        # storage (bucket files and cursors deleted) and replays the WAL.
        os.truncate(node.wal.path, self.wal_acked[node.node_id])
        t0 = time.perf_counter()
        report = self.grid.rebuild_node(node.node_id)
        self.rebuild_ms = (time.perf_counter() - t0) * 1e3
        return report

    def _survived(self, report) -> bool:
        """Every acknowledged cell of the rebuilt node reads back from
        its own WAL, cell for cell against the model."""
        node = self.grid.nodes[self.PROBE_NODE]
        flux, err = self.model["flux"], self.model["err"]
        want = {
            (x + 1, y + 1): (float(flux[x, y]), float(err[x, y]))
            for x in range(flux.shape[0])
            for y in range(flux.shape[1])
            if node.node_id in self.obs.replica_sites((x + 1, y + 1))
        }
        have = {
            coords: None if cell is None else tuple(cell.values)
            for coords, cell in node.scan_partition("obs")
        }
        return have == want and report.cells_from_replicas == 0

    def extras(self) -> dict[str, float]:
        return {
            **super().extras(),
            "driver.stored_bytes_per_user_byte": self.stored_ratio,
            "cluster.grid.rebuild_node_ms": self.rebuild_ms,
            "storage.manager.merges": float(self.merges),
            "storage.manager.buckets_live": float(sum(
                node.partition("obs").bucket_count()
                for node in self.grid.nodes if node.alive
            )),
        }


def service_db(seed: int):
    """E24's shape: 16x16 in-memory arrays for the query service."""
    shape = (SVC_SIDE, SVC_SIDE)
    m = {"flux": datagen.clustered(rng_for(seed, 1), shape)}
    m2 = {"flux": datagen.clustered(rng_for(seed, 3), shape)}
    db = SciDB()
    schema = define_array("Remote", {"flux": "float"}, ["x", "y"])
    db.register("M", SciArray.from_numpy(schema, m, name="M"))
    db.register("M2", SciArray.from_numpy(schema, m2, name="M2"))
    return db, m, m2


class SvcSmall(Workload):
    """Two closed-loop ``ShimClient`` connections (= nproc on the
    defining host), one tenant each, against ``QueryService`` with the
    default ``ServiceConfig`` in a child process.  The engine costs about
    a millisecond here; session, admission, HTTP handling, transport and
    the result pager own the latency.  Reported raw: the latency is
    kernel-timer-bound and does not scale with host speed.

    The traced run hosts the service in-process so ``handle()`` can be
    wrapped from outside."""

    normalise = False
    clients = 2

    def build(self) -> None:
        self.child: Optional[subprocess.Popen] = None
        self.service: Optional[QueryService] = None
        self.final_stats: dict[str, Any] = {}
        if self.traced:
            db, m, m2 = service_db(self.seed)
            self.service = QueryService(db, ServiceConfig()).start()
            host, port = self.service.address
        else:
            _, m, m2 = service_db(self.seed)
            host, port = self._spawn()
        self._client_ops: list[list[Op]] = []
        self._conns: list[tuple[ShimClient, str]] = []
        self.throttled = 0
        for c in range(self.clients):
            st = datagen.read_statements(
                rng_for(self.seed, 2, c), "M", m["flux"], join=("M", "M2")
            )
            want = expected_answers(m, st, (m, m2))
            client = ShimClient(host, port)
            session = client.new_session(tenant=f"tenant-{c}")
            self._conns.append((client, session))
            self._client_ops.append([
                self._http_op(client, session, cls, st.text[cls], want[cls])
                for cls in READ_CLASSES
            ])

    def _spawn(self) -> tuple[str, int]:
        env = dict(os.environ, PYTHONHASHSEED="0")
        self.child = subprocess.Popen(
            [sys.executable, str(PERF_DIR / "svc_server.py"), str(self.seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        hello = json.loads(self.child.stdout.readline())
        return hello["host"], hello["port"]

    def _ask_child(self, command: str) -> dict[str, Any]:
        self.child.stdin.write(command + "\n")
        self.child.stdin.flush()
        return json.loads(self.child.stdout.readline())

    def _http_op(
        self, client: ShimClient, session: str, cls: str, text: str,
        want: oracle.Answer,
    ) -> Op:
        page = SCAN_PAGE_BYTES if cls == "scan" else 65536
        shape = next(iter(want.values.values())).shape

        def run() -> tuple[dict, str]:
            """Execute and fully drain; an honoured 429 is a retry."""
            while True:
                try:
                    reply = client.execute_query(session, text)
                    break
                except Throttled as exc:
                    self.throttled += 1
                    time.sleep(min(exc.retry_after_s, 1.0))
            return reply, client.read_all(session, page_bytes=page)

        return Op(
            cls, run,
            check=lambda got: oracle.matches(want, observe_csv(got[1], shape)),
            facts=lambda got: {
                "result_cells": got[1].count("\n") - 1,
                "result_bytes": len(got[1]),
                "cells_examined": got[0]["cells_examined"],
            },
        )

    def run_round(self, observer: Any = None, probe: Any = None) -> list[Sample]:
        """Both clients run their six statements concurrently, each
        issuing its next statement only when the last is drained."""
        results: list[list[Sample]] = [[] for _ in self._client_ops]

        def drive(c: int) -> None:
            results[c] = [run_op(op, c, observer) for op in self._client_ops[c]]

        threads = [
            threading.Thread(target=drive, args=(c,), name=f"perf-client-{c}")
            for c in range(1, self.clients)
        ]
        for t in threads:
            t.start()
        drive(0)
        for t in threads:
            t.join()
        return [s for samples in results for s in samples]

    def child_rss_mb(self) -> float:
        if self.child is None:
            return 0.0
        return self._ask_child("stats")["rss_mb"]

    def finish(self, observer: Any = None) -> list[Sample]:
        """Release both sessions; a leaked session or a killed statement
        at shutdown is a failed operation."""

        def shutdown() -> dict[str, Any]:
            for client, session in self._conns:
                client.release_session(session)
                client.close()
            self._conns = []
            if self.service is not None:
                stats = {
                    "sessions": self.service.sessions.count(),
                    "killed": self.service.queries_killed,
                }
            else:
                stats = self._ask_child("stats")
            self.final_stats = stats
            return stats

        return [run_op(Op(
            "shutdown", shutdown,
            lambda s: s["sessions"] == 0 and s["killed"] == 0, read=False,
        ), 0, observer)]

    def extras(self) -> dict[str, float]:
        return {
            "service.throttled": float(self.throttled),
            "service.killed": float(self.final_stats.get("killed", 0)),
            "service.leaked_sessions": float(
                self.final_stats.get("sessions", 0)
            ),
        }

    def close(self) -> None:
        for client, _ in self._conns:
            client.close()
        self._conns = []
        if self.service is not None:
            self.service.stop()
            self.service = None
        if self.child is not None:
            try:
                self.child.stdin.close()  # EOF tells the server to stop
                self.child.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.child.kill()
                self.child.wait()
            self.child.stdout.close()
            self.child = None


WORKLOADS: dict[str, Callable[..., Workload]] = {
    "embedded_ops": EmbeddedOps,
    "grid_hot": lambda *a: GridReads(HOT_CACHE_BYTES, *a),
    "grid_cold": lambda *a: GridReads(COLD_CACHE_BYTES, *a),
    "svc_small": SvcSmall,
    "ingest_mixed": IngestMixed,
}
