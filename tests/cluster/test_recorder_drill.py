"""Flight-recorder completeness under a seeded chaos + rebalance drill.

The PR 8 acceptance bar: replay a drill through ``db.events()`` /
``db.profiles()`` and account for **100 %** of what actually happened —
every injected fault reconciled against the
:class:`~repro.cluster.faults.FaultInjector`'s own ledger, every rebuild
against ``grid.rebuilds``, every migration against
``grid.rebalance_log`` — in injection order.  Plus the other half of the
bargain: with the recorder off, the same drill leaves no trace at all
(and pays nothing for the hooks it didn't take).
"""

import time

import numpy as np
import pytest

from repro.core.schema import define_array
from repro.cluster import FaultInjector, Grid, HashPartitioner
from repro.obs.recorder import FlightRecorder, use_flight_recorder
from repro.storage.loader import LoadRecord

N_NODES = 5
K = 2
SEED = 1234


def records(n, seed=0):
    rng = np.random.default_rng(seed)
    seen, out = set(), []
    while len(out) < n:
        c = (int(rng.integers(1, 65)), int(rng.integers(1, 65)))
        if c in seen:
            continue
        seen.add(c)
        out.append(LoadRecord(c, (float(rng.normal()),)))
    return out


def make_grid(tmp_path, sub, seed=SEED):
    inj = FaultInjector(seed=seed)
    grid = Grid(N_NODES, tmp_path / sub, fault_injector=inj, parallelism=4)
    schema = define_array("sky", {"flux": "float"}, ["x", "y"]).bind([64, 64])
    arr = grid.create_array(
        "sky", schema, HashPartitioner(N_NODES), replication=K
    )
    arr.load(records(120, seed=seed))
    return grid, arr, inj


def run_drill(grid, arr, inj):
    """One deterministic chaos pass: kills, a WAL tear, a rebalance."""
    arr.scan()
    inj.kill(1)
    arr.scan()
    grid.rebuild_node(1)
    inj.tear_wal_tail(grid.nodes[2])
    inj.kill(3)
    arr.scan()
    grid.rebuild_node(3)
    grid.rebalance(
        "sky", HashPartitioner(N_NODES, dims=[0]),
        max_transfer_cells_per_tick=32,
    )
    arr.scan()


class TestRecorderCompleteness:
    def test_every_injected_fault_is_accounted_for(self, tmp_path):
        rec = FlightRecorder()
        with use_flight_recorder(rec):
            grid, arr, inj = make_grid(tmp_path, "drill")
            run_drill(grid, arr, inj)

        counts = rec.event_counts()
        # 1. Injector ledger vs recorder, per fault kind, exact.
        for kind, n in inj.counts().items():
            assert counts.get("fault." + kind) == n, (
                f"recorder missed injected {kind!r}: "
                f"{counts.get('fault.' + kind)} != {n}"
            )
        # 2. Rebuilds: one event per RebuildReport, same nodes.
        rebuild_events = rec.events(kind="node_rebuild")
        assert len(rebuild_events) == len(grid.rebuilds)
        assert [e.node for e in rebuild_events] == [
            r.node_id for r in grid.rebuilds
        ]
        # 3. Rebalance lifecycle: plan and cutover per completed run.
        completed = [r for r in grid.rebalance_log if not r.aborted]
        assert len(rec.events(kind="rebalance_plan")) == len(
            grid.rebalance_log
        )
        assert len(rec.events(kind="rebalance_cutover")) == len(completed)
        cut = rec.events(kind="rebalance_cutover")[-1]
        assert cut.detail["cells_moved"] == grid.rebalance_log[-1].cells_moved
        # 4. WAL tears surface both as the injected fault and the torn
        # tail the next rebuild's replay discovered and truncated.
        assert counts.get("fault.wal_tear") == 1

    def test_ingest_and_membership_events_are_accounted_for(self, tmp_path):
        """The ledgers the chaos pass does not touch: load retries and
        quarantined records against the loader's own report, the
        injected I/O burst against the injector, ``add_node`` and its
        migration against ``grid.rebalance_log``."""
        rec = FlightRecorder()
        with use_flight_recorder(rec):
            grid, arr, inj = make_grid(tmp_path, "ingest")
            loaded = {r.coords for r in records(120, seed=SEED)}
            fresh = [
                r for r in records(60, seed=SEED + 1)
                if r.coords not in loaded
            ]
            stream = fresh + [
                LoadRecord((1, 1, 1), (9.0,)),   # bad arity
                LoadRecord((999, 1), (9.0,)),    # out of bounds
            ]
            inj.schedule_transient_io(0, 2)
            report = arr.load_checkpointed(
                iter(stream), batch_size=16, tolerant=True
            )
            nid, _ = grid.add_node(max_transfer_cells_per_tick=48)

        counts = rec.event_counts()
        assert report.records_quarantined == 2
        assert counts.get("quarantine") == report.records_quarantined
        assert report.records_retried >= 2
        assert counts.get("load_retry") == report.records_retried
        assert counts.get("fault.io_transient") == inj.counts()["io_transient"] == 2
        (added,) = rec.events(kind="node_add")
        assert added.node == nid
        (migration,) = grid.rebalance_log
        assert not migration.aborted
        (plan,) = rec.events(kind="rebalance_plan")
        (cut,) = rec.events(kind="rebalance_cutover")
        assert not rec.events(kind="rebalance_abort")
        assert added.seq < plan.seq < cut.seq

    def test_events_preserve_injection_order(self, tmp_path):
        rec = FlightRecorder()
        with use_flight_recorder(rec):
            grid, arr, inj = make_grid(tmp_path, "order")
            run_drill(grid, arr, inj)

        kills = rec.events(kind="fault.node_kill")
        assert [e.node for e in kills] == [1, 3]  # drill's kill order
        rebuilds = rec.events(kind="node_rebuild")
        # each rebuild comes after its kill
        for kill, rebuild in zip(kills, rebuilds):
            assert kill.seq < rebuild.seq
        # seq is globally monotonic across all kinds
        seqs = [e.seq for e in rec.events()]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_same_seed_same_event_kinds(self, tmp_path):
        """Determinism: two runs of the same seeded drill record the
        same per-kind event totals (wall-clock ts aside)."""
        totals = []
        for sub in ("rep-a", "rep-b"):
            rec = FlightRecorder()
            with use_flight_recorder(rec):
                grid, arr, inj = make_grid(tmp_path, sub)
                run_drill(grid, arr, inj)
            totals.append(rec.event_counts())
        assert totals[0] == totals[1]


class TestRecorderOffOverhead:
    def test_disabled_recorder_leaves_no_trace(self, tmp_path):
        rec = FlightRecorder(enabled=False)
        with use_flight_recorder(rec):
            grid, arr, inj = make_grid(tmp_path, "off")
            run_drill(grid, arr, inj)
        assert rec.events_log.emitted == 0
        assert len(rec.profile_store) == 0
        assert rec.sampler.samples_taken == 0
        # the underlying systems still did (and logged) their work
        assert inj.counts().get("node_kill") == 2
        assert len(grid.rebuilds) == 2

    def test_disabled_emit_is_cheap(self):
        """The disabled fast path: bounded by a few microseconds per
        call (one global read + one attribute check), so hook sites stay
        within noise.  Generous bound — this is a regression tripwire
        for accidental allocation on the disabled path, not a benchmark
        (E22 measures the real overhead ratios)."""
        from repro.obs.recorder import emit

        rec = FlightRecorder(enabled=False)
        with use_flight_recorder(rec):
            n = 20_000
            t0 = time.perf_counter()
            for _ in range(n):
                emit("noop", node=1, detail_field=2)
            per_call_us = (time.perf_counter() - t0) * 1e6 / n
        assert rec.events_log.emitted == 0
        assert per_call_us < 25.0, f"disabled emit() cost {per_call_us:.2f} µs"

    def test_scan_latency_within_noise_of_recorder_off(self, tmp_path):
        """Median scan latency with the recorder ON stays within noise
        of OFF.  Loose bound (50 %) because CI wall-clock is jittery —
        E22's benchmark holds the real ≤5 % acceptance line; this test
        only catches catastrophic regressions (e.g. an emit on the
        per-cell path)."""
        grid, arr, inj = make_grid(tmp_path, "perf")

        def median_scan_ms(recorder):
            with use_flight_recorder(recorder):
                times = []
                for _ in range(7):
                    t0 = time.perf_counter()
                    arr.scan()
                    times.append(time.perf_counter() - t0)
            return sorted(times)[len(times) // 2] * 1e3

        median_scan_ms(FlightRecorder())  # warm caches before measuring
        off = median_scan_ms(FlightRecorder(enabled=False))
        on = median_scan_ms(FlightRecorder())
        assert on <= off * 1.5 + 2.0, (
            f"recorder-on scan {on:.2f} ms vs off {off:.2f} ms"
        )
