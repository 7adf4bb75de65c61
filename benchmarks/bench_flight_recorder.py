"""E22: what the flight recorder costs a query (overhead half).

The recorder promises continuous telemetry that costs nearly nothing.
The control arm is in-process — the same statement through the full
facade (``db.execute``, which captures a :class:`QueryProfile` per
statement when the recorder is on) with the recorder ON vs OFF — so it
lives here and not in ``perf/``.  Target: ON within **5 %** of OFF; the
disabled :func:`~repro.obs.recorder.emit` fast path, at a generous ten
hook crossings per query, within **0.5 %** of a query.

The ON cost reads 3.2–3.6 % on the two-core benchmark host since every
fact of a statement is written once (5.7–7.7 % before, same hour; ten
further consecutive runs 1.9–3.7 % with one at 5.5 %).  One run in ten
over the line is not a gate CI can hold, so the 5 % line stays retired
as a gate (ROADMAP item 6 has the rule for reinstating it): the summary
test reports the ratio in ``extra_info``, xfails when it is over 5 %,
and fails only past 25 % (an emit on a per-cell path costs multiples,
not percent).  The 0.5 % line has a tenfold margin and is asserted as
is.

The other half of E22 — every injected fault, rebuild and migration
accounted for, in order — is a correctness drill and lives in
``tests/cluster/test_recorder_drill.py``.
"""

import statistics

import numpy as np
import pytest

from repro import SciDB, define_array
from repro.bench.harness import measure, ratio
from repro.cluster import HashPartitioner
from repro.obs.recorder import FlightRecorder, emit, use_flight_recorder
from repro.storage.loader import LoadRecord

N_NODES = 5
SIDE = 64
STATEMENT = "select subsample(sky, x >= 8)"
#: assumed hook invocations per query for the recorder-off cost model —
#: generous: the healthy query path crosses no emit sites at all
HOOKS_PER_QUERY = 10
PAIRS = 200


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    db = SciDB(tmp_path_factory.mktemp("e22"))
    grid = db.create_grid("g", n_nodes=N_NODES, replication=2, parallelism=4)
    schema = define_array("sky", {"flux": "float"}, ["x", "y"]).bind(
        [SIDE, SIDE]
    )
    arr = grid.create_array("sky", schema, HashPartitioner(N_NODES))
    rng = np.random.default_rng(20260809)
    coords = rng.choice(SIDE * SIDE, size=200, replace=False)
    arr.load(
        LoadRecord((int(c) // SIDE + 1, int(c) % SIDE + 1), (float(v),))
        for c, v in zip(coords, rng.normal(size=200))
    )
    db.register("sky", arr)
    return db


def run_under(db, recorder):
    with use_flight_recorder(recorder):
        return db.execute(STATEMENT)


class TestRecorderOverhead:
    def test_recorder_off(self, benchmark, db):
        off = FlightRecorder(enabled=False)
        benchmark(lambda: run_under(db, off))
        assert len(off.profile_store) == 0

    def test_recorder_on(self, benchmark, db):
        on = FlightRecorder()
        benchmark(lambda: run_under(db, on))
        assert len(on.profile_store) > 0

    def test_overhead_within_budget(self, benchmark, db):
        on, off = FlightRecorder(), FlightRecorder(enabled=False)

        def timed(recorder):
            return measure(
                lambda: run_under(db, recorder), repeats=1, warmup=0
            )

        for _ in range(10):  # warm both arms
            timed(on), timed(off)
        # Each pair runs back to back, alternating which arm goes first, so
        # machine drift and order effects land on both arms alike; the
        # median of the per-pair ratios isolates the recorder's own cost.
        on_over_off, off_s = [], []
        for i in range(PAIRS):
            if i % 2:
                on_m, off_m = timed(on), timed(off)
            else:
                off_m, on_m = timed(off), timed(on)
            on_over_off.append(ratio(on_m, off_m))
            off_s.append(off_m.per_call)
        overhead_on = max(0.0, statistics.median(on_over_off) - 1)
        query_s = statistics.median(off_s)
        # The disabled fast path, costed directly: one global read and
        # one attribute check per emit().
        with use_flight_recorder(off):
            emit_s = measure(
                lambda: emit("noop", node=1, probe=2), repeats=50_000
            ).per_call
        overhead_off = HOOKS_PER_QUERY * emit_s / query_s
        benchmark.extra_info.update(
            median_off_ms=query_s * 1e3, overhead_on=overhead_on,
            disabled_emit_us=emit_s * 1e6, overhead_off=overhead_off,
        )
        benchmark(lambda: None)
        assert overhead_off <= 0.005
        assert overhead_on <= 0.25  # tripwire, not the target
        if overhead_on > 0.05:
            pytest.xfail(
                f"recorder ON costs {overhead_on:.1%} of a statement; the "
                "5 % target is ROADMAP item 6's to win back"
            )
