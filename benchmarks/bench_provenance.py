"""E5: the provenance space/time trade-off (Section 2.12).

Three design points over one derivation pipeline:

* **log replay** — "no extra space at all, but has a substantial running
  time": stores only the command log; traces re-derive lineage;
* **Trio item store** — "the space cost ... is way too high": eager
  item-level edges; traces are index walks;
* **trace cache** — replay once, cache the result.

The benchmarks time backward and forward traces under each design and the
summary test reports space vs time side by side.
"""

import numpy as np
import pytest

from repro import SciArray, define_array
from repro.provenance import (
    ItemLineageStore,
    ProvenanceEngine,
    TraceCache,
    trace_backward,
    trace_forward,
)

SIDE = 24


def build_engine(itemstore=None):
    eng = ProvenanceEngine(itemstore=itemstore)
    rng = np.random.default_rng(0)
    schema = define_array("E5raw", {"v": "float"}, ["x", "y"])
    eng.register_external(
        "raw",
        SciArray.from_numpy(schema, rng.normal(size=(SIDE, SIDE)) + 2.0,
                            name="raw"),
        program="ingest",
    )
    eng.execute("filter", ["raw"], "filtered", predicate=lambda c: c.v > 1.0)
    eng.execute("regrid", ["filtered"], "coarse", factors=[4, 4], agg="avg")
    eng.execute("aggregate", ["coarse"], "rows", group_dims=["x"], agg="sum")
    return eng


@pytest.fixture(scope="module")
def replay_engine():
    return build_engine()


@pytest.fixture(scope="module")
def trio_engine():
    store = ItemLineageStore()
    return build_engine(itemstore=store), store


class TestBackward:
    def test_backward_log_replay(self, benchmark, replay_engine):
        steps = benchmark(lambda: trace_backward(replay_engine, ("coarse", (2, 2))))
        assert steps[0].command.op == "regrid"

    def test_backward_trio(self, benchmark, trio_engine):
        eng, store = trio_engine
        items = benchmark(lambda: store.backward_closure(("coarse", (2, 2))))
        assert any(name == "raw" for name, _ in items)


class TestForward:
    def test_forward_log_replay(self, benchmark, replay_engine):
        affected = benchmark(lambda: trace_forward(replay_engine, ("raw", (5, 5))))
        assert ("coarse", (2, 2)) in affected

    def test_forward_trio(self, benchmark, trio_engine):
        eng, store = trio_engine
        affected = benchmark(lambda: store.forward_closure(("raw", (5, 5))))
        assert ("coarse", (2, 2)) in affected

    def test_forward_cached(self, benchmark, replay_engine):
        cache = TraceCache(replay_engine)
        cache.forward(("raw", (5, 5)))  # warm
        affected = benchmark(lambda: cache.forward(("raw", (5, 5))))
        assert ("coarse", (2, 2)) in affected
        assert cache.hits > 0


class TestSpaceTimeTradeoff:
    def test_summary(self, benchmark, capsys):
        from repro.bench.harness import ResultTable, measure

        store = ItemLineageStore()
        eng_trio = build_engine(itemstore=store)
        eng_replay = build_engine()
        cache = TraceCache(eng_replay)
        item = ("raw", (5, 5))
        # Microsecond-scale calls: at a handful of repeats one scheduler
        # hiccup flips the ratio.
        replay = measure(lambda: trace_forward(eng_replay, item), repeats=100)
        trio = measure(lambda: store.forward_closure(item), repeats=100)
        cache.forward(item)
        cached = measure(lambda: cache.forward(item), repeats=100)

        log_bytes = len(eng_replay.log) * 200  # a log record is ~200 B
        rt = ResultTable(
            "E5: provenance designs — forward trace of one raw cell",
            ["design", "time ms", "space bytes"],
        )
        rt.add("log replay", replay.per_call * 1e3, log_bytes)
        rt.add("Trio item store", trio.per_call * 1e3,
               store.space_nbytes() + log_bytes)
        rt.add("cached replay", cached.per_call * 1e3,
               cache.space_items() * 48 + log_bytes)
        rt.print()
        benchmark.extra_info[rt.title] = rt.rows

        # The paper's shape: Trio is much faster to query and much bigger;
        # replay stores (almost) nothing and pays at query time.
        assert replay.per_call > trio.per_call * 3
        assert store.space_nbytes() > 50 * log_bytes
        assert cached.per_call < replay.per_call
        # Results agree across designs.
        assert trace_forward(eng_replay, item) == store.forward_closure(item)
        benchmark(lambda: None)
