"""What a statement's plan record says, pinned before the trees became one.

``db.explain(...).render()``, ``QueryProfile.render()`` and the operator
tree ``GET /profile`` serves (``QueryProfile.to_dict()["operators"]``)
are pinned here — times masked — for three statements: a local nested
one with a pushdown rewrite, a grid ``partial-aggregate`` at k=2 and a
grid ``filter`` with value pruning.  The values were recorded at the
commit before ``PhysicalOp``/``OperatorProfile``/the ``id(node)`` index
were folded into one tree, so the fold is held to the same text and the
same JSON keys.

One thing is allowed to be added: a route label (``window``/``gather``)
on an operator that reads a grid array and had none — the parent only
labelled ``aggregate`` and ``sjoin``.  :func:`_without_added_routes`
says exactly that and nothing more.

The counting test is the other half: ``query.cost.grid_route`` is asked
once per operator with a grid operand — by the planner — and the
executor runs what the plan says.
"""

import ast
import re
import sys

import pytest

from repro import SciDB, define_array
from repro.cluster import HashPartitioner
from repro.obs.recorder import FlightRecorder, use_flight_recorder
from repro.query import cost
from repro.storage.loader import LoadRecord

pytestmark = pytest.mark.tier1

SIDE = 12

LOCAL_NESTED = "select subsample(filter(M, v > 20), I >= 3)"
GRID_AGGREGATE = "select aggregate(D, {x}, sum(v))"
GRID_FILTER = "select filter(D, v > 130)"

#: The benchmark's six statement classes (``perf/workloads.py``), each
#: with exactly one operator that reads a grid array.
SIX_CLASSES = {
    "window": "select subsample(D, x >= 3 and x <= 9 and y >= 5 and y <= 12)",
    "filter": "select filter(D, v > 100)",
    "aggregate": "select aggregate(D, {x}, sum(v))",
    "scan": "select filter(D, v > 0.5)",
    "regrid": "select regrid(D, [4, 4], avg(v))",
    "sjoin": "select sjoin(D, E, D.x = E.x and D.y = E.y)",
}


@pytest.fixture
def db(tmp_path):
    """M: local 12x12, v = I*J.  D, E: 4-node k=2 grid, v = x*12 + y in
    2x2 buckets (so a value predicate can rule buckets out)."""
    with use_flight_recorder(FlightRecorder()):
        db = SciDB(tmp_path)
        db.execute("define array T (v = float) (I, J)")
        db.execute(f"create M as T [{SIDE}, {SIDE}]")
        m = db.lookup("M")
        for i in range(1, SIDE + 1):
            for j in range(1, SIDE + 1):
                m[i, j] = float(i * j)
        grid = db.create_grid(n_nodes=4, replication=2)
        schema = define_array("D_t", {"v": "float"}, ["x", "y"]).bind([SIDE, SIDE])
        for name in ("D", "E"):
            arr = grid.create_array(name, schema, HashPartitioner(4), stride=(2, 2))
            arr.load(
                LoadRecord((x, y), (float(x * SIDE + y),))
                for x in range(1, SIDE + 1)
                for y in range(1, SIDE + 1)
            )
            db.register(name, arr)
        yield db


# -- masking -------------------------------------------------------------------

_ADDED_ROUTES = ("window", "gather")
_ROUTED_AT_PARENT = ("aggregate", "sjoin")


def _mask_times(text: str) -> str:
    text = re.sub(r"time=\d+\.\d+ ms", "time=T ms", text)
    text = re.sub(r"(parse|plan|execute|total:) \d+\.\d+ ms", r"\1 T ms", text)
    return re.sub(r"PROFILE q-\d+", "PROFILE q-N", text)


def _without_added_routes(text: str) -> str:
    """Drop a ``window``/``gather`` label from an operator line that is
    not an ``aggregate``/``sjoin`` — the labels the one-tree plan adds."""
    return "\n".join(
        line
        if line.lstrip().startswith(tuple("-> " + op for op in _ROUTED_AT_PARENT))
        else re.sub(r"  \[strategy=(%s)\]" % "|".join(_ADDED_ROUTES), "", line)
        for line in text.splitlines()
    )


def _estimated(summary):
    """The planner's summary with its time masked and added routes dropped."""
    if summary is None:
        return None
    out = dict(summary)
    if "ms" in out:
        out["ms"] = "T"
    kept = {
        op: route for op, route in out.pop("strategies", {}).items()
        if op in _ROUTED_AT_PARENT or route not in _ADDED_ROUTES
    }
    if kept:
        out["strategies"] = kept
    return out


def _profile_text(profile) -> tuple[str, dict]:
    """``QueryProfile.render()`` split into its masked text and the
    ``estimated: {...}`` dict that ends its total line."""
    text, _, est = profile.render().partition(", estimated: ")
    return (
        _without_added_routes(_mask_times(text)),
        _estimated(ast.literal_eval(est)) if est else None,
    )


def _operators(tree: dict) -> dict:
    """The ``/profile`` operator tree: times masked, added routes dropped,
    time-valued counters (``*_ms``) masked."""
    out = dict(tree)
    out["time_ms"] = "T"
    if out["est_ms"] is not None:
        out["est_ms"] = "T"
    if out["op"] not in _ROUTED_AT_PARENT and out["strategy"] in _ADDED_ROUTES:
        out["strategy"] = ""
    out["counters"] = {
        k: "T" if k.endswith("_ms") else v for k, v in out["counters"].items()
    }
    out["children"] = [_operators(c) for c in out["children"]]
    return out


#: Every key ``GET /profile`` serves per operator, in order.
OPERATOR_KEYS = [
    "op", "label", "time_ms", "cells_scanned", "cells_out", "chunks_touched",
    "nodes_visited", "bytes_moved", "distributed", "parallelism", "cache_hits",
    "cache_misses", "chunks_pruned", "error", "counters", "est_cells",
    "est_chunks", "est_chunks_pruned", "est_ms", "strategy", "children",
]


def _op(op, label, children=(), **values):
    node = {
        "op": op, "label": label, "time_ms": "T", "cells_scanned": 0,
        "cells_out": 0, "chunks_touched": 0, "nodes_visited": 0,
        "bytes_moved": 0, "distributed": False, "parallelism": None,
        "cache_hits": 0, "cache_misses": 0, "chunks_pruned": 0, "error": None,
        "counters": {}, "est_cells": None, "est_chunks": None,
        "est_chunks_pruned": None, "est_ms": "T", "strategy": "",
        "children": list(children),
    }
    assert set(values) <= set(node)
    node.update(values)
    return node


# -- the pinned record -----------------------------------------------------------

PINNED = {
    LOCAL_NESTED: {
        "explain": """\
EXPLAIN ANALYZE select subsample(filter(M, v > 20), I >= 3)
  rewrite: pushed subsample below filter (structural op evaluated first)
  -> filter  (time=T ms, cells_scanned=120, cells_out=120, chunks=1, nodes=0, bytes_moved=0)  [estimated: cells=144]
    -> subsample  (time=T ms, cells_scanned=144, cells_out=120, chunks=1, nodes=0, bytes_moved=0)  [estimated: cells=144, chunks=1]
      -> scan M  (time=T ms, cells_scanned=0, cells_out=144, chunks=0, nodes=0, bytes_moved=0)  [estimated: cells=144, chunks=1]
  total: T ms, 0 bytes moved""",
        "profile": """\
PROFILE q-N  select subsample(filter(M, v > 20), I >= 3)
  rewrite: pushed subsample below filter (structural op evaluated first)
  -> filter  (time=T ms, cells_scanned=120, cells_out=120, chunks=1, nodes=0, bytes_moved=0)  [estimated: cells=144]
    -> subsample  (time=T ms, cells_scanned=144, cells_out=120, chunks=1, nodes=0, bytes_moved=0)  [estimated: cells=144, chunks=1]
      -> scan M  (time=T ms, cells_scanned=0, cells_out=0, chunks=0, nodes=0, bytes_moved=0)  [estimated: cells=144, chunks=1]
  phases: parse T ms, plan T ms, execute T ms
  total: T ms, 0 bytes moved""",
        "estimated": {"cells": 144, "ms": "T", "chunks": 1, "chunks_pruned": 0},
        "operators": _op(
            "filter", "filter", cells_scanned=120, cells_out=120,
            chunks_touched=1, est_cells=144,
            children=[_op(
                "subsample", "subsample", cells_scanned=144, cells_out=120,
                chunks_touched=1, est_cells=144, est_chunks=1,
                children=[_op("scan", "scan M", est_cells=144, est_chunks=1)],
            )],
        ),
    },
    GRID_AGGREGATE: {
        "explain": """\
EXPLAIN ANALYZE select aggregate(D, {x}, sum(v))
  -> aggregate group_dims=('x',) agg='sum'  (time=T ms, cells_scanned=144, cells_out=12, chunks=0, nodes=4, bytes_moved=1152)  [estimated: cells=144]  [strategy=partial-aggregate]  [distributed]  [parallelism=4]  [cache_hit_ratio=1.00]
    -> scan D  (time=T ms, cells_scanned=0, cells_out=144, chunks=0, nodes=4, bytes_moved=0)  [estimated: cells=144, chunks=69]  [distributed]
  total: T ms, 1152 bytes moved
  ledger delta: aggregate=1152""",
        "profile": """\
PROFILE q-N  select aggregate(D, {x}, sum(v))
  -> aggregate group_dims=('x',) agg='sum'  (time=T ms, cells_scanned=144, cells_out=12, chunks=138, nodes=4, bytes_moved=1152)  [estimated: cells=144]  [strategy=partial-aggregate]  [distributed]  [parallelism=4]  [cache_hit_ratio=0.00]
    -> scan D  (time=T ms, cells_scanned=0, cells_out=0, chunks=0, nodes=0, bytes_moved=0)  [estimated: cells=144, chunks=69]
  phases: parse T ms, plan T ms, execute T ms
  total: T ms, 1152 bytes moved""",
        "estimated": {
            "cells": 144, "ms": "T", "chunks": 69, "chunks_pruned": 0,
            "strategies": {"aggregate": "partial-aggregate"},
        },
        "operators": _op(
            "aggregate", "aggregate group_dims=('x',) agg='sum'",
            cells_scanned=144, cells_out=12, chunks_touched=138,
            nodes_visited=4, bytes_moved=1152, distributed=True,
            parallelism=4, cache_misses=138,
            counters={"codec_ms": "T", "transfers": 48},
            est_cells=144, strategy="partial-aggregate",
            children=[_op("scan", "scan D", est_cells=144, est_chunks=69)],
        ),
    },
    GRID_FILTER: {
        "explain": """\
EXPLAIN ANALYZE select filter(D, v > 130)
  -> filter  (time=T ms, cells_scanned=144, cells_out=144, chunks=0, nodes=4, bytes_moved=3456)  [chunks_pruned=114]  [estimated: cells=27, chunks=12 (-57 pruned)]  [distributed]  [parallelism=4]  [cache_hit_ratio=1.00]
    -> scan D  (time=T ms, cells_scanned=0, cells_out=144, chunks=0, nodes=4, bytes_moved=0)  [estimated: cells=27, chunks=12 (-57 pruned)]  [distributed]
  total: T ms, 3456 bytes moved
  ledger delta: gather=3456""",
        "profile": """\
PROFILE q-N  select filter(D, v > 130)
  -> filter  (time=T ms, cells_scanned=144, cells_out=144, chunks=24, nodes=4, bytes_moved=3456)  [chunks_pruned=114]  [estimated: cells=27, chunks=12 (-57 pruned)]  [distributed]  [parallelism=4]  [cache_hit_ratio=0.00]
    -> scan D  (time=T ms, cells_scanned=0, cells_out=0, chunks=0, nodes=0, bytes_moved=0)  [estimated: cells=27, chunks=12 (-57 pruned)]
  phases: parse T ms, plan T ms, execute T ms
  total: T ms, 3456 bytes moved""",
        "estimated": {"cells": 27, "ms": "T", "chunks": 12, "chunks_pruned": 57},
        "operators": _op(
            "filter", "filter", cells_scanned=144, cells_out=144,
            chunks_touched=24, nodes_visited=4, bytes_moved=3456,
            distributed=True, parallelism=4, cache_misses=24,
            chunks_pruned=114, counters={"codec_ms": "T", "transfers": 4},
            est_cells=27, est_chunks=12, est_chunks_pruned=57,
            children=[_op(
                "scan", "scan D", est_cells=27, est_chunks=12,
                est_chunks_pruned=57,
            )],
        ),
    },
}


def _keys_in_order(tree: dict) -> None:
    assert list(tree) == OPERATOR_KEYS
    for child in tree["children"]:
        _keys_in_order(child)


class TestPlanRecordIsPinned:
    """Each statement runs once through ``db.execute`` on cold caches
    (the profile the service would serve), then once through
    ``db.explain`` on warm ones."""

    @pytest.mark.parametrize("statement", sorted(PINNED))
    def test_profile_then_explain(self, db, statement):
        want = PINNED[statement]
        db.execute(statement)
        profile = db.profiles(1)[0]
        text, estimated = _profile_text(profile)
        assert text == want["profile"]
        assert estimated == want["estimated"]
        assert _estimated(profile.estimated) == want["estimated"]

        served = profile.to_dict()
        assert served["rendered"] == profile.render()
        _keys_in_order(served["operators"])
        assert _operators(served["operators"]) == want["operators"]

        report = db.explain(statement)
        assert _without_added_routes(_mask_times(report.render())) == want["explain"]


class TestTheRouteIsAskedOnce:
    def test_one_grid_route_call_per_grid_operator(self, db, monkeypatch):
        calls = []
        asked = cost.grid_route

        def counting(node, operands):
            calls.append(node.op)
            return asked(node, operands)

        # Whoever imported the function by name is counted too.
        for module in list(sys.modules.values()):
            if getattr(module, "grid_route", None) is asked:
                monkeypatch.setattr(module, "grid_route", counting)

        for cls, statement in SIX_CLASSES.items():
            del calls[:]
            db.execute(statement)
            op = statement.split("(")[0].split()[-1]
            assert calls == [op], f"{cls}: grid_route asked {len(calls)} times"
