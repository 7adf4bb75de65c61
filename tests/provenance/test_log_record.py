"""What the derivation log records and what a trace answers, pinned
before the provenance engine stopped being a second catalog-plus-executor.

``db.derivation_log()`` text, ``len(log)`` and the ``trace_backward`` /
``trace_forward`` results are pinned for the four ways a derivation gets
logged: a nested anonymous statement (traced by ``result.array.name``), a
``select … into`` statement with an anonymous reader after it, the same on
a ``record_item_lineage=True`` database (the Trio store must agree with
the replay), and a :class:`CookingPipeline` driven through
``engine.execute`` directly.  The values were recorded at the commit
before ``Executor.arrays`` and ``ProvenanceEngine.catalog`` became one
dict, so the fold is held to the same log and the same lineage — whether
an intermediate is read from a catalog or re-derived from its command.
"""

import re

import pytest

from repro import SciDB
from repro.cooking import CookingPipeline, calibrate, decode_counts, regrid_step
from repro.provenance import ProvenanceEngine, trace_backward, trace_forward
from repro.workloads import SatelliteInstrument

pytestmark = pytest.mark.tier1

NESTED = "select aggregate(filter(R, v > 6), {I}, sum(v))"

FILTER_LINE = "__q0 = filter(R; predicate=PredicateConjunction(terms=(AttrPredi...)"
AGGREGATE_LINE = "__q1 = aggregate(__q0; group_dims=['I'], agg='sum', attr='v')"
REGRID_LINE = "C = regrid(R; factors=[2, 2], agg='avg', attr='v')"
SUBSAMPLE_LINE = "__q2 = subsample(C; predicate={'I': (2, None)})"


def make_db(**options):
    """R: 6x6, v = I*J."""
    db = SciDB(**options)
    db.execute("define array T (v = float) (I, J)")
    db.execute("create R as T [6, 6]")
    r = db.lookup("R")
    for i in range(1, 7):
        for j in range(1, 7):
            r[i, j] = float(i * j)
    return db


def steps_of(trace):
    """A backward trace as comparable data."""
    return [(s.command.describe(), sorted(s.contributors)) for s in trace]


def run_three(db):
    """The nested statement, a named derivation, an anonymous reader of it."""
    nested = db.execute(NESTED).array
    db.execute("select regrid(R, [2, 2], avg(v)) into C")
    reader = db.execute("select subsample(C, I >= 2)").array
    return nested, reader


class TestNestedAnonymousStatement:
    def test_log_text_and_length(self):
        db = make_db()
        result = db.execute(NESTED)
        assert result.array.name == "__q1"
        assert len(db.provenance.log) == 2
        assert db.derivation_log() == (
            f"#0: {FILTER_LINE}\n#1: {AGGREGATE_LINE}"
        )

    def test_backward_by_result_name(self):
        db = make_db()
        name = db.execute(NESTED).array.name
        # Row 3 of R is 3, 6, 9 … 18: the filter keeps columns 3..6.
        assert steps_of(db.trace_backward(name, (3,))) == [
            (
                f"#1: {AGGREGATE_LINE}",
                [("__q0", (3, 3)), ("__q0", (3, 4)),
                 ("__q0", (3, 5)), ("__q0", (3, 6))],
            ),
            (f"#0: {FILTER_LINE}", [("R", (3, 3))]),
            (f"#0: {FILTER_LINE}", [("R", (3, 4))]),
            (f"#0: {FILTER_LINE}", [("R", (3, 5))]),
            (f"#0: {FILTER_LINE}", [("R", (3, 6))]),
        ]

    def test_backward_from_the_intermediate(self):
        db = make_db()
        db.execute(NESTED)
        assert steps_of(db.trace_backward("__q0", (2, 5))) == [
            (f"#0: {FILTER_LINE}", [("R", (2, 5))]),
        ]

    def test_forward_from_the_source(self):
        db = make_db()
        db.execute(NESTED)
        assert db.trace_forward("R", (3, 4)) == {
            ("__q0", (3, 4)), ("__q1", (3,)),
        }
        # Nothing reads the statement's own result.
        assert db.trace_forward("__q1", (3,)) == set()

    def test_the_answer_itself(self):
        db = make_db()
        out = db.query(NESTED)
        assert {c: cell.sum for c, cell in out.cells(include_null=False)} == {
            (2,): 2.0 * (4 + 5 + 6),
            (3,): 3.0 * (3 + 4 + 5 + 6),
            (4,): 4.0 * (2 + 3 + 4 + 5 + 6),
            (5,): 5.0 * (2 + 3 + 4 + 5 + 6),
            (6,): 6.0 * (2 + 3 + 4 + 5 + 6),
        }


class TestSelectInto:
    def test_log_text_and_length(self):
        db = make_db()
        nested, reader = run_three(db)
        assert (nested.name, reader.name) == ("__q1", "__q2")
        assert len(db.provenance.log) == 4
        assert db.derivation_log() == "\n".join([
            f"#0: {FILTER_LINE}",
            f"#1: {AGGREGATE_LINE}",
            f"#2: {REGRID_LINE}",
            f"#3: {SUBSAMPLE_LINE}",
        ])
        assert db.arrays() == ["C", "R"]
        assert db.lookup("C").name == "C"

    def test_backward_through_the_named_array(self):
        db = make_db()
        _, reader = run_three(db)
        block = [("R", (3, 3)), ("R", (3, 4)), ("R", (4, 3)), ("R", (4, 4))]
        assert steps_of(db.trace_backward("C", (2, 2))) == [
            (f"#2: {REGRID_LINE}", block),
        ]
        # subsample(I >= 2) rebases: its (1, 2) is C's (2, 2).
        assert steps_of(db.trace_backward(reader.name, (1, 2))) == [
            (f"#3: {SUBSAMPLE_LINE}", [("C", (2, 2))]),
            (f"#2: {REGRID_LINE}", block),
        ]

    def test_forward_reaches_every_reader(self):
        db = make_db()
        run_three(db)
        assert db.trace_forward("R", (3, 4)) == {
            ("__q0", (3, 4)), ("__q1", (3,)), ("C", (2, 2)), ("__q2", (1, 2)),
        }
        assert db.trace_forward("C", (2, 2)) == {("__q2", (1, 2))}
        # C's first row is cut by the subsample: no downstream item.
        assert db.trace_forward("C", (1, 3)) == set()


class TestItemLineageDatabase:
    def test_log_is_the_same_and_the_store_agrees_with_replay(self):
        db = make_db(record_item_lineage=True)
        nested, reader = run_three(db)
        assert len(db.provenance.log) == 4
        assert db.derivation_log().splitlines()[1] == f"#1: {AGGREGATE_LINE}"
        store = db.itemstore
        # filter 36 + aggregate 22 + regrid 36 + subsample 6 edges.
        assert store.edges == 100
        replay = db.trace_backward(nested.name, (3,))
        assert sorted(store.backward((nested.name, (3,)))) == sorted(
            replay[0].contributors
        )
        assert store.backward_closure((reader.name, (1, 2))) == {
            ("C", (2, 2)),
            ("R", (3, 3)), ("R", (3, 4)), ("R", (4, 3)), ("R", (4, 4)),
        }
        assert store.forward_closure(("R", (3, 4))) == db.trace_forward(
            "R", (3, 4)
        )


class TestCookingPipelineThroughTheEngine:
    def cook(self):
        engine = ProvenanceEngine()
        inst = SatelliteInstrument(width=8, height=8, seed=1)
        engine.register_external(
            "raw", inst.acquire_raw_frame(1), program="satellite_downlink",
            parameters={"pass": 1},
        )
        out = CookingPipeline(
            engine,
            [decode_counts(gain=0.01, offset=100.0),
             calibrate(scale=1.02, bias=-0.1),
             regrid_step([4, 4], "avg")],
        ).run("raw", output_name="cooked")
        return engine, out

    def test_log_text_and_catalog(self):
        engine, out = self.cook()
        assert out.name == "cooked" and engine.get("cooked") is out
        assert len(engine.log) == 3
        # A parameter's repr is cut at 40 characters: the closure's
        # address falls (wholly or partly) past the cut, so mask its tail.
        text = re.sub(r"fn at? ?[0-9a-fx]*\.\.\.", "fn...", engine.log.describe())
        assert text == "\n".join([
            "#0: raw__0_decode = apply(raw; fn=<function decode_counts."
            "<locals>.fn..., output=[('value', 'float')])",
            "#1: raw__1_calibrate = apply(raw__0_decode; fn=<function "
            "calibrate.<locals>.fn..., output=[('value', 'float')])",
            "#2: cooked = regrid(raw__1_calibrate; factors=[4, 4], "
            "agg='avg', attr=None)",
        ])
        assert engine.names() == [
            "cooked", "raw", "raw__0_decode", "raw__1_calibrate",
        ]

    def test_traces(self):
        engine, _ = self.cook()
        steps = trace_backward(engine, ("cooked", (2, 1)))
        assert [s.command.op for s in steps] == ["regrid"] + ["apply"] * 32
        block = [(x, y) for x in range(5, 9) for y in range(1, 5)]
        assert sorted(steps[0].contributors) == [
            ("raw__1_calibrate", c) for c in block
        ]
        leaves = sorted(
            item for s in steps if s.command.seq == 0 for item in s.contributors
        )
        assert leaves == [("raw", c) for c in block]
        assert engine.repository.is_external("raw")
        assert trace_forward(engine, ("raw", (6, 3))) == {
            ("raw__0_decode", (6, 3)),
            ("raw__1_calibrate", (6, 3)),
            ("cooked", (2, 1)),
        }
