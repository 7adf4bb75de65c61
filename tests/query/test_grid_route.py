"""The route a statement takes over a grid is decided once, before a read.

``repro.query.cost.grid_route`` is the one predicate behind both the
label EXPLAIN prints and the executor's distributed dispatch: the planner
asks it, the executor runs the plan.  The defects that replaced are
pinned here:

* the dispatch used to *try* the grid operator and fall back on
  ``SchemaError``, so a wrong statement (``regrid`` with too few factors)
  paid a full gather before the local operator raised the same error;
* the planner labelled every algebraic ``aggregate`` ``partial-aggregate``
  from the aggregate's name alone, including ones that ran locally on a
  gathered slab;
* a user aggregate registered under a built-in's name got the built-in's
  *merge* on the grid (algebraic-ness was a table of names);
* two arrays on one grid under different partitioners were labelled
  ``copartitioned`` while the join shuffled.
"""

import pytest

from repro import SciDB, define_aggregate, define_array
from repro.cluster import HashPartitioner, RangePartitioner
from repro.core.errors import SchemaError
from repro.core.udf import functions
from repro.query.binding import array
from repro.storage.loader import LoadRecord

pytestmark = pytest.mark.tier1

SIDE = 16


@pytest.fixture
def db(tmp_path):
    db = SciDB(tmp_path)
    grid = db.create_grid("g", n_nodes=4, replication=2)
    schema = define_array("A_t", {"v": "float"}, ["x", "y"]).bind([SIDE, SIDE])
    arr = grid.create_array("A", schema, HashPartitioner(4), stride=(8, 8))
    arr.load(
        LoadRecord((x, y), (float(x * SIDE + y),))
        for x in range(1, SIDE + 1)
        for y in range(1, SIDE + 1)
    )
    db.register("A", arr)
    grid.ledger.reset()
    return db


def median():
    return define_aggregate(
        "route_test_median", lambda: [], lambda s, v: s + [v],
        lambda s: sorted(s)[len(s) // 2] if s else None, replace=True,
    )


class TestArgumentErrorsMoveNothing:
    @pytest.mark.parametrize("agg", ["avg(v)", "route_test_median(v)"])
    def test_regrid_with_too_few_factors(self, db, agg):
        median()
        ledger = db.grid("g").ledger
        with pytest.raises(SchemaError, match="regrid needs 2 factors, got 1"):
            db.execute(f"select regrid(A, [2], {agg})")
        assert ledger.transfers == []
        assert ledger.by_reason() == {}

    def test_a_right_statement_still_runs_natively(self, db):
        out = db.execute("select regrid(A, [2, 2], avg(v))").array
        assert out.bounds == (SIDE // 2, SIDE // 2)
        assert set(db.grid("g").ledger.by_reason()) == {"regrid"}


def strategy_of(report, op):
    return next(p.strategy for p in report.operators() if p.op == op)


class TestExplainLabelIsTheRouteThatRan:
    """``partial-aggregate`` is printed iff the statement moved partial
    states (ledger reason ``aggregate``)."""

    @pytest.mark.parametrize(
        "statement, label",
        [
            ("select aggregate(A, {x}, sum(v))", "partial-aggregate"),
            # Runs locally on the gathered slab: no strategy to report.
            ("select aggregate(subsample(A, x <= 4), {x}, sum(v))", ""),
            ("select aggregate(filter(A, v > 40), {x}, sum(v))", ""),
            # Holistic over a bare grid scan: the array is gathered.
            ("select aggregate(A, {x}, route_test_median(v))", "gather"),
        ],
    )
    def test_label_iff_partials_moved(self, db, statement, label):
        median()
        report = db.explain(statement)
        assert strategy_of(report, "aggregate") == label
        moved_partials = "aggregate" in report.ledger_delta
        assert moved_partials == (label == "partial-aggregate")
        assert ("[strategy=partial-aggregate]" in report.render()) == moved_partials

    @pytest.mark.parametrize(
        "other, partitioner, label",
        [
            ("Same", HashPartitioner(4), "copartitioned"),
            ("Ranged", RangePartitioner(4, 0, [4, 8, 12]), "shuffle"),
        ],
    )
    def test_shuffle_label_iff_the_join_shuffled(self, db, other, partitioner, label):
        grid = db.grid("g")
        arr = grid.create_array(
            other, db.lookup("A").schema, partitioner, stride=(8, 8)
        )
        arr.load(
            LoadRecord((x, y), (float(x + y),))
            for x in range(1, SIDE + 1)
            for y in range(1, SIDE + 1)
        )
        db.register(other, arr)
        report = db.explain(
            f"select sjoin(A, {other}, A.x = {other}.x and A.y = {other}.y)"
        )
        assert strategy_of(report, "sjoin") == label
        assert ("join_shuffle" in report.ledger_delta) == (label == "shuffle")
        assert report.reconciles()

    @pytest.mark.parametrize("route", ["statement", "python"])
    def test_a_permuted_join_is_labelled_the_shuffle_it_runs(self, db, route):
        """Co-partitioned operands joined ``A.x = B.y and A.y = B.x``: a
        right cell's partner sits at other coordinates, on another site, so
        the join shuffles — and the plan says so on either route."""
        arr = db.grid("g").create_array(
            "Same", db.lookup("A").schema, HashPartitioner(4), stride=(8, 8)
        )
        arr.load(
            LoadRecord((x, y), (float(x - y),))
            for x in range(1, SIDE + 1)
            for y in range(1, SIDE + 1)
        )
        db.register("Same", arr)
        statement = (
            "select sjoin(A, Same, A.x = Same.y and A.y = Same.x)"
            if route == "statement"
            else array("A").sjoin("Same", on=[("x", "y"), ("y", "x")]).node
        )
        report = db.explain(statement)
        assert strategy_of(report, "sjoin") == "shuffle"
        assert "[strategy=shuffle]" in report.render()
        assert "join_shuffle" in report.ledger_delta
        assert report.reconciles()
        got = {c: cell.values for c, cell in db.query(statement).cells()}
        assert len(got) == SIDE * SIDE
        assert all(v == (float(x * SIDE + y), float(y - x)) for (x, y), v in got.items())

    def test_user_aggregate_under_a_builtin_name_is_gathered(self, db, monkeypatch):
        """Algebraic-ness belongs to the aggregate, not to its name: a
        user's ``max`` has no merge, so the grid must not fold it with
        the built-in's."""
        # setitem puts the built-in back on teardown.
        monkeypatch.setitem(functions._aggregates, "max", functions.get_aggregate("max"))
        define_aggregate("max", lambda: 0.0, lambda s, v: s + abs(v), replace=True)
        db.register("L", db.lookup("A").materialize())
        statement = "select aggregate({}, {{x}}, max(v))"
        report = db.explain(statement.format("A"))
        assert strategy_of(report, "aggregate") == "gather"
        on_grid = db.query(statement.format("A"))
        local = db.query(statement.format("L"))
        assert list(on_grid.cells()) == list(local.cells())

    def test_local_aggregate_prints_no_strategy(self):
        local = SciDB()
        local.execute("define array T (v = float) (x, y)")
        local.execute("create L as T [4, 4]")
        report = local.explain("select aggregate(L, {x}, sum(v))")
        assert "[strategy=" not in report.render()
