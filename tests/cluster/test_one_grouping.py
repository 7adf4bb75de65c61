"""Grouped aggregation is one body, so every route answers alike.

``aggregate`` and ``regrid`` used to be written three times — the local
operators, the grid's, and the planner's own factor-count check — and
the copies had drifted.  On a 2-node grid array ``A`` and the same cells
in a local ``L``, the same wrong call failed differently:

* ``regrid(A, [0, 2], avg(v))`` raised ``ZeroDivisionError`` on the grid
  (an HTTP 500 from the service) and a ``SchemaError`` locally;
* ``regrid([-1, 2], "avg")``, ``aggregate(A, {I, I}, …)`` and
  ``aggregate([], "sum")`` each raised a ``SchemaError`` about the grid's
  output schema instead of the argument;
* the grid refused a holistic ``regrid`` that the local operator ran.

Now every route — a statement over ``L``, a statement over ``A`` routed
``partial-*``, one forced to ``gather`` by a holistic aggregate, and the
Python API on both arrays — raises the same ``SchemaError`` with the
same message before the ledger records a transfer, and the grid runs a
holistic ``regrid``.
"""

import pytest

from repro import SciDB, define_aggregate, define_array
from repro.cluster import HashPartitioner
from repro.core.errors import SchemaError
from repro.core.ops import content
from repro.core.udf import UserAggregate
from repro.query import array as q
from repro.service import QueryService, ServiceConfig, ServiceError, ShimClient
from repro.storage.loader import LoadRecord

pytestmark = pytest.mark.tier1

SIDE = 6
SPREAD = UserAggregate(  # holistic: no merge
    "grouping_spread", lambda: [], lambda s, v: s + [v],
    lambda s: max(s) - min(s) if s else None,
)

#: row -> (operator, groups, aggregate, the one message every route gives)
WRONG = {
    "zero factor": ("regrid", [0, 2], "avg", "regrid factors must be >= 1"),
    "negative factor": ("regrid", [-1, 2], "avg", "regrid factors must be >= 1"),
    "duplicate dimension": (
        "aggregate", ["I", "I"], "sum", "duplicate grouping dimensions",
    ),
    "no dimension": (
        "aggregate", [], "sum",
        "aggregate needs at least one grouping dimension; "
        "use aggregate_all for a scalar reduction",
    ),
}


def records():
    for i in range(1, SIDE + 1):
        for j in range(1, SIDE + 1):
            if (i + j) % 5 == 0:
                continue  # EMPTY
            yield LoadRecord((i, j), None if i == j else (0.1 * i + j / 3,))


@pytest.fixture
def db(tmp_path):
    db = SciDB(tmp_path)
    grid = db.create_grid("g", n_nodes=2, replication=1)
    schema = define_array("A_t", {"v": "float"}, ["I", "J"]).bind([SIDE, SIDE])
    arr = grid.create_array("A", schema, HashPartitioner(2), stride=(4, 4))
    arr.load(records())
    db.register("A", arr)
    db.register("L", arr.materialize())
    define_aggregate(
        SPREAD.name, SPREAD.initial, SPREAD.transition, SPREAD.final,
        replace=True,
    )
    grid.ledger.reset()
    return db


def routes(db, op, groups, agg):
    """Every way to make one grouped call, by name."""
    def statement(array_name, agg_name):
        node = getattr(q(array_name), op)(groups, agg_name, "v").node
        return lambda: db.execute(node)

    return {
        "local statement": statement("L", agg),
        "grid statement, partial": statement("A", agg),
        "grid statement, gather": statement("A", SPREAD.name),
        "local python": lambda: getattr(content, op)(db.lookup("L"), groups, agg, "v"),
        "grid python": lambda: getattr(db.lookup("A"), op)(groups, agg, "v"),
    }


def cells(arr):
    return sorted(
        (coords, None if cell is None else tuple(cell.values))
        for coords, cell in arr.cells()
    )


def strategy_of(report, op):
    return next(p.strategy for p in report.operators() if p.op == op)


class TestOneErrorOnEveryRoute:
    @pytest.mark.parametrize("row", sorted(WRONG))
    def test_every_route_raises_the_same_schema_error_before_moving(self, db, row):
        op, groups, agg, message = WRONG[row]
        ledger = db.grid("g").ledger
        for route, call in routes(db, op, groups, agg).items():
            with pytest.raises(SchemaError) as err:
                call()
            assert str(err.value) == message, route
            assert ledger.transfers == [], route

    @pytest.mark.parametrize("statement, message", [
        ("select regrid(A, [0, 2], avg(v))", WRONG["zero factor"][3]),
        ("select aggregate(A, {I, I}, sum(v))", WRONG["duplicate dimension"][3]),
    ])
    def test_the_statements_as_written(self, db, statement, message):
        for target in ("A", "L"):
            with pytest.raises(SchemaError) as err:
                db.execute(statement.replace("(A,", f"({target},"))
            assert str(err.value) == message
        assert db.grid("g").ledger.transfers == []

    def test_the_routes_are_the_ones_named(self, db):
        """With right arguments the grid statements take the routes the
        test names them by."""
        for op, groups in (("aggregate", ["I"]), ("regrid", [2, 2])):
            for agg, route in (("avg", f"partial-{op}"), (SPREAD.name, "gather")):
                node = getattr(q("A"), op)(groups, agg, "v").node
                assert strategy_of(db.explain(node), op) == route

    def test_the_service_answers_400(self, db):
        with QueryService(db, ServiceConfig()) as svc:
            with ShimClient(*svc.address) as client:
                sid = client.new_session()
                with pytest.raises(ServiceError) as err:
                    client.execute_query(sid, "select regrid(A, [0, 2], avg(v))")
                client.release_session(sid)
        assert err.value.status == 400
        assert "SchemaError: regrid factors must be >= 1" in str(err.value)
        assert db.grid("g").ledger.transfers == []


class TestHolisticRegridOnTheGrid:
    def test_matches_local_and_ships_each_present_cell(self, db):
        arr, local = db.lookup("A"), db.lookup("L")
        ledger = db.grid("g").ledger
        present = local.count_present()
        assert 0 < present < local.count_occupied()  # NULL cells stay home

        got = arr.regrid([2, 2], SPREAD, "v")
        assert cells(got) == cells(content.regrid(local, [2, 2], SPREAD, "v"))
        assert ledger.by_reason() == {"regrid": present * arr.cell_nbytes}
        assert len(ledger.transfers) == present

        ledger.reset()  # the holistic aggregate meters alike
        arr.aggregate(["I"], SPREAD, "v")
        assert ledger.by_reason() == {"aggregate": present * arr.cell_nbytes}
        assert len(ledger.transfers) == present

    def test_the_statement_gathers_and_matches_local(self, db):
        statement = "select regrid({}, [2, 3], grouping_spread(v))"
        assert cells(db.query(statement.format("A"))) == cells(
            db.query(statement.format("L"))
        )
