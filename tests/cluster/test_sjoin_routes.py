"""Every route of a full-dimension ``sjoin`` joins the same cells.

The local operator over in-memory arrays, the grid joining co-partitioned
operands in place, and the grid shuffling the right operand to the left's
scheme (at k = 1 and k = 2) must agree cell for cell with a dense numpy
reference that imports nothing from the engine.  Operands are sparse,
square and 2-D, with NULL cells, joined on straight or permuted
dimensions (``A.x = B.y and A.y = B.x``).  Divergences the property found
stay below as shrunk regressions.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster.grid import Grid
from repro.cluster.partitioning import (
    BlockCyclicPartitioner,
    HashPartitioner,
    RangePartitioner,
)
from repro.core.array import SciArray
from repro.core.ops import structural
from repro.core.schema import define_array
from repro.storage.loader import LoadRecord

pytestmark = pytest.mark.tier1

STRAIGHT = [("x", "x"), ("y", "y")]
PERMUTED = [("x", "y"), ("y", "x")]
NODES = 3
EMPTY = object()


def reference(side, left, right, on):
    """The join by dense planes: NaN marks a NULL value, a bool plane
    says which cells exist; the right planes are transposed into the
    left's axis order.  Returns ``{coords: (left v, right v, right w) or
    None}``."""

    def dense(cells, width):
        held = np.zeros((side, side), bool)
        values = np.full((side, side, width), np.nan)
        for (x, y), record in cells.items():
            held[x - 1, y - 1] = True
            if record is not None:
                values[x - 1, y - 1] = record
        return held, values

    lheld, lvalues = dense(left, 1)
    rheld, rvalues = dense(right, 2)
    if on == PERMUTED:
        rheld, rvalues = rheld.T, rvalues.transpose(1, 0, 2)
    joined = np.concatenate([lvalues, rvalues], axis=2)
    out = {}
    for x, y in zip(*np.nonzero(lheld & rheld)):
        record = joined[x, y]
        null = np.isnan(record[0]) or np.isnan(record[1])
        out[(int(x) + 1, int(y) + 1)] = None if null else (
            float(record[0]), float(record[1]), int(record[2])
        )
    return out


def schemas(side):
    return (
        define_array("A", {"v": "float"}, ["x", "y"]).bind([side, side]),
        define_array("B", {"v": "float", "w": "int"}, ["x", "y"]).bind([side, side]),
    )


def local(side, cells, schema):
    arr = SciArray(schema)
    for coords, record in cells.items():
        arr.set(coords, record)
    return arr


def grid_join(tmpdir, side, left, right, on, k, right_partitioner):
    grid = Grid(NODES, tmpdir, default_replication=k)
    arrays = []
    for schema, cells, part in zip(
        schemas(side), (left, right), (HashPartitioner(NODES), right_partitioner)
    ):
        arr = grid.create_array(schema.name, schema, part, stride=(2, 2))
        arr.load(LoadRecord(c, v) for c, v in sorted(cells.items()))
        arrays.append(arr)
    return arrays[0].sjoin(arrays[1], on=on)


def contents(arr):
    return {
        coords: None if cell is None else tuple(cell.values)
        for coords, cell in arr.cells()
    }


def assert_routes_agree(side, left, right, on):
    want = reference(side, left, right, on)
    lschema, rschema = schemas(side)
    got = structural.sjoin(local(side, left, lschema), local(side, right, rschema), on)
    assert contents(got) == want, "local"
    shuffled = (
        RangePartitioner(NODES, 0, [1, 2]), BlockCyclicPartitioner(NODES, (2, 1)),
    )
    for k in (1, 2):
        for route, part in (
            ("copartitioned", HashPartitioner(NODES)),
            *(("shuffle", p) for p in shuffled),
        ):
            with tempfile.TemporaryDirectory() as tmpdir:
                got = grid_join(tmpdir, side, left, right, on, k, part)
            assert contents(got) == want, (route, k, part.descriptor())


def records(side, width):
    """Each cell of the square EMPTY, NULL or a record."""
    value = st.integers(-40, 40).map(lambda n: n / 4)
    record = (
        st.tuples(value) if width == 1
        else st.tuples(value, st.integers(-9, 9))
    )
    cells = st.lists(
        st.just(EMPTY) | st.none() | record,
        min_size=side * side, max_size=side * side,
    )
    return cells.map(lambda drawn: {
        (i // side + 1, i % side + 1): cell
        for i, cell in enumerate(drawn) if cell is not EMPTY
    })


@st.composite
def joins(draw):
    side = draw(st.integers(1, 6))
    return (
        side, draw(records(side, 1)), draw(records(side, 2)),
        draw(st.sampled_from([STRAIGHT, PERMUTED])),
    )


@settings(
    max_examples=30, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(joins())
def test_every_route_joins_the_same_cells(join):
    assert_routes_agree(*join)


def test_a_permuted_join_pairs_a_cell_with_its_transposed_partner():
    # The grid once sent each right cell to the partition of its own
    # coordinates, not of its partner's: (2, 3) met no partner.
    assert_routes_agree(3, {(2, 3): (1.0,)}, {(3, 2): (2.0, 3)}, PERMUTED)
