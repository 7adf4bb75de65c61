"""What a grid ``sjoin`` returns and moves, pinned before the join's
partition operands stopped being assembled into arrays.

Each case builds a fresh 4-node disk grid and loads two 2-D arrays
(10x10, stride 4x4; left ``{v: float}``, right ``{v: float, w: int}``,
so the clashing right name becomes ``v_r``; values multiples of 1/4).
The cases cover both routes — co-partitioned hash arrays join in place, a
hash ⋈ range join shuffles the right operand — at k = 1 and k = 2, NULL
cells on both sides, a sparse right side that leaves most of its
partitions empty, operands with no cell in common (an empty result), a
permuted ``on`` (``A.x = B.y and A.y = B.x`` on the square arrays), a
dead node served by a replica and ``degraded=True`` over a dead chain.

Per case the test compares the result's digest (SHA-256 of its attribute
and dimension names and its canonical cells), ``count_occupied``, the
ledger's ``by_reason()``, ``len(ledger.transfers)`` and
``scheduler.tasks`` with the values recorded before the change, plus the
coverage a degraded join reports.
"""

import hashlib

import pytest

from repro.cluster.grid import Grid
from repro.cluster.partitioning import HashPartitioner, RangePartitioner
from repro.cluster.replication import CoverageReport, DegradedResult
from repro.core.ops.structural import sjoin
from repro.core.schema import define_array
from repro.storage.loader import LoadRecord

pytestmark = pytest.mark.tier1

SIDE = 10
STRAIGHT = [("x", "x"), ("y", "y")]
PERMUTED = [("x", "y"), ("y", "x")]


def hashed():
    return HashPartitioner(4)


def ranged():
    return RangePartitioner(4, dim=0, boundaries=[3, 5, 8])


def dense(scale):
    return {
        (x, y): (scale * (x * SIDE + y) / 4,)
        for x in range(1, SIDE + 1) for y in range(1, SIDE + 1)
        if (x * 7 + y * 3) % 5  # holes, different on each side
    }


def right_cells(cells):
    return {c: v + (int(4 * v[0]) % 9,) for c, v in cells.items()}


def with_nulls(cells, where):
    return {c: None if c in where else v for c, v in cells.items()}


LEFT = dense(1.0)
RIGHT = right_cells(dense(3.0))
NULLS = {(1, 2), (2, 2), (4, 7), (9, 9), (10, 1)}
SPARSE = right_cells({(1, 1): (0.25,), (2, 3): (0.5,), (3, 6): (-1.75,)})
FAR = {(x, y): v for (x, y), v in LEFT.items() if x > 5}
NEAR = {(x, y): v for (x, y), v in RIGHT.items() if x <= 5}

#: case -> (k, left partitioner, right partitioner, left cells, right
#: cells, on, dead node or None, degraded)
CASES = {
    "copartitioned_k2": (2, hashed, hashed, LEFT, RIGHT, None, None, False),
    "copartitioned_k1": (1, hashed, hashed, LEFT, RIGHT, None, None, False),
    "shuffle_k2": (2, hashed, ranged, LEFT, RIGHT, None, None, False),
    "shuffle_k1": (1, hashed, ranged, LEFT, RIGHT, None, None, False),
    "nulls": (
        2, hashed, hashed, with_nulls(LEFT, NULLS),
        with_nulls(RIGHT, {(2, 2), (4, 7), (5, 5), (10, 1)}),
        None, None, False,
    ),
    "nulls_shuffle": (
        2, ranged, hashed, with_nulls(LEFT, NULLS),
        with_nulls(RIGHT, {(2, 2), (4, 7), (5, 5), (10, 1)}),
        None, None, False,
    ),
    "sparse_right": (2, ranged, ranged, LEFT, SPARSE, None, None, False),
    "sparse_right_shuffle": (2, hashed, ranged, LEFT, SPARSE, None, None, False),
    "disjoint": (2, ranged, ranged, FAR, NEAR, None, None, False),
    "permuted": (2, hashed, hashed, LEFT, RIGHT, PERMUTED, None, False),
    "permuted_shuffle": (2, hashed, ranged, LEFT, RIGHT, PERMUTED, None, False),
    "dead_node": (2, hashed, hashed, LEFT, RIGHT, None, 1, False),
    "dead_node_shuffle": (2, hashed, ranged, LEFT, RIGHT, None, 1, False),
    "degraded_dead_chain": (1, hashed, hashed, LEFT, RIGHT, None, 2, True),
    "degraded_dead_chain_shuffle": (1, hashed, ranged, LEFT, RIGHT, None, 2, True),
}

#: case -> (digest, count_occupied, ledger.by_reason(),
#: len(ledger.transfers), scheduler.tasks, coverage or None), recorded
#: at the parent commit (the permuted cases once the parent routed a
#: permuted join's right cells to their partners' partitions).
PINNED = {
    'copartitioned_k2': (
        '83bbed4643423d12', 80,
        {'load': 4480, 'replication': 4480, 'gather': 4480},
        324, 12, None,
    ),
    'copartitioned_k1': (
        '83bbed4643423d12', 80,
        {'load': 4480, 'gather': 4480},
        164, 12, None,
    ),
    'shuffle_k2': (
        '83bbed4643423d12', 80,
        {'load': 4480, 'replication': 4480, 'join_shuffle': 1920, 'gather': 4480},
        384, 12, None,
    ),
    'shuffle_k1': (
        '83bbed4643423d12', 80,
        {'load': 4480, 'join_shuffle': 1920, 'gather': 4480},
        224, 12, None,
    ),
    'nulls': (
        '3947ba97a6bbb3f5', 80,
        {'load': 4480, 'replication': 4480, 'gather': 4480},
        324, 12, None,
    ),
    'nulls_shuffle': (
        '3947ba97a6bbb3f5', 80,
        {'load': 4480, 'replication': 4480, 'join_shuffle': 1920, 'gather': 4480},
        384, 12, None,
    ),
    'sparse_right': (
        '3f730d5da0ea5bce', 2,
        {'load': 2016, 'replication': 2016, 'gather': 112},
        167, 12, None,
    ),
    'sparse_right_shuffle': (
        '3f730d5da0ea5bce', 2,
        {'load': 2016, 'replication': 2016, 'join_shuffle': 64, 'gather': 112},
        171, 12, None,
    ),
    'disjoint': (
        '790361ebdbce9ae7', 0,
        {'load': 2240, 'replication': 2240},
        160, 12, None,
    ),
    'permuted': (
        'd4e9c61fdd685080', 80,
        {'load': 4480, 'replication': 4480, 'join_shuffle': 2176, 'gather': 4480},
        392, 12, None,
    ),
    'permuted_shuffle': (
        'd4e9c61fdd685080', 80,
        {'load': 4480, 'replication': 4480, 'join_shuffle': 1920, 'gather': 4480},
        384, 12, None,
    ),
    'dead_node': (
        '83bbed4643423d12', 80,
        {'load': 4480, 'replication': 4480, 'gather': 4480},
        324, 12, None,
    ),
    'dead_node_shuffle': (
        '83bbed4643423d12', 80,
        {'load': 4480, 'replication': 4480, 'join_shuffle': 1600, 'gather': 4480},
        374, 12, None,
    ),
    'degraded_dead_chain': (
        '463a2eda1e4a2e37', 58,
        {'load': 4480, 'gather': 3248},
        163, 10, CoverageReport(total_partitions=4, missing=(('A', 2),)),
    ),
    'degraded_dead_chain_shuffle': (
        '723ae920142180f4', 40,
        {'load': 4480, 'join_shuffle': 832, 'gather': 2240},
        189, 11, CoverageReport(total_partitions=8, missing=(('A', 2), ('B', 2))),
    ),
}


def load(grid, name, attrs, part, k, cells):
    schema = define_array(name, attrs, ["x", "y"]).bind([SIDE, SIDE])
    arr = grid.create_array(name, schema, part, stride=(4, 4), replication=k)
    arr.load(LoadRecord(c, v) for c, v in sorted(cells.items()))
    return arr


def digest(arr):
    cells = sorted(
        (coords, None if cell is None else tuple(cell.values))
        for coords, cell in arr.cells()
    )
    text = repr((arr.attr_names, arr.dim_names, cells))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run(tmp_path, case):
    k, lpart, rpart, lcells, rcells, on, dead, degraded = CASES[case]
    grid = Grid(4, tmp_path / case, default_replication=k)
    left = load(grid, "A", {"v": "float"}, lpart(), k, lcells)
    right = load(grid, "B", {"v": "float", "w": "int"}, rpart(), k, rcells)
    if dead is not None:
        grid.nodes[dead].fail()
    result = left.sjoin(right, on=on, degraded=degraded)
    coverage = None
    if isinstance(result, DegradedResult):
        result, coverage = result.array, result.coverage
    seen = (
        digest(result), result.count_occupied(), grid.ledger.by_reason(),
        len(grid.ledger.transfers), grid.scheduler.tasks, coverage,
    )
    if not degraded:  # and the local operator agrees
        want = sjoin(left.materialize(), right.materialize(), on or STRAIGHT)
        assert digest(result) == digest(want)
    return seen


@pytest.mark.parametrize("case", list(CASES))
def test_sjoin_returns_and_moves_what_the_parent_recorded(tmp_path, case):
    assert run(tmp_path, case) == PINNED[case]
