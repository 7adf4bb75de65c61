"""E1's second table: built-in operator cost against occupancy.

The plane kernels run chunk by chunk over the chunks that exist.  Each
operator — the structural plane copies included — is timed on the benchmark's 48x48x4 array — dense, and with one
NULL and one EMPTY cell — and on arrays whose occupied fraction is tiny:
two cells at opposite corners of a 100000^2 extent, and 500 one-cell
chunks on the diagonal of an unbounded array.  The summary test asserts
what the table shows: no operator's cost follows the declared or
high-water *box*, only the chunks allocated — and, for ``subsample``, the
per-dimension length of the ``source_index`` it attaches to its output.
"""

import numpy as np
import pytest

from repro import SciArray, define_array
from repro.bench.harness import measure, ratio
from repro.core import ops
from repro.query.ast import AttrPairsEqual, AttrPredicate, PredicateConjunction


def cube(holes):
    schema = define_array("R", {"flux": "float", "err": "float"}, ["x", "y", "t"])
    rng = np.random.default_rng(7)
    data = {"flux": rng.normal(size=(48, 48, 4)), "err": rng.random((48, 48, 4))}
    arr = SciArray.from_numpy(schema, data, name="R")
    if holes:
        arr.set_null((5, 6, 2))
        arr.delete((40, 41, 3))
    return arr


def corners(side):
    arr = define_array("S", {"v": "float"}, ["x", "y"]).create("s", [side, side])
    arr[1, 1], arr[side, side] = 1.0, 2.0
    return arr


def diagonal(chunks, spacing=32):
    arr = define_array("D", {"v": "float"}, ["x", "y"]).create("d", ["*", "*"])
    for i in range(chunks):
        arr[spacing * i + 1, spacing * i + 1] = float(i)
    return arr


def operators(arr, attr, threshold, factors):
    dims = arr.dim_names
    pred = PredicateConjunction((AttrPredicate(attr, ">", threshold),))
    turned = [(f"{d}_n", arr.high_water(d)) for d in reversed(dims)]
    pair = define_array("P", {"p": "float"}, ["k"]).create("pair", [2])
    pair[1], pair[2] = 1.0, threshold
    return {
        "transpose": lambda: ops.transpose(arr, dims[::-1]),
        "add_dimension": lambda: ops.add_dimension(arr, "w"),
        "concatenate": lambda: ops.concatenate(arr, arr, dims[0]),
        "reshape": lambda: ops.reshape(arr, dims[::-1], turned),
        "cross_product": lambda: ops.cross_product(arr, pair),
        "cjoin": lambda: ops.cjoin(arr, pair, AttrPairsEqual(((attr, "p"),))),
        "filter": lambda: ops.filter(arr, pred),
        "project": lambda: ops.project(arr, [attr]),
        "aggregate": lambda: ops.aggregate(arr, [dims[0]], "sum"),
        "aggregate_all": lambda: ops.content.aggregate_all(arr, "avg"),
        "regrid": lambda: ops.regrid(arr, factors, "avg"),
        "subsample": lambda: ops.subsample(arr, {dims[0]: (3, 14)}),
        "sjoin_full": lambda: ops.sjoin(arr, arr, [(d, d) for d in dims]),
    }


OPERATORS = list(operators(corners(4), "v", 1.5, [4, 4]))
COLUMNS = {
    "dense_48x48x4": lambda: operators(cube(False), "flux", 0.5, [4, 4, 1]),
    "one_null_one_empty": lambda: operators(cube(True), "flux", 0.5, [4, 4, 1]),
    "2_cells_in_100000sq": lambda: operators(corners(100000), "v", 1.5, [4, 4]),
    "500_one_cell_chunks": lambda: operators(diagonal(500), "v", 1.5, [4, 4]),
}


@pytest.fixture(scope="module", params=list(COLUMNS))
def column(request):
    return COLUMNS[request.param]()


@pytest.mark.parametrize("operator", OPERATORS)
def test_operator(benchmark, column, operator):
    benchmark(column[operator])


def test_cost_follows_chunks_not_extents(benchmark):
    """Same allocated chunks, 100x the extent per dimension: a kernel that
    walked the declared box (bounded) or the high-water box (unbounded)
    would be ~10^4x slower; chunk-wise kernels stay within a small factor.
    ``subsample`` lists one source index per selected value of every
    dimension, so it may grow with the unconstrained dimension's length
    (100x here) — per dimension, never the box."""
    pairs = {
        "declared": (corners(1000), corners(100000)),
        "highwater": (diagonal(20), diagonal(20, spacing=3200)),
    }
    for label, (small, huge) in pairs.items():
        near = operators(small, "v", 1.5, [4, 4])
        far = operators(huge, "v", 1.5, [4, 4])
        for name in OPERATORS:
            near_m = measure(near[name], repeats=50)
            far_m = measure(far[name], repeats=50)
            benchmark.extra_info[f"{label}.{name}"] = ratio(far_m, near_m)
            limit = 150 if name == "subsample" else 4
            assert far_m.per_call < limit * near_m.per_call + 1e-3, (
                label, name, near_m, far_m)
    benchmark(lambda: None)
