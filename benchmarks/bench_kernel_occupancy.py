"""Built-in operator cost against occupancy (EXPERIMENTS.md, E1's second table).

The plane kernels run chunk by chunk over the chunks that exist.  This
prints, per operator, best-of-N milliseconds on the benchmark's 48x48x4
array — dense, and with one NULL and one EMPTY cell — and on arrays whose
occupied fraction is tiny: two cells at opposite corners of a 100000^2
extent, and 500 one-cell chunks on the diagonal of an unbounded array.
None of the columns may depend on the declared or high-water extents.

    PYTHONPATH=src python benchmarks/bench_kernel_occupancy.py [--repeats N]
"""

import argparse
import time

import numpy as np

from repro import SciArray, define_array
from repro.core import ops
from repro.query.ast import AttrPredicate, PredicateConjunction


def best_ms(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times) * 1e3


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


def diagonal(chunks):
    arr = define_array("D", {"v": "float"}, ["x", "y"]).create("d", ["*", "*"])
    for i in range(chunks):
        arr[32 * i + 1, 32 * i + 1] = float(i)
    return arr


def operators(arr, attr, threshold, factors):
    dims = arr.dim_names
    pred = PredicateConjunction((AttrPredicate(attr, ">", threshold),))
    return {
        "filter": lambda: ops.filter(arr, pred),
        "project": lambda: ops.project(arr, [attr]),
        "aggregate": lambda: ops.aggregate(arr, [dims[0]], "sum"),
        "aggregate_all": lambda: ops.content.aggregate_all(arr, "avg"),
        "regrid": lambda: ops.regrid(arr, factors, "avg"),
        "subsample": lambda: ops.subsample(arr, {dims[0]: (3, 14)}),
        "sjoin (full)": lambda: ops.sjoin(arr, arr, [(d, d) for d in dims]),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=40)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    columns = {
        "dense 48x48x4": operators(cube(False), "flux", 0.5, [4, 4, 1]),
        "one NULL + one EMPTY": operators(cube(True), "flux", 0.5, [4, 4, 1]),
        "2 cells in 100000^2": operators(corners(100000), "v", 1.5, [4, 4]),
        "500 one-cell chunks": operators(diagonal(500), "v", 1.5, [4, 4]),
    }
    for label, fns in columns.items():
        print(label)
        for name, fn in fns.items():
            print(f"  {name:14s} {best_ms(fn, args.repeats):9.3f} ms", flush=True)


if __name__ == "__main__":
    main()
