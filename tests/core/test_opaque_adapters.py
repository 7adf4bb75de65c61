"""Opaque Python adapted at the operator boundary agrees with the per-cell
reference of ``test_kernels_reference``.

A plain lambda twin of each drawn compiled predicate and pair predicate,
and a :class:`UserAggregate` twin of each built-in — named like it, so it
is opaque, and with and without ``merge`` — must give the reference's
cells under ``filter``, ``cjoin``, ``aggregate``, ``regrid`` and
``aggregate_all``.  The aggregate twins collect their group's values and
finish with the reference's own function, so what is checked is what the
adapter hands an aggregate: every PRESENT value of the group, once.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import UserAggregate
from repro.core import ops
from tests.core.test_kernels_reference import (
    AGGREGATES,
    COMPARE,
    REF_AGG,
    Case,
    _close,
    assert_same_cells,
    build,
    cases,
    random_terms,
    ref_aggregate_all,
    ref_cjoin,
    ref_filter,
    ref_grouped,
)


def twin(name, merge):
    """A user aggregate named *name* that hands each group's values to the
    reference's function."""
    def final(values):
        if not values:
            return {"sum": 0, "count": 0}.get(name)
        return REF_AGG[name](values)

    return UserAggregate(
        name, list, lambda s, v: s + [v], final,
        (lambda a, b: a + b) if merge else None,
    )


@given(cases(), st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_opaque_twins_give_the_reference_cells(params, choices):
    case = build(params)
    rng = np.random.default_rng(choices)
    arr, cells, attrs = case.array, case.cells, case.attrs
    ndim = arr.ndim

    terms = random_terms(rng, attrs)
    assert_same_cells(
        ops.filter(arr, lambda cell: all(
            COMPARE[op](getattr(cell, a), v) for a, op, v in terms
        )),
        ref_filter(cells, attrs, terms),
    )

    few = int(rng.integers(1, 3))
    small = Case(
        "c", "pq"[:few],
        tuple(int(n) for n in rng.integers(1, 4, size=few)),
        tuple(int(s) for s in rng.integers(1, 3, size=few)),
        ("float", "int64")[: int(rng.integers(1, 3))],
        bool(rng.integers(2)), int(rng.integers(2**16)),
    )
    pairs = [
        (int(rng.integers(len(attrs))), int(rng.integers(len(small.attrs))))
        for _ in range(int(rng.integers(1, 3)))
    ]
    assert_same_cells(
        ops.cjoin(arr, small.array, lambda l, r: all(
            l[i] == r[j] for i, j in pairs
        )),
        ref_cjoin(
            cells, small.cells, lambda l, r: all(l[i] == r[j] for i, j in pairs)
        ),
    )

    for name in AGGREGATES:
        for merge in (True, False):
            agg = twin(name, merge)
            target = attrs[int(rng.integers(len(attrs)))]
            idx = attrs.index(target)

            got = ops.content.aggregate_all(arr, agg, attr=target)
            want = ref_aggregate_all(cells, idx, name)
            assert (got is None) == (want is None)
            assert want is None or _close(got, want), (name, got, want)

            positions = [int(p) for p in rng.permutation(ndim)][
                : int(rng.integers(1, ndim + 1))
            ]
            out = ops.aggregate(
                arr, [arr.dim_names[p] for p in positions], agg, attr=target
            )
            assert_same_cells(out, ref_grouped(
                cells, idx, lambda c: tuple(c[p] for p in positions), name
            ))

            factors = [int(f) for f in rng.integers(1, 4, size=ndim)]
            assert_same_cells(
                ops.regrid(arr, factors, agg, attr=target),
                ref_grouped(
                    cells, idx,
                    lambda c: tuple((x - 1) // f + 1 for x, f in zip(c, factors)),
                    name,
                ),
            )
