"""The plane kernels against an independent per-cell reference.

Every UDF-free operator in ``repro.core.ops`` is one numpy body over
``(attribute planes, state mask)``.  The reference below is the paper's
definition of each operator spelled cell by cell over a plain dict
(``coords -> record tuple``, ``None`` for NULL, absent for EMPTY); it
imports nothing from ``repro.core.ops``.  Arrays are drawn ragged on
purpose: extents that neither the chunk side nor the regrid factor
divides, EMPTY holes, NULLs (some over stale values), NaN, int and float
components, an optional unbounded dimension.

The second part keeps cost on the chunks that exist: the same operators
over a few cells spread across a 10^7 x 10^7 extent, where assembling the
bounding box is a 90 TiB allocation.

The last part pins the cliff shut: with ``SciArray.cells`` patched to
raise, built-in work still runs — called directly and as statements
through ``SciDB.execute`` — and opaque Python is still shown cells, by
its adapter's walk over each block (``Chunk.cells``).
"""

import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import SciArray, SciDB, UserAggregate, define_array
from repro.core import ops
from repro.core.array import Chunk
from repro.storage.bucket import Bucket
from repro.storage.format import read_container, write_container
from repro.storage.insitu import open_in_situ
from repro.query import Executor, array as q, attr
from repro.query.ast import AttrPairsEqual, AttrPredicate, PredicateConjunction

COMPARE = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
AGGREGATES = ("sum", "count", "avg", "min", "max", "stdev")


# -- the reference -------------------------------------------------------------


def _extreme(pick):
    # numpy's min/max propagate NaN; Python's depend on argument order.
    return lambda vs: math.nan if any(map(math.isnan, vs)) else float(pick(vs))


def _stdev(vs):
    mean = sum(vs) / len(vs)
    return math.sqrt(sum((v - mean) ** 2 for v in vs) / len(vs))


REF_AGG = {
    "sum": lambda vs: float(sum(vs)),
    "count": len,
    "avg": lambda vs: sum(vs) / len(vs),
    "min": _extreme(min),
    "max": _extreme(max),
    "stdev": _stdev,
}


def ref_filter(cells, attrs, terms):
    def keep(rec):
        return all(COMPARE[op](rec[attrs.index(a)], v) for a, op, v in terms)

    return {
        c: rec if rec is not None and keep(rec) else None
        for c, rec in cells.items()
    }


def ref_project(cells, attrs, wanted):
    idx = [attrs.index(a) for a in wanted]
    return {
        c: None if rec is None else tuple(rec[i] for i in idx)
        for c, rec in cells.items()
    }


def ref_grouped(cells, idx, key_of, agg):
    groups = {}
    for c, rec in cells.items():
        if rec is not None:
            groups.setdefault(key_of(c), []).append(rec[idx])
    return {k: (REF_AGG[agg](vs),) for k, vs in groups.items()}


def ref_aggregate_all(cells, idx, agg):
    values = [rec[idx] for rec in cells.values() if rec is not None]
    if values:
        return REF_AGG[agg](values)
    return {"sum": 0, "count": 0}.get(agg)  # the rest have no value: None


def ref_subsample(cells, selections):
    renumber = [{src: i + 1 for i, src in enumerate(sel)} for sel in selections]
    return {
        tuple(m[x] for m, x in zip(renumber, c)): rec
        for c, rec in cells.items()
        if all(x in m for m, x in zip(renumber, c))
    }


def ref_sjoin(left, right, perm):
    """perm[i] = the right axis joined to left axis i."""
    out = {}
    for c, lrec in left.items():
        rc = [0] * len(c)
        for i, axis in enumerate(perm):
            rc[axis] = c[i]
        if tuple(rc) in right:
            rrec = right[tuple(rc)]
            out[c] = None if lrec is None or rrec is None else lrec + rrec
    return out


def ref_transpose(cells, perm):
    return {tuple(c[p] for p in perm): rec for c, rec in cells.items()}


def ref_add_dimension(cells):
    return {c + (1,): rec for c, rec in cells.items()}


def ref_concatenate(left, right, pos, offset):
    out = dict(left)
    for c, rec in right.items():
        out[c[:pos] + (c[pos] + offset,) + c[pos + 1:]] = rec
    return out


def ref_reshape(cells, perm, old_sizes, new_sizes):
    """Linearize over the dimensions in *perm* order (first slowest), then
    regroup into *new_sizes* (first slowest)."""
    out = {}
    for c, rec in cells.items():
        idx = 0
        for p, size in zip(perm, old_sizes):
            idx = idx * size + c[p] - 1
        new = []
        for size in reversed(new_sizes):
            idx, r = divmod(idx, size)
            new.append(r + 1)
        out[tuple(reversed(new))] = rec
    return out


def ref_cross_product(left, right):
    return {
        lc + rc: None if lrec is None or rrec is None else lrec + rrec
        for lc, lrec in left.items() for rc, rrec in right.items()
    }


def ref_cjoin(left, right, holds):
    return {
        lc + rc: lrec + rrec if holds(lrec, rrec) else None
        for lc, lrec in left.items() if lrec is not None
        for rc, rrec in right.items() if rrec is not None
    }


# -- models <-> arrays ------------------------------------------------------------


def as_model(array):
    return {
        c: None if cell is None else tuple(cell.values)
        for c, cell in array.cells()
    }


def walk(cells):
    """``(coords, record)`` pairs in the order given, made comparable:
    NaN by name, a nested array by its own cells."""
    def plain(v):
        if isinstance(v, SciArray):
            return ("array", walk(v.cells()))
        return "nan" if isinstance(v, float) and math.isnan(v) else v

    return [
        (c, None if cell is None else tuple(map(plain, cell.values)))
        for c, cell in cells
    ]


def assert_same_cells(array, expected):
    got = as_model(array)
    assert set(got) == set(expected), "occupied (PRESENT or NULL) cells differ"
    for c, want in expected.items():
        have = got[c]
        assert (have is None) == (want is None), f"NULL-ness differs at {c}"
        for h, w in zip(have or (), want or ()):
            assert _close(h, w), f"{c}: {h!r} != {w!r}"


def _close(have, want):
    if isinstance(want, float) and math.isnan(want):
        return isinstance(have, float) and math.isnan(have)
    return math.isclose(have, want, rel_tol=1e-9, abs_tol=1e-9)


class Case:
    """One random array (and its dict model) built from plain numbers."""

    P_EMPTY, P_NULL = 0.25, 0.2  # the rest PRESENT

    def __init__(self, name, dim_names, extents, chunk, types, unbounded, seed):
        rng = np.random.default_rng(seed)
        self.attrs = [f"{name}{i}" for i in range(len(types))]
        self.types = types
        schema = define_array(
            f"{name}_t", dict(zip(self.attrs, types)), list(dim_names)
        )
        sizes = list(extents)
        if unbounded:
            sizes[-1] = "*"
        self.array = schema.create(name, sizes, chunk_shape=chunk)
        self.cells = {}
        touched = 0  # deletes do not lower an unbounded high-water mark
        for c in itertools.product(*(range(1, n + 1) for n in extents)):
            roll = rng.random()
            stale = rng.random() < 0.5
            if roll >= self.P_EMPTY or stale:
                touched = max(touched, c[-1])
            if roll < self.P_EMPTY:
                if stale:  # written, then deleted: the plane keeps the value
                    self.array[c] = self._record(rng, nan=False)
                    self.array.delete(c)
            elif roll < self.P_EMPTY + self.P_NULL:
                if stale:
                    self.array[c] = self._record(rng, nan=False)
                self.array.set_null(c)
                self.cells[c] = None
            else:
                rec = self._record(rng)
                self.array[c] = rec
                self.cells[c] = rec
        # the box an operator sees: declared sizes, high-water when unbounded
        self.bounds = list(extents)
        if unbounded:
            self.bounds[-1] = touched

    def _record(self, rng, nan=True):
        # Quarter-valued numbers: sums are exact in any order.
        rec = []
        for t in self.types:
            if t == "string":
                rec.append("tag" * int(rng.integers(0, 3)))
            elif t is NESTED:
                inner = NESTED.create("inner", [3])
                inner[int(rng.integers(1, 4))] = int(rng.integers(-9, 9))
                rec.append(inner)
            elif t == "float":
                if nan and rng.random() < 0.05:
                    rec.append(math.nan)
                else:
                    rec.append(float(rng.integers(-40, 40)) / 4)
            else:
                rec.append(int(rng.integers(-9, 9)))
        return tuple(rec)


NESTED = define_array("Inner", {"item": "int64"}, ["rank"])


@st.composite
def cases(draw, object_types=()):
    ndim = draw(st.integers(1, 3))
    extents = draw(st.lists(st.integers(1, 7), min_size=ndim, max_size=ndim))
    chunk = draw(st.lists(st.integers(1, 4), min_size=ndim, max_size=ndim))
    types = draw(st.lists(
        st.sampled_from(["float", "int32", "int64", *object_types]),
        min_size=1, max_size=2,
    ))
    return dict(
        extents=tuple(extents), chunk=tuple(chunk), types=tuple(types),
        unbounded=draw(st.booleans()), seed=draw(st.integers(0, 2**16)),
    )


def build(params, name="a", dim_names="xyz"):
    ndim = len(params["extents"])
    return Case(name, dim_names[:ndim], **params)


def random_terms(rng, attrs):
    return [
        (attrs[int(rng.integers(len(attrs)))],
         list(COMPARE)[int(rng.integers(6))],
         float(rng.integers(-12, 12)) / 4)
        for _ in range(int(rng.integers(1, 3)))
    ]


# -- the property ------------------------------------------------------------------


class TestKernelsMatchTheReference:
    # No generated case has failed yet (1500-example runs included), so
    # there is no shrunk failure to pin; these two keep the corners the
    # old forks tripped on in every run: an unbounded axis whose tail is
    # EMPTY, and an int plane whose extent 7 no chunk side or factor divides.
    @given(cases(), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    @example(dict(extents=(1, 2), chunk=(1, 1), types=("float",),
                  unbounded=True, seed=0), 1)
    @example(dict(extents=(7,), chunk=(4,), types=("int32", "float"),
                  unbounded=False, seed=3), 4)
    def test_every_builtin_operator(self, params, choices):
        case = build(params)
        rng = np.random.default_rng(choices)
        arr, cells, attrs = case.array, case.cells, case.attrs
        ndim = arr.ndim
        assert arr.bounds == tuple(case.bounds)

        # filter, compiled predicate
        terms = random_terms(rng, attrs)
        pred = PredicateConjunction(tuple(AttrPredicate(*t) for t in terms))
        assert_same_cells(ops.filter(arr, pred), ref_filter(cells, attrs, terms))

        # project
        wanted = [attrs[i] for i in rng.permutation(len(attrs))][
            : int(rng.integers(1, len(attrs) + 1))
        ]
        assert_same_cells(
            ops.project(arr, wanted), ref_project(cells, attrs, wanted)
        )

        for agg in AGGREGATES:
            target = attrs[int(rng.integers(len(attrs)))]
            idx = attrs.index(target)

            # aggregate_all
            got = ops.content.aggregate_all(arr, agg, attr=target)
            want = ref_aggregate_all(cells, idx, agg)
            assert (got is None) == (want is None)
            assert want is None or _close(got, want), (agg, got, want)

            # aggregate, random non-empty group set in random order
            positions = [int(p) for p in rng.permutation(ndim)][
                : int(rng.integers(1, ndim + 1))
            ]
            out = ops.aggregate(
                arr, [arr.dim_names[p] for p in positions], agg, attr=target
            )
            assert_same_cells(out, ref_grouped(
                cells, idx, lambda c: tuple(c[p] for p in positions), agg
            ))

            # regrid, factors that need not divide the extents
            factors = [int(f) for f in rng.integers(1, 4, size=ndim)]
            out = ops.regrid(arr, factors, agg, attr=target)
            assert out.bounds == tuple(
                -(-b // f) for b, f in zip(case.bounds, factors)
            )
            assert_same_cells(out, ref_grouped(
                cells, idx,
                lambda c: tuple((x - 1) // f + 1 for x, f in zip(c, factors)),
                agg,
            ))

        # subsample: a range, a value set, a callable or a single index
        predicate, selections = {}, []
        for d, hw in enumerate(case.bounds):
            every = list(range(1, hw + 1))
            kind = int(rng.integers(5))
            if kind == 0 or not every:
                sel = every
            elif kind == 1:
                lo, hi = sorted(int(v) for v in rng.integers(1, hw + 1, size=2))
                predicate[arr.dim_names[d]] = (lo, hi)
                sel = list(range(lo, hi + 1))
            elif kind == 2:
                sel = sorted({int(v) for v in rng.integers(1, hw + 1, size=3)})
                predicate[arr.dim_names[d]] = set(sel)
            elif kind == 3:
                predicate[arr.dim_names[d]] = lambda v: v % 2 == 0
                sel = [v for v in every if v % 2 == 0]
            else:
                pick = int(rng.integers(1, hw + 1))
                predicate[arr.dim_names[d]] = pick
                sel = [pick]
            selections.append(sel)
        out = ops.subsample(arr, predicate)
        assert_same_cells(out, ref_subsample(cells, selections))
        assert out.bounds == tuple(len(sel) for sel in selections)

        # full-dimension sjoin against a differently ragged partner whose
        # dimensions are a permutation of ours
        perm = [int(p) for p in rng.permutation(ndim)]
        other_extents = [0] * ndim
        for i, axis in enumerate(perm):
            other_extents[axis] = max(
                1, params["extents"][i] + int(rng.integers(-1, 2))
            )
        other = Case(
            "b", "uvw"[:ndim], tuple(other_extents),
            tuple(int(s) for s in rng.integers(1, 5, size=ndim)),
            ("float", "int64")[: int(rng.integers(1, 3))],
            bool(rng.integers(2)), int(rng.integers(2**16)),
        )
        on = [
            (arr.dim_names[i], other.array.dim_names[axis])
            for i, axis in enumerate(perm)
        ]
        assert_same_cells(
            ops.sjoin(arr, other.array, on),
            ref_sjoin(cells, other.cells, perm),
        )

        # transpose, add_dimension
        assert_same_cells(
            ops.transpose(arr, [arr.dim_names[p] for p in perm]),
            ref_transpose(cells, perm),
        )
        assert_same_cells(ops.add_dimension(arr, "w"), ref_add_dimension(cells))

        # reshape: linearize in a random order, regroup into the extents
        # shuffled, then split or merged
        old_sizes = [case.bounds[p] for p in perm]
        new_sizes = [case.bounds[int(p)] for p in rng.permutation(ndim)]
        if rng.integers(2):
            new_sizes = [math.prod(new_sizes[:-1]), new_sizes[-1]]
        if math.prod(old_sizes):
            out = ops.reshape(
                arr, [arr.dim_names[p] for p in perm],
                [(f"n{i}", size) for i, size in enumerate(new_sizes)],
            )
            assert_same_cells(out, ref_reshape(cells, perm, old_sizes, new_sizes))

        # concatenate with a differently ragged array of the same type, along
        # the one dimension whose extents may differ
        pos = ndim - 1 if params["unbounded"] else int(rng.integers(ndim))
        more = list(params["extents"])
        more[pos] = int(rng.integers(1, 6))
        tail = Case(
            "a", arr.dim_names, tuple(more),
            tuple(int(s) for s in rng.integers(1, 5, size=ndim)),
            params["types"], pos == ndim - 1 and bool(rng.integers(2)),
            int(rng.integers(2**16)),
        )
        out = ops.concatenate(arr, tail.array, arr.dim_names[pos])
        assert_same_cells(
            out, ref_concatenate(cells, tail.cells, pos, case.bounds[pos])
        )
        assert out.bounds[pos] == case.bounds[pos] + tail.bounds[pos]

        # cross_product and cjoin against a small 1-2 dimensional partner
        few = int(rng.integers(1, 3))
        small = Case(
            "c", "pq"[:few],
            tuple(int(n) for n in rng.integers(1, 4, size=few)),
            tuple(int(s) for s in rng.integers(1, 3, size=few)),
            ("float", "int64")[: int(rng.integers(1, 3))],
            bool(rng.integers(2)), int(rng.integers(2**16)),
        )
        assert_same_cells(
            ops.cross_product(arr, small.array),
            ref_cross_product(cells, small.cells),
        )
        pairs = [
            (int(rng.integers(len(attrs))), int(rng.integers(len(small.attrs))))
            for _ in range(int(rng.integers(1, 3)))
        ]
        equal = AttrPairsEqual(
            tuple((attrs[i], small.attrs[j]) for i, j in pairs)
        )
        assert_same_cells(
            ops.cjoin(arr, small.array, equal),
            ref_cjoin(
                cells, small.cells,
                lambda l, r: all(l[i] == r[j] for i, j in pairs),
            ),
        )

    @given(cases(), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_a_statement_examines_the_same_cells_either_way(self, params, choices):
        """Through the executor, a compiled conjunction and the same test
        as an opaque lambda keep the same cells and report the same
        ``cells_examined``: one per PRESENT input cell."""
        case = build(params)
        terms = random_terms(np.random.default_rng(choices), case.attrs)
        executor = Executor()
        executor.register("a", case.array)
        compiled = executor.run(q("a").filter(
            PredicateConjunction(tuple(AttrPredicate(*t) for t in terms))
        ).node)
        opaque = executor.run(q("a").filter(
            lambda cell: all(COMPARE[op](getattr(cell, a), v) for a, op, v in terms)
        ).node)
        expected = ref_filter(case.cells, case.attrs, terms)
        assert_same_cells(compiled.array, expected)
        assert_same_cells(opaque.array, expected)
        present = sum(rec is not None for rec in case.cells.values())
        assert compiled.cells_examined == opaque.cells_examined == present

    @given(params=cases(object_types=("string", NESTED)))
    @settings(max_examples=60, deadline=None)
    def test_one_walk_from_planes_to_cells(self, params, tmp_path_factory):
        """An array, its blocks through the bucket image and its container
        all hand back the same cells in the same order."""
        arr = build(params).array
        want = walk(arr.cells())
        assert walk(arr.cells(include_null=False)) == [
            (c, rec) for c, rec in want if rec is not None
        ]
        # A nested array does not pickle (its types hold closures), so
        # neither byte image can carry one: its blocks are walked as built.
        scalar = NESTED not in params["types"]
        stored = []
        for origin, planes, state in arr.blocks():
            block = Bucket(arr.schema, origin, state.shape, state, planes)
            if scalar:
                block = Bucket.from_bytes(arr.schema, block.to_bytes("auto"))
                assert block.origin == origin and block.shape == state.shape
            stored += block.cells()
        assert walk(stored) == want
        if not scalar:
            return
        path = tmp_path_factory.mktemp("walk") / "a.scidb"
        write_container(path, arr)
        assert walk(open_in_situ(path).cells()) == want
        loaded = read_container(path).to_sciarray()
        assert dict(walk(loaded.cells())) == dict(want)
        if all("nan" not in (rec or ()) for _, rec in want):
            assert loaded.content_equal(arr)  # which says NaN != NaN

    def test_an_array_with_no_cells(self):
        schema = define_array("E", {"e0": "float"}, ["x", "y"])
        arr = schema.create("e", [3, "*"])
        assert arr.bounds == (3, 0)
        pred = PredicateConjunction((AttrPredicate("e0", ">", 0.0),))
        for out in (
            ops.filter(arr, pred), ops.project(arr, ["e0"]),
            ops.aggregate(arr, ["x"], "min"), ops.regrid(arr, [2, 2], "avg"),
            ops.subsample(arr, {"x": (1, 2)}),
            ops.sjoin(arr, arr, [("x", "x"), ("y", "y")]),
        ):
            assert out.count_occupied() == 0
        assert ops.content.aggregate_all(arr, "count") == 0
        assert ops.content.aggregate_all(arr, "max") is None


    def test_integer_planes_reduce_exactly(self):
        schema = define_array("I", {"n": "int64"}, ["x"])
        arr = schema.create("i", [40])  # two chunks, and a hole between
        arr[1], arr[2], arr[40] = 2**60, 1, 2**60 + 1
        arr.set_null(3)
        assert ops.content.aggregate_all(arr, "max") == 2**60 + 1
        assert ops.content.aggregate_all(arr, "min") == 1
        assert ops.content.aggregate_all(arr, "sum") == 2**61 + 2
        assert ops.content.aggregate_all(arr, "count") == 3

    def test_block_fn_must_return_every_output_plane(self):
        from repro.core.errors import SchemaError

        schema = define_array("B", {"v": "float"}, ["x"])
        arr = SciArray.from_numpy(schema, np.arange(4.0))
        with pytest.raises(SchemaError, match="missing planes"):
            ops.apply(
                arr, output=[("a", "float"), ("b", "float")],
                block_fn=lambda planes: {"a": planes["v"]},
            )


# -- cost follows the allocated chunks ------------------------------------------------

FAR = 10**7


@pytest.fixture(params=["bounded", "unbounded"])
def scattered(request):
    """Four cells in three chunks of a 10^7 x 10^7 array, corners apart."""
    schema = define_array("F", {"f0": "float", "f1": "int64"}, ["x", "y"])
    sizes = [FAR, FAR] if request.param == "bounded" else ["*", "*"]
    arr = schema.create("far", sizes)
    model = {
        (1, 1): (1.5, 3), (2, 30): (-0.25, 8),
        (40, FAR): None, (FAR - 3, FAR): (2.25, -4),
    }
    for c, rec in model.items():
        arr[c] = rec
    assert arr.chunk_count() == 3
    return arr, model


class TestCostFollowsTheChunks:
    def test_every_builtin_operator(self, scattered):
        arr, model = scattered
        attrs = ["f0", "f1"]
        pred = PredicateConjunction((AttrPredicate("f0", ">", 0.0),))
        filtered = ops.filter(arr, pred)
        assert_same_cells(filtered, ref_filter(model, attrs, [("f0", ">", 0.0)]))
        assert_same_cells(
            ops.project(arr, ["f1"]), ref_project(model, attrs, ["f1"])
        )
        doubled = ops.apply(
            arr, output=[("d", "float")], block_fn=lambda b: b["f0"] * 2
        )
        assert as_model(doubled) == {
            c: None if rec is None else (rec[0] * 2,) for c, rec in model.items()
        }
        factors = [7, 1000]
        for agg in AGGREGATES:
            for idx, target in enumerate(attrs):
                got = ops.content.aggregate_all(arr, agg, attr=target)
                assert _close(got, ref_aggregate_all(model, idx, agg))
                for positions in ([0], [1], [1, 0]):
                    out = ops.aggregate(
                        arr, [arr.dim_names[p] for p in positions], agg,
                        attr=target,
                    )
                    assert_same_cells(out, ref_grouped(
                        model, idx,
                        lambda c: tuple(c[p] for p in positions), agg,
                    ))
                    assert out.chunk_count() <= 3
                assert_same_cells(
                    ops.regrid(arr, factors, agg, attr=target),
                    ref_grouped(
                        model, idx,
                        lambda c: tuple(
                            (x - 1) // f + 1 for x, f in zip(c, factors)
                        ),
                        agg,
                    ),
                )
        selections = [[1, 40, FAR - 3], list(range(25, 35)) + [FAR]]
        window = ops.subsample(
            arr, {"x": set(selections[0]), "y": set(selections[1])}
        )
        assert_same_cells(window, ref_subsample(model, selections))
        kept = ref_filter(model, attrs, [("f0", ">", 0.0)])
        assert_same_cells(
            ops.sjoin(arr, filtered, [("x", "x"), ("y", "y")]),
            ref_sjoin(model, kept, [0, 1]),
        )
        assert_same_cells(
            ops.sjoin(arr, filtered, [("x", "y"), ("y", "x")]),
            ref_sjoin(model, kept, [1, 0]),
        )

    def test_the_structural_copies(self, scattered):
        arr, model = scattered
        high = arr.bounds  # (FAR, FAR) bounded, (FAR - 3, FAR) high-water
        assert_same_cells(
            ops.transpose(arr, ["y", "x"]), ref_transpose(model, [1, 0])
        )
        assert_same_cells(ops.add_dimension(arr, "w"), ref_add_dimension(model))
        assert_same_cells(
            ops.concatenate(arr, arr, "x"),
            ref_concatenate(model, model, 0, high[0]),
        )
        flat = ops.reshape(arr, ["y", "x"], [("u", high[0] * high[1])])
        assert_same_cells(
            flat, ref_reshape(model, [1, 0], [high[1], high[0]], [flat.bounds[0]])
        )
        pair = define_array("P", {"p0": "float"}, ["k"]).create("pair", [FAR])
        pair[1], pair[FAR] = 1.5, -0.25
        pair.set_null(9)
        few = {(1,): (1.5,), (9,): None, (FAR,): (-0.25,)}
        crossed = ops.cross_product(arr, pair)
        assert_same_cells(crossed, ref_cross_product(model, few))
        assert crossed.chunk_count() == 3 * 2
        assert_same_cells(
            ops.cjoin(arr, pair, AttrPairsEqual((("f0", "p0"),))),
            ref_cjoin(model, few, lambda l, r: l[0] == r[0]),
        )

    def test_reshape_counts_past_int64(self):
        schema = define_array("W", {"v": "float"}, ["x", "y", "z"])
        arr = schema.create("w", [FAR, FAR, FAR])  # 10^21 cells
        model = {(1, 2, 3): (1.0,), (FAR, FAR - 1, FAR - 2): (2.0,), (5, 5, 5): None}
        for c, rec in model.items():
            arr[c] = rec
        out = ops.reshape(
            arr, ["z", "y", "x"], [("a", FAR), ("b", FAR * FAR)]
        )
        assert_same_cells(
            out, ref_reshape(model, [2, 1, 0], [FAR] * 3, [FAR, FAR * FAR])
        )

    def test_a_lone_dimension_is_removed_chunk_by_chunk(self):
        schema = define_array("L", {"v": "float"}, ["x", "one"])
        arr = schema.create("l", [FAR, 1])
        arr[1, 1], arr[FAR, 1] = 1.0, 2.0
        arr.set_null((77, 1))
        out = ops.remove_dimension(arr, "one")
        assert as_model(out) == {(1,): (1.0,), (77,): None, (FAR,): (2.0,)}


# -- the cliff stays closed -------------------------------------------------------


class CellsRequested(Exception):
    pass


@pytest.fixture
def holed():
    """The benchmark's 48x48x4 array with one NULL and one EMPTY cell."""
    rng = np.random.default_rng(7)
    schema = define_array("R", {"flux": "float", "err": "float"}, ["x", "y", "t"])
    data = {"flux": rng.normal(size=(48, 48, 4)), "err": rng.random((48, 48, 4))}
    arr = SciArray.from_numpy(schema, data, name="R")
    arr.set_null((5, 6, 2))
    arr.delete((40, 41, 3))
    model = as_model(arr)
    assert len(model) == 48 * 48 * 4 - 1 and model[(5, 6, 2)] is None
    return arr, model


SUM_LIKE = UserAggregate("usersum", lambda: 0.0, lambda s, v: s + v)
#: Where opaque Python is shown cells: the adapters' one walk.
ADAPTER_WALK = (Chunk, "cells")


class TestTheCliffStaysClosed:
    def test_builtin_work_never_asks_for_cells(self, holed, monkeypatch):
        arr, model = holed
        attrs = ["flux", "err"]
        factors = [4, 4, 1]
        pred = PredicateConjunction((AttrPredicate("flux", ">", 0.5),))
        near = ops.subsample(arr, {"x": (4, 7), "y": (5, 8), "t": (1, 2)})
        corner = ops.subsample(arr, {"x": (5, 6), "y": (6, 7), "t": 2})
        with monkeypatch.context() as m:
            m.setattr(SciArray, "cells", _raise_cells_requested)
            filtered = ops.filter(arr, pred)
            projected = ops.project(arr, ["err"])
            summed = ops.aggregate(arr, ["x"], "sum")
            total = ops.content.aggregate_all(arr, "avg", attr="err")
            coarse = ops.regrid(arr, factors, "avg")
            window = ops.subsample(arr, {"x": (3, 14), "y": (30, 41)})
            joined = ops.sjoin(arr, arr, [(d, d) for d in "xyt"])
            chained = ops.aggregate(filtered, ["t"], "count")
            turned = ops.transpose(arr, ["t", "x", "y"])
            deeper = ops.add_dimension(arr, "w")
            doubled = ops.concatenate(arr, arr, "t")
            folded = ops.reshape(arr, ["t", "y", "x"], [("u", 4 * 48), ("v", 48)])
            crossed = ops.cross_product(near, corner)
            matched = ops.cjoin(
                near, corner, AttrPairsEqual((("flux", "flux"),))
            )
        assert_same_cells(filtered, ref_filter(model, attrs, [("flux", ">", 0.5)]))
        assert_same_cells(projected, ref_project(model, attrs, ["err"]))
        assert_same_cells(
            summed, ref_grouped(model, 0, lambda c: c[:1], "sum")
        )
        assert _close(total, ref_aggregate_all(model, 1, "avg"))
        assert_same_cells(coarse, ref_grouped(
            model, 0,
            lambda c: tuple((x - 1) // f + 1 for x, f in zip(c, factors)), "avg",
        ))
        assert_same_cells(window, ref_subsample(
            model, [range(3, 15), range(30, 42), range(1, 5)]
        ))
        assert_same_cells(joined, ref_sjoin(model, model, [0, 1, 2]))
        assert_same_cells(chained, ref_grouped(
            ref_filter(model, attrs, [("flux", ">", 0.5)]), 0,
            lambda c: c[2:], "count",
        ))
        assert_same_cells(turned, ref_transpose(model, [2, 0, 1]))
        assert_same_cells(deeper, ref_add_dimension(model))
        assert_same_cells(doubled, ref_concatenate(model, model, 2, 4))
        assert_same_cells(
            folded, ref_reshape(model, [2, 1, 0], [4, 48, 48], [4 * 48, 48])
        )
        some, few = as_model(near), as_model(corner)
        assert None in few.values()  # the NULL at (5, 6, 2)
        assert_same_cells(crossed, ref_cross_product(some, few))
        assert_same_cells(
            matched, ref_cjoin(some, few, lambda l, r: l[0] == r[0])
        )
        assert matched.count_present() == 3  # each of the corner's own cells

    def test_statements_never_ask_for_cells(self, holed, monkeypatch):
        """The same cliff through the front door: parse, plan and execute
        add no per-cell step to a built-in statement."""
        arr, model = holed
        attrs = ["flux", "err"]
        db = SciDB()
        db.register("R", arr)
        db.register("S", arr)
        statements = {
            "filter": "select filter(R, flux > 0.5)",
            "subsample": "select subsample(R, x >= 3 and x <= 14 and y >= 30)",
            "aggregate": "select aggregate(R, {x}, sum(flux))",
            "regrid": "select regrid(R, [4, 4, 1], avg(flux))",
            "sjoin": "select sjoin(R, S, R.x = S.x and R.y = S.y and R.t = S.t)",
            "project": "select project(R, err)",
            "chained": q("R").filter(attr("flux") > 0.5)
            .aggregate(["t"], "count").node,
        }
        with monkeypatch.context() as m:
            m.setattr(SciArray, "cells", _raise_cells_requested)
            got = {k: db.execute(stmt) for k, stmt in statements.items()}
        kept = ref_filter(model, attrs, [("flux", ">", 0.5)])
        assert_same_cells(got["filter"].array, kept)
        assert got["filter"].cells_examined == len(model) - 1
        assert_same_cells(got["subsample"].array, ref_subsample(
            model, [range(3, 15), range(30, 49), range(1, 5)]
        ))
        assert_same_cells(
            got["aggregate"].array, ref_grouped(model, 0, lambda c: c[:1], "sum")
        )
        assert_same_cells(got["regrid"].array, ref_grouped(
            model, 0,
            lambda c: ((c[0] - 1) // 4 + 1, (c[1] - 1) // 4 + 1, c[2]), "avg",
        ))
        assert_same_cells(got["sjoin"].array, ref_sjoin(model, model, [0, 1, 2]))
        assert_same_cells(got["project"].array, ref_project(model, attrs, ["err"]))
        assert_same_cells(
            got["chained"].array, ref_grouped(kept, 0, lambda c: c[2:], "count")
        )

    @pytest.mark.parametrize("walk, call", [
        pytest.param(
            ADAPTER_WALK, lambda a: ops.filter(a, lambda cell: cell.flux > 0.5),
            id="lambda-filter",
        ),
        pytest.param(
            ADAPTER_WALK, lambda a: ops.aggregate(a, ["x"], SUM_LIKE),
            id="user-aggregate",
        ),
        pytest.param(
            ADAPTER_WALK, lambda a: ops.content.aggregate_all(a, SUM_LIKE),
            id="user-aggregate-all",
        ),
        pytest.param(
            ADAPTER_WALK, lambda a: ops.regrid(a, [4, 4, 1], SUM_LIKE),
            id="user-regrid",
        ),
        pytest.param(
            ADAPTER_WALK,
            lambda a: ops.apply(a, lambda cell: cell.flux * 2, [("d", "float")]),
            id="apply-fn",
        ),
        pytest.param(
            (SciArray, "cells"), lambda a: ops.sjoin(a, a, [("x", "x")]),
            id="partial-sjoin",
        ),
    ])
    def test_opaque_python_is_shown_cells(self, holed, monkeypatch, walk, call):
        arr, _ = holed
        monkeypatch.setattr(*walk, _raise_cells_requested)
        with pytest.raises(CellsRequested):
            call(arr)

    def test_opaque_python_never_walks_the_array(self, holed, monkeypatch):
        """The converse: with ``SciArray.cells`` raising, every opaque call
        above but the partial-dimension sjoin returns the reference answer,
        its cells built by the adapter from the blocks."""
        arr, model = holed
        attrs = ["flux", "err"]
        factors = [4, 4, 1]
        with monkeypatch.context() as m:
            m.setattr(SciArray, "cells", _raise_cells_requested)
            filtered = ops.filter(arr, lambda cell: cell.flux > 0.5)
            summed = ops.aggregate(arr, ["x"], SUM_LIKE)
            total = ops.content.aggregate_all(arr, SUM_LIKE)
            coarse = ops.regrid(arr, factors, SUM_LIKE)
            doubled = ops.apply(arr, lambda cell: cell.flux * 2, [("d", "float")])
        assert_same_cells(filtered, ref_filter(model, attrs, [("flux", ">", 0.5)]))
        assert_same_cells(summed, ref_grouped(model, 0, lambda c: c[:1], "sum"))
        assert _close(total, ref_aggregate_all(model, 0, "sum"))
        assert_same_cells(coarse, ref_grouped(
            model, 0,
            lambda c: tuple((x - 1) // f + 1 for x, f in zip(c, factors)), "sum",
        ))
        assert_same_cells(doubled, {
            c: None if rec is None else (rec[0] * 2,) for c, rec in model.items()
        })

    def test_a_user_aggregate_named_like_a_builtin_is_still_opaque(
        self, holed, monkeypatch
    ):
        arr, _ = holed
        impostor = UserAggregate("sum", lambda: 0.0, lambda s, v: s + 2 * v)
        doubled = ops.content.aggregate_all(arr, impostor)
        assert _close(doubled, 2 * ops.content.aggregate_all(arr, "sum"))
        monkeypatch.setattr(*ADAPTER_WALK, _raise_cells_requested)
        with pytest.raises(CellsRequested):
            ops.content.aggregate_all(arr, impostor)

    def test_an_object_component_is_shown_cells(self, monkeypatch):
        schema = define_array("S", {"tag": "string", "v": "float"}, ["x"])
        arr = schema.create("s", [4])
        arr[1] = ("a", 1.0)
        arr[3] = ("b", 3.0)
        by_tag = PredicateConjunction((AttrPredicate("tag", "=", "b"),))
        by_value = PredicateConjunction((AttrPredicate("v", ">", 2.0),))
        assert as_model(ops.filter(arr, by_tag)) == {
            (1,): None, (3,): ("b", 3.0)
        }
        monkeypatch.setattr(*ADAPTER_WALK, _raise_cells_requested)
        with pytest.raises(CellsRequested):
            ops.filter(arr, by_tag)
        # ... but a native term over the same array stays on the planes
        kept = ops.filter(arr, by_value)
        assert kept.count_present() == 1 and kept.count_occupied() == 2


def _raise_cells_requested(*_args, **_kwargs):
    raise CellsRequested()
