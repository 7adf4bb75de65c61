"""What the opaque routes return, pinned before plain callables and user
aggregates were adapted to the block protocol at the operator boundary.

An opaque route is one where the engine cannot read the work off the
planes: a plain Python predicate, ``apply`` function or pair predicate; a
compiled predicate over an object (``string``) component; a user
aggregate, including one named like a built-in; a built-in aggregate over
an object plane (``uncertain float``); a registered UDF called textually.

``L`` is 7x5 at stride 3x2 with ``f`` floats that are not exactly
representable and include NaN, ``n`` int64 values above 2**53 and ``s`` a
``string``; some cells are NULL (some over stale values) and some EMPTY.
``A`` is the same cells on a 4-node k=2 grid, for the textual ``apply``
routed ``gather``.  Every step records the result's cell digest (SHA-256
of its canonical text, with the output's components, types and bounds),
its cell count, a scalar's ``repr``, or the type and message of the error
it raised.
"""

import hashlib
import math

import pytest

from repro import SciDB, define_array
from repro.cluster import HashPartitioner
from repro.core import ops
from repro.core.array import SciArray
from repro.core.udf import BUILTIN_AGGREGATES, UserAggregate, define_function
from repro.query.ast import AttrPredicate, PredicateConjunction
from repro.storage.loader import LoadRecord

pytestmark = pytest.mark.tier1

SHAPE = (7, 5)
SCHEMA = define_array(
    "O", {"f": "float", "n": "int64", "s": "string"}, ["x", "y"]
).bind(list(SHAPE))
BUILTINS = [a.name for a in BUILTIN_AGGREGATES]

TOTAL = UserAggregate(  # algebraic
    "total", lambda: 0, lambda s, v: s + v, lambda s: s, lambda a, b: a + b,
)
SPREAD = UserAggregate(  # holistic: order-dependent state, no merge
    "spread", lambda: [], lambda s, v: s + [v],
    lambda s: s[-1] - s[0] if len(s) > 1 else None,
)
FIRST = UserAggregate(  # a final of None makes a NULL cell
    "first", lambda: None, lambda s, v: v if s is None else s,
    lambda s: None if s is None or s != s else s,
)
IMPOSTOR = UserAggregate(  # named like a built-in, computes something else
    "sum", lambda: 0.0, lambda s, v: s + 2 * v, merge=lambda a, b: a + b,
)
USER_AGGS = [TOTAL, SPREAD, FIRST, IMPOSTOR]

#: step -> ("ok", digest, cells), ("value", repr) or ("error", type name,
#: message), recorded at the parent commit.
PINNED = {
    'filter lambda f': ('ok', '4a8791349a7b7ac8', 30),
    'filter lambda nan': ('ok', '3610375531fe9e6f', 30),
    'filter lambda n': ('ok', '50dc9cbd18136ab7', 30),
    'filter lambda s': ('ok', 'faa9ce42ca34daa0', 30),
    'apply fn float': ('ok', '52a42758b4ddaa1f', 30),
    'apply fn int64': ('ok', '515e1814660beaa5', 30),
    'apply fn two outputs': ('ok', 'fa46cabff45ec843', 30),
    'apply fn None': ('ok', 'd803e6cc0c47de5b', 30),
    'apply fn None one output': ('ok', '1080affb965da605', 30),
    'apply fn and block_fn over an object component':
        ('ok', '898c1ccb55eb8824', 30),
    'cjoin lambda f': ('ok', '48081f2495566f2e', 25),
    'cjoin lambda n': ('ok', '23220bbd685b21d8', 120),
    'cjoin lambda nan': ('ok', 'e3d1ad336c75c8a5', 25),
    'filter compiled string': ('ok', 'a76f1839fd652a59', 30),
    'filter compiled string and float': ('ok', '9897a166c97bcb60', 30),
    'apply uncertain': ('ok', '38accaaa701695cf', 9),
    'apply uncertain to float': ('ok', '49b5a0085be776b2', 9),
    'aggregate uncertain sum':
        ('error', 'TypeMismatchError', "value 2.25 ± 0.25 is not valid for type 'float64'"),
    'aggregate uncertain count': ('ok', '2235e8e7ad233c5e', 4),
    'aggregate uncertain avg':
        ('error', 'TypeMismatchError', "value 2.25 ± 0.25 is not valid for type 'float64'"),
    'aggregate uncertain min':
        ('error', 'TypeMismatchError', "value 2.25 ± 0.25 is not valid for type 'float64'"),
    'aggregate uncertain max':
        ('error', 'TypeMismatchError', "value 2.25 ± 0.25 is not valid for type 'float64'"),
    'aggregate uncertain stdev':
        ('error', 'TypeMismatchError', "value 0.0 ± 0.0 is not valid for type 'float64'"),
    'aggregate uncertain total':
        ('error', 'TypeMismatchError', "value 2.25 ± 0.25 is not valid for type 'float64'"),
    'aggregate_all uncertain total': ('value', '19.0 ± 0.7071067811865475'),
    "aggregate ['y'] user total(f)": ('ok', '79122ad4ee8201c1', 5),
    "aggregate ['y', 'x'] user total(f)": ('ok', 'be24708168548c78', 24),
    'regrid [2, 2] user total(f)': ('ok', '275110a57a821610', 12),
    'regrid [3, 4] user total(f)': ('ok', '72dd5e17d44e3ad0', 6),
    'aggregate_all user total(f)': ('value', 'nan'),
    'aggregate_all empty user total(f)': ('value', '0'),
    "aggregate ['y'] user total(n)": ('ok', '14d02157a66b53ae', 5),
    "aggregate ['y', 'x'] user total(n)": ('ok', '89c02dec42c152d3', 24),
    'regrid [2, 2] user total(n)': ('ok', '72a360f3814cc9a3', 12),
    'regrid [3, 4] user total(n)': ('ok', '96db450ee0457629', 6),
    'aggregate_all user total(n)': ('value', '216172782113784890'),
    'aggregate_all empty user total(n)': ('value', '0'),
    "aggregate ['y'] user spread(f)": ('ok', 'c45bf87221173bbe', 5),
    "aggregate ['y', 'x'] user spread(f)": ('ok', '2384d254519e30e2', 24),
    'regrid [2, 2] user spread(f)': ('ok', '3c8e267a68ce8b33', 12),
    'regrid [3, 4] user spread(f)': ('ok', 'e528eed8de959614', 6),
    'aggregate_all user spread(f)': ('value', '0.04000000000000015'),
    'aggregate_all empty user spread(f)': ('value', 'None'),
    "aggregate ['y'] user spread(n)": ('ok', '1f65f0042df62179', 5),
    "aggregate ['y', 'x'] user spread(n)": ('ok', '2384d254519e30e2', 24),
    'regrid [2, 2] user spread(n)': ('ok', '3750fc25ec9f38c8', 12),
    'regrid [3, 4] user spread(n)': ('ok', '7930e3a823f0e43b', 6),
    'aggregate_all user spread(n)': ('value', '64'),
    'aggregate_all empty user spread(n)': ('value', 'None'),
    "aggregate ['y'] user first(f)": ('ok', '8aee28a7467a1be6', 5),
    "aggregate ['y', 'x'] user first(f)": ('ok', 'dd2181dbf15531bd', 24),
    'regrid [2, 2] user first(f)': ('ok', '6a2ebc0da4475381', 12),
    'regrid [3, 4] user first(f)': ('ok', 'a805145859caeedd', 6),
    'aggregate_all user first(f)': ('value', '0.7999999999999999'),
    'aggregate_all empty user first(f)': ('value', 'None'),
    "aggregate ['y'] user first(n)": ('ok', '437332d0996dbc7a', 5),
    "aggregate ['y', 'x'] user first(n)": ('ok', '67a319bc4526775c', 24),
    'regrid [2, 2] user first(n)': ('ok', '0d2528ea30ffa852', 12),
    'regrid [3, 4] user first(n)': ('ok', '9d0971b26a888b7e', 6),
    'aggregate_all user first(n)': ('value', '9007199254741003'),
    'aggregate_all empty user first(n)': ('value', 'None'),
    "aggregate ['y'] user sum(f)": ('ok', 'c8d2eacdfd9031e3', 5),
    "aggregate ['y', 'x'] user sum(f)": ('ok', '1624bb603975e064', 24),
    'regrid [2, 2] user sum(f)': ('ok', '04b5cfde692760bd', 12),
    'regrid [3, 4] user sum(f)': ('ok', '209c2daa2e4f94ee', 6),
    'aggregate_all user sum(f)': ('value', 'nan'),
    'aggregate_all empty user sum(f)': ('value', '0.0'),
    "aggregate ['y'] user sum(n)": ('ok', '47e9d1a0af5e1e4d', 5),
    "aggregate ['y', 'x'] user sum(n)": ('ok', '9099c72e9ae081c8', 24),
    'regrid [2, 2] user sum(n)': ('ok', '22885cb02d452842', 12),
    'regrid [3, 4] user sum(n)': ('ok', 'dea08b00a7084828', 6),
    'aggregate_all user sum(n)': ('value', '4.323455642275697e+17'),
    'aggregate_all empty user sum(n)': ('value', '0.0'),
    "aggregate ['x'] count(s)": ('ok', '8c7ed6da1b00c64d', 7),
    'aggregate_all count(s)': ('value', '24'),
    "aggregate ['x'] min(s)":
        ('error', 'TypeMismatchError', "value 's4' is not valid for type 'float64'"),
    'aggregate_all min(s)': ('value', "'s0'"),
    "aggregate ['x'] max(s)":
        ('error', 'TypeMismatchError', "value 's8' is not valid for type 'float64'"),
    'aggregate_all max(s)': ('value', "'s9'"),
    'aggregate_all empty sum(f)': ('value', '0'),
    'aggregate_all sum(f)': ('value', 'nan'),
    'aggregate_all empty sum(n)': ('value', '0'),
    'aggregate_all sum(n)': ('value', '216172782113784890'),
    'aggregate_all empty count(f)': ('value', '0'),
    'aggregate_all count(f)': ('value', '24'),
    'aggregate_all empty count(n)': ('value', '0'),
    'aggregate_all count(n)': ('value', '24'),
    'aggregate_all empty avg(f)': ('value', 'None'),
    'aggregate_all avg(f)': ('value', 'nan'),
    'aggregate_all empty avg(n)': ('value', 'None'),
    'aggregate_all avg(n)': ('value', '9007199254741034.0'),
    'aggregate_all empty min(f)': ('value', 'None'),
    'aggregate_all min(f)': ('value', 'nan'),
    'aggregate_all empty min(n)': ('value', 'None'),
    'aggregate_all min(n)': ('value', '9007199254741003'),
    'aggregate_all empty max(f)': ('value', 'None'),
    'aggregate_all max(f)': ('value', 'nan'),
    'aggregate_all empty max(n)': ('value', 'None'),
    'aggregate_all max(n)': ('value', '9007199254741067'),
    'aggregate_all empty stdev(f)': ('value', 'None'),
    'aggregate_all stdev(f)': ('value', 'nan'),
    'aggregate_all empty stdev(n)': ('value', 'None'),
    'aggregate_all stdev(n)': ('value', '20.552606962811435'),
    'execute L apply OpaqueTriple(f)': ('ok', 'b941a6e5f49be975', 30),
    'execute L apply OpaqueNext(n)': ('ok', '515e1814660beaa5', 30),
    'execute L apply OpaquePair(f, n)': ('ok', 'be8a36bfafde3348', 30),
    'execute L apply arity':
        ('error', 'TypeMismatchError', "function 'OpaqueNext' expects 1 arguments, got 2"),
    'execute L apply type':
        ('error', 'TypeMismatchError', "value 0.7999999999999999 is not valid for type 'int64'"),
    'execute A apply OpaqueTriple(f)': ('ok', 'b941a6e5f49be975', 30),
    'execute A apply OpaqueNext(n)': ('ok', '515e1814660beaa5', 30),
    'execute A apply OpaquePair(f, n)': ('ok', 'be8a36bfafde3348', 30),
    'execute A apply arity':
        ('error', 'TypeMismatchError', "function 'OpaqueNext' expects 1 arguments, got 2"),
    'execute A apply type':
        ('error', 'TypeMismatchError', "value 0.7999999999999999 is not valid for type 'int64'"),
    'apply fn str into int64':
        ('error', 'TypeMismatchError', "value 'x' is not valid for type 'int64'"),
    'apply fn float into int64':
        ('error', 'TypeMismatchError', "value 1.5 is not valid for type 'int64'"),
    'apply fn too many values':
        ('error', 'TypeMismatchError', 'record has 3 components, schema has 2'),
    'apply fn too few values':
        ('error', 'TypeMismatchError', 'record has 1 components, schema has 2'),
    'apply block_fn over an object component':
        ('error', 'SchemaError', 'array has object-dtype components; supply a per-cell fn'),
    'apply block_fn over uncertain':
        ('error', 'SchemaError', 'array has object-dtype components; supply a per-cell fn'),
    'aggregate final str':
        ('error', 'TypeMismatchError', "value 'x' is not valid for type 'float64'"),
    'aggregate final tuple':
        ('error', 'TypeMismatchError', 'record has 2 components, schema has 1'),
    'regrid transition raises':
        ('error', 'AttributeError', "'float' object has no attribute 'missing'"),
    'filter predicate raises':
        ('error', 'UnknownComponentError', "cell has no component 'nope'; components are ('f', 'n', 's')"),
}


def records():
    for x in range(1, SHAPE[0] + 1):
        for y in range(1, SHAPE[1] + 1):
            if (x * y) % 7 == 3:
                continue  # EMPTY
            if (x + y) % 5 == 0:
                yield LoadRecord((x, y), None)  # NULL
                continue
            f = math.nan if (x, y) == (4, 4) else 0.1 * x + 0.7 / y
            yield LoadRecord(
                (x, y), (f, 2**53 + 10 * x + y, f"s{(3 * x + y) % 11}")
            )


def local_array():
    arr = SciArray(SCHEMA, name="L", chunk_shape=(3, 2))
    for rec in records():
        if rec.values is None:
            arr[rec.coords] = (0.5, 7, "stale")  # the NULL keeps a value
            arr.set_null(rec.coords)
        else:
            arr[rec.coords] = rec.values
    return arr


def uncertain_array():
    schema = define_array("U", {"u": "uncertain float"}, ["x", "y"])
    arr = schema.create("U", [4, 3])
    for x in range(1, 5):
        for y in range(1, 4):
            if (x + y) % 4 == 0:
                continue  # EMPTY
            if x == y:
                arr.set_null((x, y))
            else:
                arr[x, y] = (0.25 * x + y, 0.125 * y)
    return arr


def canonical(arr):
    cells = sorted(
        (coords, None if cell is None else tuple(cell.values))
        for coords, cell in arr.cells()
    )
    types = tuple(str(a.type) for a in arr.schema.attributes)
    return repr((arr.attr_names, types, arr.dim_names, arr.bounds, cells))


def drive(tmp_path):
    local = local_array()
    empty = SciArray(SCHEMA, name="E")
    unc = uncertain_array()
    seen = {}

    def step(name, call):
        try:
            result = call()
        except Exception as exc:  # noqa: BLE001 - the error is the record
            seen[name] = ("error", type(exc).__name__, str(exc))
            return
        if hasattr(result, "array"):
            result = result.array
        if isinstance(result, SciArray):
            text = canonical(result)
            seen[name] = (
                "ok", hashlib.sha256(text.encode()).hexdigest()[:16],
                result.count_occupied(),
            )
        else:
            seen[name] = ("value", repr(result))

    # -- plain callables --------------------------------------------------------
    step("filter lambda f", lambda: ops.filter(local, lambda c: c.f > 0.9))
    step("filter lambda nan", lambda: ops.filter(local, lambda c: c.f != c.f))
    step("filter lambda n", lambda: ops.filter(
        local, lambda c: c.n % 3 == (2**53 + 1) % 3))
    step("filter lambda s", lambda: ops.filter(local, lambda c: c.s < "s5"))
    step("apply fn float", lambda: ops.apply(
        local, lambda c: c.f * 3, [("g", "float")]))
    step("apply fn int64", lambda: ops.apply(
        local, lambda c: c.n + 1, [("m", "int64")]))
    step("apply fn two outputs", lambda: ops.apply(
        local, lambda c: (c.n - 2**53, c.s + "!"),
        [("m", "int64"), ("t", "string")]))
    step("apply fn None", lambda: ops.apply(
        local, lambda c: None if c.f > 1 else (c.f, c.n),
        [("g", "float"), ("m", "int64")]))
    step("apply fn None one output", lambda: ops.apply(
        local, lambda c: None if c.f > 1 else c.f, [("g", "float")]))
    step("apply fn and block_fn over an object component", lambda: ops.apply(
        local, lambda c: len(c.s), [("k", "int64")],
        block_fn=lambda b: b["f"]))
    near = ops.subsample(local, {"x": (2, 4), "y": (1, 3)})
    step("cjoin lambda f", lambda: ops.cjoin(
        near, near, lambda l, r: l.f < r.f))
    step("cjoin lambda n", lambda: ops.cjoin(
        near, local, lambda l, r: l.n == r.n - 1))
    step("cjoin lambda nan", lambda: ops.cjoin(
        near, near, lambda l, r: l.f != l.f or r.s == "s3"))

    # -- compiled predicates over an object component ---------------------------
    by_tag = PredicateConjunction((AttrPredicate("s", "=", "s4"),))
    mixed = PredicateConjunction((
        AttrPredicate("s", "!=", "s4"), AttrPredicate("f", ">", 0.8),
    ))
    step("filter compiled string", lambda: ops.filter(local, by_tag))
    step("filter compiled string and float", lambda: ops.filter(local, mixed))

    # -- uncertain float ---------------------------------------------------------
    step("apply uncertain", lambda: ops.apply(
        unc, lambda c: c.u + c.u, [("w", "uncertain float")]))
    step("apply uncertain to float", lambda: ops.apply(
        unc, lambda c: c.u.value, [("w", "float")]))
    for agg in BUILTINS:
        step(f"aggregate uncertain {agg}", lambda: ops.aggregate(
            unc, ["x"], agg, "u"))
    step("aggregate uncertain total", lambda: ops.aggregate(
        unc, ["x"], TOTAL, "u"))
    step("aggregate_all uncertain total", lambda: ops.content.aggregate_all(
        unc, TOTAL, "u"))

    # -- user aggregates ---------------------------------------------------------
    for agg in USER_AGGS:
        for attr in ("f", "n"):
            tag = f"user {agg.name}({attr})"
            step(f"aggregate ['y'] {tag}", lambda: ops.aggregate(
                local, ["y"], agg, attr))
            step(f"aggregate ['y', 'x'] {tag}", lambda: ops.aggregate(
                local, ["y", "x"], agg, attr))
            step(f"regrid [2, 2] {tag}", lambda: ops.regrid(
                local, [2, 2], agg, attr))
            step(f"regrid [3, 4] {tag}", lambda: ops.regrid(
                local, [3, 4], agg, attr))
            step(f"aggregate_all {tag}", lambda: ops.content.aggregate_all(
                local, agg, attr))
            step(f"aggregate_all empty {tag}", lambda: ops.content.aggregate_all(
                empty, agg, attr))
    for agg in ("count", "min", "max"):
        step(f"aggregate ['x'] {agg}(s)", lambda: ops.aggregate(
            local, ["x"], agg, "s"))
        step(f"aggregate_all {agg}(s)", lambda: ops.content.aggregate_all(
            local, agg, "s"))
    for agg in BUILTINS:
        for attr in ("f", "n"):
            step(f"aggregate_all empty {agg}({attr})",
                 lambda: ops.content.aggregate_all(empty, agg, attr))
            step(f"aggregate_all {agg}({attr})",
                 lambda: ops.content.aggregate_all(local, agg, attr))

    # -- textual apply over a registered UDF -------------------------------------
    define_function("OpaqueTriple", [("v", "float")], [("w", "float")],
                    lambda v: 3 * v, replace=True)
    define_function("OpaqueNext", [("v", "int64")], [("m", "int64")],
                    lambda v: v + 1, replace=True)
    define_function("OpaquePair", [("v", "float"), ("k", "int64")],
                    [("w", "float"), ("m", "int64")],
                    lambda v, k: (v / 2, k - 2**53), replace=True)
    db = SciDB(tmp_path)
    grid = db.create_grid("g", n_nodes=4, replication=2)
    arr = grid.create_array("A", SCHEMA, HashPartitioner(4), stride=(3, 2))
    arr.load(records())
    db.register("A", arr)
    db.register("L", local)
    for name in ("L", "A"):
        step(f"execute {name} apply OpaqueTriple(f)",
             lambda: db.execute(f"select apply({name}, OpaqueTriple(f))"))
        step(f"execute {name} apply OpaqueNext(n)",
             lambda: db.execute(f"select apply({name}, OpaqueNext(n))"))
        step(f"execute {name} apply OpaquePair(f, n)",
             lambda: db.execute(f"select apply({name}, OpaquePair(f, n))"))
        step(f"execute {name} apply arity",
             lambda: db.execute(f"select apply({name}, OpaqueNext(n, f))"))
        step(f"execute {name} apply type",
             lambda: db.execute(f"select apply({name}, OpaqueNext(f))"))

    # -- the typed errors --------------------------------------------------------
    step("apply fn str into int64", lambda: ops.apply(
        local, lambda c: "x", [("m", "int64")]))
    step("apply fn float into int64", lambda: ops.apply(
        local, lambda c: 1.5, [("m", "int64")]))
    step("apply fn too many values", lambda: ops.apply(
        local, lambda c: (1, 2, 3), [("m", "int64"), ("k", "int64")]))
    step("apply fn too few values", lambda: ops.apply(
        local, lambda c: (1,), [("m", "int64"), ("k", "int64")]))
    step("apply block_fn over an object component", lambda: ops.apply(
        local, output=[("g", "float")], block_fn=lambda b: b["f"]))
    step("apply block_fn over uncertain", lambda: ops.apply(
        unc, output=[("w", "float")], block_fn=lambda b: b["u"]))
    step("aggregate final str", lambda: ops.aggregate(
        local, ["y"], UserAggregate("word", lambda: 0, lambda s, v: s,
                                    lambda s: "x"), "f"))
    step("aggregate final tuple", lambda: ops.aggregate(
        local, ["y"], UserAggregate("pair", lambda: (0, 0),
                                    lambda s, v: (s[0] + v, s[1] + 1)), "n"))
    step("regrid transition raises", lambda: ops.regrid(
        local, [2, 2], UserAggregate("bad", lambda: 0,
                                     lambda s, v: s + v.missing), "f"))
    step("filter predicate raises", lambda: ops.filter(
        local, lambda c: c.nope > 1))
    return seen


def test_the_opaque_routes_return_what_the_parent_recorded(tmp_path):
    seen = drive(tmp_path)
    assert list(seen) == list(PINNED)
    for step, want in PINNED.items():
        assert seen[step] == want, step

