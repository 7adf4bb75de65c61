"""What grouped aggregation returns and moves, pinned before ``aggregate``
and ``regrid`` shared one body on every route.

One 4-node k=2 disk grid holds ``A`` (7x5, stride 3x2, so neither
``regrid`` factor set divides the extents and chunks straddle groups) and
the coordinator holds ``L``, the same cells gathered into a local array.
The cells carry three components:

* ``f`` — floats that are not exactly representable, so any change in
  summation order shows in the digest;
* ``n`` — int64 values above 2**53, which float64 accumulation would
  round;
* ``s`` — a ``string`` (object-dtype) component.

Some cells are NULL and some are EMPTY.  Every step runs one call and
records the result's cell digest (SHA-256 of its canonical text), its
cell count, its coverage (for a degraded answer) and what the ledger
moved for that call alone (``by_reason()`` and ``len(transfers)``, the
ledger reset before each call), or the type and message of the error it
raised.  The steps are local and grid ``aggregate`` and ``regrid`` under
all six built-in aggregates, a user aggregate with ``merge`` and a
holistic one, the same through ``db.query``, the grid with a node down,
and ``degraded=True`` while one replica chain is dead.  The argument
errors that already agreed between the routes are pinned too.
"""

import hashlib

import pytest

from repro import SciDB, define_array
from repro.cluster import HashPartitioner
from repro.core.ops import content
from repro.core.udf import UserAggregate
from repro.storage.loader import LoadRecord

pytestmark = pytest.mark.tier1

SHAPE = (7, 5)
SCHEMA = define_array(
    "T", {"f": "float", "n": "int64", "s": "string"}, ["x", "y"]
).bind(list(SHAPE))

BUILTINS = ["sum", "count", "min", "max", "avg", "stdev"]
TOTAL = UserAggregate(  # algebraic: a merge, but no plane kernel
    "total", lambda: 0, lambda s, v: s + v, lambda s: s, lambda a, b: a + b,
)
SPREAD = UserAggregate(  # holistic: no merge
    "spread", lambda: [], lambda s, v: s + [v],
    lambda s: max(s) - min(s) if s else None,
)
AGGS = [*BUILTINS, TOTAL, SPREAD]
GROUPINGS = [("aggregate", ["y"]), ("aggregate", ["y", "x"]),
             ("regrid", [2, 2]), ("regrid", [3, 2])]

#: step -> ("ok", digest, cells, coverage, by_reason, transfers) or
#: ("error", type name, message, by_reason, transfers), recorded at the
#: parent commit.
PINNED = {
    "local aggregate['y'] sum(f)": ('ok', '12dc0d68ff36c9aa', 5, None, {}, 0),
    "local aggregate['y'] sum(n)": ('ok', '256a053dff155da0', 5, None, {}, 0),
    "local aggregate['y'] count(f)":
        ('ok', '554632327b3e741a', 5, None, {}, 0),
    "local aggregate['y'] count(n)":
        ('ok', '554632327b3e741a', 5, None, {}, 0),
    "local aggregate['y'] min(f)": ('ok', '7d07c3fc2c6f0533', 5, None, {}, 0),
    "local aggregate['y'] min(n)": ('ok', '553acc0f303388d9', 5, None, {}, 0),
    "local aggregate['y'] max(f)": ('ok', '7d5830a611ecac09', 5, None, {}, 0),
    "local aggregate['y'] max(n)": ('ok', '33578f567091aaff', 5, None, {}, 0),
    "local aggregate['y'] avg(f)": ('ok', 'bcd3121ca0e0ae48', 5, None, {}, 0),
    "local aggregate['y'] avg(n)": ('ok', '904e7bf842e8044f', 5, None, {}, 0),
    "local aggregate['y'] stdev(f)":
        ('ok', '866b8aba9f6d6da7', 5, None, {}, 0),
    "local aggregate['y'] stdev(n)":
        ('ok', '21db0103676b812a', 5, None, {}, 0),
    "local aggregate['y'] total(f)":
        ('ok', '12dc0d68ff36c9aa', 5, None, {}, 0),
    "local aggregate['y'] total(n)":
        ('ok', '256a053dff155da0', 5, None, {}, 0),
    "local aggregate['y'] spread(f)":
        ('ok', 'ea459d6413379696', 5, None, {}, 0),
    "local aggregate['y'] spread(n)":
        ('ok', '2e2d77aa843b8401', 5, None, {}, 0),
    "local aggregate['y'] count(s)":
        ('ok', '554632327b3e741a', 5, None, {}, 0),
    "local aggregate['y'] min(s)":
        ('error', 'TypeMismatchError',
         "value 's0' is not valid for type 'float64'",
         {}, 0),
    "local aggregate['y'] max(s)":
        ('error', 'TypeMismatchError',
         "value 's8' is not valid for type 'float64'",
         {}, 0),
    "local aggregate['y', 'x'] sum(f)":
        ('ok', '2b2d6977ee96e22e', 24, None, {}, 0),
    "local aggregate['y', 'x'] sum(n)":
        ('ok', '7e6acbb94a6cdf7e', 24, None, {}, 0),
    "local aggregate['y', 'x'] count(f)":
        ('ok', '9af6caa1abd14631', 24, None, {}, 0),
    "local aggregate['y', 'x'] count(n)":
        ('ok', '9af6caa1abd14631', 24, None, {}, 0),
    "local aggregate['y', 'x'] min(f)":
        ('ok', '2b2d6977ee96e22e', 24, None, {}, 0),
    "local aggregate['y', 'x'] min(n)":
        ('ok', '7e6acbb94a6cdf7e', 24, None, {}, 0),
    "local aggregate['y', 'x'] max(f)":
        ('ok', '2b2d6977ee96e22e', 24, None, {}, 0),
    "local aggregate['y', 'x'] max(n)":
        ('ok', '7e6acbb94a6cdf7e', 24, None, {}, 0),
    "local aggregate['y', 'x'] avg(f)":
        ('ok', '2b2d6977ee96e22e', 24, None, {}, 0),
    "local aggregate['y', 'x'] avg(n)":
        ('ok', '7e6acbb94a6cdf7e', 24, None, {}, 0),
    "local aggregate['y', 'x'] stdev(f)":
        ('ok', 'e3bd63c9409623bd', 24, None, {}, 0),
    "local aggregate['y', 'x'] stdev(n)":
        ('ok', 'e3bd63c9409623bd', 24, None, {}, 0),
    "local aggregate['y', 'x'] total(f)":
        ('ok', '2b2d6977ee96e22e', 24, None, {}, 0),
    "local aggregate['y', 'x'] total(n)":
        ('ok', '7e6acbb94a6cdf7e', 24, None, {}, 0),
    "local aggregate['y', 'x'] spread(f)":
        ('ok', 'e3bd63c9409623bd', 24, None, {}, 0),
    "local aggregate['y', 'x'] spread(n)":
        ('ok', 'e3bd63c9409623bd', 24, None, {}, 0),
    "local aggregate['y', 'x'] count(s)":
        ('ok', '9af6caa1abd14631', 24, None, {}, 0),
    "local aggregate['y', 'x'] min(s)":
        ('error', 'TypeMismatchError',
         "value 's4' is not valid for type 'float64'",
         {}, 0),
    "local aggregate['y', 'x'] max(s)":
        ('error', 'TypeMismatchError',
         "value 's4' is not valid for type 'float64'",
         {}, 0),
    'local regrid[2, 2] sum(f)': ('ok', '293dcce77518b2e2', 12, None, {}, 0),
    'local regrid[2, 2] sum(n)': ('ok', 'f0c3dd405966d279', 12, None, {}, 0),
    'local regrid[2, 2] count(f)': ('ok', '9fcc8e06eb56f7c5', 12, None, {}, 0),
    'local regrid[2, 2] count(n)': ('ok', '9fcc8e06eb56f7c5', 12, None, {}, 0),
    'local regrid[2, 2] min(f)': ('ok', '26e9eb965d5f38d1', 12, None, {}, 0),
    'local regrid[2, 2] min(n)': ('ok', 'fac6e08b1dfd0c5f', 12, None, {}, 0),
    'local regrid[2, 2] max(f)': ('ok', '6951ea444c623b6f', 12, None, {}, 0),
    'local regrid[2, 2] max(n)': ('ok', '586b9059ef266dea', 12, None, {}, 0),
    'local regrid[2, 2] avg(f)': ('ok', '7bc662b37c08d46c', 12, None, {}, 0),
    'local regrid[2, 2] avg(n)': ('ok', 'f0115d2c9a14583c', 12, None, {}, 0),
    'local regrid[2, 2] stdev(f)': ('ok', 'efcae13695ac282a', 12, None, {}, 0),
    'local regrid[2, 2] stdev(n)': ('ok', '4690da937bdb05ac', 12, None, {}, 0),
    'local regrid[2, 2] total(f)': ('ok', 'c90737fbdd8c0897', 12, None, {}, 0),
    'local regrid[2, 2] total(n)': ('ok', 'f0c3dd405966d279', 12, None, {}, 0),
    'local regrid[2, 2] spread(f)':
        ('ok', 'b38ca63318a21054', 12, None, {}, 0),
    'local regrid[2, 2] spread(n)':
        ('ok', 'dbb996a99a1d2cf5', 12, None, {}, 0),
    'local regrid[2, 2] count(s)': ('ok', '9fcc8e06eb56f7c5', 12, None, {}, 0),
    'local regrid[2, 2] min(s)':
        ('error', 'TypeMismatchError',
         "value 's4' is not valid for type 'float64'",
         {}, 0),
    'local regrid[2, 2] max(s)':
        ('error', 'TypeMismatchError',
         "value 's8' is not valid for type 'float64'",
         {}, 0),
    'local regrid[3, 2] sum(f)': ('ok', '12ba6662653a9ec4', 9, None, {}, 0),
    'local regrid[3, 2] sum(n)': ('ok', '7d88317e5ae68e26', 9, None, {}, 0),
    'local regrid[3, 2] count(f)': ('ok', '26f25f45e559f1c7', 9, None, {}, 0),
    'local regrid[3, 2] count(n)': ('ok', '26f25f45e559f1c7', 9, None, {}, 0),
    'local regrid[3, 2] min(f)': ('ok', '1025f2ec8c05e8ea', 9, None, {}, 0),
    'local regrid[3, 2] min(n)': ('ok', 'cc4be1ab0977f2fb', 9, None, {}, 0),
    'local regrid[3, 2] max(f)': ('ok', '6396cf4f440de6e2', 9, None, {}, 0),
    'local regrid[3, 2] max(n)': ('ok', 'a3a92dec8ca9c6a6', 9, None, {}, 0),
    'local regrid[3, 2] avg(f)': ('ok', '062de35b4fbc1361', 9, None, {}, 0),
    'local regrid[3, 2] avg(n)': ('ok', 'b44a2a80ef701d52', 9, None, {}, 0),
    'local regrid[3, 2] stdev(f)': ('ok', 'e0b500c69d62b562', 9, None, {}, 0),
    'local regrid[3, 2] stdev(n)': ('ok', 'fcf716156724439f', 9, None, {}, 0),
    'local regrid[3, 2] total(f)': ('ok', '85ed1fb96727343f', 9, None, {}, 0),
    'local regrid[3, 2] total(n)': ('ok', '7d88317e5ae68e26', 9, None, {}, 0),
    'local regrid[3, 2] spread(f)': ('ok', '7e5a4da355019733', 9, None, {}, 0),
    'local regrid[3, 2] spread(n)': ('ok', 'd47bbb82c0aef991', 9, None, {}, 0),
    'local regrid[3, 2] count(s)': ('ok', '26f25f45e559f1c7', 9, None, {}, 0),
    'local regrid[3, 2] min(s)':
        ('error', 'TypeMismatchError',
         "value 's4' is not valid for type 'float64'",
         {}, 0),
    'local regrid[3, 2] max(s)':
        ('error', 'TypeMismatchError',
         "value 's8' is not valid for type 'float64'",
         {}, 0),
    "grid aggregate['y'] sum(f)":
        ('ok', 'f302fb7cc80cd27a', 5, None, {'aggregate': 408}, 17),
    "grid aggregate['y'] sum(n)":
        ('ok', '256a053dff155da0', 5, None, {'aggregate': 408}, 17),
    "grid aggregate['y'] count(f)":
        ('ok', '554632327b3e741a', 5, None, {'aggregate': 408}, 17),
    "grid aggregate['y'] count(n)":
        ('ok', '554632327b3e741a', 5, None, {'aggregate': 408}, 17),
    "grid aggregate['y'] min(f)":
        ('ok', '7d07c3fc2c6f0533', 5, None, {'aggregate': 408}, 17),
    "grid aggregate['y'] min(n)":
        ('ok', '553acc0f303388d9', 5, None, {'aggregate': 408}, 17),
    "grid aggregate['y'] max(f)":
        ('ok', '7d5830a611ecac09', 5, None, {'aggregate': 408}, 17),
    "grid aggregate['y'] max(n)":
        ('ok', '33578f567091aaff', 5, None, {'aggregate': 408}, 17),
    "grid aggregate['y'] avg(f)":
        ('ok', '60f96746b853236c', 5, None, {'aggregate': 408}, 17),
    "grid aggregate['y'] avg(n)":
        ('ok', '7c2a39592089b831', 5, None, {'aggregate': 408}, 17),
    "grid aggregate['y'] stdev(f)":
        ('ok', '0f9b98d96b25ef84', 5, None, {'aggregate': 408}, 17),
    "grid aggregate['y'] stdev(n)":
        ('ok', 'bade41ea47ef86f6', 5, None, {'aggregate': 408}, 17),
    "grid aggregate['y'] total(f)":
        ('ok', 'f302fb7cc80cd27a', 5, None, {'aggregate': 408}, 17),
    "grid aggregate['y'] total(n)":
        ('ok', '256a053dff155da0', 5, None, {'aggregate': 408}, 17),
    "grid aggregate['y'] spread(f)":
        ('ok', 'ea459d6413379696', 5, None, {'aggregate': 1536}, 24),
    "grid aggregate['y'] spread(n)":
        ('ok', '2e2d77aa843b8401', 5, None, {'aggregate': 1536}, 24),
    "grid aggregate['y'] count(s)":
        ('ok', '554632327b3e741a', 5, None, {'aggregate': 408}, 17),
    "grid aggregate['y'] min(s)":
        ('error', 'TypeMismatchError',
         "value 's1' is not valid for type 'float64'",
         {'aggregate': 408}, 17),
    "grid aggregate['y'] max(s)":
        ('error', 'TypeMismatchError',
         "value 's8' is not valid for type 'float64'",
         {'aggregate': 408}, 17),
    "grid aggregate['y', 'x'] sum(f)":
        ('ok', '2b2d6977ee96e22e', 24, None, {'aggregate': 576}, 24),
    "grid aggregate['y', 'x'] sum(n)":
        ('ok', '7e6acbb94a6cdf7e', 24, None, {'aggregate': 576}, 24),
    "grid aggregate['y', 'x'] count(f)":
        ('ok', '9af6caa1abd14631', 24, None, {'aggregate': 576}, 24),
    "grid aggregate['y', 'x'] count(n)":
        ('ok', '9af6caa1abd14631', 24, None, {'aggregate': 576}, 24),
    "grid aggregate['y', 'x'] min(f)":
        ('ok', '2b2d6977ee96e22e', 24, None, {'aggregate': 576}, 24),
    "grid aggregate['y', 'x'] min(n)":
        ('ok', '7e6acbb94a6cdf7e', 24, None, {'aggregate': 576}, 24),
    "grid aggregate['y', 'x'] max(f)":
        ('ok', '2b2d6977ee96e22e', 24, None, {'aggregate': 576}, 24),
    "grid aggregate['y', 'x'] max(n)":
        ('ok', '7e6acbb94a6cdf7e', 24, None, {'aggregate': 576}, 24),
    "grid aggregate['y', 'x'] avg(f)":
        ('ok', '2b2d6977ee96e22e', 24, None, {'aggregate': 576}, 24),
    "grid aggregate['y', 'x'] avg(n)":
        ('ok', '7e6acbb94a6cdf7e', 24, None, {'aggregate': 576}, 24),
    "grid aggregate['y', 'x'] stdev(f)":
        ('ok', 'e3bd63c9409623bd', 24, None, {'aggregate': 576}, 24),
    "grid aggregate['y', 'x'] stdev(n)":
        ('ok', 'e3bd63c9409623bd', 24, None, {'aggregate': 576}, 24),
    "grid aggregate['y', 'x'] total(f)":
        ('ok', '2b2d6977ee96e22e', 24, None, {'aggregate': 576}, 24),
    "grid aggregate['y', 'x'] total(n)":
        ('ok', '7e6acbb94a6cdf7e', 24, None, {'aggregate': 576}, 24),
    "grid aggregate['y', 'x'] spread(f)":
        ('ok', 'e3bd63c9409623bd', 24, None, {'aggregate': 1536}, 24),
    "grid aggregate['y', 'x'] spread(n)":
        ('ok', 'e3bd63c9409623bd', 24, None, {'aggregate': 1536}, 24),
    "grid aggregate['y', 'x'] count(s)":
        ('ok', '9af6caa1abd14631', 24, None, {'aggregate': 576}, 24),
    "grid aggregate['y', 'x'] min(s)":
        ('error', 'TypeMismatchError',
         "value 's8' is not valid for type 'float64'",
         {'aggregate': 576}, 24),
    "grid aggregate['y', 'x'] max(s)":
        ('error', 'TypeMismatchError',
         "value 's8' is not valid for type 'float64'",
         {'aggregate': 576}, 24),
    'grid regrid[2, 2] sum(f)':
        ('ok', 'c90737fbdd8c0897', 12, None, {'regrid': 528}, 22),
    'grid regrid[2, 2] sum(n)':
        ('ok', 'f0c3dd405966d279', 12, None, {'regrid': 528}, 22),
    'grid regrid[2, 2] count(f)':
        ('ok', '9fcc8e06eb56f7c5', 12, None, {'regrid': 528}, 22),
    'grid regrid[2, 2] count(n)':
        ('ok', '9fcc8e06eb56f7c5', 12, None, {'regrid': 528}, 22),
    'grid regrid[2, 2] min(f)':
        ('ok', '26e9eb965d5f38d1', 12, None, {'regrid': 528}, 22),
    'grid regrid[2, 2] min(n)':
        ('ok', 'fac6e08b1dfd0c5f', 12, None, {'regrid': 528}, 22),
    'grid regrid[2, 2] max(f)':
        ('ok', '6951ea444c623b6f', 12, None, {'regrid': 528}, 22),
    'grid regrid[2, 2] max(n)':
        ('ok', '586b9059ef266dea', 12, None, {'regrid': 528}, 22),
    'grid regrid[2, 2] avg(f)':
        ('ok', 'e28af2265ad9c64c', 12, None, {'regrid': 528}, 22),
    'grid regrid[2, 2] avg(n)':
        ('ok', 'f0115d2c9a14583c', 12, None, {'regrid': 528}, 22),
    'grid regrid[2, 2] stdev(f)':
        ('ok', '74350315b8d1a158', 12, None, {'regrid': 528}, 22),
    'grid regrid[2, 2] stdev(n)':
        ('ok', '81168a19cadc8080', 12, None, {'regrid': 528}, 22),
    'grid regrid[2, 2] total(f)':
        ('ok', 'c90737fbdd8c0897', 12, None, {'regrid': 528}, 22),
    'grid regrid[2, 2] total(n)':
        ('ok', 'f0c3dd405966d279', 12, None, {'regrid': 528}, 22),
    'grid regrid[2, 2] count(s)':
        ('ok', '9fcc8e06eb56f7c5', 12, None, {'regrid': 528}, 22),
    'grid regrid[2, 2] min(s)':
        ('error', 'TypeMismatchError',
         "value 's8' is not valid for type 'float64'",
         {'regrid': 528}, 22),
    'grid regrid[2, 2] max(s)':
        ('error', 'TypeMismatchError',
         "value 's8' is not valid for type 'float64'",
         {'regrid': 528}, 22),
    'grid regrid[3, 2] sum(f)':
        ('ok', '0f1d762db9322273', 9, None, {'regrid': 480}, 20),
    'grid regrid[3, 2] sum(n)':
        ('ok', '7d88317e5ae68e26', 9, None, {'regrid': 480}, 20),
    'grid regrid[3, 2] count(f)':
        ('ok', '26f25f45e559f1c7', 9, None, {'regrid': 480}, 20),
    'grid regrid[3, 2] count(n)':
        ('ok', '26f25f45e559f1c7', 9, None, {'regrid': 480}, 20),
    'grid regrid[3, 2] min(f)':
        ('ok', '1025f2ec8c05e8ea', 9, None, {'regrid': 480}, 20),
    'grid regrid[3, 2] min(n)':
        ('ok', 'cc4be1ab0977f2fb', 9, None, {'regrid': 480}, 20),
    'grid regrid[3, 2] max(f)':
        ('ok', '6396cf4f440de6e2', 9, None, {'regrid': 480}, 20),
    'grid regrid[3, 2] max(n)':
        ('ok', 'a3a92dec8ca9c6a6', 9, None, {'regrid': 480}, 20),
    'grid regrid[3, 2] avg(f)':
        ('ok', 'fc642533ca914ed3', 9, None, {'regrid': 480}, 20),
    'grid regrid[3, 2] avg(n)':
        ('ok', 'b44a2a80ef701d52', 9, None, {'regrid': 480}, 20),
    'grid regrid[3, 2] stdev(f)':
        ('ok', '50837d1d6271efaa', 9, None, {'regrid': 480}, 20),
    'grid regrid[3, 2] stdev(n)':
        ('ok', '0540df231f37dd19', 9, None, {'regrid': 480}, 20),
    'grid regrid[3, 2] total(f)':
        ('ok', '0f1d762db9322273', 9, None, {'regrid': 480}, 20),
    'grid regrid[3, 2] total(n)':
        ('ok', '7d88317e5ae68e26', 9, None, {'regrid': 480}, 20),
    'grid regrid[3, 2] count(s)':
        ('ok', '26f25f45e559f1c7', 9, None, {'regrid': 480}, 20),
    'grid regrid[3, 2] min(s)':
        ('error', 'TypeMismatchError',
         "value 's3' is not valid for type 'float64'",
         {'regrid': 480}, 20),
    'grid regrid[3, 2] max(s)':
        ('error', 'TypeMismatchError',
         "value 's8' is not valid for type 'float64'",
         {'regrid': 480}, 20),
    'query A aggregate':
        ('ok', 'f302fb7cc80cd27a', 5, None, {'aggregate': 408}, 17),
    'query A regrid': ('ok', 'fc642533ca914ed3', 9, None, {'regrid': 480}, 20),
    'query L aggregate': ('ok', '12dc0d68ff36c9aa', 5, None, {}, 0),
    'query L regrid': ('ok', '062de35b4fbc1361', 9, None, {}, 0),
    'local unknown attribute aggregate':
        ('error', 'SchemaError',
         "array type 'T' has no value named 'nope'",
         {}, 0),
    'local unknown attribute regrid':
        ('error', 'SchemaError',
         "array type 'T' has no value named 'nope'",
         {}, 0),
    'local unknown dimension':
        ('error', 'SchemaError',
         "array type 'T' has no dimension named 'z'",
         {}, 0),
    'local wrong factor count':
        ('error', 'SchemaError', 'regrid needs 2 factors, got 1', {}, 0),
    'grid unknown attribute aggregate':
        ('error', 'SchemaError',
         "array type 'T' has no value named 'nope'",
         {}, 0),
    'grid unknown attribute regrid':
        ('error', 'SchemaError',
         "array type 'T' has no value named 'nope'",
         {}, 0),
    'grid unknown dimension':
        ('error', 'SchemaError',
         "array type 'T' has no dimension named 'z'",
         {}, 0),
    'grid wrong factor count':
        ('error', 'SchemaError', 'regrid needs 2 factors, got 1', {}, 0),
    "node down aggregate['y'] sum(f)":
        ('ok', 'f302fb7cc80cd27a', 5, None, {'aggregate': 408}, 17),
    "node down aggregate['y'] count(f)":
        ('ok', '554632327b3e741a', 5, None, {'aggregate': 408}, 17),
    "node down aggregate['y'] min(f)":
        ('ok', '7d07c3fc2c6f0533', 5, None, {'aggregate': 408}, 17),
    "node down aggregate['y'] max(f)":
        ('ok', '7d5830a611ecac09', 5, None, {'aggregate': 408}, 17),
    "node down aggregate['y'] avg(f)":
        ('ok', '60f96746b853236c', 5, None, {'aggregate': 408}, 17),
    "node down aggregate['y'] stdev(f)":
        ('ok', '0f9b98d96b25ef84', 5, None, {'aggregate': 408}, 17),
    "node down aggregate['y'] total(f)":
        ('ok', 'f302fb7cc80cd27a', 5, None, {'aggregate': 408}, 17),
    "node down aggregate['y'] spread(f)":
        ('ok', 'ea459d6413379696', 5, None, {'aggregate': 1536}, 24),
    "node down aggregate['y', 'x'] sum(f)":
        ('ok', '2b2d6977ee96e22e', 24, None, {'aggregate': 576}, 24),
    "node down aggregate['y', 'x'] count(f)":
        ('ok', '9af6caa1abd14631', 24, None, {'aggregate': 576}, 24),
    "node down aggregate['y', 'x'] min(f)":
        ('ok', '2b2d6977ee96e22e', 24, None, {'aggregate': 576}, 24),
    "node down aggregate['y', 'x'] max(f)":
        ('ok', '2b2d6977ee96e22e', 24, None, {'aggregate': 576}, 24),
    "node down aggregate['y', 'x'] avg(f)":
        ('ok', '2b2d6977ee96e22e', 24, None, {'aggregate': 576}, 24),
    "node down aggregate['y', 'x'] stdev(f)":
        ('ok', 'e3bd63c9409623bd', 24, None, {'aggregate': 576}, 24),
    "node down aggregate['y', 'x'] total(f)":
        ('ok', '2b2d6977ee96e22e', 24, None, {'aggregate': 576}, 24),
    "node down aggregate['y', 'x'] spread(f)":
        ('ok', 'e3bd63c9409623bd', 24, None, {'aggregate': 1536}, 24),
    'node down regrid[2, 2] sum(f)':
        ('ok', 'c90737fbdd8c0897', 12, None, {'regrid': 528}, 22),
    'node down regrid[2, 2] count(f)':
        ('ok', '9fcc8e06eb56f7c5', 12, None, {'regrid': 528}, 22),
    'node down regrid[2, 2] min(f)':
        ('ok', '26e9eb965d5f38d1', 12, None, {'regrid': 528}, 22),
    'node down regrid[2, 2] max(f)':
        ('ok', '6951ea444c623b6f', 12, None, {'regrid': 528}, 22),
    'node down regrid[2, 2] avg(f)':
        ('ok', 'e28af2265ad9c64c', 12, None, {'regrid': 528}, 22),
    'node down regrid[2, 2] stdev(f)':
        ('ok', '74350315b8d1a158', 12, None, {'regrid': 528}, 22),
    'node down regrid[2, 2] total(f)':
        ('ok', 'c90737fbdd8c0897', 12, None, {'regrid': 528}, 22),
    'node down regrid[3, 2] sum(f)':
        ('ok', '0f1d762db9322273', 9, None, {'regrid': 480}, 20),
    'node down regrid[3, 2] count(f)':
        ('ok', '26f25f45e559f1c7', 9, None, {'regrid': 480}, 20),
    'node down regrid[3, 2] min(f)':
        ('ok', '1025f2ec8c05e8ea', 9, None, {'regrid': 480}, 20),
    'node down regrid[3, 2] max(f)':
        ('ok', '6396cf4f440de6e2', 9, None, {'regrid': 480}, 20),
    'node down regrid[3, 2] avg(f)':
        ('ok', 'fc642533ca914ed3', 9, None, {'regrid': 480}, 20),
    'node down regrid[3, 2] stdev(f)':
        ('ok', '50837d1d6271efaa', 9, None, {'regrid': 480}, 20),
    'node down regrid[3, 2] total(f)':
        ('ok', '0f1d762db9322273', 9, None, {'regrid': 480}, 20),
    'degraded aggregate sum(f)':
        ('ok', 'b0894448eec3d00a', 5, (4, (('A', 1),)), {'aggregate': 288}, 12),
    'degraded aggregate count(f)':
        ('ok', '930a97cebf51b31c', 5, (4, (('A', 1),)), {'aggregate': 288}, 12),
    'degraded aggregate min(f)':
        ('ok', 'd0930840a4a523a8', 5, (4, (('A', 1),)), {'aggregate': 288}, 12),
    'degraded aggregate max(f)':
        ('ok', '2fca4fdc2f8c6e3c', 5, (4, (('A', 1),)), {'aggregate': 288}, 12),
    'degraded aggregate avg(f)':
        ('ok', '6c631f541bd2e98f', 5, (4, (('A', 1),)), {'aggregate': 288}, 12),
    'degraded aggregate stdev(f)':
        ('ok', '14628560b90111bf', 5, (4, (('A', 1),)), {'aggregate': 288}, 12),
    'degraded aggregate total(f)':
        ('ok', 'b0894448eec3d00a', 5, (4, (('A', 1),)), {'aggregate': 288}, 12),
    'degraded aggregate spread(f)':
        ('ok', 'ba0f39946a40065c', 5, (4, (('A', 1),)), {'aggregate': 1088}, 17),
    'dead chain regrid':
        ('error', 'QuorumError',
         "partition 1 of 'A': no surviving replica among sites (1, 2) after 4 attempts",
         {}, 0),
}


def records():
    for x in range(1, SHAPE[0] + 1):
        for y in range(1, SHAPE[1] + 1):
            if (x * y) % 7 == 3:
                continue  # EMPTY
            if (x + y) % 5 == 0:
                yield LoadRecord((x, y), None)  # NULL
                continue
            yield LoadRecord(
                (x, y),
                (0.1 * x + 0.7 / y, 2**53 + 10 * x + y, f"s{(3 * x + y) % 11}"),
            )


def canonical(arr):
    return sorted(
        (coords, None if cell is None else tuple(cell.values))
        for coords, cell in arr.cells()
    )


def agg_name(agg):
    return agg if isinstance(agg, str) else agg.name


def drive(tmp_path):
    db = SciDB(tmp_path)
    grid = db.create_grid("g", n_nodes=4, replication=2)
    arr = grid.create_array("A", SCHEMA, HashPartitioner(4), stride=(3, 2))
    arr.load(records())
    local = arr.materialize()
    db.register("A", arr)
    db.register("L", local)
    seen = {}

    def step(name, call):
        grid.ledger.reset()
        try:
            result = call()
        except Exception as exc:  # noqa: BLE001 - the error is the record
            seen[name] = (
                "error", type(exc).__name__, str(exc),
                grid.ledger.by_reason(), len(grid.ledger.transfers),
            )
            return
        coverage = getattr(result, "coverage", None)
        if coverage is not None:
            coverage = (coverage.total_partitions, coverage.missing)
            result = result.array
        cells = canonical(result)
        seen[name] = (
            "ok", hashlib.sha256(repr(cells).encode()).hexdigest()[:16],
            len(cells), coverage,
            grid.ledger.by_reason(), len(grid.ledger.transfers),
        )

    def grouped(target, op, groups, agg, attr, **kw):
        if target is local:
            return getattr(content, op)(local, groups, agg, attr)
        return getattr(arr, op)(groups, agg, attr, **kw)

    for where, target in (("local", local), ("grid", arr)):
        for op, groups in GROUPINGS:
            for agg in AGGS:
                if where == "grid" and op == "regrid" and agg is SPREAD:
                    continue  # refused at the parent; runs since
                for attr in ("f", "n"):
                    step(
                        f"{where} {op}{groups} {agg_name(agg)}({attr})",
                        lambda: grouped(target, op, groups, agg, attr),
                    )
            for agg in ("count", "min", "max"):
                step(
                    f"{where} {op}{groups} {agg}(s)",
                    lambda: grouped(target, op, groups, agg, "s"),
                )
    for name in ("A", "L"):
        step(f"query {name} aggregate",
             lambda: db.query(f"select aggregate({name}, {{y}}, sum(f))"))
        step(f"query {name} regrid",
             lambda: db.query(f"select regrid({name}, [3, 2], avg(f))"))
    for where, target in (("local", local), ("grid", arr)):
        step(f"{where} unknown attribute aggregate",
             lambda: grouped(target, "aggregate", ["x"], "sum", "nope"))
        step(f"{where} unknown attribute regrid",
             lambda: grouped(target, "regrid", [2, 2], "sum", "nope"))
        step(f"{where} unknown dimension",
             lambda: grouped(target, "aggregate", ["z"], "sum", "f"))
        step(f"{where} wrong factor count",
             lambda: grouped(target, "regrid", [2], "avg", "f"))

    grid.nodes[1].fail()  # every chain still has a live replica
    for op, groups in GROUPINGS:
        for agg in AGGS:
            if op == "regrid" and agg is SPREAD:
                continue
            step(f"node down {op}{groups} {agg_name(agg)}(f)",
                 lambda: grouped(arr, op, groups, agg, "f"))
    grid.nodes[2].fail()  # partition 1's chain (1, 2) is dead
    for agg in AGGS:
        step(f"degraded aggregate {agg_name(agg)}(f)",
             lambda: grouped(arr, "aggregate", ["y"], agg, "f", degraded=True))
    step("dead chain regrid",
         lambda: grouped(arr, "regrid", [2, 2], "avg", "f"))
    return seen


def test_grouped_aggregation_returns_and_moves_what_the_parent_recorded(tmp_path):
    seen = drive(tmp_path)
    assert list(seen) == list(PINNED)
    for step, want in PINNED.items():
        assert seen[step] == want, step
