"""What every storage source reads, pinned before the sources shared one
block protocol.

Seeded files for each source: a CSV with rows a bounded load quarantines
(no coordinate repeats), a 2-D float NPY with a NaN and a 1-D int NPY
that each span several 32-cell tiles, a sparse two-attribute container
with NULL cells and an empty chunk, that container torn three ways (a
truncated last payload, a chunk directory without origins, no chunk
directory), and a ``PersistentArray`` with spilled buckets, rewrites in a
newer bucket, tombstones and cells still in the write buffer.  Pinned:
``cells`` (sorted by coordinate), ``get`` on a hit, a NULL, a miss and
out-of-bounds addresses (the error's type, and for in-situ errors the
offset), ``count``, ``load``/``to_sciarray``, ``records`` offsets and the
``load_into`` report with its quarantine.  A torn container pins the
typed error and offset that ``cells``, ``count`` and a ``get`` inside the
torn chunk raise, and the error type of ``load``.  Large tables are pinned
as SHA-256 digests of their text, with a few cells spelled out.  The
values were recorded at the commit before the sources answered
``blocks(window)``.
"""

import hashlib
import json
import random
import struct

import numpy as np
import pytest

from repro import SciArray, define_array
from repro.storage.format import MAGIC, read_container, write_container
from repro.storage.insitu import open_in_situ
from repro.storage.manager import PersistentArray, StorageManager

pytestmark = pytest.mark.tier1


def digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def values(cell):
    return None if cell is None else tuple(cell.values)


def canon(cells) -> list:
    return sorted((tuple(c), values(cell)) for c, cell in cells)


def attempt(call):
    """``("ok", value)``, or the error's type and in-situ offset."""
    try:
        return ("ok", call())
    except Exception as exc:
        return ("raises", type(exc).__name__, getattr(exc, "offset", None))


def gets(source, probes) -> dict:
    """``get`` per address, values as text (a NaN equals itself there)."""
    return {c: attempt(lambda c=c: repr(values(source.get(c)))) for c in probes}


def loaded(arr) -> tuple:
    cells = canon(arr.cells())
    return arr.name, arr.bounds, len(cells), digest(cells), cells[:2]


def report_of(report, target) -> tuple:
    held = sorted(
        (q.offset, q.reason, tuple(q.coords)) for q in report.quarantine or ()
    )
    stored = canon(target.scan())
    return report.summary(), digest(held), held[:2], len(stored), digest(stored)


# -- the seeded files ---------------------------------------------------------


def csv_file(tmp_path):
    rng = random.Random(27)
    coords = rng.sample([(x, y) for x in range(1, 10) for y in range(1, 10)], 30)
    rows = ["x,y,flux,n"] + [
        f"{x},{y},{rng.randint(-400, 400) / 8},{rng.randint(-50, 50)}"
        for x, y in coords
    ]
    path = tmp_path / "feed.csv"
    path.write_text("\n".join(rows) + "\n")
    return path, coords


def npy_files(tmp_path):
    rng = np.random.default_rng(27)
    grid = np.round(rng.normal(size=(40, 37)), 6)
    grid[33, 5] = np.nan
    np.save(tmp_path / "grid.npy", grid)
    np.save(tmp_path / "line.npy", rng.integers(-99, 99, size=70))
    return tmp_path / "grid.npy", tmp_path / "line.npy"


def container_file(tmp_path, name="box.scidb"):
    rng = random.Random(27)
    schema = define_array("box", {"v": "float", "n": "int32"}, ["x", "y"])
    arr = SciArray(schema.bind([20, 20]), name="box", chunk_shape=(8, 8))
    cells = [(x, y) for x in range(1, 21) for y in range(1, 21)
             if not (x > 16 and y > 16)]  # chunk (2, 2) stays empty
    for i, c in enumerate(rng.sample(cells, 70)):
        if i % 9 == 0:
            arr.set_null(c)
        else:
            arr[c] = (rng.randint(-80, 80) / 4, rng.randint(-999, 999))
    path = tmp_path / name
    write_container(path, arr)
    return path


def rewrite_header(path, edit):
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[len(MAGIC):len(MAGIC) + 4])
    header = json.loads(raw[len(MAGIC) + 4:len(MAGIC) + 4 + hlen])
    edit(header)
    body = json.dumps(header).encode("utf-8")
    path.write_bytes(
        MAGIC + struct.pack("<I", len(body)) + body
        + raw[len(MAGIC) + 4 + hlen:]
    )


def persistent_array(tmp_path):
    rng = random.Random(27)
    schema = define_array(
        "pa", {"v": "float", "n": "int32"}, ["x", "y"]
    ).bind([24, 24])
    pa = PersistentArray(schema, tmp_path / "pa", memory_budget=48 * 10,
                         stride=(8, 8), codec="zlib")
    coords = rng.sample([(x, y) for x in range(1, 25) for y in range(1, 25)], 46)
    first, late = coords[:40], coords[40:]
    for i, c in enumerate(first):
        pa.append(c, None if i % 7 == 0 else (i / 4, i * 3))
    pa.flush()
    for i, c in enumerate(first[::8]):  # rewritten in a newer bucket
        pa.append(c, (100.0 + i, -i))
    pa.flush()
    pa.delete(first[3])  # a stored cell
    pa.delete(first[8])  # a rewritten cell
    for i, c in enumerate(late + [first[5]]):  # still in the write buffer
        pa.append(c, (200.0 + i, i))
    pa.delete(late[0])  # a buffered cell
    return pa, first, late


# -- the record ---------------------------------------------------------------


def observe_csv(tmp_path):
    path, coords = csv_file(tmp_path)
    src = open_in_situ(path, dims=["x", "y"], types={"n": "int64"})
    cells = canon(src.cells())
    target = StorageManager(tmp_path / "csv_store").create_array(
        "feed", define_array("feed", {"flux": "float", "n": "int64"},
                             ["x", "y"]).bind([6, 6]),
    )
    free = [(x, y) for x in range(1, 10) for y in range(1, 10)
            if (x, y) not in coords]
    return {
        "cells": (len(cells), digest(cells), cells[:3]),
        "get": gets(src, [coords[0], coords[-1], free[0], (0, 1), (99, 99)]),
        "exists": [src.exists(*coords[1]), src.exists(*free[1])],
        "count": src.count(),
        "load": loaded(src.load()),
        "records": [(r.offset, r.coords) for r in src.records()][:4],
        "load_into": report_of(
            src.load_into(target, batch_size=7, tolerant=True), target
        ),
    }


def observe_npy(tmp_path):
    grid_path, line_path = npy_files(tmp_path)
    grid, line = open_in_situ(grid_path), open_in_situ(line_path)
    cells = canon(grid.cells())
    records = sorted(
        (r.offset, r.coords, r.values) for r in grid.records()
    )
    target = StorageManager(tmp_path / "npy_store").create_array(
        "grid", define_array("grid", {"value": "float"},
                             ["d1", "d2"]).bind([32, 37]),
    )
    line_cells = canon(line.cells())
    return {
        "cells": (len(cells), digest(cells), cells[:2], cells[-1]),
        "get": gets(grid, [(1, 1), (34, 6), (40, 37), (33, 33), (41, 1),
                           (0, 5)]),
        "count": grid.count(),
        "load": loaded(grid.load()),
        "records": (len(records), digest(records), records[:2]),
        "load_into": report_of(
            grid.load_into(target, batch_size=64, tolerant=True), target
        ),
        "line": (len(line_cells), digest(line_cells), line_cells[-1],
                 gets(line, [(1,), (33,), (70,), (71,)]), line.count(),
                 loaded(line.load("line"))),
    }


def observe_container(tmp_path):
    path = container_file(tmp_path)
    src = open_in_situ(path)
    reader = read_container(path)
    cells = canon(src.cells())
    records = [(r.offset, r.coords, r.values) for r in src.records()]
    origin, planes, state = reader.read_block(0)
    present = [c for c, v in cells if v is not None]
    nulls = [c for c, v in cells if v is None]
    occupied = {c for c, _ in cells}
    miss = next((x, y) for x in range(1, 9) for y in range(1, 9)
                if (x, y) not in occupied)
    return {
        "cells": (len(cells), digest(cells), cells[:3]),
        "get": gets(src, [present[0], present[-1], nulls[0], miss, (18, 18),
                          (21, 1), (0, 0)]),
        "exists": [src.exists(*present[0]), src.exists(*miss)],
        "count": src.count(),
        "load": loaded(src.load()),
        "records": (len(records), digest(records), records[:3]),
        "chunk_boxes": src.chunk_boxes(),
        "reader": (loaded(reader.to_sciarray()), reader.bounds, origin,
                   sorted(planes), state.shape, int(state.sum())),
    }


def observe_torn(tmp_path):
    out = {}
    path = container_file(tmp_path, "cut.scidb")
    last = read_container(path).chunk_boxes()[-1]
    path.write_bytes(path.read_bytes()[:-3])  # the last payload ends early
    src = open_in_situ(path)
    out["truncated"] = {
        "cells": attempt(lambda: list(src.cells())),
        "count": attempt(src.count),
        "get": gets(src, [last[1]]),
        "load": attempt(src.load)[:2],
    }
    for name, edit in (
        ("no_origins", lambda h: [e.pop("origin") for e in h["chunks"]]),
        ("no_directory", lambda h: h.pop("chunks")),
    ):
        path = container_file(tmp_path, f"{name}.scidb")
        rewrite_header(path, edit)
        src = open_in_situ(path)
        out[name] = {
            "cells": attempt(lambda: list(src.cells())),
            "count": attempt(src.count),
            "get": gets(src, [(1, 1)]),
            "load": attempt(src.load)[:2],
        }
    return out


def observe_persistent(tmp_path):
    pa, first, late = persistent_array(tmp_path)
    cells = canon(pa.scan())
    window = canon(pa.scan(((3, 3), (12, 12))))
    never = next((x, y) for x in range(1, 25) for y in range(1, 25)
                 if (x, y) not in set(first) | set(late))
    return {
        "cells": (len(cells), digest(cells), cells[:3]),
        "window": (len(window), digest(window)),
        "get": gets(pa, [late[1], first[1], first[0], first[16], first[7],
                         first[5], first[3], first[8], late[0], never,
                         (30, 30), (0, 0)]),
        "to_sciarray": loaded(pa.to_sciarray()),
        "live_cells": pa.live_cells,
        "bucket_count": pa.bucket_count(),
    }


OBSERVE = {
    "csv": observe_csv,
    "npy": observe_npy,
    "container": observe_container,
    "torn": observe_torn,
    "persistent": observe_persistent,
}

PINNED: dict = {'container': {'cells': (70,
                         'bc405af22b4bdfd9',
                         [((1, 7), (-20.0, -629)),
                          ((1, 8), (-0.75, 373)),
                          ((1, 20), (9.5, 239))]),
               'chunk_boxes': [((1, 1), (8, 8)),
                               ((1, 9), (8, 16)),
                               ((1, 17), (8, 20)),
                               ((9, 1), (16, 8)),
                               ((9, 9), (16, 16)),
                               ((9, 17), (16, 20)),
                               ((17, 1), (20, 8)),
                               ((17, 9), (20, 16))],
               'count': 70,
               'exists': [True, False],
               'get': {(0, 0): ('raises', 'InSituError', None),
                       (1, 1): ('raises', 'InSituError', None),
                       (1, 7): ('ok', '(-20.0, -629)'),
                       (2, 17): ('ok', 'None'),
                       (18, 18): ('raises', 'InSituError', None),
                       (20, 6): ('ok', '(-2.0, -556)'),
                       (21, 1): ('raises', 'InSituError', None)},
               'load': ('box',
                        (20, 20),
                        70,
                        'bc405af22b4bdfd9',
                        [((1, 7), (-20.0, -629)), ((1, 8), (-0.75, 373))]),
               'reader': (('box',
                           (20, 20),
                           70,
                           'bc405af22b4bdfd9',
                           [((1, 7), (-20.0, -629)),
                            ((1, 8), (-0.75, 373))]),
                          (20, 20),
                          (1, 1),
                          ['n', 'v'],
                          (8, 8),
                          12),
               'records': (70,
                           '231920402c135e9f',
                           [(0, (1, 7), (-20.0, -629)),
                            (1, (1, 8), (-0.75, 373)),
                            (2, (2, 7), (-14.0, -934))])},
 'csv': {'cells': (30,
                   '52ac43d09780abb4',
                   [((1, 1), (-23.5, 47)),
                    ((1, 4), (-27.375, 11)),
                    ((1, 9), (-32.0, -38))]),
         'count': 30,
         'exists': [True, False],
         'get': {(0, 1): ('raises', 'InSituError', None),
                 (1, 2): ('raises', 'InSituError', None),
                 (5, 6): ('ok', '(44.0, 12)'),
                 (7, 8): ('ok', '(11.125, -18)'),
                 (99, 99): ('raises', 'InSituError', None)},
         'load': ('feed',
                  (9, 9),
                  30,
                  '52ac43d09780abb4',
                  [((1, 1), (-23.5, 47)), ((1, 4), (-27.375, 11))]),
         'load_into': ({'backoff_ms': 0.0,
                        'batches_committed': 5,
                        'batches_replayed': 0,
                        'epoch': 0,
                        'loaded': 16,
                        'quarantined': 14,
                        'retried': 0,
                        'seen': 30,
                        'skew': 1.0,
                        'skipped': 0},
                       'fd46ec7dc1a6ef48',
                       [(2, 'out_of_bounds', (7, 8)),
                        (3, 'out_of_bounds', (4, 9))],
                       16,
                       '05a43f360cdb1e7e'),
         'records': [(2, (7, 8)), (3, (4, 9)), (4, (5, 1)), (5, (3, 8))]},
 'npy': {'cells': (1480,
                   '63876239dbb34ea2',
                   [((1, 1), (1.254448,)), ((1, 2), (0.776902,))],
                   ((40, 37), (-1.679498,))),
         'count': 1480,
         'get': {(0, 5): ('raises', 'InSituError', None),
                 (1, 1): ('ok', '(1.254448,)'),
                 (33, 33): ('ok', '(0.87887,)'),
                 (34, 6): ('ok', '(nan,)'),
                 (40, 37): ('ok', '(-1.679498,)'),
                 (41, 1): ('raises', 'InSituError', None)},
         'line': (70,
                  'f3a9629ed78daa42',
                  ((70,), (-41,)),
                  {(1,): ('ok', '(23,)'),
                   (33,): ('ok', '(-20,)'),
                   (70,): ('ok', '(-41,)'),
                   (71,): ('raises', 'InSituError', None)},
                  70,
                  ('line',
                   (70,),
                   70,
                   'f3a9629ed78daa42',
                   [((1,), (23,)), ((2,), (25,))])),
         'load': ('grid',
                  (40, 37),
                  1480,
                  '63876239dbb34ea2',
                  [((1, 1), (1.254448,)), ((1, 2), (0.776902,))]),
         'load_into': ({'backoff_ms': 0.0,
                        'batches_committed': 19,
                        'batches_replayed': 0,
                        'epoch': 0,
                        'loaded': 1184,
                        'quarantined': 296,
                        'retried': 0,
                        'seen': 1480,
                        'skew': 1.0,
                        'skipped': 0},
                       '8d15bb8a2918bf01',
                       [(1184, 'out_of_bounds', (33, 1)),
                        (1185, 'out_of_bounds', (33, 2))],
                       1184,
                       'cc9a17d60b77be92'),
         'records': (1480,
                     '74497a77650fa73d',
                     [(0, (1, 1), (1.254448,)), (1, (1, 2), (0.776902,))])},
 'persistent': {'bucket_count': 31,
                'cells': (43,
                          '4e882596d6f26de4',
                          [((1, 13), (5.75, 69)),
                           ((1, 16), (204.0, 4)),
                           ((2, 15), (8.5, 102))]),
                'get': {(0, 0): ('raises', 'StorageError', None),
                        (1, 1): ('raises', 'StorageError', None),
                        (3, 19): ('ok', '(206.0, 6)'),
                        (4, 2): ('ok', '(102.0, -2)'),
                        (9, 10): ('raises', 'StorageError', None),
                        (12, 8): ('raises', 'StorageError', None),
                        (12, 20): ('ok', '(0.25, 3)'),
                        (15, 6): ('raises', 'StorageError', None),
                        (21, 12): ('ok', '(100.0, 0)'),
                        (24, 1): ('ok', 'None'),
                        (24, 2): ('ok', '(201.0, 1)'),
                        (30, 30): ('raises', 'StorageError', None)},
                'live_cells': 43,
                'to_sciarray': ('pa',
                                (24, 24),
                                43,
                                '4e882596d6f26de4',
                                [((1, 13), (5.75, 69)),
                                 ((1, 16), (204.0, 4))]),
                'window': (9, '78c29ec1ed031522')},
 'torn': {'no_directory': {'cells': ('raises',
                                     'InSituFormatError',
                                     'header'),
                           'count': ('raises',
                                     'InSituFormatError',
                                     'header'),
                           'get': {(1, 1): ('raises',
                                            'InSituFormatError',
                                            'header')},
                           'load': ('raises', 'InSituFormatError')},
          'no_origins': {'cells': ('raises',
                                   'InSituFormatError',
                                   'chunk 0'),
                         'count': ('raises',
                                   'InSituFormatError',
                                   'chunk 0'),
                         'get': {(1, 1): ('raises',
                                          'InSituFormatError',
                                          'chunk 0')},
                         'load': ('raises', 'InSituFormatError')},
          'truncated': {'cells': ('raises', 'InSituFormatError', 'chunk 7'),
                        'count': ('raises', 'InSituFormatError', 'chunk 7'),
                        'get': {(20, 16): ('raises',
                                           'InSituFormatError',
                                           'chunk 7')},
                        'load': ('raises', 'InSituFormatError')}}}


@pytest.mark.parametrize("source", sorted(OBSERVE))
def test_source_reads_as_recorded(source, tmp_path):
    assert OBSERVE[source](tmp_path) == PINNED[source]
