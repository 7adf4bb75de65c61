"""The bucket byte image, pinned before its read path was rewritten.

Seeded buckets over float64, int64, bool and string planes, with NULL and
EMPTY cells, NaN, infinities, -0.0 and the int64 extremes, are encoded
with every codec (and ``auto``).  Pinned: each image's length and SHA-256
digest, and what ``Bucket.from_bytes`` and ``Bucket.footprint`` give back
(origin, shape, the state plane and each plane's dtype and bytes).  A
directory of bucket files — a spill, a rewrite and a NULL in a newer
spill — is kept here as the files themselves, base64: they re-open and
scan to the pinned cells, and writing the same cells today gives the same
files.  The values were recorded at the commit before the cold read path
parsed the frame from the payload bytes.
"""

import base64
import hashlib
import math

import numpy as np
import pytest

from repro import define_array
from repro.storage.bucket import Bucket
from repro.storage.manager import PersistentArray

pytestmark = pytest.mark.tier1

SCHEMA = define_array(
    "R", {"f": "float64", "i": "int64", "b": "bool", "s": "string"}, ["x", "y"]
).bind([64, 64])

SEEDS = (1, 2, 3)
CODECS = ("none", "zlib", "delta", "rle", "auto")
SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 0.0)


def digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()[:16]


def seeded_bucket(seed: int) -> Bucket:
    """A bucket with occupied, NULL and EMPTY cells in a seeded box."""
    rng = np.random.default_rng(seed)
    lo = rng.integers(1, 20, size=2)
    shape = rng.integers(2, 9, size=2)
    cells = []
    for dx in range(int(shape[0])):
        for dy in range(int(shape[1])):
            roll = rng.random()
            if roll < 0.2:
                continue  # EMPTY
            coords = (int(lo[0] + dx), int(lo[1] + dy))
            if roll < 0.35:
                cells.append((coords, None))
                continue
            f = (
                SPECIAL[int(rng.integers(len(SPECIAL)))]
                if rng.random() < 0.25 else float(rng.normal() * 1e3)
            )
            i = int(rng.choice([-(2**63), 2**63 - 1, int(rng.integers(-50, 50))]))
            cells.append((coords, (f, i, bool(rng.random() < 0.5), f"s{dx}{dy}")))
    return Bucket.from_cells(SCHEMA, cells)


def plane_digest(plane: np.ndarray) -> tuple:
    raw = repr(plane.tolist()).encode() if plane.dtype == object else plane.tobytes()
    return plane.dtype.str, plane.shape, digest(raw)


def decoded(block) -> tuple:
    return (
        tuple(block.origin), tuple(block.shape), plane_digest(block.state),
        tuple((name, plane_digest(p)) for name, p in block.data.items()),
    )


def footprinted(block) -> tuple:
    origin, shape = tuple(block.origin), tuple(block.shape)
    return origin, shape, plane_digest(block.state), dict(block.data)


def write_directory(directory) -> PersistentArray:
    """Two spills of seeded cells; the second rewrites one cell and NULLs
    another, so the re-opened read must pick the newer copies."""
    pa = PersistentArray(SCHEMA, directory, stride=(4, 4), codec="auto")
    for x in range(1, 7):
        for y in range(1, 6):
            if (x * y) % 5 != 2:
                pa.append((x, y), (x / 8 - y, x * y - 3, x > y, f"c{x}{y}"))
    pa.flush()
    pa.append((2, 2), (-2.5, 2**62, True, "new"))
    pa.append((3, 3), None)
    pa.append((9, 9), (math.nan, -(2**63), False, "far"))
    pa.flush()
    return pa


def cell_rows(pa, window=None) -> list:
    return sorted(
        (c, None if cell is None else repr(tuple(cell.values)))
        for c, cell in pa.scan(window)
    )


# -- pinned at the parent -----------------------------------------------------

IMAGES = {
    (1, 'none'): (1592, '7e0ded8d7466beb3'),
    (1, 'zlib'): (878, '6a6fc666f310c3a6'),
    (1, 'delta'): (1043, 'a7e8bb5666aae939'),
    (1, 'rle'): (971, 'ccbf362aded464ab'),
    (1, 'auto'): (878, '6a6fc666f310c3a6'),
    (2, 'none'): (515, '3b94063262166279'),
    (2, 'zlib'): (461, 'ddd03354cb148422'),
    (2, 'delta'): (492, '05b4e879d1614f44'),
    (2, 'rle'): (524, '0c31d04d0d645177'),
    (2, 'auto'): (447, '76437bfed94a8594'),
    (3, 'none'): (544, '5b1b6a99ab104dbd'),
    (3, 'zlib'): (488, '7f8a48f05c9d44e1'),
    (3, 'delta'): (530, '88a7c5f4a7c65147'),
    (3, 'rle'): (546, '445ffc795e5ac71c'),
    (3, 'auto'): (476, '67af3ccdada8e0a3'),
}

DECODED = {
    (1, 'none'): (
        ((9, 10),
         (7, 8),
         ('|u1', (7, 8), '0a9562ad0cabc1b9'),
         (('f', ('<f8', (7, 8), 'e54ba582c0009367')),
          ('i', ('<i8', (7, 8), 'b437f20409b92174')),
          ('b', ('|b1', (7, 8), '838149b6038a8556')),
          ('s', ('|O', (7, 8), '2bb0e8920bdbbf23')))),
        ((9, 10), (7, 8), ('|u1', (7, 8), '0a9562ad0cabc1b9'), {}),
    ),
    (1, 'zlib'): (
        ((9, 10),
         (7, 8),
         ('|u1', (7, 8), '0a9562ad0cabc1b9'),
         (('f', ('<f8', (7, 8), 'e54ba582c0009367')),
          ('i', ('<i8', (7, 8), 'b437f20409b92174')),
          ('b', ('|b1', (7, 8), '838149b6038a8556')),
          ('s', ('|O', (7, 8), '2bb0e8920bdbbf23')))),
        ((9, 10), (7, 8), ('|u1', (7, 8), '0a9562ad0cabc1b9'), {}),
    ),
    (1, 'delta'): (
        ((9, 10),
         (7, 8),
         ('|u1', (7, 8), '0a9562ad0cabc1b9'),
         (('f', ('<f8', (7, 8), 'e54ba582c0009367')),
          ('i', ('<i8', (7, 8), 'b437f20409b92174')),
          ('b', ('|b1', (7, 8), '838149b6038a8556')),
          ('s', ('|O', (7, 8), '2bb0e8920bdbbf23')))),
        ((9, 10), (7, 8), ('|u1', (7, 8), '0a9562ad0cabc1b9'), {}),
    ),
    (1, 'rle'): (
        ((9, 10),
         (7, 8),
         ('|u1', (7, 8), '0a9562ad0cabc1b9'),
         (('f', ('<f8', (7, 8), '6413baa791fd540b')),
          ('i', ('<i8', (7, 8), 'b437f20409b92174')),
          ('b', ('|b1', (7, 8), '838149b6038a8556')),
          ('s', ('|O', (7, 8), '2bb0e8920bdbbf23')))),
        ((9, 10), (7, 8), ('|u1', (7, 8), '0a9562ad0cabc1b9'), {}),
    ),
    (1, 'auto'): (
        ((9, 10),
         (7, 8),
         ('|u1', (7, 8), '0a9562ad0cabc1b9'),
         (('f', ('<f8', (7, 8), 'e54ba582c0009367')),
          ('i', ('<i8', (7, 8), 'b437f20409b92174')),
          ('b', ('|b1', (7, 8), '838149b6038a8556')),
          ('s', ('|O', (7, 8), '2bb0e8920bdbbf23')))),
        ((9, 10), (7, 8), ('|u1', (7, 8), '0a9562ad0cabc1b9'), {}),
    ),
    (2, 'none'): (
        ((16, 5),
         (2, 4),
         ('|u1', (2, 4), 'faf5a36a5d212926'),
         (('f', ('<f8', (2, 4), '33a87e2be28f0096')),
          ('i', ('<i8', (2, 4), 'e0e74862007ca831')),
          ('b', ('|b1', (2, 4), '64ed86b909d6d050')),
          ('s', ('|O', (2, 4), '1c663e8938873e84')))),
        ((16, 5), (2, 4), ('|u1', (2, 4), 'faf5a36a5d212926'), {}),
    ),
    (2, 'zlib'): (
        ((16, 5),
         (2, 4),
         ('|u1', (2, 4), 'faf5a36a5d212926'),
         (('f', ('<f8', (2, 4), '33a87e2be28f0096')),
          ('i', ('<i8', (2, 4), 'e0e74862007ca831')),
          ('b', ('|b1', (2, 4), '64ed86b909d6d050')),
          ('s', ('|O', (2, 4), '1c663e8938873e84')))),
        ((16, 5), (2, 4), ('|u1', (2, 4), 'faf5a36a5d212926'), {}),
    ),
    (2, 'delta'): (
        ((16, 5),
         (2, 4),
         ('|u1', (2, 4), 'faf5a36a5d212926'),
         (('f', ('<f8', (2, 4), '33a87e2be28f0096')),
          ('i', ('<i8', (2, 4), 'e0e74862007ca831')),
          ('b', ('|b1', (2, 4), '64ed86b909d6d050')),
          ('s', ('|O', (2, 4), '1c663e8938873e84')))),
        ((16, 5), (2, 4), ('|u1', (2, 4), 'faf5a36a5d212926'), {}),
    ),
    (2, 'rle'): (
        ((16, 5),
         (2, 4),
         ('|u1', (2, 4), 'faf5a36a5d212926'),
         (('f', ('<f8', (2, 4), '33a87e2be28f0096')),
          ('i', ('<i8', (2, 4), 'e0e74862007ca831')),
          ('b', ('|b1', (2, 4), '64ed86b909d6d050')),
          ('s', ('|O', (2, 4), '1c663e8938873e84')))),
        ((16, 5), (2, 4), ('|u1', (2, 4), 'faf5a36a5d212926'), {}),
    ),
    (2, 'auto'): (
        ((16, 5),
         (2, 4),
         ('|u1', (2, 4), 'faf5a36a5d212926'),
         (('f', ('<f8', (2, 4), '33a87e2be28f0096')),
          ('i', ('<i8', (2, 4), 'e0e74862007ca831')),
          ('b', ('|b1', (2, 4), '64ed86b909d6d050')),
          ('s', ('|O', (2, 4), '1c663e8938873e84')))),
        ((16, 5), (2, 4), ('|u1', (2, 4), 'faf5a36a5d212926'), {}),
    ),
    (3, 'none'): (
        ((16, 2),
         (3, 3),
         ('|u1', (3, 3), 'abbc601f1ddb5060'),
         (('f', ('<f8', (3, 3), '3b3f4bbdb4cfafa2')),
          ('i', ('<i8', (3, 3), 'd88212796ab0945a')),
          ('b', ('|b1', (3, 3), 'd2dcd027297326be')),
          ('s', ('|O', (3, 3), '4df18db5d48251d0')))),
        ((16, 2), (3, 3), ('|u1', (3, 3), 'abbc601f1ddb5060'), {}),
    ),
    (3, 'zlib'): (
        ((16, 2),
         (3, 3),
         ('|u1', (3, 3), 'abbc601f1ddb5060'),
         (('f', ('<f8', (3, 3), '3b3f4bbdb4cfafa2')),
          ('i', ('<i8', (3, 3), 'd88212796ab0945a')),
          ('b', ('|b1', (3, 3), 'd2dcd027297326be')),
          ('s', ('|O', (3, 3), '4df18db5d48251d0')))),
        ((16, 2), (3, 3), ('|u1', (3, 3), 'abbc601f1ddb5060'), {}),
    ),
    (3, 'delta'): (
        ((16, 2),
         (3, 3),
         ('|u1', (3, 3), 'abbc601f1ddb5060'),
         (('f', ('<f8', (3, 3), '3b3f4bbdb4cfafa2')),
          ('i', ('<i8', (3, 3), 'd88212796ab0945a')),
          ('b', ('|b1', (3, 3), 'd2dcd027297326be')),
          ('s', ('|O', (3, 3), '4df18db5d48251d0')))),
        ((16, 2), (3, 3), ('|u1', (3, 3), 'abbc601f1ddb5060'), {}),
    ),
    (3, 'rle'): (
        ((16, 2),
         (3, 3),
         ('|u1', (3, 3), 'abbc601f1ddb5060'),
         (('f', ('<f8', (3, 3), '3b3f4bbdb4cfafa2')),
          ('i', ('<i8', (3, 3), 'd88212796ab0945a')),
          ('b', ('|b1', (3, 3), 'd2dcd027297326be')),
          ('s', ('|O', (3, 3), '4df18db5d48251d0')))),
        ((16, 2), (3, 3), ('|u1', (3, 3), 'abbc601f1ddb5060'), {}),
    ),
    (3, 'auto'): (
        ((16, 2),
         (3, 3),
         ('|u1', (3, 3), 'abbc601f1ddb5060'),
         (('f', ('<f8', (3, 3), '3b3f4bbdb4cfafa2')),
          ('i', ('<i8', (3, 3), 'd88212796ab0945a')),
          ('b', ('|b1', (3, 3), 'd2dcd027297326be')),
          ('s', ('|O', (3, 3), '4df18db5d48251d0')))),
        ((16, 2), (3, 3), ('|u1', (3, 3), 'abbc601f1ddb5060'), {}),
    ),
}

FILES = {
    'bucket_00000000.bkt': (
        'U0JLVDIKPgEAAHsib3JpZ2luIjpbMSwxXSwic2hhcGUiOls0LDRdLCJwbGFuZXMiOlt7'
        'Im5hbWUiOiJfX3N0YXRlX18iLCJjb2RlYyI6Im5vbmUiLCJkdHlwZSI6Inx1MSIsIm5i'
        'eXRlcyI6MTZ9LHsibmFtZSI6ImYiLCJjb2RlYyI6InpsaWIiLCJkdHlwZSI6IjxmOCIs'
        'Im5ieXRlcyI6NTB9LHsibmFtZSI6ImkiLCJjb2RlYyI6InpsaWIiLCJkdHlwZSI6Ijxp'
        'OCIsIm5ieXRlcyI6MzN9LHsibmFtZSI6ImIiLCJjb2RlYyI6InpsaWIiLCJkdHlwZSI6'
        'InxiMSIsIm5ieXRlcyI6MTV9LHsibmFtZSI6InMiLCJjb2RlYyI6InpsaWIiLCJkdHlw'
        'ZSI6InxPIiwibmJ5dGVzIjo2M31dfQEAAQEAAQEBAQEBAAEBAAF4nGNgAIE3+xlQAPsB'
        'CM1/AFX8D1QdG1ScD0o/gYr/gtKsaPoeQMV/oNnDcwAAgREO1Hic+/cfAhjQACMOPjOU'
        'ZkWTh4mz4dCHrp4XSgMA5ikIHnicY2CAAEZGCAYAACYABXica2CZGsgAAbFTNHqYkw0N'
        'p/iBKOMpINIEzDEyAnGMwEJGJiDS2BBMgsWNjcGKTMBCJkYQjsmUVD0AqsQbUw=='
    ),
    'bucket_00000001.bkt': (
        'U0JLVDIKPgEAAHsib3JpZ2luIjpbMSw1XSwic2hhcGUiOls0LDFdLCJwbGFuZXMiOlt7'
        'Im5hbWUiOiJfX3N0YXRlX18iLCJjb2RlYyI6Im5vbmUiLCJkdHlwZSI6Inx1MSIsIm5i'
        'eXRlcyI6NH0seyJuYW1lIjoiZiIsImNvZGVjIjoiZGVsdGEiLCJkdHlwZSI6IjxmOCIs'
        'Im5ieXRlcyI6MjJ9LHsibmFtZSI6ImkiLCJjb2RlYyI6ImRlbHRhIiwiZHR5cGUiOiI8'
        'aTgiLCJuYnl0ZXMiOjE1fSx7Im5hbWUiOiJiIiwiY29kZWMiOiJub25lIiwiZHR5cGUi'
        'OiJ8YjEiLCJuYnl0ZXMiOjR9LHsibmFtZSI6InMiLCJjb2RlYyI6InpsaWIiLCJkdHlw'
        'ZSI6InxPIiwibmJ5dGVzIjozNn1dfQEBAQFEeJxjYACCBuEDDGD6/390GgBrlQjORHic'
        'Y2KAAFYcNAABUAASAAAAAHica2CZKssAAbFTNHqYkw1NpwBJIzBpDCZNTKek6gEAvZIK'
        'mQ=='
    ),
    'bucket_00000002.bkt': (
        'U0JLVDIKPQEAAHsib3JpZ2luIjpbNSwxXSwic2hhcGUiOlsyLDRdLCJwbGFuZXMiOlt7'
        'Im5hbWUiOiJfX3N0YXRlX18iLCJjb2RlYyI6Im5vbmUiLCJkdHlwZSI6Inx1MSIsIm5i'
        'eXRlcyI6OH0seyJuYW1lIjoiZiIsImNvZGVjIjoiemxpYiIsImR0eXBlIjoiPGY4Iiwi'
        'bmJ5dGVzIjozNX0seyJuYW1lIjoiaSIsImNvZGVjIjoiZGVsdGEiLCJkdHlwZSI6Ijxp'
        'OCIsIm5ieXRlcyI6Mjd9LHsibmFtZSI6ImIiLCJjb2RlYyI6Im5vbmUiLCJkdHlwZSI6'
        'InxiMSIsIm5ieXRlcyI6OH0seyJuYW1lIjoicyIsImNvZGVjIjoiemxpYiIsImR0eXBl'
        'IjoifE8iLCJuYnl0ZXMiOjQ2fV19AQEBAQEAAQF4nGNgAIEb+8EUwzcozXwAQnND6QtQ'
        'cRhggopzHQAAGUQH9kR4nGNigABWHPSn/xDwF0rzQ8XZoDQAiWcQCAEBAQEBAAEBeJxr'
        'YJlqwAABsVM0epiTTQ2ngEgjMGkMJk1ApJnhFD8QBRYyM5mSqgcAyI0Qxg=='
    ),
    'bucket_00000003.bkt': (
        'U0JLVDIKPAEAAHsib3JpZ2luIjpbNSw1XSwic2hhcGUiOlsyLDFdLCJwbGFuZXMiOlt7'
        'Im5hbWUiOiJfX3N0YXRlX18iLCJjb2RlYyI6Im5vbmUiLCJkdHlwZSI6Inx1MSIsIm5i'
        'eXRlcyI6Mn0seyJuYW1lIjoiZiIsImNvZGVjIjoibm9uZSIsImR0eXBlIjoiPGY4Iiwi'
        'bmJ5dGVzIjoxNn0seyJuYW1lIjoiaSIsImNvZGVjIjoiemxpYiIsImR0eXBlIjoiPGk4'
        'IiwibmJ5dGVzIjoxNH0seyJuYW1lIjoiYiIsImNvZGVjIjoibm9uZSIsImR0eXBlIjoi'
        'fGIxIiwibmJ5dGVzIjoyfSx7Im5hbWUiOiJzIiwiY29kZWMiOiJub25lIiwiZHR5cGUi'
        'OiJ8TyIsIm5ieXRlcyI6Mjh9XX0BAQAAAAAAgBHAAAAAAAAAEcB4nBNjgABpKA0AAkgA'
        'MgABgASVEQAAAAAAAABdlCiMA2M1NZSMA2M2NZRlLg=='
    ),
    'bucket_00000004.bkt': (
        'U0JLVDIKPAEAAHsib3JpZ2luIjpbMiwyXSwic2hhcGUiOlsyLDJdLCJwbGFuZXMiOlt7'
        'Im5hbWUiOiJfX3N0YXRlX18iLCJjb2RlYyI6Im5vbmUiLCJkdHlwZSI6Inx1MSIsIm5i'
        'eXRlcyI6NH0seyJuYW1lIjoiZiIsImNvZGVjIjoiemxpYiIsImR0eXBlIjoiPGY4Iiwi'
        'bmJ5dGVzIjoxNn0seyJuYW1lIjoiaSIsImNvZGVjIjoiemxpYiIsImR0eXBlIjoiPGk4'
        'IiwibmJ5dGVzIjoxNX0seyJuYW1lIjoiYiIsImNvZGVjIjoibm9uZSIsImR0eXBlIjoi'
        'fGIxIiwibmJ5dGVzIjo0fSx7Im5hbWUiOiJzIiwiY29kZWMiOiJub25lIiwiZHR5cGUi'
        'OiJ8TyIsIm5ieXRlcyI6MjV9XX0BAAACeJxjYAABlgMMOAAAE0gAxXicY2AAAwcGHAAA'
        'BmAAQQEAAACABJUOAAAAAAAAAF2UKIwDbmV3lE5OTmUu'
    ),
    'bucket_00000005.bkt': (
        'U0JLVDIKOgEAAHsib3JpZ2luIjpbOSw5XSwic2hhcGUiOlsxLDFdLCJwbGFuZXMiOlt7'
        'Im5hbWUiOiJfX3N0YXRlX18iLCJjb2RlYyI6Im5vbmUiLCJkdHlwZSI6Inx1MSIsIm5i'
        'eXRlcyI6MX0seyJuYW1lIjoiZiIsImNvZGVjIjoibm9uZSIsImR0eXBlIjoiPGY4Iiwi'
        'bmJ5dGVzIjo4fSx7Im5hbWUiOiJpIiwiY29kZWMiOiJub25lIiwiZHR5cGUiOiI8aTgi'
        'LCJuYnl0ZXMiOjh9LHsibmFtZSI6ImIiLCJjb2RlYyI6Im5vbmUiLCJkdHlwZSI6Inxi'
        'MSIsIm5ieXRlcyI6MX0seyJuYW1lIjoicyIsImNvZGVjIjoibm9uZSIsImR0eXBlIjoi'
        'fE8iLCJuYnl0ZXMiOjIxfV19AQAAAAAAAPh/AAAAAAAAAIAAgASVCgAAAAAAAABdlIwD'
        'ZmFylGEu'
    ),
}

CELLS = (26, '7af5f54e62c677ce')
WINDOW_CELLS = [((2, 2), "(-2.5, 4611686018427387904, True, 'new')"),
 ((2, 3), "(-2.75, 3, False, 'c23')"),
 ((2, 4), "(-3.75, 5, False, 'c24')"),
 ((2, 5), "(-4.75, 7, False, 'c25')"),
 ((3, 2), "(-1.625, 3, True, 'c32')"),
 ((3, 3), None),
 ((3, 5), "(-4.625, 12, False, 'c35')")]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("codec", CODECS)
def test_the_image_bytes_are_pinned(seed, codec):
    raw = seeded_bucket(seed).to_bytes(codec)
    assert (len(raw), digest(raw)) == IMAGES[seed, codec]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("codec", CODECS)
def test_the_decoded_planes_are_pinned(seed, codec):
    raw = seeded_bucket(seed).to_bytes(codec)
    full, foot = DECODED[seed, codec]
    assert decoded(Bucket.from_bytes(SCHEMA, raw)) == full
    assert footprinted(Bucket.footprint(raw)) == foot


def test_a_parent_directory_reopens_to_the_same_cells(tmp_path):
    directory = tmp_path / "a"
    directory.mkdir()
    for name, b64 in FILES.items():
        (directory / name).write_bytes(base64.b64decode(b64))
    pa = PersistentArray(SCHEMA, directory, stride=(4, 4), codec="auto")
    assert pa.bucket_count() == len(FILES)
    assert (len(cell_rows(pa)), digest(repr(cell_rows(pa)).encode())) == CELLS
    window = ((2, 2), (3, 5))
    assert cell_rows(pa, window) == WINDOW_CELLS


def test_the_same_cells_write_the_same_files(tmp_path):
    write_directory(tmp_path / "a")
    written = {
        p.name: base64.b64encode(p.read_bytes()).decode()
        for p in sorted((tmp_path / "a").glob("*.bkt"))
    }
    assert written == FILES
