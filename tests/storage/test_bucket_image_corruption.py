"""A torn or damaged bucket image fails typed, whatever the damage.

Derandomized properties over seeded bucket images (float64, int64, bool
and string planes with NULL and EMPTY cells, each codec): cut at every
offset, an image raises :class:`StorageError` from ``Bucket.from_bytes``
and from ``Bucket.footprint``; with one byte changed anywhere — magic,
header length, JSON header, any plane — it raises :class:`StorageError`
or decodes to a block, never another exception type.  The worked
examples beside these are in ``test_block_image.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import define_array
from repro.core.array import Chunk
from repro.core.errors import StorageError
from repro.storage.bucket import Bucket

pytestmark = pytest.mark.tier1

TYPES = {"f": "float64", "i": "int64", "b": "bool", "s": "string"}
CODECS = ("none", "zlib", "delta", "rle", "auto")


@st.composite
def images(draw):
    """One bucket image: a non-empty attribute subset, a small box of
    occupied, NULL and EMPTY cells, one codec."""
    names = draw(st.lists(st.sampled_from(sorted(TYPES)), min_size=1, max_size=4, unique=True))
    schema = define_array("C", {n: TYPES[n] for n in names}, ["x", "y"]).bind([32, 32])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = rng.integers(1, 7, size=2)
    cells = []
    for dx in range(int(shape[0])):
        for dy in range(int(shape[1])):
            roll = rng.random()
            if roll < 0.2 and cells:
                continue  # EMPTY
            coords = (int(3 + dx), int(5 + dy))
            if roll < 0.35:
                cells.append((coords, None))
                continue
            row = {"f": float(rng.normal() * 100), "i": int(rng.integers(-(2**62), 2**62)),
                   "b": bool(rng.random() < 0.5), "s": f"v{dx}{dy}"}
            cells.append((coords, tuple(row[n] for n in names)))
    bucket = Bucket.from_cells(schema, cells)
    return schema, bucket.to_bytes(draw(st.sampled_from(CODECS)))


def typed_or_block(call):
    """Run one decode: a block, or ``None`` for a :class:`StorageError`;
    any other exception escapes and fails the property."""
    try:
        return call()
    except StorageError:
        return None


@settings(derandomize=True, max_examples=25, deadline=None)
@given(images())
def test_a_cut_at_every_offset_is_typed(image):
    schema, raw = image
    assert isinstance(Bucket.from_bytes(schema, raw), Bucket)
    for end in range(len(raw)):
        with pytest.raises(StorageError):
            Bucket.from_bytes(schema, raw[:end])
        with pytest.raises(StorageError):
            Bucket.footprint(raw[:end])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(images(), st.data())
def test_one_changed_byte_is_typed_or_decodes(image, data):
    schema, raw = image
    at = data.draw(st.integers(0, len(raw) - 1), label="offset")
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[at]), label="byte")
    damaged = raw[:at] + bytes([byte]) + raw[at + 1:]
    full = typed_or_block(lambda: Bucket.from_bytes(schema, damaged))
    assert full is None or isinstance(full, Bucket)
    foot = typed_or_block(lambda: Bucket.footprint(damaged))
    assert foot is None or isinstance(foot, Chunk)
