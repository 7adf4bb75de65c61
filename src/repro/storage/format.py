"""The self-describing SciDB container format (Section 2.9).

"Our approach to this issue is to define a self-describing data format and
then write adaptors to various popular external formats."  This module is
that format: a single file holding one array — a JSON header describing
dimensions, attributes and a chunk directory, followed by independently
compressed chunk payloads.  A chunk entry and its payload are the byte
image of one ``(origin, planes, state)`` block (:func:`encode_block` /
:func:`decode_block`); a storage bucket file is the same image on its own
(:mod:`repro.storage.bucket`).  It is structured the way HDF5/NetCDF are
(header + named datasets + chunk directory) so the in-situ adaptor layer
(:mod:`repro.storage.insitu`) can treat all three uniformly.

The header is pure JSON (not pickle) precisely so the file is
*self-describing*: any reader can interpret it without this library.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path
from typing import Any, BinaryIO, Iterator, Mapping, Optional, Sequence

import numpy as np

from ..core.array import BlockSource, Chunk, SciArray
from ..core.errors import InSituError, InSituFormatError
from ..core.schema import ArraySchema, Attribute, Dimension
from ..core.datatypes import ScalarType, get_type
from .compression import Codec, best_codec, get_codec

__all__ = [
    "write_container", "read_container", "ContainerReader", "MAGIC",
    "encode_block", "decode_block", "DECODE_ERRORS",
]

MAGIC = b"SCIDB1\n"
_VERSION = 2  # 1 kept one codec per file and an offset per plane

_STATE = "__state__"

#: what a torn header, directory or payload surfaces from the parsing
#: internals; every reader of the format maps these to its typed error
DECODE_ERRORS = (
    KeyError, IndexError, ValueError, TypeError,
    struct.error, zlib.error, json.JSONDecodeError, OSError, EOFError,
)

Coords = tuple[int, ...]


# -- one block, one byte image ------------------------------------------------------


def encode_block(
    origin: Coords,
    planes: Mapping[str, np.ndarray],
    state: np.ndarray,
    names: Sequence[str],
    codec: "str | Codec",
) -> tuple[dict[str, Any], bytes]:
    """The byte image of one ``(origin, planes, state)`` block: a JSON-able
    entry (origin, shape and, per plane, name/codec/dtype/nbytes) and the
    payload it describes — the state plane, then *names* in order, each
    compressed on its own.  ``codec='auto'`` picks per plane."""
    blobs, metas = [], []
    for name, plane in [(_STATE, state)] + [(n, planes[n]) for n in names]:
        if codec == "auto":
            chosen = best_codec(plane)
        else:
            chosen = codec if isinstance(codec, Codec) else get_codec(codec)
        blobs.append(chosen.encode(plane))
        metas.append({
            "name": name,
            "codec": chosen.name,
            "dtype": plane.dtype.str,
            "nbytes": len(blobs[-1]),
        })
    entry = {
        "origin": [int(c) for c in origin],
        "shape": list(state.shape),
        "planes": metas,
    }
    return entry, b"".join(blobs)


def decode_block(
    entry: Mapping[str, Any], payload: bytes, values: bool = True
) -> tuple[Coords, dict[str, np.ndarray], np.ndarray]:
    """Invert :func:`encode_block`; with ``values=False`` only the state
    plane is decoded.  A torn entry or payload raises one of
    :data:`DECODE_ERRORS` for the caller to type."""
    shape = tuple(entry["shape"])
    planes: dict[str, np.ndarray] = {}
    at = 0
    for meta in entry["planes"]:
        blob = payload[at : at + meta["nbytes"]]
        at += meta["nbytes"]
        if len(blob) != meta["nbytes"]:
            raise ValueError(f"payload ends inside plane {meta['name']!r}")
        if values or meta["name"] == _STATE:
            planes[meta["name"]] = get_codec(meta["codec"]).decode(
                blob, np.dtype(meta["dtype"]), shape
            )
    state = np.asarray(planes.pop(_STATE), dtype=np.uint8)
    return tuple(entry["origin"]), planes, state


def frame(magic: bytes, header: Mapping[str, Any]) -> bytes:
    """``magic``, a little-endian u32 length, the header as JSON."""
    body = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return magic + struct.pack("<I", len(body)) + body


def read_header(f: BinaryIO, magic: bytes) -> Optional[dict[str, Any]]:
    """Read what :func:`frame` wrote, leaving *f* at the first payload
    byte; ``None`` if *f* does not start with *magic*."""
    if f.read(len(magic)) != magic:
        return None
    (length,) = struct.unpack("<I", f.read(4))
    return json.loads(f.read(length).decode("utf-8"))


# -- the container: one array, many blocks ------------------------------------------


def _attr_type_name(attr: Attribute) -> str:
    if not isinstance(attr.type, ScalarType):
        raise InSituError(
            "the container format stores scalar attributes only; "
            f"{attr.name!r} is a nested array"
        )
    return attr.type.name


def write_container(
    path: "str | Path",
    array: SciArray,
    codec: str = "zlib",
) -> int:
    """Serialise *array* to a container file; returns bytes written.

    Every non-empty chunk of the array becomes one compressed chunk entry.
    Object-dtype attributes are stored via the codec's object path.
    """
    attributes = [  # first: a nested array is refused before it is encoded
        {"name": a.name, "type": _attr_type_name(a)}
        for a in array.schema.attributes
    ]
    chunk_entries: list[dict[str, Any]] = []
    blobs: list[bytes] = []
    offset = 0
    for origin, planes, state in array.blocks():
        if not state.any():
            continue
        entry, blob = encode_block(origin, planes, state, array.attr_names, codec)
        entry["offset"] = offset
        offset += len(blob)
        chunk_entries.append(entry)
        blobs.append(blob)

    head = frame(MAGIC, {
        "format": "scidb-container",
        "version": _VERSION,
        "array": {
            "name": array.name,
            "dimensions": [
                {"name": d.name, "size": d.size} for d in array.schema.dimensions
            ],
            "attributes": attributes,
            "high_water": list(array.bounds),
        },
        "chunks": chunk_entries,
    })
    with open(path, "wb") as f:
        f.write(head)
        f.writelines(blobs)
    return len(head) + offset


class ContainerReader(BlockSource):
    """Lazy reader over a container file.

    The header is parsed once; a chunk payload is read and decompressed
    only when its directory box meets the window asked for (a point
    ``get`` decodes one chunk), which is what makes in-situ querying cheap
    relative to a full load (experiment E9).  A torn file raises
    :class:`InSituFormatError` at ``"header"`` or ``"chunk <index>"``.
    """

    absent = InSituError

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self._typed("header", self._open)
        self.name = self.schema.name

    def _open(self) -> None:
        with open(self.path, "rb") as f:
            self.header = read_header(f, MAGIC)
            self._data_start = f.tell()
        if self.header is None:
            raise InSituError(f"{self.path} is not a SciDB container")
        if self.header["version"] != _VERSION:
            raise InSituError(
                f"{self.path} is container version {self.header['version']}; "
                f"this reader knows version {_VERSION}"
            )
        meta = self.header["array"]
        self.schema = ArraySchema(
            name=meta["name"],
            attributes=tuple(
                Attribute(a["name"], get_type(a["type"])) for a in meta["attributes"]
            ),
            dimensions=tuple(Dimension(d["name"], d["size"]) for d in meta["dimensions"]),
        )

    def _typed(self, offset: str, read, *args):
        try:
            return read(*args)
        except DECODE_ERRORS as exc:
            raise InSituFormatError(
                self.path, f"corrupt container: {exc!r}", offset=offset
            ) from exc

    @property
    def bounds(self) -> tuple[int, ...]:
        return tuple(self.header["array"]["high_water"])

    def chunk_boxes(self) -> list[tuple[Coords, Coords]]:
        """Each directory entry's inclusive (low, high) box, in file order."""
        chunks = self._typed("header", lambda: list(self.header["chunks"]))
        return [self._typed(f"chunk {i}", _box, e) for i, e in enumerate(chunks)]

    def read_block(
        self, index: int
    ) -> tuple[Coords, dict[str, np.ndarray], np.ndarray]:
        """Decode chunk *index* as an ``(origin, planes, state)`` block."""
        entry = self.header["chunks"][index]
        with open(self.path, "rb") as f:
            f.seek(self._data_start + entry["offset"])
            payload = f.read(sum(m["nbytes"] for m in entry["planes"]))
        return decode_block(entry, payload)

    def blocks(self, window: Optional[tuple[Coords, Coords]] = None) -> Iterator[Chunk]:
        """The chunks whose directory box meets *window*, in file order,
        each decoded and cut to it; no other payload is read."""
        for i, (lo, hi) in enumerate(self.chunk_boxes()):
            if window is None or all(
                l <= wh and wl <= h for l, h, wl, wh in zip(lo, hi, *window)
            ):
                origin, planes, state = self._typed(f"chunk {i}", self.read_block, i)
                block = Chunk(origin, state.shape, state, planes)
                block = block if window is None else block.sliced(window)
                if block is not None:
                    yield block


def _box(entry: Mapping[str, Any]) -> tuple[Coords, Coords]:
    lo = tuple(entry["origin"])
    return lo, tuple(o + s - 1 for o, s in zip(lo, entry["shape"]))


def read_container(path: "str | Path") -> ContainerReader:
    """Open a container for lazy reading."""
    return ContainerReader(path)
