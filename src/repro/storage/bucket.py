"""The rectangular bucket: the unit of on-disk storage (Section 2.8).

"Within a node an array partition is divided into variable size rectangular
buckets."  A bucket is the core block (:class:`~repro.core.array.Chunk`: an
axis-aligned box of cells as a dense state mask plus one value plane per
attribute) with the one thing storage adds: its byte image, a one-entry
container (:mod:`repro.storage.format`) written to one file each by the
storage manager.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core.array import Chunk, blank_plane
from ..core.cells import CellState
from ..core.errors import StorageError
from ..core.schema import ArraySchema
from .compression import Codec
from .format import DECODE_ERRORS, decode_block, encode_block, frame, parse_frame

__all__ = ["Bucket"]

Coords = tuple[int, ...]

_MAGIC = b"SBKT2\n"


class Bucket(Chunk):
    """A rectangular slab of one array's cells and its compressed image."""

    __slots__ = ("schema",)

    def __init__(
        self, schema: ArraySchema, origin: Coords, shape: tuple[int, ...],
        state: np.ndarray, data: dict[str, np.ndarray],
    ) -> None:
        super().__init__(origin, shape, state, data)
        self.schema = schema

    @classmethod
    def from_cells(
        cls,
        schema: ArraySchema,
        cells: Sequence[tuple[Coords, Optional[tuple]]],
    ) -> "Bucket":
        """Build the tightest bucket containing *cells*.

        Each element is ``(coords, values_tuple_or_None)`` — ``None`` for a
        NULL cell.
        """
        if not cells:
            raise StorageError("cannot build a bucket from no cells")
        at = np.array([coords for coords, _ in cells], dtype=np.int64)
        lo = at.min(axis=0)
        shape = tuple((at.max(axis=0) - lo + 1).tolist())
        state = np.zeros(shape, dtype=np.uint8)
        planes = [blank_plane(shape, attr) for attr in schema.attributes]
        for off, (_, values) in zip(map(tuple, (at - lo).tolist()), cells):
            state[off] = CellState.NULL if values is None else CellState.PRESENT
            for plane, v in zip(planes, values or ()):
                plane[off] = v
        return cls(
            schema, tuple(lo.tolist()), shape, state,
            dict(zip(schema.attr_names, planes)),
        )

    def merge(self, other: "Bucket") -> "Bucket":
        """Combine two buckets of the same array into one covering both
        (the Vertica-style background merge): *other*'s planes overlaid on
        *self*'s over the union box, so *other*'s copy of a cell wins.
        Tombstones live in the manager: a merge carries every cell."""
        if other.schema.attr_names != self.schema.attr_names:
            raise StorageError("cannot merge buckets of different schemas")
        lo = tuple(map(min, self.origin, other.origin))
        shape = tuple(max(a, b) - l + 1 for a, b, l in zip(self.box[1], other.box[1], lo))
        merged = Bucket(
            self.schema, lo, shape, np.zeros(shape, dtype=np.uint8),
            {a.name: blank_plane(shape, a) for a in self.schema.attributes},
        )
        for block in (self, other):
            start = np.subtract(block.origin, lo)
            at, state = tuple(map(slice, start, start + block.shape)), block.state
            np.copyto(merged.state[at], state, where=state != CellState.EMPTY)
            for name, plane in merged.data.items():
                np.copyto(plane[at], block.data[name], where=state == CellState.PRESENT)
        return merged

    # -- the byte image -------------------------------------------------------------

    def to_bytes(self, codec: "str | Codec" = "auto") -> bytes:
        """Serialise; ``codec='auto'`` picks per-attribute via best_codec."""
        entry, payload = encode_block(
            self.origin, self.data, self.state, self.schema.attr_names, codec
        )
        return frame(_MAGIC, entry) + payload

    @staticmethod
    def _decode(payload: bytes, values: bool):
        try:
            framed = parse_frame(payload, _MAGIC)
            if framed is None:
                raise StorageError("not a bucket image (bad magic)")
            entry, start = framed
            return decode_block(entry, memoryview(payload)[start:], values)
        except DECODE_ERRORS as exc:
            raise StorageError(f"corrupt bucket image: {exc!r}") from exc

    @classmethod
    def from_bytes(cls, schema: ArraySchema, payload: bytes) -> "Bucket":
        origin, data, state = cls._decode(payload, True)
        names = schema.attr_names  # a property: taken once
        if tuple(data) != names:  # planes out of the schema's order, or missing
            missing = [name for name in names if name not in data]
            if missing:
                raise StorageError(f"bucket image missing attributes {missing}")
            data = {name: data[name] for name in names}
        return cls(schema, origin, state.shape, state, data)

    @classmethod
    def footprint(cls, payload: bytes) -> Chunk:
        """An image's block without its value planes (none is decoded):
        what re-opening a directory needs to index a bucket."""
        origin, data, state = cls._decode(payload, False)
        return Chunk(origin, state.shape, state, data)

    def __repr__(self) -> str:
        return (
            f"<Bucket origin={self.origin} shape={self.shape} "
            f"{self.cell_count}/{self.volume} cells>"
        )
