"""The multidimensional array container at the heart of the engine.

:class:`SciArray` realises the paper's data model (Section 2.1):

* named, 1-based integer dimensions, bounded (1..N) or unbounded (``*``),
  with unbounded dimensions growing as cells are written;
* every cell holds a record of typed values (scalars and/or nested arrays),
  addressed as ``A[7, 8]`` and ``A[7, 8].x``;
* cells may be PRESENT, NULL (Filter output), or EMPTY (sparse / never
  written) — ``Exists?`` distinguishes the last;
* arrays may carry *enhancements* (coordinate transforms, Section 2.1),
  addressed through :attr:`SciArray.mapped` — the Python rendering of the
  paper's ``A{20, 50}`` brace syntax;
* arrays may carry a *shape function* restricting their ragged extent.

Storage is chunked: the array is tiled into fixed-stride rectangular chunks,
each holding a numpy array per attribute plus a per-cell state mask.  The
same chunks are what the storage manager spills to disk as "buckets"
(Section 2.8) and what the grid layer scatters across nodes (Section 2.7).
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from collections.abc import Mapping
from typing import Any, Iterator, Optional, Sequence, Union

import numpy as np

from .cells import Cell, CellState
from .datatypes import ScalarType
from .errors import BoundsError, EmptyCellError, SchemaError, TypeMismatchError
from .schema import ArraySchema, Attribute

__all__ = ["SciArray", "Chunk", "BlockSource", "DEFAULT_CHUNK_SIDE", "coalesce"]

#: Default chunk stride per dimension.  Small enough that toy examples span
#: several chunks (exercising chunk logic), large enough for bulk speed.
DEFAULT_CHUNK_SIDE = 32

Coords = tuple[int, ...]
CellValue = Union[Cell, tuple, dict, Any]


def blank_plane(shape: tuple[int, ...], attr: Attribute) -> np.ndarray:
    """An unwritten value plane: zeros in the attribute's native dtype, or
    ``None`` objects where numpy cannot represent the type."""
    if attr.is_native:
        return np.zeros(shape, dtype=attr.type.numpy_dtype)
    return np.empty(shape, dtype=object)


def block_cells(
    origin: Coords,
    planes: Mapping[str, np.ndarray],
    state: np.ndarray,
    names: Sequence[str],
) -> Iterator[tuple[Coords, Optional[Cell]]]:
    """The occupied cells of one ``(origin, planes, state)`` block in
    coordinate order — the one place planes become ``(coords, Cell)``
    pairs; NULL cells yield ``(coords, None)``."""
    occupied = np.argwhere(state != CellState.EMPTY)
    if occupied.size == 0:
        return
    # One fancy index + tolist() per plane converts every occupied value
    # at C speed (native scalars become Python ones, objects stay as they
    # are); argwhere's offsets are already in row-major order.
    idx = tuple(occupied.T)
    nulls = (state[idx] == CellState.NULL).tolist()
    columns = [planes[n][idx].tolist() for n in names]
    rows = zip(*columns) if columns else itertools.repeat(())
    names = tuple(names)
    for coords, is_null, values in zip(
        (occupied + np.asarray(origin)).tolist(), nulls, rows
    ):
        yield tuple(coords), None if is_null else Cell(names, values)


class Chunk:
    """One rectangular block of an array: the unit of storage, exchange
    and processing.

    ``origin`` is the 1-based coordinate of the block's first cell; the
    block covers ``origin[d] .. origin[d] + shape[d] - 1`` on each
    dimension.  ``state`` is a uint8 mask over
    :class:`~repro.core.cells.CellState` values; ``data`` maps attribute
    name to a numpy plane of ``shape``.  An array's chunks are these, and
    so is a storage bucket (:class:`repro.storage.bucket.Bucket` adds the
    byte image).
    """

    __slots__ = ("origin", "shape", "state", "data")

    def __init__(
        self, origin: Coords, shape: tuple[int, ...], state: np.ndarray,
        data: dict[str, np.ndarray],
    ) -> None:
        self.origin, self.shape, self.state, self.data = origin, shape, state, data

    def cells(
        self, window: Optional[tuple[Coords, Coords]] = None
    ) -> Iterator[tuple[Coords, Optional[Cell]]]:
        """This block's occupied cells (see :func:`block_cells`),
        restricted to *window* (inclusive) if given."""
        block = self if window is None else self.sliced(window)
        return iter(()) if block is None else block_cells(
            block.origin, block.data, block.state, tuple(block.data)
        )

    def sliced(self, window: tuple[Coords, Coords]) -> Optional["Chunk"]:
        """This block cut to *window* (inclusive): itself when inside,
        ``None`` when apart.  The cut shares this block's planes."""
        start = [max(0, l - o) for l, o in zip(window[0], self.origin)]
        ends = zip(self.shape, window[1], self.origin)
        stop = [min(n, h - o + 1) for n, h, o in ends]
        if any(a >= b for a, b in zip(start, stop)):
            return None
        if not any(start) and stop == list(self.shape):
            return self
        cut = tuple(map(slice, start, stop))
        return Chunk(
            tuple(o + a for o, a in zip(self.origin, start)),
            tuple(b - a for a, b in zip(start, stop)), self.state[cut],
            {name: plane[cut] for name, plane in self.data.items()},
        )

    @property
    def present_count(self) -> int:
        return int(np.count_nonzero(self.state == CellState.PRESENT))

    @property
    def cell_count(self) -> int:
        """Cells that are PRESENT or NULL (i.e. not EMPTY)."""
        return int(np.count_nonzero(self.state))  # EMPTY is 0

    @property
    def volume(self) -> int:
        return int(np.prod(self.shape))

    @property
    def occupancy(self) -> float:
        return self.cell_count / self.volume if self.volume else 0.0

    @property
    def nbytes(self) -> int:
        """Decoded size in memory: the planes, plus what the occupied
        slots of an object plane point at."""
        total = self.state.nbytes
        for plane in self.data.values():
            total += plane.nbytes
            if plane.dtype.hasobject:
                total += sum(
                    sys.getsizeof(v)
                    for v in plane[self.state != CellState.EMPTY]
                    if v is not None
                )
        return total

    @property
    def box(self) -> tuple[Coords, Coords]:
        """1-based (low, high) corners of this block's coverage."""
        high = tuple(o + s - 1 for o, s in zip(self.origin, self.shape))
        return self.origin, high


def union_box(blocks: Sequence[Any]) -> Optional[tuple[Coords, tuple[int, ...], list]]:
    """``(origin, shape, each block's slices of it)`` of the box two or more
    *blocks* span, or ``None`` when it is over twice their volume."""
    lo = tuple(map(min, *(b.origin for b in blocks)))
    ends = [tuple(map(operator.add, b.origin, b.shape)) for b in blocks]
    shape = tuple(map(operator.sub, map(max, *ends), lo))
    if math.prod(shape) > 2 * sum(math.prod(b.shape) for b in blocks):
        return None
    return lo, shape, [tuple(map(slice, map(operator.sub, b.origin, lo), map(operator.sub, e, lo)))
                       for b, e in zip(blocks, ends)]


def coalesce(blocks: Sequence[Chunk]) -> Sequence[Chunk]:
    """*blocks* as one block over their :func:`union_box` — what writing
    them in order with ``set_region`` writes: a later block's occupied
    cell over an earlier one's, an EMPTY cell over nothing — or else
    *blocks* unchanged.  The one block's planes are its own, so its
    inputs may be read-only or broadcast."""
    union = len(blocks) > 1 and union_box(blocks)
    if not union:
        return blocks
    lo, shape, cuts = union
    state = np.zeros(shape, dtype=np.uint8)
    data = {}
    for name in blocks[0].data:
        dtype = np.result_type(*{b.data[name].dtype for b in blocks})
        data[name] = (np.empty if dtype == object else np.zeros)(shape, dtype)
    for b, at in zip(blocks, cuts):
        occupied = b.state != CellState.EMPTY
        np.copyto(state[at], b.state, where=occupied)
        for name, plane in data.items():
            np.copyto(plane[at], b.data[name], where=occupied)
    return [Chunk(lo, shape, state, data)]


def within(coords: Coords, window: Optional[tuple[Coords, Coords]]) -> bool:
    """Whether *coords* lies in the inclusive box *window* (``None``: anywhere)."""
    return window is None or all(l <= c <= h for c, l, h in zip(coords, *window))


class BlockSource:
    """A storage source answers ``blocks(window=None)``: :class:`Chunk`\\ s
    cut to the inclusive box *window*, each occupied cell in exactly one of
    them, the one holding its newest copy.  Every cell-level reader is
    written once, here, over it; ``absent`` is what :meth:`get` raises for
    a cell no block holds."""

    schema: ArraySchema
    name: str
    absent: type = EmptyCellError

    def cells(self, *args: Any, **kwargs: Any) -> Iterator[tuple[Coords, Optional[Cell]]]:
        """The occupied cells of ``blocks(*args, **kwargs)``, block by block."""
        names = self.schema.attr_names
        for block in self.blocks(*args, **kwargs):
            yield from block_cells(block.origin, block.data, block.state, names)

    def get(self, *coords: Any) -> Optional[Cell]:
        """``get(7, 8)`` or ``get((7, 8))``: the cell's record, ``None`` if NULL."""
        if len(coords) == 1 and isinstance(coords[0], (tuple, list)):
            coords = coords[0]
        at = tuple(int(c) for c in coords)
        if len(at) == self.schema.ndim:
            for _, cell in self.cells((at, at)):
                return cell
        raise self.absent(f"no cell {at} in {self.schema.ndim}-D {self.name}")

    def count(self) -> int:
        return sum(block.cell_count for block in self.blocks())

    def to_sciarray(self, name: Optional[str] = None) -> "SciArray":
        """The whole source in memory, one ``set_region`` per block."""
        arr = SciArray(self.schema, name=name or self.name)
        for block in self.blocks():
            arr.set_region(block.origin, block.data, block.state)
        return arr


class SciArray:
    """A concrete array instance (the result of ``create``).

    Parameters
    ----------
    schema:
        A fully bound :class:`~repro.core.schema.ArraySchema` (every
        dimension either sized or deliberately unbounded).
    name:
        Instance name, used in logs, provenance and the catalog.
    chunk_shape:
        Stride of the storage chunks per dimension; defaults to
        :data:`DEFAULT_CHUNK_SIDE` on every dimension.
    """

    def __init__(
        self,
        schema: ArraySchema,
        name: Optional[str] = None,
        chunk_shape: Optional[Sequence[int]] = None,
    ) -> None:
        self.schema = schema
        self.name = name or schema.name
        if chunk_shape is None:
            chunk_shape = tuple(
                min(DEFAULT_CHUNK_SIDE, d.size) if d.size else DEFAULT_CHUNK_SIDE
                for d in schema.dimensions
            )
        chunk_shape = tuple(int(c) for c in chunk_shape)
        if len(chunk_shape) != schema.ndim:
            raise SchemaError(
                f"chunk_shape has {len(chunk_shape)} entries for a "
                f"{schema.ndim}-dimensional array"
            )
        if any(c < 1 for c in chunk_shape):
            raise SchemaError("chunk sides must be positive")
        self.chunk_shape = chunk_shape
        self._chunks: dict[Coords, Chunk] = {}
        # High-water marks: max written coordinate per dimension (for
        # unbounded dims); bounded dims report their declared size.
        self._high_water = [0] * schema.ndim
        # Enhancements (Section 2.1) are attached by repro.core.enhance.
        self.enhancements: list[Any] = []
        # Optional shape function (ragged arrays) attached by repro.core.shape.
        self.shape_function: Optional[Any] = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def ndim(self) -> int:
        return self.schema.ndim

    @property
    def dim_names(self) -> tuple[str, ...]:
        return self.schema.dim_names

    @property
    def attr_names(self) -> tuple[str, ...]:
        return self.schema.attr_names

    def high_water(self, dim: "int | str") -> int:
        """Current high-water mark of a dimension (1-based; 0 when empty).

        Bounded dimensions report their declared size; unbounded ones the
        maximum coordinate written so far.
        """
        idx = self.schema.dim_index(dim) if isinstance(dim, str) else dim
        declared = self.schema.dimensions[idx].size
        if declared is not None:
            return declared
        return self._high_water[idx]

    @property
    def bounds(self) -> tuple[int, ...]:
        """Per-dimension high-water marks (see :meth:`high_water`)."""
        return tuple(self.high_water(i) for i in range(self.ndim))

    def count_present(self) -> int:
        return sum(c.present_count for c in self._chunks.values())

    def count_occupied(self) -> int:
        return sum(c.cell_count for c in self._chunks.values())

    def nbytes(self) -> int:
        return sum(c.nbytes for c in self._chunks.values())

    def chunk_count(self) -> int:
        return len(self._chunks)

    def chunks(self) -> Iterator[Chunk]:
        return iter(self._chunks.values())

    # ------------------------------------------------------------------
    # coordinate plumbing
    # ------------------------------------------------------------------

    def _normalize_coords(self, key: Any) -> Coords:
        """Accept ``a[7, 8]``, ``a[(7, 8)]``, ``a[7]`` (1-D), or the verbose
        named form ``a[dict(I=7, J=8)]`` and return a 1-based tuple."""
        if isinstance(key, Mapping):
            missing = set(self.dim_names) - set(key)
            if missing:
                raise BoundsError(f"missing coordinates for dimensions {sorted(missing)}")
            extra = set(key) - set(self.dim_names)
            if extra:
                raise BoundsError(f"unknown dimensions {sorted(extra)}")
            key = tuple(key[d] for d in self.dim_names)
        if not isinstance(key, tuple):
            key = (key,)
        if len(key) != self.ndim:
            raise BoundsError(
                f"array {self.name!r} has {self.ndim} dimensions, "
                f"address has {len(key)}"
            )
        coords = []
        for c in key:
            if isinstance(c, (bool, float)) or not isinstance(c, (int, np.integer)):
                raise BoundsError(f"dimension values must be integers, got {c!r}")
            coords.append(int(c))
        return tuple(coords)

    def _check_dims(self, coords: Coords) -> None:
        for dim, c in zip(self.schema.dimensions, coords):
            if c < 1:
                raise BoundsError(
                    f"coordinate {c} on dimension {dim.name!r} (dimensions are 1-based)"
                )
            if dim.size is not None and c > dim.size:
                raise BoundsError(
                    f"coordinate {c} exceeds bound {dim.size} on dimension {dim.name!r}"
                )

    def _check_bounds(self, coords: Coords, *, writing: bool) -> None:
        self._check_dims(coords)
        if self.shape_function is not None and not self.shape_function.contains(coords):
            raise BoundsError(
                f"coordinate {coords} lies outside the array's shape function"
            )

    def _chunk_key(self, coords: Coords) -> tuple[Coords, Coords]:
        """Map 1-based cell coords to (chunk key, offset-within-chunk)."""
        key = []
        offset = []
        for c, s in zip(coords, self.chunk_shape):
            q, r = divmod(c - 1, s)
            key.append(q)
            offset.append(r)
        return tuple(key), tuple(offset)

    def _chunk_for(self, coords: Coords, create: bool) -> Optional[Chunk]:
        key, _ = self._chunk_key(coords)
        chunk = self._chunks.get(key)
        if chunk is None and create:
            chunk = self._new_chunk(key)
        return chunk

    def _new_chunk(self, key: Coords) -> Chunk:
        origin = tuple(k * s + 1 for k, s in zip(key, self.chunk_shape))
        shape = self.chunk_shape
        chunk = Chunk(
            origin, shape, np.zeros(shape, dtype=np.uint8),
            {a.name: blank_plane(shape, a) for a in self.schema.attributes},
        )
        self._chunks[key] = chunk
        return chunk

    def chunk_box(self, key: Coords) -> tuple[Coords, tuple[int, ...]]:
        """Origin and shape of chunk position *key*, the shape trimmed to
        the declared bounds."""
        origin = tuple(k * s + 1 for k, s in zip(key, self.chunk_shape))
        return origin, tuple(
            s if d.size is None else min(s, d.size - o + 1)
            for o, s, d in zip(origin, self.chunk_shape, self.schema.dimensions)
        )

    def chunk_overlaps(
        self, lo: Coords, hi: Coords
    ) -> Iterator[tuple[Coords, tuple[slice, ...], tuple[slice, ...]]]:
        """Every chunk position the box ``lo..hi`` touches, as ``(key,
        selection within the chunk, selection within the box)``."""
        # Cut each axis once — (chunk index, selection within the chunk,
        # selection within the box) — then combine the cuts.
        per_axis = []
        for l, h, s in zip(lo, hi, self.chunk_shape):
            cuts = []
            for k in range((l - 1) // s, (h - 1) // s + 1):
                o = k * s + 1
                a, b = max(l, o), min(h, o + s - 1)
                cuts.append((k, slice(a - o, b - o + 1), slice(a - l, b - l + 1)))
            per_axis.append(cuts)
        for combo in itertools.product(*per_axis):
            yield tuple(zip(*combo))

    def _bump_high_water(self, coords: Coords) -> None:
        for i, c in enumerate(coords):
            if c > self._high_water[i]:
                self._high_water[i] = c

    # ------------------------------------------------------------------
    # cell reads and writes
    # ------------------------------------------------------------------

    def exists(self, *key: Any) -> bool:
        """The paper's ``Exists? [A, 7, 7]`` — true iff the cell is occupied
        (PRESENT or NULL), false for EMPTY or out-of-range addresses."""
        coords = self._normalize_coords(key[0] if len(key) == 1 else tuple(key))
        try:
            self._check_bounds(coords, writing=False)
        except BoundsError:
            return False
        chunk = self._chunk_for(coords, create=False)
        if chunk is None:
            return False
        _, off = self._chunk_key(coords)
        return chunk.state[off] != CellState.EMPTY

    def get(self, *key: Any) -> Optional[Cell]:
        """Read a cell: a :class:`Cell` if PRESENT, ``None`` if NULL.

        EMPTY cells raise :class:`EmptyCellError`; use :meth:`exists` to
        probe first, or :meth:`get_or_none`.
        """
        coords = self._normalize_coords(key[0] if len(key) == 1 else tuple(key))
        self._check_bounds(coords, writing=False)
        chunk = self._chunk_for(coords, create=False)
        _, off = self._chunk_key(coords)
        if chunk is None or chunk.state[off] == CellState.EMPTY:
            raise EmptyCellError(f"cell {coords} of array {self.name!r} is empty")
        if chunk.state[off] == CellState.NULL:
            return None
        values = [self._load_value(chunk.data[a.name][off], a)
                  for a in self.schema.attributes]
        return Cell(self.attr_names, values)

    def get_or_none(self, *key: Any) -> Optional[Cell]:
        """Like :meth:`get` but EMPTY reads return ``None`` too."""
        try:
            return self.get(*key)
        except (EmptyCellError, BoundsError):
            return None

    def __getitem__(self, key: Any) -> Optional[Cell]:
        return self.get(key)

    def __setitem__(self, key: Any, value: CellValue) -> None:
        self.set(key, value)

    def set(self, key: Any, value: CellValue) -> None:
        """Write a record into a cell.

        *value* may be a :class:`Cell`, a tuple in attribute order, a dict
        keyed by attribute name, or — for single-attribute arrays — the bare
        scalar.  ``None`` stores NULL (equivalent to :meth:`set_null`).
        """
        coords = self._normalize_coords(key)
        self._check_bounds(coords, writing=True)
        chunk = self._chunk_for(coords, create=True)
        _, off = self._chunk_key(coords)
        if value is None:
            chunk.state[off] = CellState.NULL
            self._bump_high_water(coords)
            return
        values = self._normalize_record(value)
        for attr, v in zip(self.schema.attributes, values):
            chunk.data[attr.name][off] = self._store_value(v, attr)
        chunk.state[off] = CellState.PRESENT
        self._bump_high_water(coords)

    def set_null(self, key: Any) -> None:
        """Store an explicit NULL (Filter's false-predicate output)."""
        self.set(key, None)

    def set_unchecked(self, coords: Coords, values: "Optional[tuple]") -> None:
        """Trusted write path for operator inner loops.

        Skips coordinate normalisation and type validation — callers must
        pass a 1-based in-bounds tuple and a value tuple already conforming
        to the schema (e.g. values read out of another array with the same
        record type).  ``None`` stores NULL.
        """
        key, off = self._chunk_key(coords)
        chunk = self._chunks.get(key) or self._new_chunk(key)
        if values is None:
            chunk.state[off] = CellState.NULL
        else:
            for name, v in zip(self.attr_names, values):
                chunk.data[name][off] = v
            chunk.state[off] = CellState.PRESENT
        self._bump_high_water(coords)

    def delete(self, key: Any) -> None:
        """Return a cell to the EMPTY state.

        Note that on *updatable* arrays the transaction layer never calls
        this on old history slices — it records a deletion flag in the next
        history slice instead (Section 2.5).
        """
        coords = self._normalize_coords(key)
        self._check_bounds(coords, writing=True)
        chunk = self._chunk_for(coords, create=False)
        if chunk is None:
            return
        _, off = self._chunk_key(coords)
        chunk.state[off] = CellState.EMPTY

    def _normalize_record(self, value: CellValue) -> tuple:
        attrs = self.schema.attributes
        if isinstance(value, Cell):
            if value.names == self.attr_names:
                return value.values
            try:
                return tuple(getattr(value, a.name) for a in attrs)
            except AttributeError as exc:
                raise TypeMismatchError(str(exc)) from exc
        if isinstance(value, Mapping):
            missing = set(self.attr_names) - set(value)
            if missing:
                raise TypeMismatchError(f"record missing components {sorted(missing)}")
            return tuple(value[a.name] for a in attrs)
        if isinstance(value, tuple):
            if len(value) != len(attrs):
                # A (value, sigma) pair written to a single uncertain
                # attribute is the value, not a 2-component record.
                only = attrs[0].type if len(attrs) == 1 else None
                if (
                    isinstance(only, ScalarType)
                    and only.is_uncertain
                    and len(value) == 2
                ):
                    return (value,)
                raise TypeMismatchError(
                    f"record has {len(value)} components, schema has {len(attrs)}"
                )
            return value
        if len(attrs) == 1:
            return (value,)
        raise TypeMismatchError(
            f"cannot interpret {value!r} as a record with components "
            f"{self.attr_names}"
        )

    def _store_value(self, value: Any, attr: Attribute) -> Any:
        if isinstance(attr.type, ArraySchema):
            if value is None:
                return None
            if isinstance(value, SciArray):
                if value.schema.attr_names != attr.type.attr_names:
                    raise TypeMismatchError(
                        f"nested array for {attr.name!r} has components "
                        f"{value.schema.attr_names}, expected {attr.type.attr_names}"
                    )
                return value
            raise TypeMismatchError(
                f"component {attr.name!r} expects a nested array, got "
                f"{type(value).__name__}"
            )
        return attr.type.validate(value)

    def _load_value(self, raw: Any, attr: Attribute) -> Any:
        if isinstance(attr.type, ArraySchema):
            return raw
        if attr.type.numpy_dtype != object and isinstance(raw, np.generic):
            return raw.item()
        return raw

    # ------------------------------------------------------------------
    # bulk (vectorised) region I/O
    # ------------------------------------------------------------------

    def set_region(
        self,
        origin: Coords,
        values: Mapping[str, np.ndarray],
        state: Optional[np.ndarray] = None,
    ) -> None:
        """Write a block of cells in one call.

        ``origin`` is the 1-based coordinate of the block's first cell.
        Every array in *values* must share one shape; all schema attributes
        must be supplied.  *state* is the block's
        :class:`~repro.core.cells.CellState` plane — the form every plane
        kernel emits: PRESENT cells take their value, NULL cells are stored
        as NULL, and EMPTY entries write nothing (a cell already stored
        there keeps its state and value).  Like :meth:`set_unchecked`, this
        form trusts the caller about the shape function: a kernel's
        occupied cells are the image of cells already inside it.  Without
        *state* every cell of the block is PRESENT (the bulk-load path of
        the streaming loader and the workload generators).
        """
        names = self.attr_names
        missing = [name for name in names if name not in values]
        if missing:
            raise TypeMismatchError(f"set_region missing attributes {sorted(missing)}")
        arrays = [np.asarray(values[name]) for name in names]
        shapes = {a.shape for a in arrays}
        if state is not None:
            state = np.asarray(state, dtype=np.uint8)
            shapes.add(state.shape)
        if len(shapes) != 1:
            raise TypeMismatchError(f"set_region plane shapes differ: {shapes}")
        block_shape = shapes.pop()
        if len(block_shape) != len(self.chunk_shape):
            raise TypeMismatchError(
                f"set_region block is {len(block_shape)}-D for a {self.ndim}-D array"
            )
        if 0 in block_shape:
            return
        origin = self._normalize_coords(origin)
        far = tuple(o + s - 1 for o, s in zip(origin, block_shape))
        if state is None:
            self._check_bounds(origin, writing=True)
            self._check_bounds(far, writing=True)
        else:
            # A kernel's block is its input's box: the corners of a ragged
            # array lie outside the shape function and are EMPTY here.
            self._check_dims(origin)
            self._check_dims(far)

        for key, chunk_sel, block_sel in self.chunk_overlaps(origin, far):
            chunk = self._chunks.get(key)
            if state is None:
                chunk = chunk or self._new_chunk(key)
                for name, arr in zip(names, arrays):
                    chunk.data[name][chunk_sel] = arr[block_sel]
                chunk.state[chunk_sel] = CellState.PRESENT
                continue
            block_state = state[block_sel]
            occupied = block_state != CellState.EMPTY
            if not occupied.any():
                continue  # nothing to write here: keep the array sparse
            chunk = chunk or self._new_chunk(key)
            for name, arr in zip(names, arrays):
                np.copyto(chunk.data[name][chunk_sel], arr[block_sel], where=occupied)
            np.copyto(chunk.state[chunk_sel], block_state, where=occupied)
        if state is None:
            self._bump_high_water(far)
            return
        # Only unbounded dimensions track a high-water mark, and it is the
        # farthest *occupied* coordinate, not the block's corner.
        for d, dim in enumerate(self.schema.dimensions):
            if dim.size is None:
                others = tuple(a for a in range(self.ndim) if a != d)
                hit = np.flatnonzero(state.any(axis=others))
                if hit.size:
                    self._high_water[d] = max(
                        self._high_water[d], origin[d] + int(hit[-1])
                    )

    def blocks(
        self, attrs: Optional[Sequence[str]] = None
    ) -> Iterator[tuple[Coords, dict[str, np.ndarray], np.ndarray]]:
        """Every allocated chunk, in chunk order, as ``(origin, value
        planes, state plane)``.

        This is what the plane kernels of :mod:`repro.core.ops` iterate:
        their cost follows the chunks that exist, whatever the declared
        extents or the high-water marks.  The planes are *views* of the
        chunk's own arrays for *attrs* (default: all), trimmed to the
        array's :attr:`bounds`; values under a non-PRESENT state are
        unspecified.
        """
        names = self.attr_names if attrs is None else tuple(attrs)
        bounds = self.bounds
        for key in sorted(self._chunks):
            chunk = self._chunks[key]
            inside = tuple(
                slice(0, min(n, b - o + 1))
                for o, n, b in zip(chunk.origin, chunk.shape, bounds)
            )
            yield (
                chunk.origin,
                {name: chunk.data[name][inside] for name in names},
                chunk.state[inside],
            )

    def planes(
        self, lo: Coords, hi: Coords, attrs: Optional[Sequence[str]] = None
    ) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """The value planes and state mask of the box ``lo..hi``.

        One freshly assembled ndarray per attribute in *attrs* (default:
        all) in the chunks' own dtype, plus the
        :class:`~repro.core.cells.CellState` plane saying which cells are
        PRESENT, NULL or EMPTY.  Values under a non-PRESENT state are
        unspecified — consult the mask.  The box may extend past the
        array's bounds; cells no chunk covers are EMPTY.  Memory is the
        box's volume, which is why there is no whole-array default: a
        kernel asks for a chunk-sized box (see :meth:`blocks`).
        """
        lo, hi = self._normalize_coords(lo), self._normalize_coords(hi)
        shape = tuple(max(h - l + 1, 0) for l, h in zip(lo, hi))
        state = np.zeros(shape, dtype=np.uint8)
        out = {
            name: blank_plane(shape, self.schema.attribute(name))
            for name in (self.attr_names if attrs is None else attrs)
        }
        for key, chunk_sel, out_sel in self.chunk_overlaps(lo, hi):
            chunk = self._chunks.get(key)
            if chunk is None:
                continue
            state[out_sel] = chunk.state[chunk_sel]
            for name, plane in out.items():
                plane[out_sel] = chunk.data[name][chunk_sel]
        return out, state

    def region(
        self,
        lo: Coords,
        hi: Coords,
        attr: Optional[str] = None,
        fill: Any = np.nan,
    ) -> "np.ndarray | dict[str, np.ndarray]":
        """Read the dense block ``lo..hi`` (inclusive, 1-based) as numpy.

        EMPTY and NULL cells are filled with *fill* (integer planes widen
        to float64 to hold the default NaN).  With *attr* given, returns
        that attribute's block; otherwise a dict of all attributes.
        """
        lo = self._normalize_coords(lo)
        hi = self._normalize_coords(hi)
        if any(h < l for l, h in zip(lo, hi)):
            raise BoundsError(f"empty region {lo}..{hi}")
        out, state = self.planes(lo, hi, None if attr is None else [attr])
        absent = state != CellState.PRESENT
        for name, plane in out.items():
            if fill is np.nan and np.issubdtype(plane.dtype, np.integer):
                out[name] = plane = plane.astype(np.float64)
            plane[absent] = fill
        if attr is not None:
            return out[attr]
        return out

    def to_numpy(self, attr: Optional[str] = None, fill: Any = np.nan):
        """The whole array (1..high-water on each dimension) as numpy."""
        hw = self.bounds
        if any(h == 0 for h in hw):
            shape = tuple(max(h, 0) for h in hw)
            if attr is not None:
                return np.full(shape, fill)
            return {name: np.full(shape, fill) for name in self.attr_names}
        return self.region(tuple([1] * self.ndim), hw, attr=attr, fill=fill)

    @classmethod
    def from_numpy(
        cls,
        schema: ArraySchema,
        values: "np.ndarray | Mapping[str, np.ndarray]",
        name: Optional[str] = None,
        chunk_shape: Optional[Sequence[int]] = None,
    ) -> "SciArray":
        """Build an array instance from dense numpy data.

        For single-attribute schemas a bare ndarray is accepted.
        """
        if isinstance(values, np.ndarray):
            if len(schema.attributes) != 1:
                raise TypeMismatchError(
                    "bare ndarray only accepted for single-attribute schemas"
                )
            values = {schema.attributes[0].name: values}
        shape = next(iter(values.values())).shape
        bound = schema.bind(list(shape))
        arr = cls(bound, name=name, chunk_shape=chunk_shape)
        arr.set_region(tuple([1] * len(shape)), values)
        return arr

    # ------------------------------------------------------------------
    # iteration
    # ------------------------------------------------------------------

    def cells(self, include_null: bool = True) -> Iterator[tuple[Coords, Optional[Cell]]]:
        """Iterate occupied cells in coordinate order as (coords, record).

        NULL cells yield ``(coords, None)`` unless *include_null* is false.
        """
        for key in sorted(self._chunks):
            for coords, cell in self._chunks[key].cells():
                if cell is not None or include_null:
                    yield coords, cell

    def __iter__(self) -> Iterator[tuple[Coords, Optional[Cell]]]:
        return self.cells()

    def __len__(self) -> int:
        return self.count_occupied()

    # ------------------------------------------------------------------
    # enhanced (mapped) addressing — the paper's A{...} syntax
    # ------------------------------------------------------------------

    @property
    def mapped(self) -> "_MappedView":
        """Address cells through the array's enhancements: ``a.mapped[16.3,
        48.2]`` is the paper's ``A{16.3, 48.2}``."""
        return _MappedView(self)

    def find_enhancement(self, name: Optional[str] = None):
        from .enhance import Enhancement  # local import to avoid a cycle

        if not self.enhancements:
            raise SchemaError(f"array {self.name!r} has no enhancements")
        if name is None:
            return self.enhancements[-1]
        for e in self.enhancements:
            if e.name == name:
                return e
        raise SchemaError(f"array {self.name!r} has no enhancement named {name!r}")

    # ------------------------------------------------------------------
    # copies, equality, repr
    # ------------------------------------------------------------------

    def empty_like(self, name: Optional[str] = None) -> "SciArray":
        """A new array with this array's schema and chunking, no cells."""
        clone = SciArray(self.schema, name=name or self.name, chunk_shape=self.chunk_shape)
        clone.enhancements = list(self.enhancements)
        clone.shape_function = self.shape_function
        return clone

    def copy(self, name: Optional[str] = None) -> "SciArray":
        clone = self.empty_like(name=name)
        for coords, cell in self.cells():
            clone.set(coords, cell)
        return clone

    def content_equal(self, other: "SciArray") -> bool:
        """Same occupied coordinates with equal records (schema names may
        differ; dimension count and attribute count must match)."""
        if self.ndim != other.ndim:
            return False
        mine = {c: cell.values if cell else None for c, cell in self.cells()}
        theirs = {c: cell.values if cell else None for c, cell in other.cells()}
        return mine == theirs

    def __repr__(self) -> str:
        dims = ", ".join(
            f"{d.name}=1..{'*' if d.size is None else d.size}"
            for d in self.schema.dimensions
        )
        return (
            f"<SciArray {self.name!r} [{dims}] "
            f"{self.count_occupied()} cells in {len(self._chunks)} chunks>"
        )


class _MappedView:
    """Indexing adaptor implementing enhanced addressing (``A{...}``)."""

    __slots__ = ("_array",)

    def __init__(self, array: SciArray) -> None:
        self._array = array

    def _resolve(self, key: Any) -> Coords:
        if not isinstance(key, tuple):
            key = (key,)
        enh = self._array.find_enhancement()
        return enh.to_basic(key)

    def __getitem__(self, key: Any) -> Optional[Cell]:
        return self._array.get(self._resolve(key))

    def __setitem__(self, key: Any, value: CellValue) -> None:
        self._array.set(self._resolve(key), value)
