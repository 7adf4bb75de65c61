"""No-overwrite transactions over updatable arrays (Section 2.5).

The paper's scheme, implemented literally:

* every updatable array carries an implicit, unbounded ``history``
  dimension (added automatically by the schema layer);
* "An initial transaction adds values into appropriate cells for
  history = 1.  The first subsequent SciDB transaction adds new values in
  the appropriate cells for history = 2. ... Thereafter, every transaction
  adds new array values for the next value of the history dimension";
* "A delete operation removes a cell from an array and in the obvious
  implementation based on deltas, one would insert a deletion-flag as the
  delta" — :data:`DELETED` is that flag, stored in the store as a NULL
  delta marked on a flag plane over the store's own grid;
* the history dimension can be enhanced with a wall-clock mapping
  (:class:`~repro.core.enhance.WallClockEnhancement`), so arrays are
  addressable by conventional time.

Every read goes through one rule, :func:`_visible`: per cell, the newest
delta at or before the horizon, unless it is a deletion flag — over the
store's blocks, one cell's column, or a named version's layers.
"""

from __future__ import annotations

import datetime as _dt
from typing import Any, Iterator, Optional

import numpy as np

from ..core.array import SciArray, block_cells
from ..core.cells import Cell, CellState
from ..core.datatypes import get_type
from ..core.enhance import WallClockEnhancement
from ..core.errors import EmptyCellError, TransactionError
from ..core.schema import ArraySchema, Attribute, HISTORY_DIMENSION

__all__ = ["DELETED", "Transaction", "UpdatableArray"]

Coords = tuple[int, ...]
EMPTY, NULL = CellState.EMPTY, CellState.NULL


class _DeletedFlag:
    """The deletion flag stored as a delta (Section 2.5); one instance."""

    def __repr__(self) -> str:
        return "<DELETED>"

    def __reduce__(self) -> str:
        return "DELETED"  # copies and unpickles are the one instance


DELETED = _DeletedFlag()


def _visible(layers: list) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """The as-of rule, written once: per cell, the newest delta of the
    newest layer that has one, unless that delta is a deletion flag.

    *layers* are ``(origin, planes, state, flags)`` boxes over one block
    of cells, oldest first, history the last axis (the state cut at the
    horizon); *flags*, the array of the box's deletion flags, is read only
    where the newest delta is NULL.  Returns the block's ``(planes,
    state)``, deleted cells EMPTY.  Cost follows the boxes that exist.
    """
    picks = []
    for lo, planes, state, flags in layers:
        cells, n = state.shape[:-1], state.shape[-1]
        flat = state.reshape(-1, n)
        at = (np.arange(len(flat)), n - 1 - flat[:, ::-1].astype(bool).argmax(axis=1))
        newest = flat[at].reshape(cells)  # EMPTY where the box holds no delta
        seen = newest != EMPTY  # a deletion is a delta: it hides older layers
        if flags.chunk_count() and (newest == NULL).any():  # no flags, no read
            hi = tuple(l + k - 1 for l, k in zip(lo, state.shape))
            flagged = flags.planes(lo, hi, ())[1].reshape(-1, n)[at]
            newest[flagged.reshape(cells) != EMPTY] = EMPTY
        picks.append((
            {
                name: p.reshape(-1, p.shape[-1])[at].reshape(cells)
                for name, p in planes.items()
            },
            newest,
            seen,
        ))
    if len(picks) == 1:
        return picks[0][:2]
    # Newer layers win wherever they hold a delta; boxes of one block may
    # be trimmed to different extents, so each fills its own corner.
    shape = tuple(map(max, zip(*(seen.shape for _, _, seen in picks))))
    planes = {}
    state = np.zeros(shape, dtype=np.uint8)
    for values, newest, seen in picks:
        cut = tuple(map(slice, seen.shape))
        np.copyto(state[cut], newest, where=seen)
        for name, plane in values.items():
            out = planes.setdefault(name, np.zeros(shape, dtype=plane.dtype))
            np.copyto(out[cut], plane, where=seen)
    return planes, state


def visible_blocks(source: Any, as_of: Optional[int] = None):
    """The visible state of an :class:`UpdatableArray` or a
    :class:`~repro.history.versions.Version`, as ``(origin, planes,
    state)`` blocks in chunk order."""
    for origin, layers in sorted(source._layers(as_of).items()):
        yield (origin, *_visible(layers))


def read(source: Any, cell: Coords, as_of: Optional[int] = None) -> Optional[Cell]:
    """One cell through :func:`_visible`: a :class:`Cell`, ``None`` for
    NULL; deleted and never-written cells raise :class:`EmptyCellError`."""
    for boxes in source._layers(as_of, cell).values():
        planes, state = _visible(boxes)
        code = state.item()
        if code == NULL:
            return None
        if code != EMPTY:
            return Cell(tuple(planes), [p.item() for p in planes.values()])
    raise EmptyCellError(f"cell {cell} of {source.name!r} is empty as of {as_of}")


class _Reads:
    """``get_or_none`` and ``exists`` over ``get``: an array's, which takes
    ``as_of``, and a version's."""

    def get_or_none(self, *coords: int, **as_of: Optional[int]) -> Optional[Cell]:
        try:
            return self.get(*coords, **as_of)
        except EmptyCellError:
            return None

    def exists(self, *coords: int, **as_of: Optional[int]) -> bool:
        try:
            self.get(*coords, **as_of)
        except EmptyCellError:
            return False
        return True


class UpdatableArray(_Reads):
    """A no-overwrite, time-travelled array.

    Parameters
    ----------
    schema:
        A *bound* updatable schema whose last dimension is ``history``
        (unbounded).  Use ``define_array(..., updatable=True).bind(bounds)``
        or pass an unbound updatable schema plus *bounds*.
    """

    def __init__(
        self,
        schema: ArraySchema,
        bounds: Optional[list] = None,
        name: Optional[str] = None,
    ) -> None:
        if bounds is not None or not schema.has_history:
            schema = schema.bind(
                bounds
                if bounds is not None
                else [d.size if d.size else "*" for d in schema.dimensions]
            )
        if not schema.updatable or not schema.has_history:
            raise TransactionError(
                "UpdatableArray requires an updatable schema (with its "
                "implicit history dimension)"
            )
        if schema.dim_names[-1] != HISTORY_DIMENSION:
            raise TransactionError("the history dimension must come last")
        self.schema = schema
        self.name = name or schema.name
        #: Every delta, at (cell coords, history): a value, a NULL, or — a
        #: NULL flagged in :attr:`deleted` — a deletion.
        self.store = SciArray(schema, name=self.name)
        #: The deletion flags, on the store's grid.
        self.deleted = SciArray(
            schema.with_attributes([Attribute("deleted", get_type("bool"))]),
            name=f"{self.name}__deleted",
        )
        self.current_history = 0
        self._open_txn: Optional[Transaction] = None
        self.wallclock = WallClockEnhancement(self.store)
        self.store.enhancements.append(self.wallclock)
        #: Optional durability hook: called after every commit with
        #: (array, history_value, writes_dict, timestamp) — writes map cell
        #: coords to a value tuple, ``None`` (NULL), or :data:`DELETED`.
        #: The SciDB facade uses it to write-ahead-log commits.
        self.on_commit: Optional[Any] = None

    # -- dimensional bookkeeping -----------------------------------------------

    @property
    def cell_ndim(self) -> int:
        """Dimensions excluding history."""
        return self.schema.ndim - 1

    def _check_cell_coords(self, coords: tuple) -> Coords:
        """Cell coords given as ``(x, y)`` or as ``((x, y),)``."""
        if len(coords) == 1 and isinstance(coords[0], tuple):
            coords = coords[0]
        if len(coords) != self.cell_ndim:
            raise TransactionError(
                f"cell address needs {self.cell_ndim} coordinates "
                f"(history is implicit), got {len(coords)}"
            )
        return tuple(int(c) for c in coords)

    # -- transactions -------------------------------------------------------------

    def begin(self) -> "Transaction":
        if self._open_txn is not None:
            raise TransactionError(
                f"array {self.name!r} already has an open transaction"
            )
        self._open_txn = Transaction(self)
        return self._open_txn

    def transaction(self) -> "Transaction":
        """Alias for :meth:`begin`, usable as a context manager."""
        return self.begin()

    # -- reads ------------------------------------------------------------------------

    def _layers(
        self, as_of: Optional[int] = None, cell: Optional[Coords] = None
    ) -> dict[Coords, list]:
        """The store's deltas at or before *as_of*, as :func:`_visible`
        reads them: per chunk of cells, its history blocks oldest first —
        or, for one *cell*, its column ``1..as_of``."""
        if as_of is not None and as_of < 0:
            raise TransactionError(f"invalid history horizon {as_of}")
        top = self.current_history
        if as_of is not None:
            top = min(as_of, top)
        if cell is not None:
            if not top:
                return {}
            lo = cell + (1,)
            planes, state = self.store.planes(lo, cell + (top,))
            return {cell: [(lo, planes, state, self.deleted)]}
        out: dict[Coords, list] = {}
        for origin, planes, state in self.store.blocks():
            if origin[-1] <= top:
                out.setdefault(origin[:-1], []).append(
                    (origin, planes, state[..., : top - origin[-1] + 1], self.deleted)
                )
        return out

    def get(self, *coords: int, as_of: Optional[int] = None) -> Optional[Cell]:
        """Latest (or as-of) value of a cell; EMPTY/deleted cells raise."""
        return read(self, self._check_cell_coords(coords), as_of)

    def get_as_of_time(self, coords: Coords, when: _dt.datetime) -> Optional[Cell]:
        """Wall-clock as-of read (Section 2.5's enhancement in action)."""
        return self.get(tuple(coords), as_of=self.wallclock.to_basic_history(when))

    def cell_history(self, coords: Coords) -> Iterator[tuple[int, Any]]:
        """Walk a cell along the history dimension: (history, value) pairs.

        Values are :class:`Cell` records, ``None`` for NULL deltas, or
        :data:`DELETED` for deletion flags — "the history of activity to
        the cell".  Each is the cell as of its own history value.
        """
        cell = self._check_cell_coords(tuple(coords))
        _, state = self.store.planes(cell + (1,), cell + (self.current_history,), ())
        for h in (np.flatnonzero(state) + 1).tolist():
            try:
                yield h, read(self, cell, h)
            except EmptyCellError:
                yield h, DELETED

    def latest_cells(
        self, as_of: Optional[int] = None
    ) -> Iterator[tuple[Coords, Optional[Cell]]]:
        """Iterate the visible (non-deleted) state as of a history value,
        in chunk order."""
        for origin, planes, state in visible_blocks(self, as_of):
            yield from block_cells(origin, planes, state, self.schema.attr_names)

    def delta_count(self) -> int:
        """Stored deltas across all history (the no-overwrite space cost)."""
        return self.store.count_occupied()

    def __repr__(self) -> str:
        return (
            f"<UpdatableArray {self.name!r} history={self.current_history} "
            f"deltas={self.delta_count()}>"
        )


class Transaction:
    """One atomic batch of updates/inserts/deletes.

    Buffers writes; :meth:`commit` assigns them all to the next history
    value.  Usable as a context manager (commits on clean exit, aborts on
    exception).
    """

    def __init__(self, array: UpdatableArray) -> None:
        self.array = array
        self._writes: dict[Coords, Any] = {}
        self._done = False

    def set(self, coords: Coords, values: Any) -> None:
        self._ensure_open()
        self._writes[self.array._check_cell_coords(tuple(coords))] = values

    def set_null(self, coords: Coords) -> None:
        self.set(coords, None)

    def delete(self, coords: Coords) -> None:
        """Record a deletion flag for this cell."""
        self.set(coords, DELETED)

    def commit(self, timestamp: Optional[_dt.datetime] = None) -> int:
        """Apply the batch at the next history value; returns it.  What
        can fail (the batch, a value, the timestamp) fails before the
        array changes, and finishes the transaction all the same."""
        self._ensure_open()
        arr = self.array
        h = arr.current_history + 1
        try:
            if not self._writes:
                raise TransactionError("refusing to commit an empty transaction")
            staged = SciArray(arr.schema, chunk_shape=arr.store.chunk_shape[:-1] + (1,))
            for coords, values in self._writes.items():
                staged.set(coords + (h,), None if values is DELETED else values)
            when = _synthetic_time(h) if timestamp is None else timestamp
            arr.wallclock.record_commit(when)  # the last check; the first change
            for origin, planes, state in staged.blocks():
                arr.store.set_region(origin, planes, state)
            for coords, values in self._writes.items():
                if values is DELETED:
                    arr.deleted.set(coords + (h,), True)
            arr.current_history = h
        finally:
            self._finish()
        if arr.on_commit is not None:
            writes = {
                c: v.values if isinstance(v, Cell) else v
                for c, v in self._writes.items()
            }
            arr.on_commit(arr, h, writes, when)
        return h

    def abort(self) -> None:
        self._ensure_open()
        self._writes.clear()
        self._finish()

    def _ensure_open(self) -> None:
        if self._done:
            raise TransactionError("transaction is already finished")

    def _finish(self) -> None:
        self._done = True
        self.array._open_txn = None

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._done:
            return
        if exc_type is None and self._writes:
            self.commit()
        else:
            self.abort()


def _synthetic_time(history: int) -> _dt.datetime:
    """Deterministic wall-clock stand-in when the caller gives no
    timestamp (keeps tests and benchmarks reproducible)."""
    return _dt.datetime(2009, 1, 1) + _dt.timedelta(seconds=history)
