"""Time-travel helpers over updatable arrays (Section 2.5).

Thin, well-named wrappers around :class:`UpdatableArray`'s as-of machinery:
materialised snapshots and full cell histories, plus wall-clock snapshots
through the history dimension's clock enhancement.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import replace
from typing import Any, Optional

import numpy as np

from ..core.array import SciArray
from ..core.cells import CellState
from .transactions import UpdatableArray, visible_blocks

__all__ = ["snapshot", "snapshot_at_time", "cell_history", "history_sizes"]

Coords = tuple[int, ...]


def snapshot(array: UpdatableArray, as_of: Optional[int] = None) -> SciArray:
    """Materialise the visible state as of a history value.

    ``as_of=None`` means the latest state.  Deleted cells are absent;
    NULL deltas remain NULL.
    """
    schema = replace(
        array.schema,
        name=f"{array.schema.name}_snapshot",
        dimensions=array.schema.dimensions[:-1],
        updatable=False,
    )
    horizon = array.current_history if as_of is None else as_of
    out = SciArray(schema, name=f"{array.name}@{horizon}")
    for origin, planes, state in visible_blocks(array, as_of):
        out.set_region(origin, planes, state)
    return out


def snapshot_at_time(array: UpdatableArray, when: _dt.datetime) -> SciArray:
    """Materialise the state as of a wall-clock instant (Section 2.5's
    'addressed using conventional time')."""
    return snapshot(array, as_of=array.wallclock.to_basic_history(when))


def cell_history(array: UpdatableArray, coords: Coords) -> list[tuple[int, Any]]:
    """The full change record of one cell, oldest first."""
    return list(array.cell_history(coords))


def history_sizes(array: UpdatableArray) -> dict[int, int]:
    """Deltas recorded per history value — the write-amplification shape
    reported by experiment E3."""
    sizes = dict.fromkeys(range(1, array.current_history + 1), 0)
    for origin, _, state in array.store.blocks(attrs=()):
        per_h = np.count_nonzero(
            state != CellState.EMPTY, axis=tuple(range(state.ndim - 1))
        )
        for h, n in enumerate(per_h.tolist(), start=origin[-1]):
            sizes[h] += n
    return sizes
