"""Structural operators (Section 2.2.1).

These operators "create new arrays based purely on the structure of the
inputs" — they are data-agnostic, never needing to read cell values to
decide the output's shape, "which presents opportunity for optimization"
(the planner exploits this; see :mod:`repro.query.planner` and experiment
E2).

The Subsample predicate must be "a conjunction of conditions on each
dimension independently" — ``X = 3 and Y < 4`` is legal, ``X = Y`` is not.
We enforce this syntactically: the predicate is a mapping from dimension
name to a *single-dimension* condition (a range tuple, a set of values, or
a unary callable), so cross-dimension predicates are inexpressible.

Subsampled dimensions are renumbered to stay contiguous (1..K, the model's
invariant), and the original index values are *retained* — as the paper
requires — through an :class:`~repro.core.enhance.IrregularEnhancement`
named ``"source_index"`` mapping each new index back to its source value.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from ..array import SciArray
from ..cells import Cell, CellState
from ..enhance import IrregularEnhancement
from ..errors import BoundsError, SchemaError
from ..schema import ArraySchema, Attribute, Dimension
from . import register_operator

__all__ = [
    "DimCondition", "subsample", "exists", "reshape", "sjoin", "add_dimension",
    "remove_dimension", "concatenate", "cross_product", "transpose",
]

Coords = tuple[int, ...]

#: A condition on one dimension: an int (equality), a ``(lo, hi)`` inclusive
#: range (either end ``None`` for open), a set/list of admitted values, or a
#: unary predicate such as ``lambda x: x % 2 == 0`` (the paper's ``even(X)``).
DimCondition = Union[int, tuple, set, frozenset, list, range, Callable[[int], bool]]


def _selected_indexes(condition: DimCondition, high_water: int) -> list[int]:
    """Indexes in 1..high_water satisfying *condition*, ascending."""
    if isinstance(condition, bool):
        raise SchemaError("a bare bool is not a dimension condition")
    if isinstance(condition, int):
        return [condition] if 1 <= condition <= high_water else []
    if isinstance(condition, tuple):
        if len(condition) != 2:
            raise SchemaError(f"range condition must be (lo, hi), got {condition!r}")
        lo, hi = condition
        lo = 1 if lo is None else max(1, int(lo))
        hi = high_water if hi is None else min(high_water, int(hi))
        return list(range(lo, hi + 1))
    if isinstance(condition, (set, frozenset, list, range)):
        return sorted(v for v in condition if 1 <= v <= high_water)
    if callable(condition):
        return [i for i in range(1, high_water + 1) if condition(i)]
    raise SchemaError(f"unsupported dimension condition {condition!r}")


def subsample(
    array: SciArray,
    predicate: Mapping[str, DimCondition],
    name: Optional[str] = None,
) -> SciArray:
    """Select a subslab: the paper's ``Subsample(F, even(X))``.

    *predicate* maps dimension names to independent conditions; unmentioned
    dimensions keep all their values.  The output has the same number of
    dimensions with (generally) fewer values per dimension; original index
    values are retained via the ``source_index`` enhancement.
    """
    unknown = set(predicate) - set(array.dim_names)
    if unknown:
        raise SchemaError(f"subsample predicate names unknown dimensions {sorted(unknown)}")

    selections: list[Sequence[int]] = []
    for d in range(array.ndim):
        hw = array.high_water(d)
        cond = predicate.get(array.dim_names[d])
        selections.append(
            range(1, hw + 1) if cond is None else _selected_indexes(cond, hw)
        )

    out_dims = tuple(
        Dimension(dim.name, len(sel))
        for dim, sel in zip(array.schema.dimensions, selections)
    )
    out_schema = array.schema.with_dimensions(out_dims).renamed(
        name or f"{array.schema.name}_sub"
    )
    out = SciArray(out_schema, name=name or f"{array.name}_sub")

    # The selected indexes a chunk holds are, per dimension, one slice of
    # the ascending selection, so they land on consecutive output indexes:
    # one fancy-indexed copy per chunk, planes and state alike, and NULL
    # and EMPTY cells travel with their neighbours.
    for origin, planes, state in array.blocks():
        spans = [
            (bisect_left(sel, o), bisect_left(sel, o + n))
            for sel, o, n in zip(selections, origin, state.shape)
        ]
        if any(a == b for a, b in spans):
            continue
        pick = np.ix_(*(
            np.asarray(sel[a:b]) - o
            for sel, (a, b), o in zip(selections, spans, origin)
        ))
        out.set_region(
            tuple(a + 1 for a, _ in spans),
            {name: plane[pick] for name, plane in planes.items()},
            state[pick],
        )
    coordinates = {
        dim.name: list(sel) for dim, sel in zip(out_dims, selections)
    }
    out.enhancements.append(
        IrregularEnhancement(out, coordinates, name="source_index")
    )
    return out


def exists(array: SciArray, *coords: int) -> bool:
    """The paper's ``Exists? [A, 7, 7]``."""
    return array.exists(*coords)


def reshape(
    array: SciArray,
    order: Sequence[str],
    new_dims: Sequence[tuple[str, int]],
    name: Optional[str] = None,
) -> SciArray:
    """Change an array's dimensionality keeping the cell count.

    The paper's example: for a 2x3x4 array G with dimensions X, Y, Z,
    ``Reshape(G, [X, Z, Y], [U = 1:8, V = 1:3])`` linearizes G "by iterating
    over X most slowly and Y most quickly", then regroups the resulting
    24-vector into an 8x3 array with dimensions U, V (first-listed new
    dimension varying most slowly).
    """
    if sorted(order) != sorted(array.dim_names):
        raise SchemaError(
            f"reshape order {list(order)} must be a permutation of "
            f"{list(array.dim_names)}"
        )
    old_sizes = [array.high_water(d) for d in order]
    new_sizes = [size for _, size in new_dims]
    total = math.prod(old_sizes)
    if total != math.prod(new_sizes):
        raise SchemaError(
            f"reshape must preserve the cell count: "
            f"{total} != {math.prod(new_sizes)}"
        )
    out_schema = array.schema.with_dimensions(
        [Dimension(n, s) for n, s in new_dims]
    ).renamed(name or f"{array.schema.name}_reshaped")
    out = SciArray(out_schema, name=name or f"{array.name}_reshaped")

    perm = [array.schema.dim_index(d) for d in order]
    # A cell's position in the linearization, then in the new dimensions:
    # the per-cell arithmetic on whole index vectors, one chunk's occupied
    # cells at a time (Python ints where the cell count outgrows int64).
    wide = np.int64 if total < 2**63 else object
    for origin, planes, state in array.blocks():
        at = np.nonzero(state)
        linear = np.zeros(len(at[0]), dtype=wide)
        for pos, size in zip(perm, old_sizes):
            linear = linear * size + (at[pos] + (origin[pos] - 1))
        coords = []
        for size in reversed(new_sizes):
            coords.append(linear % size + 1)
            linear = linear // size
        _scatter(
            out,
            np.stack(coords[::-1], axis=1).astype(np.int64),
            {a: plane[at] for a, plane in planes.items()},
            state[at],
        )
    return out


def _scatter(
    out: SciArray,
    coords: np.ndarray,
    values: Mapping[str, np.ndarray],
    state: np.ndarray,
) -> None:
    """Write cells at arbitrary coordinates (one row of *coords* each).

    Cells are grouped by the chunk of *out* they land in and each group
    goes in as one :meth:`SciArray.set_region` block over its bounding
    box, so no block is larger than a chunk."""
    if not len(coords):
        return
    keys = (coords - 1) // np.asarray(out.chunk_shape)
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    starts = np.flatnonzero((keys[1:] != keys[:-1]).any(axis=1)) + 1
    for group in np.split(order, starts):
        at = coords[group]
        lo = at.min(axis=0)
        shape = tuple(at.max(axis=0) - lo + 1)
        where = tuple((at - lo).T)
        block_state = np.zeros(shape, np.uint8)
        block_state[where] = state[group]
        planes = {}
        for a, cells in values.items():
            planes[a] = np.zeros(shape, cells.dtype)
            planes[a][where] = cells[group]
        out.set_region(tuple(lo), planes, block_state)


def sjoin(
    left: SciArray,
    right: SciArray,
    on: Sequence[tuple[str, str]],
    name: Optional[str] = None,
) -> SciArray:
    """Structured join: predicate restricted to dimension values (Fig. 1).

    *on* lists ``(left_dim, right_dim)`` equality pairs — k of them.  For an
    m-dimensional left and n-dimensional right input the result is
    (m + n - k)-dimensional: the left dimensions, then the right's
    non-joined dimensions, "with concatenated cell tuples wherever the join
    predicate is true".  Cells lacking a partner are EMPTY in the result.
    A partial-dimension join is a hash join over cells: the one cell walk
    ``core/ops`` keeps outside the adapters of opaque callables.
    """
    if not on:
        raise SchemaError("sjoin needs at least one dimension-equality pair")
    left_join = [l for l, _ in on]
    right_join = [r for _, r in on]
    for d in left_join:
        left.schema.dimension(d)
    for d in right_join:
        right.schema.dimension(d)
    if len(set(left_join)) != len(left_join) or len(set(right_join)) != len(right_join):
        raise SchemaError("a dimension may appear only once in the join predicate")

    right_keep = [d for d in right.dim_names if d not in right_join]
    out = _joined_output(left, right, right_keep, "sjoin", name)

    if len(on) == left.ndim == right.ndim:
        perm = [right.schema.dim_index(dict(on)[d]) for d in left.dim_names]
        for origin, planes, state in sjoin_blocks(left, right, perm):
            out.set_region(origin, dict(zip(out.attr_names, planes)), state)
        return out

    # Build a hash index over the right input keyed by its join coords.
    right_join_pos = [right.schema.dim_index(d) for d in right_join]
    right_keep_pos = [right.schema.dim_index(d) for d in right_keep]
    index: dict[Coords, list[tuple[Coords, Optional[Cell]]]] = {}
    for coords, cell in right.cells():
        key = tuple(coords[p] for p in right_join_pos)
        keep = tuple(coords[p] for p in right_keep_pos)
        index.setdefault(key, []).append((keep, cell))

    left_join_pos = [left.schema.dim_index(d) for d in left_join]
    for coords, cell in left.cells():
        key = tuple(coords[p] for p in left_join_pos)
        for keep, rcell in index.get(key, ()):
            if cell is None or rcell is None:
                out.set_unchecked(coords + keep, None)
            else:
                out.set_unchecked(coords + keep, cell.values + rcell.values)
    return out


def sjoin_blocks(
    left: Any, right: Any, perm: Sequence[int]
) -> Iterator[tuple[Coords, list[np.ndarray], np.ndarray]]:
    """A full-dimension equijoin: per left block that a right block reaches,
    ``(origin, its planes then the right's over its box in the left's axis
    order, paired state)``; ``perm[i]`` is the right axis left axis i meets.
    Either side is a :class:`SciArray` or reads like one (a grid partition's
    :class:`~repro.cluster.readpath.Blocks`)."""
    inverse = [perm.index(axis) for axis in range(len(perm))]
    for origin, lplanes, lstate in left.blocks():
        far = [o + n - 1 for o, n in zip(origin, lstate.shape)]
        rplanes, rstate = right.planes(*(tuple(c[i] for i in inverse) for c in (origin, far)))
        if rplanes:  # else no right cell is in the box
            rplanes = [plane.transpose(perm) for plane in rplanes.values()]
            yield origin, [*lplanes.values(), *rplanes], _paired(lstate, rstate.transpose(perm))


def _concat_attributes(
    left: ArraySchema, right: ArraySchema
) -> list[Attribute]:
    out_attrs: list[Attribute] = list(left.attributes)
    names = {a.name for a in out_attrs}
    for a in right.attributes:
        aname = a.name if a.name not in names else f"{a.name}_r"
        names.add(aname)
        out_attrs.append(Attribute(aname, a.type))
    return out_attrs


def _joined_output(
    left: SciArray,
    right: SciArray,
    right_dims: Sequence[str],
    joiner: str,
    name: Optional[str],
) -> SciArray:
    """The empty result of a join: the left dimensions then *right_dims* of
    the right's, records concatenated; a clashing name gains ``_r``."""
    out_dims = [Dimension(d.name, d.size) for d in left.schema.dimensions]
    used = {d.name for d in out_dims}
    for dname in right_dims:
        out_name = dname if dname not in used else f"{dname}_r"
        used.add(out_name)
        out_dims.append(Dimension(out_name, right.schema.dimension(dname).size))
    out_schema = ArraySchema(
        name=name or f"{left.schema.name}_{joiner}_{right.schema.name}",
        attributes=tuple(_concat_attributes(left.schema, right.schema)),
        dimensions=tuple(out_dims),
    )
    return SciArray(out_schema, name=name or f"{left.name}_{joiner}_{right.name}")


def _paired(lstate: np.ndarray, rstate: np.ndarray) -> np.ndarray:
    """The state of a pair of cells: EMPTY beside an EMPTY one, else NULL
    beside a NULL one (NULL = 2 > PRESENT = 1)."""
    empty = (lstate == CellState.EMPTY) | (rstate == CellState.EMPTY)
    return np.where(empty, CellState.EMPTY, np.maximum(lstate, rstate))


def _write_pairs(
    out: SciArray,
    left: SciArray,
    right: SciArray,
    pair_state: Callable[..., np.ndarray],
) -> SciArray:
    """Fill the (m + n)-dimensional *out* with every left cell beside
    every right cell, one left chunk against one right chunk at a time.

    The left planes and state get n trailing unit axes and the right's m
    leading ones, so they broadcast to the block of pairs;
    ``pair_state(left planes, left state, right planes, right state)``
    returns that block's state plane."""
    trail = (...,) + (None,) * right.ndim
    lead = (None,) * left.ndim
    rights = [
        (origin, {a: p[lead] for a, p in planes.items()}, state[lead])
        for origin, planes, state in right.blocks()
    ]
    for lorigin, lplanes, lstate in left.blocks():
        lplanes = {a: p[trail] for a, p in lplanes.items()}
        lstate = lstate[trail]
        for rorigin, rplanes, rstate in rights:
            state = pair_state(lplanes, lstate, rplanes, rstate)
            out.set_region(
                lorigin + rorigin,
                {
                    a: np.broadcast_to(plane, state.shape)
                    for a, plane in zip(
                        out.attr_names, (*lplanes.values(), *rplanes.values())
                    )
                },
                state,
            )
    return out


def add_dimension(
    array: SciArray, dim_name: str, name: Optional[str] = None
) -> SciArray:
    """Append a new size-1 dimension (every cell gets coordinate 1)."""
    if dim_name in array.dim_names:
        raise SchemaError(f"array already has a dimension named {dim_name!r}")
    out_schema = array.schema.with_dimensions(
        list(array.schema.dimensions) + [Dimension(dim_name, 1)]
    ).renamed(name or array.schema.name)
    out = SciArray(out_schema, name=name or f"{array.name}_plus_{dim_name}")
    for origin, planes, state in array.blocks():
        out.set_region(
            origin + (1,),
            {a: plane[..., None] for a, plane in planes.items()},
            state[..., None],
        )
    return out


def remove_dimension(
    array: SciArray, dim_name: str, name: Optional[str] = None
) -> SciArray:
    """Drop a dimension whose extent is a single value."""
    pos = array.schema.dim_index(dim_name)
    if array.high_water(pos) > 1:
        raise SchemaError(
            f"cannot remove dimension {dim_name!r} with extent "
            f"{array.high_water(pos)} > 1"
        )
    dims = [d for d in array.schema.dimensions if d.name != dim_name]
    if not dims:
        raise SchemaError("cannot remove the last dimension")
    out_schema = array.schema.with_dimensions(dims).renamed(
        name or array.schema.name
    )
    out = SciArray(out_schema, name=name or f"{array.name}_minus_{dim_name}")
    # The dimension's one value is index 1: offset 0 of every chunk.
    for origin, planes, state in array.blocks():
        out.set_region(
            origin[:pos] + origin[pos + 1:],
            {a: plane.take(0, axis=pos) for a, plane in planes.items()},
            state.take(0, axis=pos),
        )
    return out


def concatenate(
    left: SciArray,
    right: SciArray,
    dim: str,
    name: Optional[str] = None,
) -> SciArray:
    """Concatenate two arrays along *dim*; other extents must agree."""
    if left.dim_names != right.dim_names:
        raise SchemaError(
            f"concatenate inputs must share dimensions: "
            f"{left.dim_names} vs {right.dim_names}"
        )
    if left.attr_names != right.attr_names:
        raise SchemaError("concatenate inputs must share the cell record type")
    pos = left.schema.dim_index(dim)
    for d in range(left.ndim):
        if d != pos and left.high_water(d) != right.high_water(d):
            raise SchemaError(
                f"extent mismatch on dimension {left.dim_names[d]!r}: "
                f"{left.high_water(d)} vs {right.high_water(d)}"
            )
    offset = left.high_water(pos)
    dims = list(left.schema.dimensions)
    dims[pos] = Dimension(dim, offset + right.high_water(pos))
    out_schema = left.schema.with_dimensions(dims).renamed(
        name or f"{left.schema.name}_concat"
    )
    out = SciArray(out_schema, name=name or f"{left.name}_concat_{right.name}")
    for source, shift in ((left, 0), (right, offset)):
        for origin, planes, state in source.blocks():
            out.set_region(
                origin[:pos] + (origin[pos] + shift,) + origin[pos + 1:],
                planes, state,
            )
    return out


def cross_product(
    left: SciArray, right: SciArray, name: Optional[str] = None
) -> SciArray:
    """The (m + n)-dimensional cross product with concatenated records:
    a pair with a NULL member is NULL, one with an EMPTY member EMPTY."""
    return _write_pairs(
        _joined_output(left, right, right.dim_names, "x", name), left, right,
        lambda _l, lstate, _r, rstate: _paired(lstate, rstate),
    )


def transpose(
    array: SciArray, order: Sequence[str], name: Optional[str] = None
) -> SciArray:
    """Reorder dimensions (a pure coordinate transformation)."""
    if sorted(order) != sorted(array.dim_names):
        raise SchemaError(
            f"transpose order {list(order)} must be a permutation of "
            f"{list(array.dim_names)}"
        )
    perm = [array.schema.dim_index(d) for d in order]
    dims = [array.schema.dimensions[p] for p in perm]
    out_schema = array.schema.with_dimensions(dims).renamed(
        name or f"{array.schema.name}_t"
    )
    out = SciArray(out_schema, name=name or f"{array.name}_t")
    for origin, planes, state in array.blocks():
        out.set_region(
            tuple(origin[p] for p in perm),
            {a: plane.transpose(perm) for a, plane in planes.items()},
            state.transpose(perm),
        )
    return out


register_operator("subsample", subsample)
register_operator("exists", exists)
register_operator("reshape", reshape)
register_operator("sjoin", sjoin)
register_operator("add_dimension", add_dimension)
register_operator("remove_dimension", remove_dimension)
register_operator("concatenate", concatenate)
register_operator("cross_product", cross_product)
register_operator("transpose", transpose)
