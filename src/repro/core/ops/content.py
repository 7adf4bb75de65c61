"""Content-dependent operators (Section 2.2.2).

Operators "whose result depends on the data that is stored in the input
array":

* :func:`filter` — keeps cells whose record satisfies a predicate; cells
  failing it become **NULL** (not EMPTY), per the paper: "A(v) will contain
  A(v) if P(A(v)) evaluates to true, otherwise it will contain NULL".
* :func:`aggregate` — groups on a subset of *dimensions* (data attributes
  cannot be used for grouping, as the paper notes) and folds each
  (n-k)-dimensional group through an aggregate function (Fig. 2).
* :func:`cjoin` — content-based join with a predicate over data values
  only; the result is (m + n)-dimensional with NULLs where the predicate is
  false (Fig. 3).
* :func:`apply` / :func:`project` — per-cell computation and record
  narrowing.
* :func:`regrid` — the regridding the paper singles out as a key science
  operation (Section 2.3): coarsen an array by integer factors, combining
  each block with an aggregate.

Each operator has one body over blocks.  The grouped ones are one
:class:`Grouping` (the grid runs it per partition too) over one aggregate
protocol; a plain callable is adapted to the plane protocol at entry.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from typing import Any, Callable, Optional, Sequence, Union

import numpy as np

from ..array import Chunk, SciArray
from ..cells import Cell, CellState
from ..datatypes import FLOAT64, INT64, ScalarType, get_type
from ..errors import SchemaError, TypeMismatchError
from ..schema import ArraySchema, Attribute, Dimension
from ..udf import BUILTIN_AGGREGATES, UserAggregate, get_aggregate
from . import register_operator

__all__ = [
    "filter", "aggregate", "cjoin", "apply", "project", "regrid", "Grouping",
]

AggSpec = Union[str, UserAggregate]

_BUILTIN = {a.name: a for a in BUILTIN_AGGREGATES}


def _cuts(run: tuple[int, int], n: int) -> list[int]:
    """Offsets where the runs of an *n*-cell axis begin: *run* is (cells
    before the first boundary, run length)."""
    first, length = run
    return [0, *range(first or length, n, length)]


def _segmented(ufunc: np.ufunc, plane: np.ndarray, runs: Sequence) -> np.ndarray:
    """Reduce *plane* along every axis by runs (see :func:`_cuts`;
    ``None``: every index is its own run, the axis is kept as it is).  The
    result has one index per run."""
    whole = tuple(
        axis for axis, run in enumerate(runs)
        if run and run[0] == 0 and run[1] >= plane.shape[axis]
    )
    if whole:  # axes that are a single run reduce together, in one call
        plane = ufunc.reduce(plane, axis=whole, keepdims=True)
    for axis, run in enumerate(runs):
        if run is None or axis in whole:
            continue
        shape = plane.shape
        if run[0] == 0 and shape[axis] % run[1] == 0:
            # Equal runs fold as an axis of their own: what reduceat
            # computes, at a quarter of its cost on a chunk-sized plane.
            plane = ufunc.reduce(
                plane.reshape(*shape[:axis], -1, run[1], *shape[axis + 1:]),
                axis=axis + 1,
            )
        else:
            plane = ufunc.reduceat(plane, _cuts(run, shape[axis]), axis=axis)
    return plane


def _partial(name: str, data: np.ndarray, present: np.ndarray, runs) -> np.ndarray:
    """Built-in aggregate *name* of one block of cells, PRESENT ones only,
    run by run (see :func:`_segmented`), in mergeable form: rows stacked
    along a new leading axis — the count; then the value (the total, or
    the extreme for min/max); then, for stdev, the squared deviations from
    each run's own mean.  Integer planes sum and compare as int64 — exact
    within its range, where float64 would round above 2**53; avg and stdev
    compute in float64."""
    if name == "count":
        return _segmented(np.add, present.astype(np.int64), runs)[None]
    exact = data.dtype.kind != "f" and name in ("sum", "min", "max")
    rows = np.zeros((2, *data.shape), np.int64 if exact else np.float64)
    rows[0] = present
    if name in _EXTREME:
        rows[1] = _identity(name, rows.dtype)
    np.copyto(rows[1], data, where=present)
    if name in _EXTREME:
        return np.stack([_segmented(np.add, rows[0], runs),
                         _segmented(_EXTREME[name], rows[1], runs)])
    part = _segmented(np.add, rows, [None, *runs])
    if name != "stdev":
        return part
    mean = part[1] / np.maximum(part[0], 1)
    for axis, run in enumerate(runs):
        if run is not None:  # spread each run's mean back over its cells
            n = data.shape[axis]
            mean = np.repeat(mean, np.diff([*_cuts(run, n), n]), axis=axis)
    deviation = np.where(present, data - mean, 0.0)
    squares = _segmented(np.add, deviation * deviation, runs)
    return np.concatenate([part, squares[None]])


_EXTREME = {"min": np.minimum, "max": np.maximum}


def _flat(corners, shape, within) -> np.ndarray:
    """The flat (C order) offsets, ``(k, cells)``, in a plane of shape
    *within* of the boxes of *shape* at the ``(k, ndim)`` *corners*."""
    cells = np.ravel_multi_index(np.indices(shape).reshape(len(shape), -1), within)
    return np.ravel_multi_index(tuple(corners.T), within)[:, None] + cells


def _identity(name: str, dtype: np.dtype) -> Any:
    """The value row of a partial no PRESENT cell fell into."""
    if name not in _EXTREME:
        return 0
    if dtype.kind == "f":
        return np.inf if name == "min" else -np.inf
    return np.iinfo(dtype).max if name == "min" else np.iinfo(dtype).min


def _absorb(name: str, a: np.ndarray, b: np.ndarray) -> None:
    """Fold partial *b* into partial *a*, in place: *a* becomes the
    partial of the union of their (disjoint) cells."""
    if name == "stdev":
        # Chan et al.: the union's squared deviations are the parts' plus
        # the spread between the parts' means — none where a part is empty
        # (0, not inf * 0, when the other's mean squares past the range).
        both = a[0] * b[0]
        delta = b[1] / np.maximum(b[0], 1) - a[1] / np.maximum(a[0], 1)
        delta = np.where(both > 0, delta, 0.0)
        a[2] += b[2] + delta * delta * (both / np.maximum(a[0] + b[0], 1))
    if name in _EXTREME:
        _EXTREME[name](a[1], b[1], out=a[1])
        a[0] += b[0]
    else:  # counts and totals alike add
        a[:2] += b[:2]


def _final(name: str, part: np.ndarray) -> np.ndarray:
    """A partial's aggregate value (unspecified where its count is 0)."""
    if name == "avg":
        return part[1] / np.maximum(part[0], 1)
    if name == "stdev":
        return np.sqrt(part[2] / np.maximum(part[0], 1))
    return part[-1]


class _Planes:
    """An aggregate's block protocol — GLADE's Init, Accumulate, Merge and
    Terminate, chunk at a time as EXTASCID runs SS-DB: :meth:`start` an
    empty partial over a box of groups, :meth:`fold` a block into the held
    partials (``held: out chunk key -> (corner, partial)``), :meth:`merge`
    another source's, :meth:`terminate` one into value and state planes
    and the order to check values in (``None``: row-major).  Here, the
    engine's own six over native planes: a partial is :func:`_partial`'s
    rows, and *layout* the grouping's (see :class:`Grouping`)."""

    def __init__(self, fn, out, layout):
        self.fn, self.out, self.layout = fn, out, layout

    def start(self, shape, like):
        """The partial of no cells, with *like*'s rows and dtype."""
        part = np.zeros((len(like), *shape), like.dtype)
        part[1:2] = _identity(self.fn.name, like.dtype)
        return part

    def fold(self, held, origin, plane, state, boxes=None):
        """Accumulate a block into *held*, each of its *boxes* (``(m >= 1,
        2, ndim)``, inclusive; ``None``: the whole block) a segment: the
        same bits as each segment a block of its own, in order.  Segments
        alike in shape and runs share one gather and :func:`_partial`; the
        k-th partial to reach a group is absorbed in the k-th pass, where
        every other group absorbs the empty one."""
        layout, key_of, period, arrange = self.layout
        name, present = self.fn.name, state == CellState.PRESENT
        if boxes is None:
            key, runs = layout(origin, plane.shape)
            part = arrange(_partial(name, plane, present, runs)[:, None])[:, 0]
            return self._absorb_at(held, key, part)
        lo, kinds, ids, at, values = boxes[:, 0], {}, [], [], []
        sigs = np.concatenate([boxes[:, 1] - lo + 1, lo % period], 1).tolist()
        for i, sig in enumerate(sigs):
            kinds.setdefault(tuple(sig), []).append(i)
        low, high = key_of(np.stack([lo.min(0), boxes[:, 1].max(0)])).tolist()
        span = tuple(h - l + 1 for l, h in zip(low, high))
        for sig, seg in kinds.items():
            shape = sig[:plane.ndim]
            where = _flat(lo[seg] - origin, shape, plane.shape)
            cut = [p.reshape(-1)[where].reshape(-1, *shape) for p in (plane, present)]
            part = arrange(_partial(name, *cut, [None, *layout(lo[seg[0]], shape)[1]]))
            at.append(_flat(key_of(lo[seg]) - low, part.shape[2:], span).reshape(-1))
            ids.append(np.repeat(seg, part[0, 0].size))
            values.append(part.reshape(len(part), -1))
        at = np.concatenate(at)
        by = np.lexsort((np.concatenate(ids), at))  # by group, each in segment order
        at, values = at[by], np.concatenate(values, 1)[:, by]
        head = np.concatenate([[True], at[1:] != at[:-1]])
        rank = np.arange(len(at)) - np.flatnonzero(head)[np.cumsum(head) - 1]
        passes = np.empty((rank.max() + 1, len(values), *span), values.dtype)
        passes[:] = self.start(span, values)  # absorbing it changes no bit
        passes.reshape(*passes.shape[:2], -1)[rank, :, at] = values.T
        for key, chunk_sel, box_sel in self.out.chunk_overlaps(tuple(low), tuple(high)):
            into = self._held(held, key, values)[(slice(None), *chunk_sel)]
            for part in passes:  # the k-th partial to reach each group, k = 0, 1, ...
                self.absorb(into, part[(slice(None), *box_sel)])

    def merge(self, held, other):
        for corner, part in other.values():
            self._absorb_at(held, corner, part)
        return held

    def absorb(self, a, b):
        _absorb(self.fn.name, a, b)

    def terminate(self, part):
        state = np.where(part[0] > 0, CellState.PRESENT, CellState.EMPTY)
        return _final(self.fn.name, part), state, None

    def _absorb_at(self, held, origin, part):
        far = tuple(o + n - 1 for o, n in zip(origin, part.shape[1:]))
        for key, chunk_sel, block_sel in self.out.chunk_overlaps(origin, far):
            into = self._held(held, key, part)[(slice(None), *chunk_sel)]
            self.absorb(into, part[(slice(None), *block_sel)])

    def _held(self, held, key, like=None):
        if key not in held:
            corner, shape = self.out.chunk_box(key)
            held[key] = corner, self.start(shape, like)
        return held[key][1]


class _Folded(_Planes):
    """The protocol for any other aggregate (a user's, one named like a
    built-in, a built-in over an object plane), adapted once: a partial is
    three object rows — count, state, and when the group was reached,
    ``(merge, block, index of its first cell)``.  PRESENT values fold into
    their group's state in block order, the order every route reads, and
    finals are taken and checked in first-reach order, as a fold of each
    cell in turn takes them; *key_of* maps ``(n, ndim)`` cells to groups."""

    def __init__(self, fn, out, key_of, attr):
        self.fn, self.out, self.key_of, self.attr = fn, out, key_of, attr
        self.ticks = itertools.count(1)  # blocks read and partials merged

    def start(self, shape, like=None):
        return np.zeros((3, *shape), object)

    def fold(self, held, origin, plane, state, boxes=None):
        """Each segment (see :meth:`_Planes.fold`) as a block of its own."""
        whole = [(origin, np.add(origin, plane.shape) - 1)]
        for lo, hi in whole if boxes is None else boxes.tolist():
            at = tuple(slice(l - o, h - o + 1) for l, h, o in zip(lo, hi, origin))
            self.accumulate(held, tuple(lo), plane[at], state[at] == CellState.PRESENT)

    def accumulate(self, held, origin, plane, present):
        groups = self.key_of(np.argwhere(present) + np.asarray(origin)) - 1
        reached, first, ids = np.unique(
            groups, axis=0, return_index=True, return_inverse=True
        )
        keys, offsets = np.divmod(reached, self.out.chunk_shape)
        rows = [  # each group's (count, state, stamp): a view of its partial
            self._held(held, key)[(slice(None), *at)]
            for key, at in zip(map(tuple, keys.tolist()), offsets.tolist())
        ]
        states, fresh = [row[1] for row in rows], [not row[0] for row in rows]
        for g, cell in zip(ids.tolist(), _cells({self.attr: plane}, present)):
            if fresh[g]:
                states[g], fresh[g] = self.fn.initial(), False
            states[g] = self.fn.transition(states[g], cell.values[0])
        block, counts = next(self.ticks), np.bincount(ids, minlength=len(rows))
        for row, state, count, n in zip(rows, states, counts.tolist(), first.tolist()):
            if not row[0]:
                row[2] = (0, block, n)
            row[0], row[1] = row[0] + count, state

    def merge(self, held, other):
        self.merged = next(self.ticks)  # after every group held, in its order
        return super().merge(held, other)

    def absorb(self, a, b):
        for at in zip(*np.nonzero(b[0])):
            if a[(0, *at)]:  # both reached it
                a[(1, *at)] = self.fn.merge(a[(1, *at)], b[(1, *at)])
            else:
                a[(1, *at)], a[(2, *at)] = b[(1, *at)], (self.merged, *b[(2, *at)][1:])
        a[0] += b[0]

    def terminate(self, part):
        reached, order = part[0] > 0, part[2]
        values = np.empty(part.shape[1:], object)
        for at in sorted(zip(*np.nonzero(reached)), key=lambda at: order[at]):
            values[at] = self.fn.final(part[(1, *at)])
        return values, np.where(reached, CellState.PRESENT, CellState.EMPTY), order


#: What one partial state is estimated to cost on the wire.
STATE_NBYTES = 24


class Grouping:
    """Grouped aggregation, written once for every route: *op*
    ``"aggregate"`` groups on the dimensions named in *groups* (Fig. 2),
    ``"regrid"`` on blocks of the integer factors in *groups* (Section
    2.3), ``"aggregate_all"`` every cell into one group, folding component
    *attr* (default: the first) of each group's PRESENT cells through
    *agg*.  *array* is the input (its ``schema``, ``name`` and
    ``bounds``); :meth:`check` runs first.  Its three phases — :meth:`local`,
    :meth:`merge` in partition order and :meth:`write` (a group no PRESENT
    cell fell into stays EMPTY) — are one body each over the aggregate's
    block protocol, :attr:`kernel`, which knows the op only by its layout:
    a segment's group and runs at its origin (``layout``), the groups of
    ``(n, ndim)`` cells (``key_of``), the period of origins alike in runs,
    and the group axes of a partial (``arrange``).  The local operators
    are ``write(local(array))``; the grid runs :attr:`pushed` where each
    partition is and merges at the coordinator.
    """

    def __init__(self, op: str, array: Any, groups: Sequence, agg: AggSpec,
                 attr: Optional[str] = None, name: Optional[str] = None) -> None:
        schema = array.schema
        self.fn, self.attr = self.check(op, schema, groups, agg, attr)
        fn_name, period, arrange = self.fn.name, 1, (lambda part: part)
        if op == "aggregate":
            positions = [schema.dim_index(d) for d in groups]
            other = tuple(d + 2 for d in range(schema.ndim) if d not in positions)
            perm = [sorted(positions).index(p) + 2 for p in positions]

            def layout(origin, shape):
                # A segment's other axes fold into one run each; the group
                # axes come out in the order asked for.
                runs = [None if d in positions else (0, n) for d, n in enumerate(shape)]
                return tuple(origin[p] for p in positions), runs

            def arrange(part):  # rows, segments, then the group axes
                return part.squeeze(other).transpose(0, 1, *perm)

            def key_of(coords):
                return coords[:, positions]

            dims = [schema.dimensions[p] for p in positions]
            suffix = "agg"
        elif op == "regrid":
            period = np.asarray(groups)

            def layout(origin, shape):
                # One run per output index along each axis, a new run
                # beginning one past each multiple of the factor.
                key = tuple((o - 1) // f + 1 for o, f in zip(origin, groups))
                return key, [None if f == 1 else ((1 - o) % f, f)
                             for o, f in zip(origin, groups)]

            def key_of(coords):
                return (coords - 1) // period + 1

            dims = [Dimension(d.name, (h + f - 1) // f)
                    for d, h, f in zip(schema.dimensions, array.bounds, groups)]
            suffix = "regrid"
        else:  # "aggregate_all": each segment folds whole into group (1, ...)

            def layout(origin, shape):
                return (1,) * len(shape), [(0, n) for n in shape]

            key_of = np.ones_like
            dims = [Dimension(d.name, 1) for d in schema.dimensions]
            suffix = "all"
        result_type = INT64 if fn_name == "count" else FLOAT64
        self.out = _output(array, suffix, [Attribute(fn_name, result_type)], dims, name)
        if schema.attribute(self.attr).is_native and _BUILTIN.get(fn_name) is self.fn:
            self.kernel = _Planes(self.fn, self.out, (layout, key_of, period, arrange))
        else:
            self.kernel = _Folded(self.fn, self.out, key_of, self.attr)

    @property
    def pushed(self) -> Optional[Callable[[Any], dict]]:
        """The phase run where the data is: :meth:`local`, or ``None`` for
        a holistic aggregate (no ``merge``) — its state does not merge and
        an order-dependent one must see the serial order, so the blocks
        travel and :meth:`merge` folds them in partition order."""
        return None if self.fn.merge is None else self.local

    @staticmethod
    def check(
        op: str,
        schema: ArraySchema,
        groups: Sequence,
        agg: AggSpec,
        attr: Optional[str] = None,
    ) -> tuple[UserAggregate, str]:
        """Every argument check of a grouped aggregation, for the local
        operators, the grid's and the planner's route choice alike.
        Returns the resolved aggregate and the attribute's name."""
        if op == "aggregate":
            if not groups:
                raise SchemaError(
                    "aggregate needs at least one grouping dimension; "
                    "use aggregate_all for a scalar reduction"
                )
            if len(set(groups)) != len(groups):
                raise SchemaError("duplicate grouping dimensions")
            for dim in groups:
                schema.dim_index(dim)
        elif op == "regrid":
            if len(groups) != schema.ndim:
                raise SchemaError(
                    f"regrid needs {schema.ndim} factors, got {len(groups)}"
                )
            if any(f < 1 for f in groups):
                raise SchemaError("regrid factors must be >= 1")
        aggregate_fn = agg if isinstance(agg, UserAggregate) else get_aggregate(agg)
        attr_name = attr or schema.attr_names[0]
        schema.attribute(attr_name)
        return aggregate_fn, attr_name

    def local(self, source: Any, held: Optional[dict] = None) -> dict:
        """The groups of *source* (a :class:`SciArray` or a partition's
        blocks, read by ``blocks([attr])``; its ``boxes``, where it has
        them, are each block's segments), continuing *held*."""
        held = {} if held is None else held
        boxes = getattr(source, "boxes", None) or itertools.repeat(None)
        for (origin, planes, state), cut in zip(source.blocks([self.attr]), boxes):
            self.kernel.fold(held, origin, planes[self.attr], state, cut)
        return held

    def merge(self, total: dict, part: Any) -> dict:
        """Absorb one partition's :meth:`local` result (its blocks, when
        :attr:`pushed` is ``None``) into *total*."""
        if self.pushed is None:
            return self.local(part, total)
        return self.kernel.merge(total, part)

    def wire(self, part: Any, cell_nbytes: int) -> tuple[int, int]:
        """What moving *part* to the coordinator costs, as ``(records,
        bytes each)``: one partial state per group it reached, or — where
        the blocks travel — one cell per PRESENT cell."""
        if self.pushed is None:
            return part.count_present(), cell_nbytes
        groups = sum(int(np.count_nonzero(p[0])) for _, p in part.values())
        return groups, STATE_NBYTES

    def write(self, total: dict) -> SciArray:
        """The output array holding *total*'s finished groups."""
        for corner, part in total.values():
            _write(self.out, corner, *self.kernel.terminate(part))
        return self.out


def _output(array: Any, suffix: str, attrs, dims, name=None) -> SciArray:
    """An empty result of *attrs* over *dims*, named *name* or after
    *array* (its schema's name too) and *suffix*."""
    schema = ArraySchema(
        name or f"{array.schema.name}_{suffix}", tuple(attrs), tuple(dims)
    )
    return SciArray(schema, name=name or f"{array.name}_{suffix}")


def _cells(planes: dict, present: np.ndarray) -> list:
    """The :class:`Cell` of each PRESENT index of one block, row-major:
    the adapters' one cell walk, :meth:`Chunk.cells`."""
    block = Chunk((1,) * present.ndim, present.shape, present, planes)
    return [cell for _, cell in block.cells()]


def _native(predicate: Any, arrays: Sequence[SciArray], what: str) -> bool:
    """Whether *predicate* is compiled (``attrs``, a tuple per array when
    there are two, and ``on_planes``) over native components only; naming
    a component its array lacks is a :class:`SchemaError`."""
    if getattr(predicate, "on_planes", None) is None:
        return False
    named = [predicate.attrs] if len(arrays) == 1 else predicate.attrs
    native = True
    for array, attrs in zip(arrays, named):
        unknown = sorted(set(attrs) - set(array.attr_names))
        if unknown:
            raise SchemaError(
                f"{what} names unknown attributes {unknown} of array "
                f"{array.name!r} (attributes: {', '.join(array.attr_names)})"
            )
        native = native and all(array.schema.attribute(a).is_native for a in attrs)
    return native


def _write(out, origin, values, state, order=None) -> None:
    """The one typed write of an output block.  *values* is an object
    plane of records, each set at its PRESENT cell in ascending *order* as
    :meth:`SciArray.set` sets it (``None``: NULL; NULL cells stay NULL);
    or the planes of *out*'s components by name (one plane: the only
    one's), one of the wrong shape or dtype a :class:`TypeMismatchError`."""
    attrs = out.schema.attributes
    records = isinstance(values, np.ndarray) and values.dtype == object
    if records and values.shape == state.shape:
        at = np.argwhere(state != CellState.EMPTY)
        if order is not None:
            at = at[np.argsort(order[tuple(at.T)], kind="stable")]
        records = np.where(state == CellState.PRESENT, values, None)[tuple(at.T)]
        for coords, record in zip((at + origin).tolist(), records.tolist()):
            out.set(tuple(coords), record)
        return
    if not isinstance(values, Mapping):
        if len(attrs) != 1:
            raise SchemaError(
                "block_fn returned one plane for a multi-component "
                "output; return a dict of planes"
            )
        values = {attrs[0].name: values}
    missing = [a.name for a in attrs if a.name not in values]
    if missing:
        raise SchemaError(f"block_fn output missing planes {sorted(missing)}")
    for attr in attrs:
        plane = np.asarray(values[attr.name])
        dtype = getattr(attr.type, "numpy_dtype", np.dtype(object))
        cast = plane.dtype == dtype or np.can_cast(plane.dtype, dtype, "same_kind")
        if plane.shape != state.shape or not cast:
            raise TypeMismatchError(
                f"output plane {attr.name!r} is {plane.dtype} of shape "
                f"{plane.shape}; component {attr.name!r} is {attr.type} and "
                f"its block {state.shape}"
            )
    out.set_region(origin, values, state)


def filter(
    array: SciArray, predicate: Callable[[Cell], bool], name: Optional[str] = None
) -> SciArray:
    """Keep cells satisfying *predicate*; failures become NULL cells.

    The output has exactly the input's dimensions.  NULL input cells stay
    NULL (the predicate is never invoked on them); EMPTY stays EMPTY.

    A *compiled* predicate — an object that, besides being callable on a
    :class:`Cell`, names the components it reads (``attrs``) and evaluates
    itself on their planes (``on_planes(planes, present)`` returning a
    boolean plane; :class:`repro.query.ast.PredicateConjunction` is the
    engine's own) — runs as a masked numpy pass over each stored chunk
    when those components are native.  Any other is adapted at entry to
    be shown every PRESENT cell in turn.  Either way it tests each PRESENT
    cell exactly once: the ``cells_examined`` the executor counts.
    """
    out = array.empty_like(name=name or f"{array.name}_filtered")
    if _native(predicate, [array], "filter predicate"):
        on_planes = predicate.on_planes
    else:
        def on_planes(planes, present):
            keep = np.zeros(present.shape, bool)
            keep[present] = [bool(predicate(c)) for c in _cells(planes, present)]
            return keep

    for origin, planes, state in array.blocks():
        present = state == CellState.PRESENT
        failed = present & ~on_planes(planes, present)
        out.set_region(origin, planes, np.where(failed, CellState.NULL, state))
    return out


def aggregate(
    array: SciArray,
    group_dims: Sequence[str],
    agg: AggSpec,
    attr: Optional[str] = None,
    name: Optional[str] = None,
) -> SciArray:
    """Group-by-dimensions aggregation — ``Aggregate(H, {Y}, Sum(*))``.

    *group_dims* lists the k dimensions retained in the output; the
    aggregate folds, for each combination of their values, all PRESENT
    cells of the complementary (n-k)-dimensional slice.  *attr* selects the
    record component to aggregate (default: the first — the paper's ``*``
    for single-value arrays).  Groups whose slice holds no PRESENT cell are
    EMPTY in the output.
    """
    grouping = Grouping("aggregate", array, group_dims, agg, attr, name)
    return grouping.write(grouping.local(array))


def aggregate_all(array: SciArray, agg: AggSpec, attr: Optional[str] = None) -> Any:
    """Scalar reduction over every PRESENT cell (no grouping dimensions):
    the value of :class:`Grouping`'s one group."""
    grouping = Grouping("aggregate_all", array, (), agg, attr)
    for _, part in grouping.local(array).values():
        value, state, _ = grouping.kernel.terminate(part)
        if state.any():
            return value.item()
    return grouping.fn.final(grouping.fn.initial())


def cjoin(
    left: SciArray,
    right: SciArray,
    predicate: Callable[[Cell, Cell], bool],
    name: Optional[str] = None,
) -> SciArray:
    """Content-based join (Fig. 3): predicate over data values only.

    The result is (m + n)-dimensional — the left dimensions followed by the
    right's.  Where both input cells are PRESENT and the predicate holds,
    the result holds the concatenated record; where both are PRESENT but the
    predicate fails, the result holds NULL (matching Fig. 3); combinations
    involving an EMPTY or NULL input cell are EMPTY.

    A *compiled* pair predicate — :func:`filter`'s protocol for two cells:
    ``attrs`` is the pair ``(left components read, right components
    read)`` and ``on_planes(left planes, right planes)`` the boolean plane
    over a block of pairs, the left planes carrying n trailing unit axes
    and the right's m leading ones so that they broadcast against each
    other — runs one left chunk against one right chunk when those
    components are native (:class:`repro.query.ast.AttrPairsEqual`).  Any
    other is adapted at entry to be shown every PRESENT pair in turn.
    """
    from .structural import _joined_output, _write_pairs

    if _native(predicate, [left, right], "cjoin predicate"):
        def holds(lplanes, lp, rplanes, rp):
            return predicate.on_planes(lplanes, rplanes)
    else:
        def holds(lplanes, lp, rplanes, rp):
            # Row-major over the pairs is each left cell beside every right.
            both = lp & rp
            keep = np.zeros(both.shape, bool)
            lcells, rcells = _cells(lplanes, lp), _cells(rplanes, rp)
            keep[both] = [bool(predicate(l, r)) for l in lcells for r in rcells]
            return keep

    def pair_state(lplanes, lstate, rplanes, rstate):
        lp, rp = lstate == CellState.PRESENT, rstate == CellState.PRESENT
        both = lp & rp
        return np.where(
            both & holds(lplanes, lp, rplanes, rp),
            CellState.PRESENT, both * CellState.NULL,
        )

    out = _joined_output(left, right, right.dim_names, "cjoin", name)
    return _write_pairs(out, left, right, pair_state)


def apply(
    array: SciArray,
    fn: Optional[Callable[[Cell], Any]] = None,
    output: Sequence[tuple[str, "str | ScalarType"]] = (),
    name: Optional[str] = None,
    block_fn: Optional[Callable[[dict], "np.ndarray | dict"]] = None,
) -> SciArray:
    """Per-cell computation producing a new record type.

    *fn* maps each PRESENT input record to the new record (tuple in
    *output* order, or bare value for a single output).  NULL cells map to
    NULL, EMPTY to EMPTY.

    *block_fn* is the UDF's vectorised form, the user's to write: an
    elementwise function from the dict of input attribute planes to the
    output plane (single output) or a dict of output planes.  It is called
    once per stored chunk whenever every input component is native — its
    results at NULL/EMPTY cells are discarded, and it must not write into
    the planes it is handed; otherwise *fn*, adapted at entry, is shown
    every PRESENT cell in turn.  Either way the output takes one typed write.
    """
    if not output:
        raise SchemaError("apply needs at least one output component")
    if fn is None and block_fn is None:
        raise SchemaError("apply needs fn or block_fn")
    out_attrs = [Attribute(n, get_type(t)) for n, t in output]
    out = _output(array, "applied", out_attrs, array.schema.dimensions, name)
    if block_fn is not None and all(a.is_native for a in array.schema.attributes):
        def compute(planes, state):
            return block_fn(planes)
    elif fn is None:
        raise SchemaError("array has object-dtype components; supply a per-cell fn")
    else:
        single = len(out_attrs) == 1

        def compute(planes, state):
            present = state == CellState.PRESENT
            results = [fn(cell) for cell in _cells(planes, present)]
            records = np.empty(state.shape, object)
            records[present] = np.fromiter((
                (r,) if single and not isinstance(r, tuple) else r for r in results
            ), object, len(results))
            return records

    for origin, planes, state in array.blocks():
        _write(out, origin, compute(planes, state), state)
    return out


def project(
    array: SciArray, attrs: Sequence[str], name: Optional[str] = None
) -> SciArray:
    """Narrow each record to the named components (a plane copy)."""
    if not attrs:
        raise SchemaError("project needs at least one component")
    out_attrs = [array.schema.attribute(a) for a in attrs]
    out = _output(array, "proj", out_attrs, array.schema.dimensions, name)
    for origin, planes, state in array.blocks(attrs):
        out.set_region(origin, planes, state)
    return out


def regrid(
    array: SciArray,
    factors: Sequence[int],
    agg: AggSpec = "avg",
    attr: Optional[str] = None,
    name: Optional[str] = None,
) -> SciArray:
    """Coarsen by integer *factors*: output cell (i, j, …) aggregates the
    input block ``[(i-1)*f+1 .. i*f]`` per dimension.

    This is the canonical "regrid" the paper names as the operation science
    users actually want (Section 2.3).  Extents the factors do not divide
    end in partial blocks, which aggregate the cells they do hold.
    """
    grouping = Grouping("regrid", array, factors, agg, attr, name)
    return grouping.write(grouping.local(array))


register_operator("filter", filter)
register_operator("aggregate", aggregate)
register_operator("aggregate_all", aggregate_all)
register_operator("cjoin", cjoin)
register_operator("apply", apply)
register_operator("project", project)
register_operator("regrid", regrid)
