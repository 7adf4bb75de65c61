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

Both grouped operators are one :class:`Grouping`, which the grid's
operators run per partition too.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Sequence, Union

import numpy as np

from ..array import SciArray
from ..cells import Cell, CellState
from ..datatypes import FLOAT64, INT64, ScalarType, get_type
from ..errors import SchemaError
from ..schema import ArraySchema, Attribute, Dimension
from ..udf import BUILTIN_AGGREGATES, UserAggregate, get_aggregate
from . import register_operator

__all__ = [
    "filter", "aggregate", "cjoin", "apply", "project", "regrid", "fold_cells",
    "Grouping",
]

Coords = tuple[int, ...]
Predicate = Callable[[Cell], bool]
AggSpec = Union[str, UserAggregate]

_BUILTIN = {a.name: a for a in BUILTIN_AGGREGATES}


def _resolve_aggregate(agg: AggSpec) -> UserAggregate:
    if isinstance(agg, UserAggregate):
        return agg
    return get_aggregate(agg)


def _has_kernel(array: SciArray, aggregate_fn: UserAggregate, attr: str) -> bool:
    """The one precondition of the aggregate kernels: the engine's own
    aggregate (not a user's, even under the same name) over a component
    held in a native numpy dtype.  Density is not a condition — the state
    mask handles NULL and EMPTY."""
    return (
        array.schema.attribute(attr).is_native
        and _BUILTIN.get(aggregate_fn.name) is aggregate_fn
    )


def _cuts(run: tuple[int, int], n: int) -> list[int]:
    """Offsets where the runs of an *n*-cell axis begin: *run* is (cells
    before the first boundary, run length)."""
    first, length = run
    return [0, *range(first or length, n, length)]


def _segmented(
    ufunc: np.ufunc, plane: np.ndarray, runs: Sequence[Optional[tuple[int, int]]]
) -> np.ndarray:
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


def _partial(
    name: str,
    data: np.ndarray,
    present: np.ndarray,
    runs: Sequence[Optional[tuple[int, int]]],
) -> np.ndarray:
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
        return np.stack([
            _segmented(np.add, rows[0], runs),
            _segmented(_EXTREME[name], rows[1], runs),
        ])
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
        # the spread between the parts' means.
        delta = b[1] / np.maximum(b[0], 1) - a[1] / np.maximum(a[0], 1)
        a[2] += b[2] + delta * delta * (a[0] * b[0] / np.maximum(a[0] + b[0], 1))
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


def _merge_partials(
    out: SciArray,
    name: str,
    partials: Iterable[tuple[Coords, np.ndarray]],
    held: Optional[dict[Coords, tuple[Coords, np.ndarray]]] = None,
) -> dict[Coords, tuple[Coords, np.ndarray]]:
    """Absorb partials — each a block of groups at a 1-based origin in
    *out*'s space — into *held*, one partial per chunk position of *out*
    (``key: (corner, partial)``), so memory follows the groups some input
    chunk reached, not the declared extents.  *out* is only consulted for
    its chunk geometry."""
    held = {} if held is None else held
    rows = (slice(None),)
    for origin, part in partials:
        far = tuple(o + n - 1 for o, n in zip(origin, part.shape[1:]))
        for key, chunk_sel, block_sel in out.chunk_overlaps(origin, far):
            if key not in held:
                corner, shape = out.chunk_box(key)
                block = np.zeros((len(part), *shape), part.dtype)
                block[1:2] = _identity(name, part.dtype)
                held[key] = corner, block
            _absorb(name, held[key][1][rows + chunk_sel], part[rows + block_sel])
    return held


def fold_cells(
    cells: Iterable[tuple[Coords, Optional[Cell]]],
    key_of: Callable[[Coords], Coords],
    aggregate_fn: UserAggregate,
    attr: str,
    states: Optional[dict[Coords, Any]] = None,
) -> dict[Coords, Any]:
    """The engine's one cell-at-a-time grouped fold.

    Folds component *attr* of every PRESENT cell into the aggregate state
    of group ``key_of(coords)``, in iteration order (so float accumulation
    is reproducible), continuing *states* when given.  It serves what the
    plane kernels cannot: user aggregates and object-dtype components.
    """
    states = {} if states is None else states
    for coords, cell in cells:
        if cell is None:
            continue
        key = key_of(coords)
        state = states[key] if key in states else aggregate_fn.initial()
        states[key] = aggregate_fn.transition(state, getattr(cell, attr))
    return states


#: What one partial state is estimated to cost on the wire.
STATE_NBYTES = 24


class Grouping:
    """Grouped aggregation, written once for every route: *op*
    ``"aggregate"`` groups on the dimensions named in *groups* (Fig. 2),
    ``"regrid"`` on blocks of the integer factors in *groups* (Section
    2.3), folding component *attr* (default: the first) of each group's
    PRESENT cells through *agg*.  *array* is the input (its ``schema``,
    ``name`` and ``bounds``); :meth:`check` runs first.  Three phases:

    * :meth:`local` — one source's groups in mergeable form: the plane
      kernels' partials for the engine's own aggregates over native
      components, :func:`fold_cells` states otherwise;
    * :meth:`merge` — absorbs one partition's result, in partition order;
    * :meth:`write` — the output, one component named after the
      aggregate; a group no PRESENT cell fell into stays EMPTY.

    The local operators are ``write(local(array))``; the grid runs
    :attr:`pushed` where each partition is and merges at the coordinator.
    """

    def __init__(
        self,
        op: str,
        array: Any,
        groups: Sequence,
        agg: AggSpec,
        attr: Optional[str] = None,
        name: Optional[str] = None,
    ) -> None:
        schema = array.schema
        self.fn, self.attr = self.check(op, schema, groups, agg, attr)
        fn_name = self.fn.name
        if op == "aggregate":
            positions = [schema.dim_index(d) for d in groups]
            perm = [sorted(positions).index(p) + 1 for p in positions]
            key_of = lambda coords: tuple(coords[p] for p in positions)  # noqa: E731

            def partial(origin, plane, present):
                # The block's other axes fold into one run each; the group
                # axes come out in the order asked for.
                runs = [
                    None if d in positions else (0, n)
                    for d, n in enumerate(plane.shape)
                ]
                part = _partial(fn_name, plane, present, runs).squeeze(
                    tuple(d + 1 for d, run in enumerate(runs) if run is not None)
                )
                return key_of(origin), part.transpose(0, *perm)

            dims = [schema.dimensions[p] for p in positions]
            suffix = "agg"
        else:
            factors = tuple(groups)
            key_of = lambda coords: tuple(  # noqa: E731
                (c - 1) // f + 1 for c, f in zip(coords, factors)
            )

            def partial(origin, plane, present):
                # One run per output index along each axis, a new run
                # beginning one past each multiple of the factor.
                runs = [
                    None if f == 1 else ((1 - o) % f, f)
                    for o, f in zip(origin, factors)
                ]
                return key_of(origin), _partial(fn_name, plane, present, runs)

            dims = [
                Dimension(d.name, (h + f - 1) // f)
                for d, h, f in zip(schema.dimensions, array.bounds, factors)
            ]
            suffix = "regrid"
        self.key_of, self._partial = key_of, partial
        self._kernel = _has_kernel(array, self.fn, self.attr)
        self.out = SciArray(
            ArraySchema(
                name=name or f"{schema.name}_{suffix}",
                attributes=(Attribute(self.fn.name, _result_type(self.fn)),),
                dimensions=tuple(dims),
            ),
            name=name or f"{array.name}_{suffix}",
        )

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
        else:
            if len(groups) != schema.ndim:
                raise SchemaError(
                    f"regrid needs {schema.ndim} factors, got {len(groups)}"
                )
            if any(f < 1 for f in groups):
                raise SchemaError("regrid factors must be >= 1")
        aggregate_fn = _resolve_aggregate(agg)
        attr_name = attr or schema.attr_names[0]
        schema.attribute(attr_name)
        return aggregate_fn, attr_name

    def local(self, source: Any) -> dict:
        """The groups of *source* — read by ``blocks([attr])`` and
        ``cells()``: a :class:`SciArray`, or a grid partition's blocks."""
        if not self._kernel:
            return fold_cells(source.cells(), self.key_of, self.fn, self.attr)
        return _merge_partials(self.out, self.fn.name, (
            self._partial(origin, planes[self.attr], state == CellState.PRESENT)
            for origin, planes, state in source.blocks([self.attr])
        ))

    def merge(self, total: dict, part: Any) -> dict:
        """Absorb one partition's :meth:`local` result — its blocks, when
        :attr:`pushed` is ``None`` — into *total*."""
        if self.pushed is None:
            return fold_cells(part.cells(), self.key_of, self.fn, self.attr, total)
        if self._kernel:
            return _merge_partials(self.out, self.fn.name, part.values(), total)
        for key, state in part.items():
            total[key] = self.fn.merge(total[key], state) if key in total else state
        return total

    def wire(self, part: Any, cell_nbytes: int) -> tuple[int, int]:
        """What moving *part* to the coordinator costs, as ``(records,
        bytes each)``: one partial state per group it reached, or — where
        the blocks travel — one cell per PRESENT cell."""
        if self.pushed is None:
            return part.count_present(), cell_nbytes
        if self._kernel:
            groups = sum(int(np.count_nonzero(p[0])) for _, p in part.values())
            return groups, STATE_NBYTES
        return len(part), STATE_NBYTES

    def write(self, total: dict) -> SciArray:
        """The output array holding *total*'s finished groups."""
        if not self._kernel:
            for key, state in total.items():
                self.out.set(key, self.fn.final(state))
            return self.out
        name = self.fn.name
        for corner, part in total.values():
            self.out.set_region(
                corner,
                {name: _final(name, part)},
                np.where(part[0] > 0, CellState.PRESENT, CellState.EMPTY),
            )
        return self.out


def filter(
    array: SciArray, predicate: Predicate, name: Optional[str] = None
) -> SciArray:
    """Keep cells satisfying *predicate*; failures become NULL cells.

    The output has exactly the input's dimensions.  NULL input cells stay
    NULL (the predicate is never invoked on them); EMPTY stays EMPTY.

    A *compiled* predicate — an object that, besides being callable on a
    :class:`Cell`, names the components it reads (``attrs``) and evaluates
    itself on their planes (``on_planes(planes, present)`` returning a
    boolean plane; :class:`repro.query.ast.PredicateConjunction` is the
    engine's own) — runs as a masked numpy pass over each stored chunk
    when those components are native; one that names a component the
    array lacks is a :class:`SchemaError` before any chunk is read.  A
    plain callable is opaque Python and is shown every PRESENT cell in
    turn.  Either way the predicate tests each PRESENT cell exactly once:
    that is the ``cells_examined`` a statement reports, and the query
    executor counts it — ``array.count_present()`` — not this kernel.
    """
    out = array.empty_like(name=name or f"{array.name}_filtered")
    on_planes = getattr(predicate, "on_planes", None)
    if on_planes is not None:
        _check_attrs(array, predicate.attrs, "filter predicate")
        if all(array.schema.attribute(a).is_native for a in predicate.attrs):
            for origin, planes, state in array.blocks():
                present = state == CellState.PRESENT
                failed = present & ~on_planes(planes, present)
                out.set_region(
                    origin, planes, np.where(failed, CellState.NULL, state)
                )
            return out
    for coords, cell in array.cells():
        if cell is not None and predicate(cell):
            out.set_unchecked(coords, cell.values)
        else:
            out.set_unchecked(coords, None)
    return out


def _check_attrs(array: SciArray, attrs: Iterable[str], what: str) -> None:
    """One error for a compiled predicate naming a missing component."""
    unknown = sorted(set(attrs) - set(array.attr_names))
    if unknown:
        raise SchemaError(
            f"{what} names unknown attributes {unknown} of array "
            f"{array.name!r} (attributes: {', '.join(array.attr_names)})"
        )


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
    """Scalar reduction over every PRESENT cell (no grouping dimensions)."""
    aggregate_fn = _resolve_aggregate(agg)
    attr_name = attr or array.attr_names[0]
    if not _has_kernel(array, aggregate_fn, attr_name):
        return aggregate_fn.compute(
            getattr(cell, attr_name)
            for _, cell in array.cells(include_null=False)
        )
    whole, total = [(0, side) for side in array.chunk_shape], None
    for _, planes, state in array.blocks([attr_name]):
        part = _partial(
            aggregate_fn.name, planes[attr_name], state == CellState.PRESENT, whole
        )
        if total is None:
            total = part
        else:
            _absorb(aggregate_fn.name, total, part)
    if total is None or not total[0].item():
        return aggregate_fn.final(aggregate_fn.initial())
    return _final(aggregate_fn.name, total).item()


def _result_type(agg: UserAggregate) -> ScalarType:
    if agg.name == "count":
        return INT64
    return FLOAT64


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
    components are native (:class:`repro.query.ast.AttrPairsEqual` is the
    textual binding's).  A plain callable is shown every PRESENT pair in
    turn.
    """
    from .structural import _joined_output, _write_pairs

    out = _joined_output(left, right, right.dim_names, "cjoin", name)
    on_planes = getattr(predicate, "on_planes", None)
    if on_planes is not None:
        sides = list(zip((left, right), predicate.attrs))
        for side, attrs in sides:
            _check_attrs(side, attrs, "cjoin predicate")
        if all(
            side.schema.attribute(a).is_native
            for side, attrs in sides for a in attrs
        ):
            def pair_state(lplanes, lstate, rplanes, rstate):
                both = (lstate == CellState.PRESENT) & (rstate == CellState.PRESENT)
                return np.where(
                    both & on_planes(lplanes, rplanes),
                    CellState.PRESENT, both * CellState.NULL,
                )

            return _write_pairs(out, left, right, pair_state)
    right_cells = list(right.cells(include_null=False))
    for lcoords, lcell in left.cells(include_null=False):
        for rcoords, rcell in right_cells:
            if predicate(lcell, rcell):
                out.set_unchecked(lcoords + rcoords,
                                  lcell.values + rcell.values)
            else:
                out.set_unchecked(lcoords + rcoords, None)
    return out


def apply(
    array: SciArray,
    fn: Optional[Callable[[Cell], Any]] = None,
    output: Sequence[tuple[str, "str | ScalarType"]] = (),
    name: Optional[str] = None,
    block_fn: Optional[
        Callable[[dict[str, np.ndarray]], "np.ndarray | dict[str, np.ndarray]"]
    ] = None,
) -> SciArray:
    """Per-cell computation producing a new record type.

    *fn* maps each PRESENT input record to the new record (tuple in
    *output* order, or bare value for a single output).  NULL cells map to
    NULL, EMPTY to EMPTY.

    *block_fn* is the UDF's vectorised form, the user's to write: an
    elementwise function from the dict of input attribute planes to the
    output plane (single output) or a dict of output planes.  It is called
    once per stored chunk, under the state mask, whenever every input
    component is native — its results at NULL/EMPTY cells are discarded,
    and it must not write into the planes it is handed — and alone
    suffices there; object-dtype inputs are shown to *fn* cell by cell.
    """
    if not output:
        raise SchemaError("apply needs at least one output component")
    if fn is None and block_fn is None:
        raise SchemaError("apply needs fn or block_fn")
    out_attrs = tuple(Attribute(n, get_type(t)) for n, t in output)
    out_schema = ArraySchema(
        name=name or f"{array.schema.name}_applied",
        attributes=out_attrs,
        dimensions=array.schema.dimensions,
    )
    out = SciArray(out_schema, name=name or f"{array.name}_applied")
    if block_fn is not None and all(a.is_native for a in array.schema.attributes):
        for origin, planes, state in array.blocks():
            result = block_fn(planes)
            if isinstance(result, np.ndarray):
                if len(out_attrs) != 1:
                    raise SchemaError(
                        "block_fn returned one plane for a multi-component "
                        "output; return a dict of planes"
                    )
                result = {out_attrs[0].name: result}
            missing = {a.name for a in out_attrs} - set(result)
            if missing:
                raise SchemaError(
                    f"block_fn output missing planes {sorted(missing)}"
                )
            out.set_region(origin, result, state)
        return out
    if fn is None:
        raise SchemaError(
            "array has object-dtype components; supply a per-cell fn"
        )
    for coords, cell in array.cells():
        if cell is None:
            out.set(coords, None)
            continue
        result = fn(cell)
        if len(out_attrs) == 1 and not isinstance(result, tuple):
            result = (result,)
        out.set(coords, result)
    return out


def project(
    array: SciArray, attrs: Sequence[str], name: Optional[str] = None
) -> SciArray:
    """Narrow each record to the named components (a plane copy)."""
    if not attrs:
        raise SchemaError("project needs at least one component")
    out_attrs = tuple(array.schema.attribute(a) for a in attrs)
    out_schema = ArraySchema(
        name=name or f"{array.schema.name}_proj",
        attributes=out_attrs,
        dimensions=array.schema.dimensions,
    )
    out = SciArray(out_schema, name=name or f"{array.name}_proj")
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
