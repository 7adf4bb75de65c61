"""Backward and forward lineage tracing by log replay (Section 2.12).

The paper's preferred minimal-space design:

* **backward** — "look at the time of the update that produced the item
  ... one can then rerun the update in a special executor mode that will
  record all items that contributed to the incorrect item.  Repeating this
  process will trace backwards."  Here, each built-in operator has a
  *lineage rule* — the special executor mode — that, given an output cell,
  re-derives the contributing input cells from the logged command and the
  catalog arrays.
* **forward** — "run subsequent commands in the provenance log in a
  modified form", qualified to the changed cells; each step's directly
  affected outputs seed the next, "iterated forward until there is no
  further activity".  This stores nothing but costs re-execution time.
* **caching** — :class:`TraceCache` memoises forward traces ("one can
  cache these named versions in case the derivation is run again"),
  the middle point between log replay and the Trio item store.

Operators without a rule fall back to conservative lineage (every input
cell may contribute, every output cell may be affected) — sound, never
minimal.
"""

from __future__ import annotations

from typing import Optional

from ..core.array import SciArray
from ..core.errors import ProvenanceError
from ..core.ops import get_operator
from ..core.ops.structural import _selected_indexes
from .log import LoggedCommand, ProvenanceEngine
from .repository import ExternalDerivation

__all__ = [
    "Item",
    "BackwardStep",
    "trace_backward",
    "trace_forward",
    "TraceCache",
]

Coords = tuple[int, ...]

#: A data element: (array name, cell coordinates).
Item = tuple[str, Coords]

# -- lineage rules -------------------------------------------------------------
# backward(cmd, inputs, out_coords) -> [(input_name, in_coords)]
# forward(cmd, inputs, input_name, in_coords) -> [out_coords]
# A rule maps coordinates using the command and its inputs; none reads the
# command's output, so a trace never has to produce one for a rule.


def _identity_backward(cmd, inputs, out_coords):
    return [(cmd.inputs[0], out_coords)]


def _identity_forward(cmd, inputs, input_name, in_coords):
    return [in_coords]


def _subsample_selections(cmd, source: SciArray) -> list[list[int]]:
    predicate = cmd.params["predicate"]
    selections = []
    for d in range(source.ndim):
        hw = source.high_water(d)
        cond = predicate.get(source.dim_names[d])
        selections.append(
            list(range(1, hw + 1)) if cond is None else _selected_indexes(cond, hw)
        )
    return selections


def _subsample_backward(cmd, inputs, out_coords):
    selections = _subsample_selections(cmd, inputs[0])
    try:
        source = tuple(sel[c - 1] for sel, c in zip(selections, out_coords))
    except IndexError:
        raise ProvenanceError(
            f"output cell {out_coords} outside the subsample's extent"
        ) from None
    return [(cmd.inputs[0], source)]


def _subsample_forward(cmd, inputs, input_name, in_coords):
    selections = _subsample_selections(cmd, inputs[0])
    out = []
    for sel, c in zip(selections, in_coords):
        try:
            out.append(sel.index(c) + 1)
        except ValueError:
            return []
    return [tuple(out)]


def _grouping(key_of):
    """Both rules of an operator whose output cell is the present input
    cells sharing a key; ``key_of(cmd, source)`` is coords → key."""

    def backward(cmd, inputs, out_coords):
        key = key_of(cmd, inputs[0])
        return [
            (cmd.inputs[0], coords)
            for coords, _cell in inputs[0].cells(include_null=False)
            if key(coords) == tuple(out_coords)
        ]

    def forward(cmd, inputs, input_name, in_coords):
        return [key_of(cmd, inputs[0])(in_coords)]

    return backward, forward


def _aggregate_key(cmd, source: SciArray):
    positions = [source.schema.dim_index(d) for d in cmd.params["group_dims"]]
    return lambda coords: tuple(coords[p] for p in positions)


def _regrid_key(cmd, source: SciArray):
    factors = cmd.params["factors"]
    return lambda coords: tuple((c - 1) // f + 1 for c, f in zip(coords, factors))


def _sjoin_geometry(cmd, right: SciArray):
    on = cmd.params["on"]
    right_join = [r for _, r in on]
    return on, [d for d in right.dim_names if d not in right_join]


def _sjoin_backward(cmd, inputs, out_coords):
    left, right = inputs
    on, right_keep = _sjoin_geometry(cmd, right)
    m = left.ndim
    left_coords = tuple(out_coords[:m])
    # Reconstruct the right coords: join dims take the matched left values,
    # keep dims come from the output's trailing coordinates.
    values: dict[str, int] = {}
    for (ldim, rdim) in on:
        values[rdim] = left_coords[left.schema.dim_index(ldim)]
    for dname, v in zip(right_keep, out_coords[m:]):
        values[dname] = v
    right_coords = tuple(values[d] for d in right.dim_names)
    return [(cmd.inputs[0], left_coords), (cmd.inputs[1], right_coords)]


def _sjoin_forward(cmd, inputs, input_name, in_coords):
    left, right = inputs
    on, right_keep = _sjoin_geometry(cmd, right)
    right_keep_pos = [right.schema.dim_index(d) for d in right_keep]
    if input_name == cmd.inputs[0]:
        key = tuple(
            in_coords[left.schema.dim_index(l)] for l, _ in on
        )
        out = []
        for coords, _cell in right.cells():
            if tuple(coords[right.schema.dim_index(r)] for _, r in on) == key:
                out.append(tuple(in_coords) + tuple(coords[p] for p in right_keep_pos))
        return out
    # input is the right array: find matching left cells.
    key = tuple(in_coords[right.schema.dim_index(r)] for _, r in on)
    keep = tuple(in_coords[p] for p in right_keep_pos)
    out = []
    for coords, _cell in left.cells():
        if tuple(coords[left.schema.dim_index(l)] for l, _ in on) == key:
            out.append(tuple(coords) + keep)
    return out


def _cjoin_backward(cmd, inputs, out_coords):
    left, right = inputs
    m = left.ndim
    return [
        (cmd.inputs[0], tuple(out_coords[:m])),
        (cmd.inputs[1], tuple(out_coords[m:])),
    ]


def _cjoin_forward(cmd, inputs, input_name, in_coords):
    left, right = inputs
    if input_name == cmd.inputs[0]:
        return [
            tuple(in_coords) + coords for coords, _ in right.cells()
        ]
    return [tuple(coords) + tuple(in_coords) for coords, _ in left.cells()]


def _conservative_backward(cmd, inputs, out_coords):
    items = []
    for name, arr in zip(cmd.inputs, inputs):
        items.extend((name, coords) for coords, _ in arr.cells())
    return items


_IDENTITY = _identity_backward, _identity_forward

#: op -> (backward, forward); any other operator gets conservative lineage
_RULES = {
    "filter": _IDENTITY, "apply": _IDENTITY, "project": _IDENTITY,
    "subsample": (_subsample_backward, _subsample_forward),
    "aggregate": _grouping(_aggregate_key),
    "regrid": _grouping(_regrid_key),
    "sjoin": (_sjoin_backward, _sjoin_forward),
    "cjoin": (_cjoin_backward, _cjoin_forward),
}


def backward_rule(op: str):
    return _RULES[op][0] if op in _RULES else _conservative_backward


# -- tracing -----------------------------------------------------------------------


class _Replay:
    """Name → array for one trace: the catalog's, or — an anonymous
    statement result, which only its caller kept — re-derived once from
    its logged command, the paper's "rerun the update".  A name rebound
    after a command ran no longer holds what that command read or wrote:
    asking for it raises, naming the rebind."""

    def __init__(self, engine: ProvenanceEngine) -> None:
        self.engine = engine
        self._rerun: dict[str, SciArray] = {}

    def rebound(self, name: str, seq: int) -> Optional[ExternalDerivation]:
        """The repository record that rebound *name* after command #*seq*."""
        repo = self.engine.repository
        latest = repo.latest(name) if repo.is_external(name) else None
        return latest if latest is not None and latest.seq > seq else None

    def check(self, name: str, cmd: LoggedCommand) -> None:
        rebind = self.rebound(name, cmd.seq)
        if rebind is not None:
            raise ProvenanceError(
                f"array {name!r} was rebound at #{rebind.seq} "
                f"({rebind.describe()}) after command #{cmd.seq} ran; "
                "the trace stops at the rebind"
            )

    def array(self, name: str, cmd: LoggedCommand) -> SciArray:
        """What *cmd* read or wrote as *name*."""
        self.check(name, cmd)
        array = self.engine.catalog.get(name, self._rerun.get(name))
        if array is None:
            producer = self.engine.log.command_producing(name)
            if producer is None:
                raise ProvenanceError(f"no array named {name!r} in the catalog")
            array = self._rerun[name] = get_operator(producer.op)(
                *self.inputs(producer), **producer.params
            )
        return array

    def inputs(self, cmd: LoggedCommand) -> list[SciArray]:
        return [self.array(name, cmd) for name in cmd.inputs]


class BackwardStep:
    """One step of a backward trace: the command plus contributing items."""

    def __init__(self, command: LoggedCommand, contributors: list[Item]) -> None:
        self.command = command
        self.contributors = contributors

    def __repr__(self) -> str:
        return f"<BackwardStep {self.command.describe()} <- {self.contributors}>"


def trace_backward(
    engine: ProvenanceEngine, item: Item, max_depth: int = 100
) -> list[BackwardStep]:
    """Requirement 1: the processing steps that created *item*.

    Walks from the item's producing command back through contributing
    items until every path reaches an externally-registered array (whose
    derivation lives in the metadata repository) or an array with no
    producing command.  Returns the steps in discovery (reverse
    chronological) order.
    """
    replay = _Replay(engine)
    steps: list[BackwardStep] = []
    frontier = [item]
    seen: set[Item] = set()
    depth = 0
    while frontier:
        depth += 1
        if depth > max_depth:
            raise ProvenanceError("backward trace exceeded max_depth")
        next_frontier: list[Item] = []
        for name, coords in frontier:
            if (name, coords) in seen:
                continue
            seen.add((name, coords))
            cmd = engine.log.command_producing(name)
            if cmd is None or replay.rebound(name, cmd.seq) is not None:
                continue  # terminates at the metadata repository
            contributors = backward_rule(cmd.op)(
                cmd, replay.inputs(cmd), tuple(coords)
            )
            steps.append(BackwardStep(cmd, contributors))
            next_frontier.extend(contributors)
        frontier = next_frontier
    return steps


def trace_forward(
    engine: ProvenanceEngine, item: Item, max_depth: int = 100
) -> set[Item]:
    """Requirement 2: all downstream items impacted by *item*.

    Replays the log forward: every command reading an affected array is
    re-derived in qualified form (the lineage rule restricted to the
    affected cells), its affected outputs join the frontier, and the
    process iterates "until there is no further activity".  Commands that
    read the item's name before it was bound to this array do not count.
    """
    replay = _Replay(engine)
    affected: set[Item] = set()
    frontier: dict[str, set[Coords]] = {item[0]: {tuple(item[1])}}
    cmd0 = engine.log.command_producing(item[0])
    start_seq = cmd0.seq if cmd0 else -1
    rebind = replay.rebound(item[0], start_seq)
    if rebind is not None:  # registered since: earlier readers read another
        start_seq = rebind.seq - 1
    depth = 0
    while frontier:
        depth += 1
        if depth > max_depth:
            raise ProvenanceError("forward trace exceeded max_depth")
        next_frontier: dict[str, set[Coords]] = {}
        for name, cells in frontier.items():
            after_seq = start_seq if name == item[0] else -1
            for cmd in engine.log.commands_reading(name, after_seq):
                replay.check(cmd.output, cmd)
                inputs = replay.inputs(cmd)
                if cmd.op in _RULES:
                    forward = _RULES[cmd.op][1]
                    outs = {
                        tuple(out)
                        for coords in cells
                        for out in forward(cmd, inputs, name, coords)
                    }
                else:  # conservative: any cell of the output, so read it
                    outs = {
                        c for c, _ in replay.array(cmd.output, cmd).cells()
                    }
                new = {(cmd.output, out) for out in outs} - affected
                affected |= new
                if new:
                    next_frontier.setdefault(cmd.output, set()).update(
                        out for _, out in new
                    )
        frontier = next_frontier
    return affected


class TraceCache:
    """Memoised forward traces — the paper's cached-named-version middle
    ground between log replay (no space, slow) and Trio (fast, huge)."""

    def __init__(self, engine: ProvenanceEngine) -> None:
        self.engine = engine
        self._cache: dict[tuple[Item, int], set[Item]] = {}
        self.hits = 0
        self.misses = 0

    def forward(self, item: Item) -> set[Item]:
        key = ((item[0], tuple(item[1])), len(self.engine.log))
        if key in self._cache:
            self.hits += 1
            return self._cache[key]
        self.misses += 1
        result = trace_forward(self.engine, item)
        self._cache[key] = result
        return result

    def space_items(self) -> int:
        """Cached lineage items held (the cache's space cost)."""
        return sum(len(v) for v in self._cache.values())
