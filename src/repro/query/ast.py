"""Parse-tree node types — the common command representation (Section 2.4).

Every binding (the textual parser, the Python fluent binding, and any
future MATLAB/IDL-style frontend) produces these nodes; the planner and
executor consume nothing else.  Nodes are immutable values with structural
equality, so the planner's rewrites are easy to test.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Optional, Union

from ..core.errors import PlanError

__all__ = [
    "Node",
    "Literal",
    "ArrayRef",
    "DimPredicate",
    "AttrPredicate",
    "PredicateConjunction",
    "AttrPairsEqual",
    "OpNode",
    "DefineNode",
    "CreateNode",
    "SelectNode",
    "EnhanceNode",
]

_COMPARE = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: Comparison operators admitted in predicates.
COMPARISONS = tuple(_COMPARE)


class Node:
    """Base class for all parse-tree nodes."""

    def children(self) -> tuple["Node", ...]:
        return ()


@dataclass(frozen=True)
class Literal(Node):
    """A constant value."""

    value: Any


@dataclass(frozen=True)
class ArrayRef(Node):
    """A reference to a catalog array by name."""

    name: str


@dataclass(frozen=True)
class DimPredicate(Node):
    """A single-dimension condition (Subsample's building block).

    ``op`` is a comparison from :data:`COMPARISONS`, or the special
    ``"even"`` / ``"odd"`` unary forms of the paper's ``even(X)`` example
    (``value`` is ignored for those).
    """

    dim: str
    op: str
    value: Optional[int] = None

    def __post_init__(self) -> None:
        if self.op not in COMPARISONS + ("even", "odd"):
            raise PlanError(f"unknown dimension comparison {self.op!r}")
        if self.op in COMPARISONS and self.value is None:
            raise PlanError(f"comparison {self.op!r} needs a value")

    def to_condition(self):
        """Compile to the operator layer's DimCondition form."""
        if self.op == "even":
            return lambda v: v % 2 == 0
        if self.op == "odd":
            return lambda v: v % 2 == 1
        value = self.value
        return {
            "=": value,
            "!=": (lambda v: v != value),
            "<": (None, value - 1),
            "<=": (None, value),
            ">": (value + 1, None),
            ">=": (value, None),
        }[self.op]


@dataclass(frozen=True)
class AttrPredicate(Node):
    """A condition over a cell's data values (Filter / Cjoin)."""

    attr: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in COMPARISONS:
            raise PlanError(f"unknown attribute comparison {self.op!r}")

    def holds(self, values: Any) -> Any:
        """The comparison applied to a scalar — or, elementwise, to a
        numpy plane of this attribute."""
        return _COMPARE[self.op](values, self.value)

    def bounds(self) -> Optional[tuple[Any, Any, bool, bool]]:
        """The value interval this term admits: ``(lo, hi, lo_open, hi_open)``.

        ``None`` bounds are unbounded sides.  Returns ``None`` (no interval)
        for ``!=`` — which excludes a point rather than bounding a range —
        and for non-numeric comparison values, where interval reasoning
        over min/max statistics is not meaningful.  The planner's
        chunk-skipping analysis (:mod:`repro.query.stats`) builds its
        per-attribute ranges from these.
        """
        if self.op == "!=" or isinstance(self.value, bool):
            return None
        if not isinstance(self.value, (int, float)):
            return None
        v = self.value
        return {
            "=": (v, v, False, False),
            "<": (None, v, False, True),
            "<=": (None, v, False, False),
            ">": (v, None, True, False),
            ">=": (v, None, False, False),
        }[self.op]


@dataclass(frozen=True)
class PredicateConjunction(Node):
    """An AND of per-dimension and/or per-attribute conditions."""

    terms: tuple[Node, ...]

    def __post_init__(self) -> None:
        for t in self.terms:
            if not isinstance(t, (DimPredicate, AttrPredicate)):
                raise PlanError(
                    "conjunction terms must be dimension or attribute "
                    f"predicates, got {type(t).__name__}"
                )

    @cached_property
    def dim_terms(self) -> tuple[DimPredicate, ...]:
        return tuple(t for t in self.terms if isinstance(t, DimPredicate))

    @cached_property
    def attr_terms(self) -> tuple[AttrPredicate, ...]:
        return tuple(t for t in self.terms if isinstance(t, AttrPredicate))

    def dims_condition(self) -> dict:
        """Compile dimension terms to Subsample's predicate mapping.

        Multiple conditions on one dimension intersect (the conjunction).
        """
        out: dict[str, Any] = {}
        for term in self.dim_terms:
            cond = term.to_condition()
            if term.dim not in out:
                out[term.dim] = cond
            else:
                out[term.dim] = _intersect(out[term.dim], cond)
        return out

    # The compiled-predicate protocol of :func:`repro.core.ops.filter`: a
    # conjunction tests one cell, or every cell of the planes at once.

    def __call__(self, cell: Any) -> bool:
        for t in self.attr_terms:  # a loop, not all(): this runs per cell
            if not _COMPARE[t.op](getattr(cell, t.attr), t.value):
                return False
        return True

    @property
    def attrs(self) -> tuple[str, ...]:
        """The attributes the terms read."""
        return tuple(t.attr for t in self.attr_terms)

    def on_planes(self, planes: Any, present: Any) -> Any:
        """Boolean plane: PRESENT cells whose values satisfy every
        attribute term (*planes* maps attribute name to ndarray)."""
        keep = present
        for t in self.attr_terms:
            keep = keep & t.holds(planes[t.attr])
        return keep


@dataclass(frozen=True)
class AttrPairsEqual:
    """The textual ``cjoin(A, B, A.a = B.b and ...)`` predicate, in the
    compiled pair-predicate protocol of :func:`repro.core.ops.cjoin`."""

    pairs: tuple[tuple[str, str], ...]

    def __call__(self, left: Any, right: Any) -> bool:
        return all(getattr(left, a) == getattr(right, b) for a, b in self.pairs)

    @property
    def attrs(self) -> tuple[tuple[str, ...], ...]:
        """The attributes read of the left cell, and of the right."""
        return tuple(zip(*self.pairs))

    def on_planes(self, left: Any, right: Any) -> Any:
        keep = True
        for a, b in self.pairs:
            keep = keep & (left[a] == right[b])
        return keep


def _intersect(a, b):
    """Intersect two DimCondition forms: ranges and ints make a range, or the
    int when one is an int inside the other, so Subsample slices; else a callable."""
    if isinstance(a, (int, tuple)) and isinstance(b, (int, tuple)):
        (alo, ahi), (blo, bhi) = (c if isinstance(c, tuple) else (c, c) for c in (a, b))
        lo = max((v for v in (alo, blo) if v is not None), default=None)
        hi = min((v for v in (ahi, bhi) if v is not None), default=None)
        ranges = isinstance(a, tuple) and isinstance(b, tuple)
        return (lo, hi) if ranges or lo != hi else lo

    def admit(cond):
        if isinstance(cond, (int, tuple)):
            lo, hi = cond if isinstance(cond, tuple) else (cond, cond)
            return lambda v: (lo is None or v >= lo) and (hi is None or v <= hi)
        return cond.__contains__ if isinstance(cond, (set, frozenset, list, range)) else cond

    fa, fb = admit(a), admit(b)
    return lambda v: fa(v) and fb(v)


@dataclass(frozen=True)
class OpNode(Node):
    """An operator application: the workhorse expression node.

    ``args`` are positional child expressions (arrays); ``options`` carries
    operator-specific parameters (predicates, group dims, factors, ...).
    """

    op: str
    args: tuple[Node, ...]
    options: tuple[tuple[str, Any], ...] = ()

    def children(self) -> tuple[Node, ...]:
        return self.args

    def option(self, key: str, default: Any = None) -> Any:
        for k, v in self.options:
            if k == key:
                return v
        return default

    def with_args(self, *args: Node) -> "OpNode":
        return OpNode(self.op, tuple(args), self.options)


@dataclass(frozen=True)
class DefineNode(Node):
    """``define [updatable] array Name (a = t, ...) (d1, d2)``."""

    name: str
    values: tuple[tuple[str, str], ...]
    dims: tuple[str, ...]
    updatable: bool = False


@dataclass(frozen=True)
class CreateNode(Node):
    """``create Instance as Type [b1, b2]`` (``*`` bounds are None)."""

    instance: str
    type_name: str
    bounds: tuple[Optional[int], ...]


@dataclass(frozen=True)
class SelectNode(Node):
    """``select <expr> [into Name]``."""

    expr: Node
    into: Optional[str] = None

    def children(self) -> tuple[Node, ...]:
        return (self.expr,)


@dataclass(frozen=True)
class EnhanceNode(Node):
    """``enhance Array with Function``."""

    array: str
    function: str
