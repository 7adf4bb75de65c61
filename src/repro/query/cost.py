"""Cost model for physical-plan strategy choice and row estimates.

The model is deliberately simple — a per-operator ms/cell rate — because
its inputs are real: every executed query leaves an operator tree in the
flight recorder's QueryProfile store (PR 8) with measured ``time_ms`` and
``cells_scanned``/``cells_out`` per operator.  :meth:`CostModel.observe`
folds those into an exponentially-weighted moving average, so the model
self-calibrates as the workload runs; :meth:`CostModel.from_profiles`
warm-starts one from the recorder's retained history.

Route choice is :func:`grid_route`: the one predicate that says where an
operator over grid-resident operands runs.  The planner asks it once per
operator and writes the answer on the physical plan; the executor runs
the plan, so a printed strategy is the route that ran:

* **aggregate** / **regrid** — an algebraic aggregate (one with a
  ``merge``: the built-in sum/count/avg/min/max/stdev) decomposes into
  per-node partials merged at the coordinator; a holistic one (median,
  any user aggregate — whatever its name) cannot, so the plan gathers.
* **sjoin** — co-partitioned arrays join node-locally; arrays on one
  grid under different partitioners shuffle the right operand to the
  left's scheme; arrays on different grids are gathered.

Seeding defaults were measured once on single-core CPython; they only
matter until the first few queries overwrite them.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Iterable, Optional, Sequence

from ..cluster.partitioning import is_copartitioned
from ..core.errors import PlanError, UnknownFunctionError
from ..core.ops.content import Grouping
from ..core.udf import get_aggregate
from .ast import OpNode, PredicateConjunction

__all__ = ["CostModel", "DEFAULT_MS_PER_CELL", "grid_route", "predicate_window"]

#: Seed rates (ms per cell handled) until observations arrive.
DEFAULT_MS_PER_CELL: dict[str, float] = {
    "scan": 0.004,
    "subsample": 0.004,
    "filter": 0.006,
    "apply": 0.006,
    "project": 0.004,
    "aggregate": 0.005,
    "regrid": 0.008,
    "sjoin": 0.010,
    "cjoin": 0.015,
}
_FALLBACK_RATE = 0.006


class CostModel:
    """EWMA per-operator cost rates (route choice is :func:`grid_route`).

    Thread-safe: the executor observes completed profiles from the query
    thread while the planner reads rates from wherever a plan is built.
    """

    def __init__(self, alpha: float = 0.3) -> None:
        self.alpha = alpha
        self._rates: dict[str, float] = {}
        self._samples: dict[str, int] = {}
        self._lock = threading.Lock()

    # -- calibration ----------------------------------------------------

    def observe(self, profile: Any) -> int:
        """Fold one executed plan (a
        :class:`~repro.query.planner.PhysicalOp`, or anything with its
        ``op``/``time_ms``/``cells_scanned``/``cells_out``/``error``/
        ``children``) into the per-op rates.  Returns how many operator
        samples were absorbed.
        """
        absorbed = 0
        stack = [profile]
        with self._lock:
            while stack:
                p = stack.pop()
                if p is None:
                    continue
                stack.extend(getattr(p, "children", ()) or ())
                op = getattr(p, "op", None)
                if not op or getattr(p, "error", None):
                    continue
                units = int(getattr(p, "cells_scanned", 0) or 0) + int(
                    getattr(p, "cells_out", 0) or 0
                )
                time_ms = float(getattr(p, "time_ms", 0.0) or 0.0)
                if units <= 0 or time_ms <= 0.0:
                    continue
                rate = time_ms / units
                if not math.isfinite(rate):
                    continue
                prev = self._rates.get(op)
                self._rates[op] = (
                    rate if prev is None
                    else prev + self.alpha * (rate - prev)
                )
                self._samples[op] = self._samples.get(op, 0) + 1
                absorbed += 1
        return absorbed

    @classmethod
    def from_profiles(
        cls, profiles: Iterable[Any], alpha: float = 0.3
    ) -> "CostModel":
        """Warm-start a model from retained QueryProfiles (oldest first,
        so recent queries dominate the EWMA)."""
        model = cls(alpha=alpha)
        for qp in profiles:
            root = getattr(qp, "root", None)
            if root is not None:
                model.observe(root)
        return model

    # -- estimation ------------------------------------------------------

    def ms_per_cell(self, op: str) -> float:
        with self._lock:
            rate = self._rates.get(op)
        if rate is not None:
            return rate
        return DEFAULT_MS_PER_CELL.get(op, _FALLBACK_RATE)

    def estimate_ms(self, op: str, cells: int) -> float:
        return self.ms_per_cell(op) * max(0, cells)

    def samples(self, op: str) -> int:
        with self._lock:
            return self._samples.get(op, 0)

    def calibration(self) -> dict[str, dict[str, float]]:
        """Current rates + sample counts, for export/inspection."""
        with self._lock:
            return {
                op: {"ms_per_cell": rate, "samples": self._samples.get(op, 0)}
                for op, rate in sorted(self._rates.items())
            }


# -- route choice ------------------------------------------------------------


def predicate_window(
    pred: Any, array: Any
) -> Optional[tuple[tuple, tuple]]:
    """Compile a pure-range dimension predicate to a scan window over
    *array* (anything with ``name`` and ``dims`` — ``(name, size)`` pairs).

    Returns ``None`` when the predicate needs per-cell evaluation
    (even/odd/!=, attribute terms, callables) or the window cannot
    be closed (an unbounded dimension with no upper constraint).
    """
    if not isinstance(pred, PredicateConjunction) or pred.attr_terms:
        return None
    lo, hi = {name: 1 for name, _size in array.dims}, dict(array.dims)
    for dim, cond in pred.dims_condition().items():
        if dim not in lo:
            raise PlanError(
                f"array {array.name!r} has no dimension {dim!r} "
                f"(dimensions: {', '.join(lo)})"
            )
        if callable(cond):  # even, odd, !=
            return None
        low, high = (cond, cond) if isinstance(cond, int) else cond
        if low is not None:
            lo[dim] = max(lo[dim], low)
        if high is not None:
            hi[dim] = high if hi[dim] is None else min(hi[dim], high)
    if None in hi.values():  # an unbounded dimension left open above
        return None
    return tuple(lo.values()), tuple(hi.values())


def grid_route(node: OpNode, operands: Sequence[Optional[Any]]) -> str:
    """Where operator *node* runs, given what its arguments are.

    *operands* holds, per argument, an
    :class:`~repro.query.stats.ArrayDescription`-shaped object
    (``distributed``, ``dims``, ``grid_id``, ``partitioner``, ``schema``)
    for a catalog array, or ``None`` for a computed subtree.  The answer is
    ``""`` when no argument is a bare grid array (the local operator,
    nothing moves), the native grid route — ``"window"``,
    ``"partial-aggregate"``, ``"partial-regrid"``, ``"copartitioned"``,
    ``"shuffle"`` — or ``"gather"``: every grid argument is materialized
    at the coordinator and the local operator runs there.  A statement
    no route can run raises before a byte moves.
    """
    grids = [d for d in operands if d is not None and d.distributed]
    if not grids:
        return ""
    op, first = node.op, operands[0]
    if len(operands) == 1:
        if op == "subsample":
            if predicate_window(node.option("predicate"), first) is not None:
                return "window"
        elif op in ("aggregate", "regrid"):
            agg = node.option("agg")
            if first.schema is not None:  # the operators' own check
                groups = node.option("factors" if op == "regrid" else "group_dims")
                agg, _attr = Grouping.check(
                    op, first.schema, groups, agg, node.option("attr")
                )
            elif isinstance(agg, str):
                try:
                    agg = get_aggregate(agg)
                except UnknownFunctionError:
                    agg = None  # gathered: the local operator reports it
            if getattr(agg, "merge", None) is not None:
                return "partial-" + op
    elif op == "sjoin" and len(grids) == len(operands) == 2:
        second = operands[1]
        on = node.option("on")
        joined = min(len(first.dims), len(second.dims)) if on is None else len(on)
        if (
            first.grid_id == second.grid_id
            and joined == len(first.dims) == len(second.dims)
        ):
            return "copartitioned" if is_copartitioned(first, second, on) else "shuffle"
    return "gather"
