"""Logical→physical planning: pushdown rewrites, routes, pruning, costing.

Section 2.2.1 observes that structural operators "do not necessarily have
to read the data values to produce a result, [so] they present opportunity
for optimization".  The planner exploits that opportunity in three layers:

1. **Logical rewrites** — subsample pushdown.  Content operators like
   Filter, Apply and Project preserve the dimension structure of their
   input, so ``subsample(filter(A, p), q) == filter(subsample(A, q), p)``
   and the right-hand side evaluates the (cheap, data-agnostic,
   bucket-prunable) Subsample *first*.  Experiment E2 measures the effect.

2. **The physical plan** — every node of the rewritten tree gets a
   :class:`PhysicalOp` saying *how* it will run: for an operator with a
   grid-resident operand the route
   (:func:`~repro.query.cost.grid_route`, asked here and nowhere else),
   and — the chunk-skipping payoff — a :class:`ScanSpec` on the operator
   that reads a catalog array, carrying the per-attribute value intervals
   a filter implies (:mod:`repro.query.stats`) and the window of a
   ``window``-routed subsample.  The storage layer uses the intervals to
   skip buckets whose min/max statistics prove no cell can match,
   *before any I/O*.

3. **Estimation** — when a catalog is wired in (the executor provides
   one), scans are costed from real bucket statistics and operator times
   from the self-calibrating :class:`~repro.query.cost.CostModel`, so
   ``explain`` can print estimated vs. actual.

The :class:`PhysicalOp` tree is the one per-statement tree: the executor
walks it beside the parse tree and runs each operator on the route it
names, each operator's measurements land on its node when its span
closes, and ``EXPLAIN ANALYZE``, ``GET /profile`` and the cost model's
calibration all read that same tree.

Rewrites and pruning honour :class:`PlannerConfig`, threadable per query
through ``SciDB.query/execute/explain(planner=...)``.  Rewrites land in
:attr:`PlannedQuery.rewrites`; each rewrite and each pruning opportunity
is also emitted to the flight recorder (``planner.rewrite`` /
``planner.prune``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, Iterator, Optional

from ..obs.recorder import emit
from .ast import (
    ArrayRef,
    Node,
    OpNode,
    PredicateConjunction,
    SelectNode,
)
from .cost import grid_route, predicate_window
from .stats import ArrayDescription, Interval, attr_intervals, intersect_ranges

__all__ = [
    "Planner",
    "PlannedQuery",
    "PlannerConfig",
    "PhysicalOp",
    "ScanSpec",
]

#: Content operators that commute with subsample (dimension-preserving).
_DIMENSION_PRESERVING = ("filter", "apply", "project")


@dataclass(frozen=True)
class PlannerConfig:
    """Per-query optimizer switches.

    Both degrade gracefully: disabling pruning forces full scans (slower,
    never wrong) and disabling pushdown evaluates the tree exactly as
    written.
    """

    enable_pushdown: bool = True
    enable_pruning: bool = True


@dataclass(frozen=True)
class ScanSpec:
    """What the read of one catalog array is restricted to.

    ``attr_ranges`` maps attribute names to the conservative
    :class:`~repro.query.stats.Interval` a downstream filter implies.
    The storage manager skips any bucket whose statistics prove the
    ranges unsatisfiable — emitting the bucket's occupied coordinates as
    NULL cells from its footprint, never touching the file.  ``window``
    is the closed coordinate box of a ``window``-routed subsample.
    """

    array: str
    attr_ranges: dict[str, Interval] = field(default_factory=dict)
    window: Optional[tuple[tuple, tuple]] = None

    def describe(self) -> str:
        inner = ", ".join(
            f"{a}∈{iv}" for a, iv in sorted(self.attr_ranges.items())
        )
        return "{" + inner + "}"


@dataclass
class PhysicalOp:
    """One operator of a statement: how it will run, what the planner
    expects of it and — once its span has closed — what it did.

    ``strategy`` is the grid route (``""``: the local operator);
    ``est_*`` are ``None`` when no catalog/statistics were available.
    The measured fields stay at their zero values until
    :meth:`measure` runs, which it does only under a traced statement.
    """

    op: str
    label: str = ""
    time_ms: float = 0.0
    cells_scanned: int = 0
    cells_out: int = 0
    chunks_touched: int = 0
    nodes_visited: int = 0
    bytes_moved: int = 0
    distributed: bool = False
    #: intra-query fan-out the scheduler used for this operator (None when
    #: the operator never entered the parallel scheduler)
    parallelism: Optional[int] = None
    cache_hits: int = 0
    cache_misses: int = 0
    #: storage buckets skipped by value-range statistics (never read)
    chunks_pruned: int = 0
    error: Optional[str] = None
    counters: dict[str, float] = field(default_factory=dict)
    est_cells: Optional[int] = None
    est_chunks: Optional[int] = None
    est_chunks_pruned: Optional[int] = None
    est_ms: Optional[float] = None
    strategy: str = ""
    scan: Optional[ScanSpec] = None
    #: some array under this node is grid-resident
    on_grid: bool = False
    children: tuple["PhysicalOp", ...] = ()

    def walk(self) -> "Iterator[PhysicalOp]":
        yield self
        for c in self.children:
            yield from c.walk()

    @property
    def attr_ranges(self) -> dict[str, Interval]:
        """The value ranges this node's read is pruned by (``{}``: none)."""
        return self.scan.attr_ranges if self.scan is not None else {}

    # -- the plan ---------------------------------------------------------------

    def render(self, indent: int = 0) -> str:
        """The plan alone.  ``est_ms`` is intentionally omitted (timing
        estimates drift with the cost model's calibration) so golden-plan
        tests stay stable."""
        parts = [self.label if self.op == "scan" else self.op]
        if self.strategy:
            parts.append(f"[{self.strategy}]")
        if self.attr_ranges:
            parts.append(f"prune{self.scan.describe()}")
        if self.est_cells is not None:
            parts.append(f"~cells={self.est_cells}")
        if self.est_chunks is not None:
            chunk = f"~chunks={self.est_chunks}"
            if self.est_chunks_pruned:
                chunk += f"(-{self.est_chunks_pruned} pruned)"
            parts.append(chunk)
        lines = ["  " * indent + " ".join(parts)]
        lines.extend(c.render(indent + 1) for c in self.children)
        return "\n".join(lines)

    def estimated(self) -> Optional[dict[str, Any]]:
        """The planner's predictions for the statement rooted here, flat:
        cells/ms at the root, the chunks its scans expect to touch and to
        prune, and the routes chosen — what a retained profile compares
        its actuals against."""
        out: dict[str, Any] = {}
        if self.est_cells is not None:
            out["cells"] = int(self.est_cells)
        if self.est_ms is not None:
            out["ms"] = round(float(self.est_ms), 3)
        scans = [
            p for p in self.walk() if p.op == "scan" and p.est_chunks is not None
        ]
        if scans:
            out["chunks"] = sum(p.est_chunks for p in scans)
            out["chunks_pruned"] = sum(p.est_chunks_pruned or 0 for p in scans)
        strategies = {p.op: p.strategy for p in self.walk() if p.strategy}
        if strategies:
            out["strategies"] = strategies
        return out or None

    # -- the measurements -------------------------------------------------------

    def measure(self, sp: Any) -> None:
        """Take this operator's actuals from its closed span *sp*."""
        counters = sp.counters
        self.time_ms = sp.duration_ms
        self.cells_scanned = int(counters.pop("cells_scanned", 0))
        self.cells_out = int(counters.pop("cells_out", 0))
        self.chunks_touched = int(
            counters.pop("chunks_touched", 0) + counters.pop("chunks_read", 0)
        )
        self.bytes_moved = int(counters.pop("bytes_moved", 0))
        self.cache_hits = int(counters.pop("cache_hits", 0))
        self.cache_misses = int(counters.pop("cache_misses", 0))
        self.chunks_pruned = int(counters.pop("chunks_pruned", 0))
        self.nodes_visited = len(sp.marks.get("nodes", ()))
        self.distributed = bool(sp.attrs.get("distributed", False))
        self.parallelism = sp.attrs.get("parallelism")
        self.error = sp.error
        self.counters = counters

    @property
    def cache_hit_ratio(self) -> Optional[float]:
        """Chunk-cache hit ratio for this operator; None if it read no
        buckets through the cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else None

    def render_measured(self, indent: int = 0) -> str:
        """The ``EXPLAIN ANALYZE`` lines: actuals against estimates."""
        line = (
            f"{'  ' * indent}-> {self.label}  "
            f"(time={self.time_ms:.3f} ms, cells_scanned={self.cells_scanned}, "
            f"cells_out={self.cells_out}, chunks={self.chunks_touched}, "
            f"nodes={self.nodes_visited}, bytes_moved={self.bytes_moved})"
        )
        if self.chunks_pruned:
            line += f"  [chunks_pruned={self.chunks_pruned}]"
        if self.est_cells is not None:
            est = f"  [estimated: cells={self.est_cells}"
            if self.est_chunks is not None:
                est += f", chunks={self.est_chunks}"
                if self.est_chunks_pruned:
                    est += f" (-{self.est_chunks_pruned} pruned)"
            line += est + "]"
        if self.strategy:
            line += f"  [strategy={self.strategy}]"
        if self.distributed:
            line += "  [distributed]"
        if self.parallelism is not None:
            line += f"  [parallelism={self.parallelism}]"
        ratio = self.cache_hit_ratio
        if ratio is not None:
            line += f"  [cache_hit_ratio={ratio:.2f}]"
        # Resilience activity: shown only when the read path took evasive
        # action, so healthy plans stay uncluttered.
        for key in (
            "failovers", "breaker_skips", "hedges", "hedge_wins",
            "deadline_misses",
        ):
            value = self.counters.get(key, 0)
            if value:
                line += f"  [{key}={int(value)}]"
        if self.error:
            line += f"  ERROR: {self.error}"
        return "\n".join(
            [line, *(c.render_measured(indent + 1) for c in self.children)]
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form (the ``operators`` of ``GET /profile``): every
        field but the plan-internal ``scan`` and ``on_grid``."""
        out = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("scan", "on_grid")
        }
        out["children"] = [c.to_dict() for c in self.children]
        return out


@dataclass
class PlannedQuery:
    """An optimized parse tree, its rewrites, and the physical plan
    (``None`` for DDL and literals, which have none)."""

    node: Node
    rewrites: list[str] = field(default_factory=list)
    physical: Optional[PhysicalOp] = None
    config: PlannerConfig = field(default_factory=PlannerConfig)

    def render_physical(self) -> str:
        return self.physical.render() if self.physical is not None else ""


#: Catalog callback: array name -> ArrayDescription (or None if unknown).
Catalog = Callable[[str], Optional[ArrayDescription]]


def _label(node: OpNode) -> str:
    """A compact, human-readable operator label."""
    bits = [node.op]
    for key in ("group_dims", "on", "factors", "attrs", "order", "agg"):
        value = node.option(key)
        if value is not None:
            bits.append(f"{key}={value!r}")
    return " ".join(bits)


class Planner:
    """Logical rewriter + physical planner over parse trees.

    ``catalog`` and ``cost_model`` are optional — without them the
    planner still rewrites and attaches pruning specs, it just cannot
    route or estimate.  The executor wires both in when it owns the
    planner: what it runs is the plan, so the plan must see its arrays.
    """

    def __init__(
        self,
        config: Optional[PlannerConfig] = None,
        catalog: Optional[Catalog] = None,
        cost_model: Optional[Any] = None,
    ) -> None:
        self.config = config or PlannerConfig()
        self.catalog = catalog
        self.cost_model = cost_model

    def plan(
        self, node: Node, config: Optional[PlannerConfig] = None
    ) -> PlannedQuery:
        cfg = config or self.config
        rewrites: list[str] = []
        planned = self._rewrite(node, rewrites, cfg)
        root = planned.expr if isinstance(planned, SelectNode) else planned
        physical = None
        if isinstance(root, (OpNode, ArrayRef)):
            physical, _ = self._annotate(root, {}, cfg)
        result = PlannedQuery(planned, rewrites, physical, cfg)
        self._emit_events(result)
        return result

    # -- logical rewrites -------------------------------------------------

    def _rewrite(
        self, node: Node, rewrites: list[str], cfg: PlannerConfig
    ) -> Node:
        if isinstance(node, SelectNode):
            return SelectNode(
                self._rewrite(node.expr, rewrites, cfg), into=node.into
            )
        if not isinstance(node, OpNode):
            return node
        # Rewrite children first (bottom-up).
        new_args = tuple(self._rewrite(a, rewrites, cfg) for a in node.args)
        node = node.with_args(*new_args)
        if not cfg.enable_pushdown:
            return node
        return self._push_subsample(node, rewrites)

    def _push_subsample(self, node: OpNode, rewrites: list[str]) -> OpNode:
        """subsample(content_op(A)) -> content_op(subsample(A))."""
        while (
            node.op == "subsample"
            and node.args
            and isinstance(node.args[0], OpNode)
            and node.args[0].op in _DIMENSION_PRESERVING
        ):
            inner = node.args[0]
            rewrites.append(
                f"pushed subsample below {inner.op} "
                "(structural op evaluated first)"
            )
            pushed_subsample = OpNode(
                "subsample", (inner.args[0],), node.options
            )
            node = OpNode(
                inner.op,
                (pushed_subsample,) + inner.args[1:],
                inner.options,
            )
            # The new child may itself expose another pushdown; loop via
            # re-examining the (now content-op-rooted) node's first arg.
            first = node.args[0]
            if isinstance(first, OpNode):
                rewritten_child = self._push_subsample(first, rewrites)
                node = node.with_args(rewritten_child, *node.args[1:])
            break
        return node

    # -- the physical plan ---------------------------------------------------

    def _annotate(
        self, node: Node, inherited: dict[str, Interval], cfg: PlannerConfig
    ) -> tuple[PhysicalOp, Optional[ArrayDescription]]:
        """The plan of *node*'s subtree — one child per argument, in
        argument order, so the executor can walk both trees in step —
        and, for an array reference, the description it was planned from
        (what the consuming operator's route is decided on)."""
        if isinstance(node, ArrayRef):
            return self._annotate_scan(node, inherited)
        if not isinstance(node, OpNode):
            return PhysicalOp(type(node).__name__.lower(), type(node).__name__), None

        op = node.op
        own_ranges: dict[str, Interval] = {}
        if op == "filter" and cfg.enable_pruning:
            pred = node.option("predicate")
            if isinstance(pred, PredicateConjunction):
                own_ranges = attr_intervals(pred)
        if op == "filter":
            child_ranges = intersect_ranges(inherited, own_ranges)
        elif op == "subsample":
            # Subsample is value-preserving: whatever value ranges an
            # ancestor filter demands still apply below the window cut.
            child_ranges = inherited
        else:
            child_ranges = {}

        planned = [self._annotate(a, child_ranges, cfg) for a in node.args]
        operands = [desc for _, desc in planned]
        phys = PhysicalOp(
            op, _label(node),
            strategy=grid_route(node, operands),
            children=tuple(child for child, _ in planned),
        )
        phys.on_grid = any(c.on_grid for c in phys.children)

        # The read directive sits on the scan-consuming node: the executor
        # dispatches reads from here, inside this operator's tracing span.
        window = (
            predicate_window(node.option("predicate"), operands[0])
            if phys.strategy == "window" else None
        )
        if (child_ranges or window) and isinstance(node.args[0], ArrayRef):
            phys.scan = ScanSpec(node.args[0].name, dict(child_ranges), window)

        self._estimate(phys)
        return phys, None

    def _annotate_scan(
        self, ref: ArrayRef, inherited: dict[str, Interval]
    ) -> tuple[PhysicalOp, Optional[ArrayDescription]]:
        spec = ScanSpec(ref.name, dict(inherited))
        phys = PhysicalOp("scan", f"scan {ref.name}", scan=spec)
        desc = self.catalog(ref.name) if self.catalog is not None else None
        if desc is None:
            return phys, None
        phys.on_grid = desc.distributed
        if desc.stats is not None and spec.attr_ranges:
            cells, chunks, pruned = desc.stats.estimate_match(spec.attr_ranges)
            # Merged stats for a replicated array count every copy; one
            # exactly-once read touches 1/k of that.
            k = max(1, desc.replication)
            phys.est_cells, phys.est_chunks = cells // k, -(-chunks // k)
            phys.est_chunks_pruned = pruned // k
        else:
            phys.est_cells = desc.cells
            phys.est_chunks = desc.chunks
        if self.cost_model is not None and phys.est_cells is not None:
            phys.est_ms = self.cost_model.estimate_ms("scan", phys.est_cells)
        return phys, desc

    def _estimate(self, phys: PhysicalOp) -> None:
        child_cells = [
            c.est_cells for c in phys.children if c.est_cells is not None
        ]
        if not child_cells:
            return
        # filter emits NULL (not EMPTY) for failing cells, subsample and
        # content ops are at most input-sized: the child estimate is the
        # honest upper bound for cells handled here.
        phys.est_cells = max(child_cells)
        # Pruning estimates surface on the consumer so explain can show
        # them where the chunks_read counter lands.
        if phys.attr_ranges:
            phys.est_chunks = phys.children[0].est_chunks
            phys.est_chunks_pruned = phys.children[0].est_chunks_pruned
        if self.cost_model is not None:
            phys.est_ms = self.cost_model.estimate_ms(phys.op, phys.est_cells)

    # -- flight-recorder events ---------------------------------------------

    def _emit_events(self, planned: PlannedQuery) -> None:
        for rw in planned.rewrites:
            emit("planner.rewrite", detail=rw)
        if planned.physical is None:
            return
        for phys in planned.physical.walk():
            if phys.op != "scan" and phys.attr_ranges:
                emit(
                    "planner.prune",
                    array=phys.scan.array,
                    detail=phys.scan.describe(),
                    est_chunks=phys.est_chunks,
                    est_chunks_pruned=phys.est_chunks_pruned,
                )
