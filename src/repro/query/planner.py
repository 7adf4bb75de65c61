"""Logical→physical planning: pushdown rewrites, chunk pruning, costing.

Section 2.2.1 observes that structural operators "do not necessarily have
to read the data values to produce a result, [so] they present opportunity
for optimization".  The planner exploits that opportunity in three layers:

1. **Logical rewrites** — subsample pushdown.  Content operators like
   Filter, Apply and Project preserve the dimension structure of their
   input, so ``subsample(filter(A, p), q) == filter(subsample(A, q), p)``
   and the right-hand side evaluates the (cheap, data-agnostic,
   bucket-prunable) Subsample *first*.  Experiment E2 measures the effect.

2. **Physical annotation** — every node of the rewritten tree gets a
   :class:`PhysicalOp` describing *how* it will run: the strategy chosen
   for distributed aggregates/joins, and — the chunk-skipping payoff — a
   :class:`ScanSpec` on scans feeding a filter, carrying the per-attribute
   value intervals the predicate implies (:mod:`repro.query.stats`).  The
   storage layer uses those intervals to skip buckets whose min/max
   statistics prove no cell can match, *before any I/O*.

3. **Estimation** — when a catalog is wired in (the executor provides
   one), scans are costed from real bucket statistics and operator times
   from the self-calibrating :class:`~repro.query.cost.CostModel`, so
   ``explain`` can print estimated vs. actual.

All three honour :class:`PlannerConfig`, threadable per query through
``SciDB.query/execute/explain(planner=...)``.  Rewrites land in
:attr:`PlannedQuery.rewrites`; each rewrite and each pruning opportunity
is also emitted to the flight recorder (``planner.rewrite`` /
``planner.prune``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .ast import (
    ArrayRef,
    Node,
    OpNode,
    PredicateConjunction,
    SelectNode,
)
from .cost import grid_route
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

    Every flag degrades gracefully: disabling pruning forces full scans
    (slower, never wrong), disabling the cost model falls back to the
    executor's legacy try-native-then-gather dispatch, and disabling
    pushdown evaluates the tree exactly as written.
    """

    enable_pushdown: bool = True
    enable_pruning: bool = True
    enable_cost_model: bool = True


@dataclass(frozen=True)
class ScanSpec:
    """Value-range pruning directive for one scan.

    ``attr_ranges`` maps attribute names to the conservative
    :class:`~repro.query.stats.Interval` a downstream filter implies.
    The storage manager skips any bucket whose statistics prove the
    ranges unsatisfiable — emitting the bucket's occupied coordinates as
    NULL cells from its footprint, never touching the file.
    """

    array: str
    attr_ranges: dict[str, Interval] = field(default_factory=dict)

    def describe(self) -> str:
        inner = ", ".join(
            f"{a}∈{iv}" for a, iv in sorted(self.attr_ranges.items())
        )
        return "{" + inner + "}"


@dataclass
class PhysicalOp:
    """How one logical node will execute, plus the planner's estimates.

    ``est_*`` fields are ``None`` when no catalog/statistics were
    available.  :meth:`render` intentionally omits ``est_ms`` (timing
    estimates drift with the cost model's calibration) so golden-plan
    tests stay stable.
    """

    op: str
    label: str = ""
    strategy: str = ""
    scan: Optional[ScanSpec] = None
    est_cells: Optional[int] = None
    est_chunks: Optional[int] = None
    est_chunks_pruned: Optional[int] = None
    est_ms: Optional[float] = None
    children: tuple["PhysicalOp", ...] = ()

    def render(self, indent: int = 0) -> str:
        parts = [self.op]
        if self.label:
            parts.append(self.label)
        if self.strategy:
            parts.append(f"[{self.strategy}]")
        if self.scan is not None and self.scan.attr_ranges:
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

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()


@dataclass
class PlannedQuery:
    """An optimized parse tree, its rewrites, and the physical plan."""

    node: Node
    rewrites: list[str] = field(default_factory=list)
    physical: Optional[PhysicalOp] = None
    config: PlannerConfig = field(default_factory=PlannerConfig)
    _phys_index: dict[int, PhysicalOp] = field(default_factory=dict)

    def physical_for(self, node: Node) -> Optional[PhysicalOp]:
        """The physical annotation for one node of :attr:`node`'s tree
        (identity-keyed — parse-tree nodes are shared, not copied)."""
        return self._phys_index.get(id(node))

    def render_physical(self) -> str:
        return self.physical.render() if self.physical is not None else ""


#: Catalog callback: array name -> ArrayDescription (or None if unknown).
Catalog = Callable[[str], Optional[ArrayDescription]]


class Planner:
    """Logical rewriter + physical planner over parse trees.

    ``catalog`` and ``cost_model`` are optional — without them the
    planner still rewrites and attaches pruning specs, it just cannot
    estimate sizes or choose cost-based strategies.  The executor wires
    both in when it owns the planner.
    """

    def __init__(
        self,
        enable_pushdown: bool = True,
        enable_pruning: bool = True,
        config: Optional[PlannerConfig] = None,
        catalog: Optional[Catalog] = None,
        cost_model: Optional[Any] = None,
    ) -> None:
        if config is None:
            config = PlannerConfig(
                enable_pushdown=enable_pushdown,
                enable_pruning=enable_pruning,
            )
        self.config = config
        self.catalog = catalog
        self.cost_model = cost_model

    def plan(
        self, node: Node, config: Optional[PlannerConfig] = None
    ) -> PlannedQuery:
        cfg = config or self.config
        rewrites: list[str] = []
        planned = self._rewrite(node, rewrites, cfg)
        result = PlannedQuery(planned, rewrites, config=cfg)
        self._annotate_physical(result)
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

    # -- physical annotation -----------------------------------------------

    def _annotate_physical(self, planned: PlannedQuery) -> None:
        root = planned.node
        if isinstance(root, SelectNode):
            root = root.expr
        if not isinstance(root, (OpNode, ArrayRef)):
            return  # DDL and literals have no physical plan
        phys = self._annotate(root, {}, planned)
        planned.physical = phys
        if isinstance(planned.node, SelectNode):
            planned._phys_index[id(planned.node)] = phys

    def _annotate(
        self,
        node: Node,
        inherited: dict[str, Interval],
        planned: PlannedQuery,
    ) -> PhysicalOp:
        cfg = planned.config
        if isinstance(node, ArrayRef):
            phys = self._annotate_scan(node, inherited, cfg)
            planned._phys_index[id(node)] = phys
            return phys
        if not isinstance(node, OpNode):
            return PhysicalOp(op=type(node).__name__.lower())

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

        children = tuple(
            self._annotate(a, child_ranges, planned)
            for a in node.args
            if isinstance(a, (OpNode, ArrayRef, SelectNode))
        )

        phys = PhysicalOp(op=op, children=children)

        # Attach the pruning spec to the scan-consuming node: the executor
        # dispatches reads from here, inside this operator's tracing span.
        if (
            cfg.enable_pruning
            and child_ranges
            and op in ("filter", "subsample")
            and node.args
            and isinstance(node.args[0], ArrayRef)
        ):
            phys.scan = ScanSpec(node.args[0].name, dict(child_ranges))

        self._choose_strategy(node, phys, cfg)
        self._estimate(node, phys, cfg)
        planned._phys_index[id(node)] = phys
        return phys

    def _annotate_scan(
        self, ref: ArrayRef, inherited: dict[str, Interval], cfg: PlannerConfig
    ) -> PhysicalOp:
        phys = PhysicalOp(op="scan", label=ref.name)
        if cfg.enable_pruning and inherited:
            phys.scan = ScanSpec(ref.name, dict(inherited))
        desc = self._describe(ref.name)
        if desc is None:
            return phys
        if desc.stats is not None and phys.scan is not None:
            cells, chunks, pruned = desc.stats.estimate_match(
                phys.scan.attr_ranges
            )
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
        return phys

    def _choose_strategy(
        self, node: OpNode, phys: PhysicalOp, cfg: PlannerConfig
    ) -> None:
        """Label the operators whose grid route is a choice with the
        route :func:`~repro.query.cost.grid_route` says will run — the
        executor dispatches on the same call, so the label cannot lie."""
        if not cfg.enable_cost_model or self.cost_model is None:
            return
        if node.op in ("aggregate", "sjoin"):
            phys.strategy = grid_route(node, [
                self._describe(a.name) if isinstance(a, ArrayRef) else None
                for a in node.args
            ])

    def _estimate(
        self, node: OpNode, phys: PhysicalOp, cfg: PlannerConfig
    ) -> None:
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
        if phys.scan is not None:
            leaf = phys.children[0] if phys.children else None
            if leaf is not None:
                phys.est_chunks = leaf.est_chunks
                phys.est_chunks_pruned = leaf.est_chunks_pruned
        if self.cost_model is not None and cfg.enable_cost_model:
            phys.est_ms = self.cost_model.estimate_ms(
                node.op, phys.est_cells
            )

    def _describe(self, name: str) -> Optional[ArrayDescription]:
        if self.catalog is None:
            return None
        try:
            return self.catalog(name)
        except Exception:
            return None  # a stats failure must never fail the query

    # -- flight-recorder events ---------------------------------------------

    def _emit_events(self, planned: PlannedQuery) -> None:
        try:
            from ..obs.recorder import emit  # lazy: obs imports query.ast
        except Exception:  # pragma: no cover - import cycles during boot
            return
        for rw in planned.rewrites:
            emit("planner.rewrite", detail=rw)
        if planned.physical is None:
            return
        for phys in planned.physical.walk():
            if phys.scan is not None and phys.op != "scan":
                emit(
                    "planner.prune",
                    array=phys.scan.array,
                    detail=phys.scan.describe(),
                    est_chunks=phys.est_chunks,
                    est_chunks_pruned=phys.est_chunks_pruned,
                )
