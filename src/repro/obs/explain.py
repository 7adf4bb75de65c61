"""``EXPLAIN ANALYZE``-style reports over executed parse trees.

:func:`profile_operators` pairs a planned parse tree with the span tree
its execution recorded (operator spans are tagged ``node_id=id(node)``
by the executor); an :class:`ExplainReport` is that plan shape, each
operator annotated with its actual wall time, cells scanned,
chunks (storage buckets) touched, nodes visited and bytes moved, plus
the movement-ledger delta the query caused — the per-operator
``bytes_moved`` sums reconcile with that delta by construction, because
every metered transfer lands in whichever operator span was open.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from ..query.ast import ArrayRef, Node, OpNode, SelectNode
from .tracing import Span

__all__ = ["OperatorProfile", "ExplainReport", "profile_operators"]


@dataclass
class OperatorProfile:
    """One plan-tree operator with its measured execution profile."""

    op: str
    label: str
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
    #: planner estimates (None when no statistics were available at plan
    #: time) — rendered against the actuals above
    est_cells: Optional[int] = None
    est_chunks: Optional[int] = None
    est_chunks_pruned: Optional[int] = None
    est_ms: Optional[float] = None
    #: cost-model strategy choice (partial-aggregate / gather / ...)
    strategy: str = ""
    children: "list[OperatorProfile]" = field(default_factory=list)

    @property
    def cache_hit_ratio(self) -> Optional[float]:
        """Chunk-cache hit ratio for this operator; None if it read no
        buckets through the cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else None

    def walk(self) -> "Iterator[OperatorProfile]":
        yield self
        for child in self.children:
            yield from child.walk()

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        line = (
            f"{pad}-> {self.label}  "
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
        parts = [line]
        for child in self.children:
            parts.append(child.render(indent + 1))
        return "\n".join(parts)


@dataclass
class ExplainReport:
    """The assembled EXPLAIN ANALYZE output for one statement."""

    statement: str
    rewrites: list[str]
    root: OperatorProfile
    total_ms: float
    #: movement-ledger byte delta caused by this query, keyed by reason
    ledger_delta: dict[str, int] = field(default_factory=dict)
    #: cells the filter predicates examined (the E2 metric)
    cells_examined: int = 0
    #: elastic-operations context the query ran under: rebalance
    #: progress (cells moved / remaining, throttle hits) and node
    #: rebuilds — empty when the grid is quiescent
    grid_status: dict[str, Any] = field(default_factory=dict)

    def operators(self) -> Iterator[OperatorProfile]:
        return self.root.walk()

    def total(self, key: str) -> float:
        """Sum one profile field (or extra counter) over all operators."""
        out: float = 0
        for prof in self.operators():
            if hasattr(prof, key):
                out += getattr(prof, key)
            else:
                out += prof.counters.get(key, 0)
        return out

    @property
    def ledger_bytes(self) -> int:
        return sum(self.ledger_delta.values())

    def reconciles(self) -> bool:
        """Per-operator bytes_moved sums match the ledger delta."""
        return int(self.total("bytes_moved")) == self.ledger_bytes

    def render(self) -> str:
        lines = [f"EXPLAIN ANALYZE {self.statement}"]
        for rw in self.rewrites:
            lines.append(f"  rewrite: {rw}")
        lines.append(self.root.render(1))
        lines.append(
            f"  total: {self.total_ms:.3f} ms, "
            f"{int(self.total('bytes_moved'))} bytes moved"
        )
        if self.ledger_delta:
            by_reason = ", ".join(
                f"{k}={v}" for k, v in sorted(self.ledger_delta.items())
            )
            lines.append(f"  ledger delta: {by_reason}")
        rebalance = self.grid_status.get("rebalance")
        if rebalance:
            for prog in rebalance.get("active", ()):
                lines.append(
                    f"  rebalance[{prog['array']}]: "
                    f"{prog['cells_moved']}/{prog['cells_total']} cells "
                    f"moved, {prog['cells_remaining']} remaining, "
                    f"{prog['throttle_hits']} throttle hits"
                )
            completed = rebalance.get("completed", ())
            if completed:
                lines.append(
                    f"  rebalance: {len(completed)} completed "
                    f"({rebalance.get('cells_moved', 0)} cells moved, "
                    f"{rebalance.get('throttle_hits', 0)} throttle hits, "
                    f"{rebalance.get('aborted', 0)} aborted)"
                )
        rebuilds = self.grid_status.get("rebuilds")
        if rebuilds:
            restored = sum(
                r["cells_from_wal"] + r["cells_from_replicas"]
                for r in rebuilds
            )
            lines.append(
                f"  rebuilds: {len(rebuilds)} node(s), "
                f"{restored} cells restored"
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _label(node: Node) -> str:
    """A compact, human-readable operator label."""
    if isinstance(node, ArrayRef):
        return f"scan {node.name}"
    if isinstance(node, OpNode):
        bits = [node.op]
        for key in ("group_dims", "on", "factors", "attrs", "order", "agg"):
            value = node.option(key)
            if value is not None:
                bits.append(f"{key}={value!r}")
        return " ".join(bits)
    return type(node).__name__


def _profile_from_span(node: Node, sp: Optional[Span]) -> OperatorProfile:
    prof = OperatorProfile(
        op=node.op if isinstance(node, OpNode) else "scan",
        label=_label(node),
    )
    if sp is None:
        return prof
    prof.time_ms = sp.duration_ms
    counters = dict(sp.counters)
    prof.cells_scanned = int(counters.pop("cells_scanned", 0))
    prof.cells_out = int(counters.pop("cells_out", 0))
    prof.chunks_touched = int(
        counters.pop("chunks_touched", 0) + counters.pop("chunks_read", 0)
    )
    prof.bytes_moved = int(counters.pop("bytes_moved", 0))
    prof.cache_hits = int(counters.pop("cache_hits", 0))
    prof.cache_misses = int(counters.pop("cache_misses", 0))
    prof.chunks_pruned = int(counters.pop("chunks_pruned", 0))
    prof.nodes_visited = len(sp.marks.get("nodes", ()))
    prof.distributed = bool(sp.attrs.get("distributed", False))
    parallelism = sp.attrs.get("parallelism")
    prof.parallelism = int(parallelism) if parallelism is not None else None
    prof.error = sp.error
    prof.counters = counters
    return prof


def profile_operators(
    planned: Any,
    span: Span,
    describe_ref: Optional[Callable[[str], dict[str, Any]]] = None,
) -> OperatorProfile:
    """The operator tree of one executed plan, measured and estimated.

    *planned* is the :class:`~repro.query.planner.PlannedQuery` that ran
    and *span* any span its operator spans sit under; they are joined by
    plan-node identity (the executor tags each operator span with
    ``node_id``), as are the planner's physical annotations.
    *describe_ref* (optional) annotates ``scan`` leaves from the catalog
    — e.g. cell counts and grid fan-out for a distributed array.
    """
    index = {
        sp.attrs["node_id"]: sp for sp in span.walk() if "node_id" in sp.attrs
    }

    def profile(node: Node) -> OperatorProfile:
        if isinstance(node, SelectNode):
            return profile(node.expr)
        prof = _profile_from_span(node, index.get(id(node)))
        if isinstance(node, ArrayRef) and describe_ref is not None:
            info = describe_ref(node.name)
            prof.cells_out = int(info.get("cells", prof.cells_out))
            prof.nodes_visited = int(info.get("nodes", prof.nodes_visited))
            prof.distributed = bool(info.get("distributed", prof.distributed))
        phys = planned.physical_for(node)
        if phys is not None:
            prof.est_cells = phys.est_cells
            prof.est_chunks = phys.est_chunks
            prof.est_chunks_pruned = phys.est_chunks_pruned
            prof.est_ms = phys.est_ms
            prof.strategy = phys.strategy
        if isinstance(node, OpNode):
            prof.children = [profile(arg) for arg in node.args]
        return prof

    return profile(planned.node)
