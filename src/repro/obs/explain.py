"""``EXPLAIN ANALYZE``: one executed plan and what running it moved.

An :class:`ExplainReport` is the statement's physical plan
(:class:`~repro.query.planner.PhysicalOp` — the tree the planner built,
the executor ran and each operator's span filled with its actual wall
time, cells scanned, chunks (storage buckets) touched, nodes visited and
bytes moved), plus the movement-ledger delta the query caused — the
per-operator ``bytes_moved`` sums reconcile with that delta by
construction, because every metered transfer lands in whichever operator
span was open.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..query.planner import PhysicalOp

__all__ = ["ExplainReport"]


@dataclass
class ExplainReport:
    """The assembled EXPLAIN ANALYZE output for one statement."""

    statement: str
    rewrites: list[str]
    #: the plan that ran (None for DDL, which has no operators)
    root: Optional[PhysicalOp]
    total_ms: float
    #: movement-ledger byte delta caused by this query, keyed by reason
    ledger_delta: dict[str, int] = field(default_factory=dict)
    #: cells the filter predicates examined (the E2 metric)
    cells_examined: int = 0
    #: elastic-operations context the query ran under: rebalance
    #: progress (cells moved / remaining, throttle hits) and node
    #: rebuilds — empty when the grid is quiescent
    grid_status: dict[str, Any] = field(default_factory=dict)

    def operators(self) -> Iterator[PhysicalOp]:
        return self.root.walk() if self.root is not None else iter(())

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
        if self.root is not None:
            lines.append(self.root.render_measured(1))
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
