"""Trio-style eager item-level lineage (Section 2.12).

"Although one could use Trio as an exemplar, the space cost of recording
item-level derivations is way too high."  This module *is* that exemplar:
as every command executes, an edge is recorded from each output cell to
each contributing input cell.  Backward and forward queries become index
lookups — fast, and enormous.

Experiment E5 puts this design next to log replay and the trace cache to
regenerate the paper's space/time comparison.
"""

from __future__ import annotations

from typing import Sequence

from ..core.array import SciArray
from .log import LoggedCommand
from .trace import Item, backward_rule

__all__ = ["ItemLineageStore"]

#: Wire/back-of-envelope size of one lineage edge: two items of
#: (name pointer + coords), as Trio-style systems store them.
_EDGE_NBYTES = 48


class ItemLineageStore:
    """Eager item-level lineage with forward and backward indexes."""

    def __init__(self) -> None:
        #: output item -> contributing input items
        self._backward: dict[Item, list[Item]] = {}
        #: input item -> derived output items
        self._forward: dict[Item, list[Item]] = {}
        self.edges = 0

    # -- recording (called by ProvenanceEngine on every execute) ----------------

    def record_command(
        self,
        command: LoggedCommand,
        inputs: Sequence[SciArray],
        output: SciArray,
    ) -> int:
        """Record lineage edges for every output cell of *command*."""
        rule = backward_rule(command.op)
        recorded = 0
        for out_coords, _cell in output.cells():
            out_item: Item = (command.output, tuple(out_coords))
            contributors = [
                (name, tuple(coords))
                for name, coords in rule(command, inputs, tuple(out_coords))
            ]
            self._backward.setdefault(out_item, []).extend(contributors)
            for c in contributors:
                self._forward.setdefault(c, []).append(out_item)
            self.edges += len(contributors)
            recorded += len(contributors)
        return recorded

    # -- queries --------------------------------------------------------------------

    def backward(self, item: Item) -> list[Item]:
        """Direct contributors of *item* (one derivation step)."""
        return list(self._backward.get((item[0], tuple(item[1])), []))

    def backward_closure(self, item: Item) -> set[Item]:
        """All transitive contributors."""
        return _closure(self._backward, item)

    def forward(self, item: Item) -> list[Item]:
        """Directly derived items (one step downstream)."""
        return list(self._forward.get((item[0], tuple(item[1])), []))

    def forward_closure(self, item: Item) -> set[Item]:
        """Requirement 2 as a pure index walk: all downstream items."""
        return _closure(self._forward, item)

    # -- accounting ----------------------------------------------------------------

    def space_nbytes(self) -> int:
        """Estimated bytes of stored lineage (the Trio space cost)."""
        return self.edges * _EDGE_NBYTES


def _closure(index: dict[Item, list[Item]], item: Item) -> set[Item]:
    out: set[Item] = set()
    frontier = [(item[0], tuple(item[1]))]
    while frontier:
        for reached in index.get(frontier.pop(), []):
            if reached not in out:
                out.add(reached)
                frontier.append(reached)
    return out
