"""The grid's movement ledger (Section 2.7).

Every byte that crosses a node boundary — load routing, repartitioning,
join shuffles, aggregate partials, result gathers, uncertainty
replication — is recorded with a reason, so the partitioning experiments
(E6/E7) report exact, deterministic movement instead of noisy wall-clock
proxies.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Optional

from ..core.schema import ArraySchema
from ..obs import tracing

__all__ = ["COORDINATOR", "Transfer", "DataMovementLedger"]

#: Coordinator pseudo-site in ledger entries.
COORDINATOR = -1


@dataclass(frozen=True)
class Transfer:
    """One metered inter-node transfer."""

    src: int
    dst: int
    nbytes: int
    reason: str


class DataMovementLedger:
    """Append-only record of all inter-node traffic.

    Besides delivered transfers, the ledger tracks *dropped* ones —
    deliveries addressed to a dead node or eaten by the fault injector —
    so injected faults stay observable in the same accounting that the
    partitioning experiments use.
    """

    def __init__(self) -> None:
        self.transfers: list[Transfer] = []
        self.dropped: list[Transfer] = []
        #: Optional hook called with each recorded Transfer (the fault
        #: injector's simulated clock ticks here).
        self.on_record: Optional[Callable[[Transfer], None]] = None
        # Scheduler workers meter gathers concurrently; the log append and
        # the injector tick must stay one atomic step so fault ordering is
        # a function of the transfer sequence, not thread interleaving.
        self._lock = threading.Lock()

    def record(self, src: int, dst: int, nbytes: int, reason: str,
               count: int = 1) -> None:
        """Append *count* transfers of *nbytes*, ticking the hook per one."""
        if src == dst or count < 1:
            return  # local work is free by definition of shared-nothing
        transfer = Transfer(src, dst, nbytes, reason)
        with self._lock:
            for _ in range(count):
                self.transfers.append(transfer)
                if self.on_record is not None:
                    self.on_record(transfer)
        # Whatever operator span is open absorbs this movement, so
        # per-operator bytes_moved reconciles with the ledger delta by
        # construction.
        tracing.add_current_pair("bytes_moved", nbytes * count, "transfers", count)

    def record_dropped(self, src: int, dst: int, nbytes: int, reason: str) -> None:
        with self._lock:
            self.dropped.append(Transfer(src, dst, nbytes, reason))
        tracing.add_current("bytes_dropped", nbytes)

    def total_bytes(self, reason: Optional[str] = None) -> int:
        return sum(
            t.nbytes for t in self.transfers if reason is None or t.reason == reason
        )

    def dropped_bytes(self, reason: Optional[str] = None) -> int:
        return sum(
            t.nbytes for t in self.dropped if reason is None or t.reason == reason
        )

    def by_reason(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for t in self.transfers:
            out[t.reason] = out.get(t.reason, 0) + t.nbytes
        return out

    def reset(self) -> None:
        self.transfers.clear()
        self.dropped.clear()


def _cell_nbytes(schema: ArraySchema) -> int:
    """Wire-size estimate of one cell: coords + attribute payload."""
    size = 8 * schema.ndim
    for a in schema.attributes:
        if a.is_native:
            size += a.type.numpy_dtype.itemsize
        else:
            size += 32
    return size
