"""k-way chunk replication for the shared-nothing grid (Section 2.7).

At LSST/LHC scale "the system will be sufficiently large that there will
always be broken nodes" (Becla et al., *Designing a Multi-petabyte
Database for LSST*) — so every logical partition is stored on ``k``
distinct sites chosen by a :class:`ReplicaPlacement` policy.  The first
site in a chain is the partition's *primary*; the rest are failover
targets that queries fall back to when the primary is dead, and rebuild
sources when it comes back.

Two policies:

* :class:`ChainedDeclusteringPlacement` — the Gamma-lineage classic:
  replica *i* of partition *p* lives on site ``(p + i*offset) % n``.
  Neighbouring sites back each other up, so a single failure shifts load
  onto exactly one survivor.
* :class:`ScatterPlacement` — replicas spread pseudo-randomly (seeded,
  deterministic) across the whole grid, so rebuild traffic after a
  failure is drawn from many sites instead of one.

The extra write traffic replication causes is metered in the grid's
:class:`~repro.cluster.grid.DataMovementLedger` under the
``"replication"`` reason; ``tests/cluster/test_replication.py`` pins the
k-fold overhead and ``tests/cluster/test_faults.py`` the availability it
buys (EXPERIMENTS.md, E15).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.errors import ReplicationError

if TYPE_CHECKING:
    from ..core.array import SciArray

__all__ = [
    "ReplicaPlacement",
    "ChainedDeclusteringPlacement",
    "ScatterPlacement",
    "CoverageReport",
    "DegradedResult",
    "RebuildReport",
]


class ReplicaPlacement:
    """Policy mapping a primary site to its ordered replica chain."""

    def chain(self, primary: int, n_sites: int, k: int) -> tuple[int, ...]:
        """``k`` distinct sites for a partition whose primary is *primary*.

        The primary is always first; failover walks the chain in order.
        """
        raise NotImplementedError

    def _check(self, primary: int, n_sites: int, k: int) -> None:
        if not 1 <= k <= n_sites:
            raise ReplicationError(
                f"replication factor {k} needs 1 <= k <= {n_sites} sites"
            )
        if not 0 <= primary < n_sites:
            raise ReplicationError(
                f"primary site {primary} outside grid of {n_sites}"
            )


class ChainedDeclusteringPlacement(ReplicaPlacement):
    """Replica *i* of partition *p* lives on ``(p + i*offset) % n``."""

    def __init__(self, offset: int = 1) -> None:
        if offset < 1:
            raise ReplicationError("chain offset must be >= 1")
        self.offset = offset

    def chain(self, primary: int, n_sites: int, k: int) -> tuple[int, ...]:
        self._check(primary, n_sites, k)
        sites: list[int] = []
        s = primary
        for _ in range(n_sites):
            if s not in sites:
                sites.append(s)
                if len(sites) == k:
                    return tuple(sites)
            s = (s + self.offset) % n_sites
        raise ReplicationError(
            f"offset {self.offset} cannot reach {k} distinct sites "
            f"on a {n_sites}-site grid"
        )

    def __repr__(self) -> str:
        return f"<ChainedDeclusteringPlacement offset={self.offset}>"


class ScatterPlacement(ReplicaPlacement):
    """Replicas scattered by a seeded hash of (salt, partition, site).

    Deterministic across processes (crc32, not Python's salted hash).
    """

    def __init__(self, salt: int = 0) -> None:
        self.salt = salt

    def chain(self, primary: int, n_sites: int, k: int) -> tuple[int, ...]:
        self._check(primary, n_sites, k)
        others = sorted(
            (s for s in range(n_sites) if s != primary),
            key=lambda s: zlib.crc32(f"{self.salt}:{primary}:{s}".encode()),
        )
        return (primary, *others[: k - 1])

    def __repr__(self) -> str:
        return f"<ScatterPlacement salt={self.salt}>"


@dataclass(frozen=True)
class CoverageReport:
    """Which logical partitions a degraded query actually served.

    ``missing`` lists ``(array_name, partition)`` pairs for which every
    replica was dead after bounded retries.
    """

    total_partitions: int
    missing: tuple[tuple[str, int], ...] = ()

    @property
    def served_partitions(self) -> int:
        return self.total_partitions - len(self.missing)

    @property
    def fraction(self) -> float:
        if self.total_partitions == 0:
            return 1.0
        return self.served_partitions / self.total_partitions

    @property
    def complete(self) -> bool:
        return not self.missing

    def __str__(self) -> str:
        if self.complete:
            return f"coverage {self.served_partitions}/{self.total_partitions}"
        lost = ", ".join(f"{a}[{p}]" for a, p in self.missing)
        return (
            f"coverage {self.served_partitions}/{self.total_partitions} "
            f"(lost: {lost})"
        )


@dataclass(frozen=True)
class DegradedResult:
    """A partial query answer plus the coverage it achieved.

    Returned by grid queries called with ``degraded=True`` instead of
    raising :class:`~repro.core.errors.QuorumError` when partitions have
    lost every replica.
    """

    array: "SciArray"
    coverage: CoverageReport


@dataclass(frozen=True)
class RebuildReport:
    """Accounting for one node rebuild after a crash."""

    node_id: int
    cells_from_wal: int
    cells_from_replicas: int
    bytes_moved: int
    #: checkpointed-load cursors restored from WAL ``load_commit`` records,
    #: so a resumed ingest can keep skipping batches this node committed
    #: before it crashed
    load_cursors_restored: int = 0
