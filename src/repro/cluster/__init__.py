"""Shared-nothing grid orientation (Section 2.7).

LSST-scale data "must run on a grid (cloud) of shared-nothing computers";
the open design questions the paper lists — which partitioning scheme, how
to change it over time, how to co-partition arrays sharing a coordinate
system so joins need no data movement, and how to auto-design partitionings
from a sample workload — are all implemented here against a *simulated*
cluster: in-process :class:`~repro.cluster.node.Node` objects, each with
its own storage manager, connected by an explicitly metered message fabric
(:class:`~repro.cluster.grid.DataMovementLedger`).

The simulation substitutes for physical distribution (see DESIGN.md §2):
every design question above is a question about data *placement and
movement*, which the ledger accounts exactly and deterministically.

At grid scale node failure is the common case, so the cluster layer also
carries a fault-tolerance stack: a deterministic, thread-safe
:class:`~repro.cluster.faults.FaultInjector`, k-way chunk replication
(:mod:`~repro.cluster.replication`), a resilience layer
(:mod:`~repro.cluster.resilience`) of retry policies with capped seeded
backoff, query deadlines, per-node circuit breakers and hedged replica
reads, degraded-mode partial results, and WAL-driven node rebuild
(:meth:`~repro.cluster.grid.Grid.rebuild_node`).  Cluster failures raise
the :class:`~repro.core.errors.GridError` family re-exported here.
"""

from ..core.errors import (
    GridError,
    NodeFailedError,
    QuorumError,
    ReplicationError,
)
from .node import Node
from .partitioning import (
    BlockCyclicPartitioner,
    BlockPartitioner,
    ConsistentHashPartitioner,
    HashPartitioner,
    HashRing,
    Partitioner,
    RangePartitioner,
    TimeEpochPartitioner,
    is_copartitioned,
)
from .faults import FaultEvent, FaultInjector, FailoverEvent
from .resilience import (
    BreakerConfig,
    CircuitBreaker,
    Deadline,
    DeadlineExceededError,
    HedgePolicy,
    ResiliencePolicy,
    RetryPolicy,
    check_deadline,
    current_deadline,
    deadline_scope,
)
from .replication import (
    ChainedDeclusteringPlacement,
    CoverageReport,
    DegradedResult,
    RebuildReport,
    ReplicaPlacement,
    ScatterPlacement,
)
from .grid import DataMovementLedger, DistributedArray, Grid
from .rebalance import Migration, RebalanceReport, Rebalancer
from .scheduler import PartitionScheduler, default_parallelism
from .designer import (
    AutomaticDesigner,
    DesignCandidate,
    RebalanceAdvisor,
    WorkloadQuery,
)

__all__ = [
    "Node",
    "Partitioner",
    "HashPartitioner",
    "RangePartitioner",
    "BlockPartitioner",
    "BlockCyclicPartitioner",
    "TimeEpochPartitioner",
    "ConsistentHashPartitioner",
    "HashRing",
    "Grid",
    "DistributedArray",
    "DataMovementLedger",
    "PartitionScheduler",
    "default_parallelism",
    "is_copartitioned",
    "AutomaticDesigner",
    "WorkloadQuery",
    "DesignCandidate",
    "RebalanceAdvisor",
    # elastic rebalancing
    "Rebalancer",
    "RebalanceReport",
    "Migration",
    # fault tolerance & replication
    "GridError",
    "NodeFailedError",
    "QuorumError",
    "ReplicationError",
    "FaultInjector",
    "FaultEvent",
    "FailoverEvent",
    "ReplicaPlacement",
    "ChainedDeclusteringPlacement",
    "ScatterPlacement",
    "CoverageReport",
    "DegradedResult",
    "RebuildReport",
    # resilience: retries, deadlines, breakers, hedged reads
    "ResiliencePolicy",
    "RetryPolicy",
    "Deadline",
    "DeadlineExceededError",
    "deadline_scope",
    "current_deadline",
    "check_deadline",
    "BreakerConfig",
    "CircuitBreaker",
    "HedgePolicy",
]
