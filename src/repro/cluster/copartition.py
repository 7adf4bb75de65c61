"""Co-partitioning of arrays sharing a coordinate system (Section 2.7).

"One research problem we plan to consider is the co-partitioning of
multiple arrays with a common co-ordinate system.  Such arrays would all be
partitioned the same way, so that comparison operations including joins do
not require data movement."

:func:`copartition` creates a family of distributed arrays under one
partitioner after checking they genuinely share a coordinate system
(same dimension count; compatible bounds).  :func:`is_copartitioned` is the
predicate the join planner (:func:`repro.query.cost.grid_route`) and the
grid join itself use to take the zero-shuffle path — experiment E7
measures the difference.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Sequence

from ..core.errors import PartitioningError
from ..core.schema import ArraySchema
from .partitioning import Partitioner

if TYPE_CHECKING:  # pragma: no cover - the grid's operators import this module
    from .grid import DistributedArray, Grid

__all__ = ["copartition", "is_copartitioned"]


def _common_coordinate_system(schemas: Sequence[ArraySchema]) -> None:
    first = schemas[0]
    for other in schemas[1:]:
        if other.ndim != first.ndim:
            raise PartitioningError(
                f"arrays {first.name!r} and {other.name!r} have different "
                "dimension counts; they do not share a coordinate system"
            )
        for d1, d2 in zip(first.dimensions, other.dimensions):
            if d1.size is not None and d2.size is not None and d1.size != d2.size:
                raise PartitioningError(
                    f"dimension {d1.name!r}={d1.size} vs {d2.name!r}={d2.size}: "
                    "bounds differ; not a common coordinate system"
                )


def copartition(
    grid: Grid,
    schemas: Sequence[tuple[str, ArraySchema]],
    partitioner: Partitioner,
    stride: Optional[Sequence[int]] = None,
    replication: Optional[int] = None,
    placement: Optional[object] = None,
) -> list[DistributedArray]:
    """Create several distributed arrays under one shared partitioner.

    All schemas must share a coordinate system (dimension count and
    compatible bounds); the returned arrays satisfy
    :func:`is_copartitioned` pairwise, so grid joins between them move no
    data.  ``replication``/``placement`` apply to every member — a family
    replicated together fails over together, keeping joins shuffle-free
    even after a node loss.
    """
    if not schemas:
        raise PartitioningError("copartition needs at least one array")
    _common_coordinate_system([s for _, s in schemas])
    return [
        grid.create_array(name, schema, partitioner, stride=stride,
                          replication=replication, placement=placement)
        for name, schema in schemas
    ]


def is_copartitioned(a: Any, b: Any) -> bool:
    """Whether joins between *a* and *b* can run with zero data movement.

    True when both live on the same grid under structurally equal
    partitioners (see :meth:`Partitioner.descriptor`).  *a* and *b* are
    grid arrays or the planner's descriptions of them — anything with a
    ``grid_id`` and a ``partitioner`` (the object or its descriptor).
    """
    return a.grid_id == b.grid_id and a.partitioner == b.partitioner
