"""Chunk-skipping statistics: the planner's view of stored data.

Section 2.2.1 observes that structural operators "do not necessarily have
to read the data values to produce a result"; the MS-SQL array engine
(Dobos et al., arXiv:1110.1729) extends the same idea to *value* pruning
by keeping per-region min/max metadata.  This module supplies both halves
for the bucketed store of Section 2.8:

* :class:`BucketStats` — per-bucket min/max/null-count/cell-count per
  attribute, built by the storage manager when a bucket is written (the
  bucket is in memory at exactly that moment, so stats cost no extra I/O)
  plus a packed **occupancy footprint** of the bucket's non-empty cells.
* :class:`Interval` / :func:`attr_intervals` — conservative interval
  analysis over a filter's :class:`~repro.query.ast.PredicateConjunction`.
* :class:`ArrayStats` / :class:`ArrayDescription` — the aggregated view
  the planner's cost model estimates from.

The correctness contract for value pruning is subtle and worth stating:
``filter`` maps a failing cell to NULL, **not** to EMPTY.  A bucket whose
statistics prove no cell can satisfy the predicate therefore cannot simply
be skipped — its occupied coordinates must still surface as NULL cells.
The footprint makes that possible without touching the bucket file: the
scan yields ``(coords, None)`` for each footprint coordinate, and the
downstream filter operator (which never invokes the predicate on a NULL
cell) preserves them as NULL — byte-identical to the unpruned answer.
Missing or invalidated statistics simply degrade to a normal full read:
stale stats can cost speed, never correctness.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

import numpy as np

from .ast import AttrPredicate, PredicateConjunction

__all__ = [
    "Interval",
    "AttrStats",
    "BucketStats",
    "ArrayStats",
    "ArrayDescription",
    "attr_intervals",
    "intersect_ranges",
]

Coords = tuple[int, ...]


@dataclass(frozen=True)
class Interval:
    """A (possibly half-open, possibly unbounded) numeric interval."""

    lo: Optional[float] = None
    hi: Optional[float] = None
    lo_open: bool = False
    hi_open: bool = False

    def intersect(self, other: "Interval") -> "Interval":
        lo, lo_open = self.lo, self.lo_open
        if other.lo is not None and (lo is None or other.lo > lo):
            lo, lo_open = other.lo, other.lo_open
        elif other.lo is not None and other.lo == lo:
            lo_open = lo_open or other.lo_open
        hi, hi_open = self.hi, self.hi_open
        if other.hi is not None and (hi is None or other.hi < hi):
            hi, hi_open = other.hi, other.hi_open
        elif other.hi is not None and other.hi == hi:
            hi_open = hi_open or other.hi_open
        return Interval(lo, hi, lo_open, hi_open)

    @property
    def empty(self) -> bool:
        """No value at all satisfies this interval."""
        if self.lo is None or self.hi is None:
            return False
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and (self.lo_open or self.hi_open)

    def excludes_range(self, vmin: float, vmax: float) -> bool:
        """True when **no** value in ``[vmin, vmax]`` can satisfy this
        interval — the bucket-pruning test.  Conservative by design:
        any doubt (including NaN comparisons) answers False."""
        if self.empty:
            return True
        try:
            if self.lo is not None and (
                vmax < self.lo or (self.lo_open and vmax <= self.lo)
            ):
                return True
            if self.hi is not None and (
                vmin > self.hi or (self.hi_open and vmin >= self.hi)
            ):
                return True
        except TypeError:  # incomparable types: never prune
            return False
        return False

    def __str__(self) -> str:
        lo = "-inf" if self.lo is None else f"{self.lo:g}"
        hi = "+inf" if self.hi is None else f"{self.hi:g}"
        return ("(" if self.lo_open or self.lo is None else "[") + \
            f"{lo}, {hi}" + (")" if self.hi_open or self.hi is None else "]")


def attr_intervals(pred: PredicateConjunction) -> dict[str, Interval]:
    """Per-attribute value intervals implied by a conjunction.

    Only range-shaped terms contribute (``=``, ``<``, ``<=``, ``>``,
    ``>=`` with numeric values); ``!=`` and non-numeric comparisons are
    skipped, which is conservative — the derived interval is a superset
    of the true match set, so pruning against it never drops a match.
    """
    out: dict[str, Interval] = {}
    for term in pred.attr_terms:
        if not isinstance(term, AttrPredicate):
            continue
        b = term.bounds()
        if b is None:
            continue
        lo, hi, lo_open, hi_open = b
        iv = Interval(lo, hi, lo_open, hi_open)
        out[term.attr] = out[term.attr].intersect(iv) if term.attr in out else iv
    return out


def intersect_ranges(
    a: dict[str, Interval], b: dict[str, Interval]
) -> dict[str, Interval]:
    """Conjunction of two per-attribute range maps."""
    out = dict(a)
    for attr, iv in b.items():
        out[attr] = out[attr].intersect(iv) if attr in out else iv
    return out


@dataclass(frozen=True)
class AttrStats:
    """Min/max over one attribute's PRESENT cells in one bucket.

    ``lo is None`` means the bucket holds *no comparable value* for the
    attribute (no PRESENT cells, or every value NaN) — no range predicate
    can match, so such a bucket is always prunable on that attribute.
    """

    lo: Optional[float] = None
    hi: Optional[float] = None
    null_count: int = 0


# Cell-state codes, mirrored from core.cells.CellState to keep this module
# importable without the storage layer (EMPTY=0 is the invariant relied on).
_EMPTY = 0
_PRESENT = 1
_NULL = 2


class BucketStats:
    """Value statistics + occupancy footprint for one on-disk bucket.

    Built from the in-memory :class:`~repro.storage.bucket.Bucket` at
    write time; lives in the storage manager's catalog next to the
    R-tree entry and dies with the bucket file (merge deletion, drop).
    """

    __slots__ = (
        "bucket_id", "origin", "shape", "cell_count", "null_count",
        "attrs", "_footprint", "_occupied",
    )

    def __init__(
        self,
        bucket_id: int,
        origin: Coords,
        shape: tuple[int, ...],
        cell_count: int,
        null_count: int,
        attrs: dict[str, AttrStats],
        footprint: np.ndarray,
    ) -> None:
        self.bucket_id = bucket_id
        self.origin = origin
        self.shape = shape
        self.cell_count = cell_count
        self.null_count = null_count
        self.attrs = attrs
        self._footprint = footprint  # packed bits of (state != EMPTY)
        self._occupied: Optional[np.ndarray] = None  # decoded on first use

    @classmethod
    def from_bucket(cls, bucket: Any, bucket_id: int) -> "BucketStats":
        state = np.asarray(bucket.state)
        occupied = state != _EMPTY
        present = state == _PRESENT
        null_count = int(np.count_nonzero(state == _NULL))
        attrs: dict[str, AttrStats] = {}
        for name, plane in bucket.data.items():
            plane = np.asarray(plane)
            if plane.dtype == object or plane.dtype.kind not in "iufb":
                continue  # no stats: never prunable on this attribute
            vals = plane[present]
            if vals.size == 0:
                attrs[name] = AttrStats(None, None, null_count)
                continue
            if plane.dtype.kind == "f":
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    lo = float(np.nanmin(vals))
                    hi = float(np.nanmax(vals))
                if np.isnan(lo) or np.isnan(hi):  # all-NaN plane
                    attrs[name] = AttrStats(None, None, null_count)
                    continue
                attrs[name] = AttrStats(lo, hi, null_count)
            else:
                attrs[name] = AttrStats(
                    float(vals.min()), float(vals.max()), null_count
                )
        return cls(
            bucket_id,
            tuple(int(c) for c in bucket.origin),
            tuple(int(s) for s in bucket.shape),
            int(np.count_nonzero(occupied)),
            null_count,
            attrs,
            np.packbits(occupied.ravel()),
        )

    def can_match(self, ranges: dict[str, Interval]) -> bool:
        """Could *any* cell of this bucket satisfy every range?

        Conservative: an attribute without statistics (object dtype,
        unknown name) cannot disprove a match.  An attribute whose stats
        say "no comparable value" (``lo is None``) *can*: range
        predicates are comparisons, and no cell here can pass one.
        """
        for attr, iv in ranges.items():
            st = self.attrs.get(attr)
            if st is None:
                continue
            if st.lo is None or st.hi is None:
                return False
            if iv.excludes_range(st.lo, st.hi):
                return False
        return True

    def occupied(self) -> np.ndarray:
        """The bucket's non-empty cells as a bool plane over its box,
        decoded from the packed footprint once and kept, read-only, for as
        long as these statistics live — the NULL cells a value-pruned read
        must still return."""
        if self._occupied is None:
            bits = np.unpackbits(self._footprint, count=int(np.prod(self.shape)))
            plane = bits.reshape(self.shape) > 0
            plane.flags.writeable = False  # before another reader can see it
            self._occupied = plane
        return self._occupied

    @property
    def box(self) -> tuple[Coords, Coords]:
        hi = tuple(o + s - 1 for o, s in zip(self.origin, self.shape))
        return self.origin, hi

    def __repr__(self) -> str:
        return (
            f"<BucketStats #{self.bucket_id} origin={self.origin} "
            f"{self.cell_count} cells ({self.null_count} null), "
            f"{len(self.attrs)} attr ranges>"
        )


@dataclass
class ArrayStats:
    """Aggregated bucket statistics for one persistent array (or the
    merged view across one distributed array's partitions)."""

    buckets: list[BucketStats] = field(default_factory=list)
    buffered_cells: int = 0

    @property
    def cell_count(self) -> int:
        return sum(b.cell_count for b in self.buckets) + self.buffered_cells

    @property
    def chunk_count(self) -> int:
        return len(self.buckets)

    def estimate_match(
        self, ranges: dict[str, Interval]
    ) -> tuple[int, int, int]:
        """``(matching_cells, matching_chunks, pruned_chunks)`` estimate.

        Buffered (not-yet-spilled) cells have no statistics and are
        counted as potentially matching.
        """
        cells = self.buffered_cells
        chunks = 0
        pruned = 0
        for b in self.buckets:
            if b.can_match(ranges):
                chunks += 1
                cells += b.cell_count
            else:
                pruned += 1
        return cells, chunks, pruned

    @staticmethod
    def merged(parts: Iterable["ArrayStats"]) -> "ArrayStats":
        out = ArrayStats()
        for part in parts:
            out.buckets.extend(part.buckets)
            out.buffered_cells += part.buffered_cells
        return out


@dataclass
class ArrayDescription:
    """What the planner knows about one catalog array.

    The executor builds one per array reference of a statement (its
    catalog maps names to live arrays); the planner routes and estimates
    from it.  What a route needs — ``kind``, ``dims``, ``grid_id``,
    ``partitioner`` (:meth:`~repro.cluster.partitioning.Partitioner.descriptor`)
    and the ``schema`` grouped operators' arguments are checked on — is
    read straight off the array; the estimates are best-effort.
    ``cells``/``chunks`` for a replicated distributed array are
    normalized to *logical* counts (stored totals divided by the replica
    factor), which is what one exactly-once read touches.
    """

    name: str
    kind: str  # "local" | "distributed"
    cells: Optional[int] = None  # None: no statistics were to be had
    chunks: Optional[int] = None
    nodes: int = 1
    replication: int = 1
    grid_id: Optional[int] = None
    partitioner: Any = None
    dims: tuple[tuple[str, Optional[int]], ...] = ()
    stats: Optional[ArrayStats] = None
    schema: Any = None

    @property
    def distributed(self) -> bool:
        return self.kind == "distributed"
