"""Partitioning schemes for distributing arrays across nodes (Section 2.7).

Gamma-style hash and range partitioning, the fixed spatial (block) scheme
that "will probably work well" for full-sky surveys and satellite imagery,
block-cyclic placement, and the paper's answer to steerable (skewed)
science: :class:`TimeEpochPartitioner`, where "a first partitioning scheme
is used for time less than T and a second partitioning scheme for
time > T".

A partitioner is a pure function from cell coordinates to a site id in
``range(n_sites)``; equality of partitioners is structural, which is what
lets the grid detect co-partitioned arrays (joins without movement):
"such arrays would all be partitioned the same way, so that comparison
operations including joins do not require data movement".
"""

from __future__ import annotations

import bisect
import functools
import itertools
import struct
import threading
import zlib
from typing import Any, Optional, Sequence

import numpy as np

from ..core.errors import PartitioningError

__all__ = [
    "Partitioner",
    "HashPartitioner",
    "RangePartitioner",
    "BlockPartitioner",
    "BlockCyclicPartitioner",
    "TimeEpochPartitioner",
    "HashRing",
    "ConsistentHashPartitioner",
    "is_copartitioned",
]

Coords = tuple[int, ...]


class Partitioner:
    """Base class: maps cell coordinates to one of ``n_sites`` sites."""

    #: What the planes :meth:`site_planes` keeps may hold in all: past it
    #: the oldest boxes go first.
    PLANE_CACHE_BYTES = 4 << 20

    def __init__(self, n_sites: int) -> None:
        if n_sites < 1:
            raise PartitioningError("a grid needs at least one site")
        self.n_sites = n_sites
        self._planes: dict[tuple[Coords, Coords], np.ndarray] = {}
        self._plane_bytes = 0
        self._plane_lock = threading.Lock()

    def site_of(self, coords: Coords) -> int:
        raise NotImplementedError

    def site_planes(self, blocks: Sequence[Any]) -> list[np.ndarray]:
        """Each block's (:class:`~repro.core.array.Chunk`) plane of
        :meth:`site_of` values over its whole box: what the grid's read
        path masks blocks with.  A site is a pure function of a cell, so
        the planes are read-only and kept per box ``(origin, shape)`` for
        this partitioner's lifetime, within :attr:`PLANE_CACHE_BYTES`."""
        boxes = [(tuple(b.origin), tuple(b.shape)) for b in blocks]
        # Missing boxes are computed under the lock: two readers of one box
        # compute it once.
        with self._plane_lock:
            known = {box: self._planes.get(box) for box in boxes}
            todo = [box for box, plane in known.items() if plane is None]
            for box, plane in zip(todo, self._box_planes(todo)):
                plane.flags.writeable = False
                known[box] = self._planes[box] = plane
                self._plane_bytes += plane.nbytes
                while self._plane_bytes > self.PLANE_CACHE_BYTES:
                    self._plane_bytes -= self._planes.pop(next(iter(self._planes))).nbytes
        return [known[box] for box in boxes]

    def _box_planes(self, boxes: Sequence[tuple[Coords, Coords]]) -> list[np.ndarray]:
        """:meth:`site_of` at every cell of each ``(origin, shape)`` box;
        a scheme with a vectorised form overrides this."""
        return [
            np.array(
                [self.site_of(c) for c in itertools.product(
                    *(range(o, o + n) for o, n in zip(origin, shape))
                )], dtype=np.int64,
            ).reshape(shape)
            for origin, shape in boxes
        ]

    def sites(self) -> tuple[int, ...]:
        """Site ids this partitioner can route cells to.

        For the classic schemes that is every site; membership-aware
        schemes (the consistent-hash ring) return only current members,
        so read paths can skip partitions that are empty by construction
        — a drained node's partition must not count against coverage.
        """
        return tuple(range(self.n_sites))

    def descriptor(self) -> tuple:
        """Structural identity; equal descriptors => co-partitioned."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Partitioner) and self.descriptor() == other.descriptor()
        )

    def __hash__(self) -> int:
        return hash(self.descriptor())

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.descriptor()!r}>"


def is_copartitioned(a: Any, b: Any, on: Optional[Sequence[tuple[str, str]]] = None) -> bool:
    """Whether joins between *a* and *b* — grid arrays or the planner's
    descriptions of them, anything with a ``grid_id`` and a
    ``partitioner`` — run with zero data movement: one grid, structurally
    equal partitioners (see :meth:`Partitioner.descriptor`), and *on*
    (``None``: by position) pairing each dimension with the one at its position."""
    names = [x.schema.dim_names if x.schema else [n for n, _ in x.dims] for x in (a, b)]
    in_order = on is None or tuple(dict(on).get(n) for n in names[0]) == tuple(names[1])
    return in_order and a.grid_id == b.grid_id and a.partitioner == b.partitioner


class HashPartitioner(Partitioner):
    """Gamma-style hash partitioning on a subset of dimensions.

    ``dims`` are 0-based dimension positions; ``None`` hashes all of them.
    Deterministic across processes (crc32, not Python's salted hash).
    """

    def __init__(self, n_sites: int, dims: Optional[Sequence[int]] = None) -> None:
        super().__init__(n_sites)
        self.dims = tuple(dims) if dims is not None else None

    def site_of(self, coords: Coords) -> int:
        key = coords if self.dims is None else tuple(coords[d] for d in self.dims)
        # Packed little-endian int64s, not a per-cell string join: same
        # process-stable crc32 digest family, a fraction of the cost on
        # this per-cell hot path.  Placements are pinned by a golden-value
        # test so on-grid data and WAL replay stay routable across
        # releases.
        payload = struct.pack(f"<{len(key)}q", *key)
        return zlib.crc32(payload) % self.n_sites

    def _box_planes(self, boxes: Sequence[tuple[Coords, Coords]]) -> list[np.ndarray]:
        # crc32 is affine over GF(2): a digest is the zero payload's XOR, per
        # key coordinate, the change that coordinate alone makes.  So a box's
        # digests are the XOR-outer of one vector per axis: one zlib call per
        # distinct coordinate, not per cell.
        ndim = len(boxes[0][0]) if boxes else 0
        key = range(ndim) if self.dims is None else self.dims
        zero = zlib.crc32(bytes(8 * len(key)))
        axes = []
        for d in range(ndim):
            sizes = [shape[d] for _, shape in boxes]
            distinct, at = np.unique(np.concatenate(
                [np.arange(o[d], o[d] + n) for (o, _), n in zip(boxes, sizes)]
            ), return_inverse=True)
            terms = np.full(len(distinct), zero if d == 0 else 0, dtype=np.uint32)
            for j in (j for j, kd in enumerate(key) if kd == d):
                alone = [0] * len(key)
                for i, v in enumerate(distinct.tolist()):
                    alone[j] = v
                    terms[i] ^= zlib.crc32(struct.pack(f"<{len(key)}q", *alone)) ^ zero
            axes.append((terms[at], np.cumsum([0] + sizes).tolist()))
        return [
            functools.reduce(np.bitwise_xor.outer, [
                terms[offsets[i]:offsets[i] + n]
                for (terms, offsets), n in zip(axes, shape)
            ]) % self.n_sites
            for i, (_, shape) in enumerate(boxes)
        ]

    def descriptor(self) -> tuple:
        return ("hash", self.n_sites, self.dims)


class RangePartitioner(Partitioner):
    """Gamma-style range partitioning on one dimension.

    ``boundaries`` are the inclusive upper edges of the first
    ``len(boundaries)`` sites; coordinates beyond the last boundary go to
    the final site.  ``RangePartitioner(3, dim=0, boundaries=[100, 200])``
    sends x<=100 to site 0, x<=200 to site 1, the rest to site 2.
    """

    def __init__(self, n_sites: int, dim: int, boundaries: Sequence[int]) -> None:
        super().__init__(n_sites)
        if len(boundaries) != n_sites - 1:
            raise PartitioningError(
                f"{n_sites} sites need {n_sites - 1} boundaries, "
                f"got {len(boundaries)}"
            )
        if any(b >= a for b, a in zip(boundaries, boundaries[1:])):
            # Strictly ascending: a duplicate boundary ([100, 100]) would
            # create a site whose range is empty by construction — it can
            # never receive a cell, permanently skewing placement and the
            # imbalance metric.
            raise PartitioningError(
                "range boundaries must be strictly ascending, got "
                f"{list(boundaries)}"
            )
        self.dim = dim
        self.boundaries = tuple(boundaries)

    def site_of(self, coords: Coords) -> int:
        value = coords[self.dim]
        for i, edge in enumerate(self.boundaries):
            if value <= edge:
                return i
        return self.n_sites - 1

    def descriptor(self) -> tuple:
        return ("range", self.n_sites, self.dim, self.boundaries)


class BlockPartitioner(Partitioner):
    """Fixed spatial partitioning: the coordinate space is cut into a grid
    of equal blocks assigned to sites in row-major round-robin order.

    This is the scheme that "will probably work well" for periodic full-sky
    or full-earth scans — and the one experiment E6 shows failing on
    steerable hotspots.

    ``bounds`` is the coordinate-space extent per dimension; ``blocks`` the
    number of cuts per dimension.
    """

    def __init__(
        self, n_sites: int, bounds: Sequence[int], blocks: Sequence[int]
    ) -> None:
        super().__init__(n_sites)
        if len(bounds) != len(blocks):
            raise PartitioningError("bounds and blocks must align")
        if any(b < 1 for b in bounds) or any(k < 1 for k in blocks):
            raise PartitioningError("bounds and blocks must be positive")
        self.bounds = tuple(int(b) for b in bounds)
        self.blocks = tuple(int(k) for k in blocks)
        self.block_side = tuple(
            -(-b // k) for b, k in zip(self.bounds, self.blocks)
        )  # ceil division

    def block_of(self, coords: Coords) -> tuple[int, ...]:
        return tuple(
            min((c - 1) // s, k - 1)
            for c, s, k in zip(coords, self.block_side, self.blocks)
        )

    def site_of(self, coords: Coords) -> int:
        block = self.block_of(coords)
        flat = 0
        for b, k in zip(block, self.blocks):
            flat = flat * k + b
        return flat % self.n_sites

    def descriptor(self) -> tuple:
        return ("block", self.n_sites, self.bounds, self.blocks)


class BlockCyclicPartitioner(Partitioner):
    """Blocks of fixed side dealt to sites cyclically by hashed block id.

    Spreads spatial hotspots across sites while preserving within-block
    locality — the middle ground between block and hash.
    """

    def __init__(self, n_sites: int, block_side: Sequence[int]) -> None:
        super().__init__(n_sites)
        if any(s < 1 for s in block_side):
            raise PartitioningError("block sides must be positive")
        self.block_side = tuple(int(s) for s in block_side)

    def site_of(self, coords: Coords) -> int:
        block = tuple((c - 1) // s for c, s in zip(coords, self.block_side))
        payload = ",".join(str(b) for b in block).encode()
        return zlib.crc32(payload) % self.n_sites

    def descriptor(self) -> tuple:
        return ("block_cyclic", self.n_sites, self.block_side)


class TimeEpochPartitioner(Partitioner):
    """Partitioning that changes over time (the paper's dynamic scheme).

    ``epochs`` is a list of ``(threshold, partitioner)`` pairs plus a final
    partitioner: coordinates whose ``time_dim`` value is <= the first
    threshold use the first scheme, and so on; beyond the last threshold the
    final scheme applies.  The paper's two-scheme case is
    ``TimeEpochPartitioner(n, time_dim, [(T, scheme_a)], scheme_b)``.
    """

    def __init__(
        self,
        n_sites: int,
        time_dim: int,
        epochs: Sequence[tuple[int, Partitioner]],
        final: Partitioner,
    ) -> None:
        super().__init__(n_sites)
        thresholds = [t for t, _ in epochs]
        if thresholds != sorted(thresholds):
            raise PartitioningError("epoch thresholds must be ascending")
        for _, p in list(epochs) + [(None, final)]:
            if p.n_sites != n_sites:
                raise PartitioningError(
                    "every epoch's partitioner must target the same site count"
                )
        self.time_dim = time_dim
        self.epochs = tuple(epochs)
        self.final = final

    def scheme_for(self, coords: Coords) -> Partitioner:
        t = coords[self.time_dim]
        for threshold, scheme in self.epochs:
            if t <= threshold:
                return scheme
        return self.final

    def site_of(self, coords: Coords) -> int:
        return self.scheme_for(coords).site_of(coords)

    def descriptor(self) -> tuple:
        return (
            "time_epoch",
            self.n_sites,
            self.time_dim,
            tuple((t, p.descriptor()) for t, p in self.epochs),
            self.final.descriptor(),
        )


_MASK64 = (1 << 64) - 1
#: domain separators so member-position and cell-key hash streams never mix
_RING_TAG = 0x52494E47  # "RING"
_CELL_TAG = 0x43454C4C  # "CELL"


def _mix64(x: int) -> int:
    """splitmix64's finalizer: a fast, well-mixed 64-bit permutation."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class HashRing:
    """A consistent-hash ring over integer member ids (Karger-style).

    Each member owns ``vnodes`` points on a 32-bit ring.  A key is
    routed to the member owning the first point at or clockwise-after
    the key's own hash.  Adding or removing one member therefore only
    reassigns the arcs adjacent to that member's points: an expected
    ``1/(N+1)`` of keys move on growth, which is the whole reason
    elastic rebalancing (cluster/rebalance.py) can be cheap.

    Positions come from a splitmix64 finalizer, **not** crc32: crc32 is
    linear over GF(2), so the vnode positions of member ``a ^ b`` are
    correlated with those of members ``a`` and ``b`` — a new member
    would steal arcs lopsidedly from the members its id shares bits
    with, silently breaking the 1/(N+1) movement bound.  The multiply-
    xorshift mixer has no such structure (process-stable, deterministic
    across runs, like every digest this repo uses for placement).

    Position collisions between vnodes are broken by (position, member)
    sort order, so the layout is a pure function of the member set.
    """

    def __init__(
        self, members: Sequence[int], vnodes: int = 96, seed: int = 0
    ) -> None:
        if not members:
            raise PartitioningError("a hash ring needs at least one member")
        if len(set(members)) != len(members):
            raise PartitioningError("ring members must be unique")
        if vnodes < 1:
            raise PartitioningError("vnodes must be positive")
        self.members = tuple(sorted(int(m) for m in members))
        self.vnodes = int(vnodes)
        self.seed = int(seed)
        points: list[tuple[int, int]] = []
        for m in self.members:
            base = _mix64(_mix64(self.seed ^ _RING_TAG) ^ m)
            for i in range(self.vnodes):
                pos = _mix64(base ^ i) & 0xFFFFFFFF
                points.append((pos, m))
        points.sort()
        self._positions = [p for p, _ in points]
        self._owners = [m for _, m in points]
        self._points = np.array(self._positions, dtype=np.uint64), np.array(self._owners)

    def owner_of(self, point: int) -> int:
        """The member owning ring position ``point`` (first vnode at or
        clockwise-after it, wrapping at 2**32)."""
        idx = bisect.bisect_left(self._positions, point & 0xFFFFFFFF)
        if idx == len(self._positions):
            idx = 0
        return self._owners[idx]

    def with_member(self, member: int) -> "HashRing":
        if member in self.members:
            raise PartitioningError(f"member {member} is already on the ring")
        return HashRing(self.members + (member,), self.vnodes, self.seed)

    def without_member(self, member: int) -> "HashRing":
        if member not in self.members:
            raise PartitioningError(f"member {member} is not on the ring")
        remaining = tuple(m for m in self.members if m != member)
        return HashRing(remaining, self.vnodes, self.seed)

    def descriptor(self) -> tuple:
        return ("ring", self.members, self.vnodes, self.seed)


class ConsistentHashPartitioner(Partitioner):
    """Hash partitioning over a consistent-hash ring of member sites.

    Unlike :class:`HashPartitioner` — where growing ``n_sites`` reshuffles
    nearly every cell — moving between two rings that differ by one
    member relocates only ~``1/(N+1)`` of cells, making
    ``Grid.add_node`` / ``drain_node`` incremental operations instead of
    full repartitions.

    ``n_sites`` stays equal to the *grid* size (every site id the grid
    knows, including drained ones), preserving the invariant that
    ``site_of`` returns ids in ``range(n_sites)``; the ring's member set
    is the subset that actually receives cells.  :meth:`sites` exposes
    that subset so scans skip structurally-empty partitions.

    Replica chains are member-aware too: :meth:`chain_sites` applies
    chained declustering *over the sorted member list*, never placing a
    replica on a drained or retired site.  Keeping the chain a function
    of the member set (not of ``n_sites``) is what bounds movement when
    membership changes — see DESIGN.md's placement invariants.
    """

    def __init__(
        self,
        n_sites: int,
        members: Optional[Sequence[int]] = None,
        vnodes: int = 96,
        dims: Optional[Sequence[int]] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(n_sites)
        ring = HashRing(
            members if members is not None else range(n_sites), vnodes, seed
        )
        if ring.members[-1] >= n_sites or ring.members[0] < 0:
            raise PartitioningError(
                f"ring members {ring.members} fall outside range({n_sites})"
            )
        self.ring = ring
        self.dims = tuple(dims) if dims is not None else None

    @property
    def members(self) -> tuple[int, ...]:
        return self.ring.members

    def site_of(self, coords: Coords) -> int:
        key = coords if self.dims is None else tuple(coords[d] for d in self.dims)
        # A distinct tag keeps cell hashes off the vnode positions' hash
        # stream, so keys don't pile up on vnode points.
        h = _mix64(self.ring.seed ^ _CELL_TAG)
        for c in key:
            h = _mix64(h ^ (c & _MASK64))
        return self.ring.owner_of(h & 0xFFFFFFFF)

    def _box_planes(self, boxes: Sequence[tuple[Coords, Coords]]) -> list[np.ndarray]:
        # site_of's hash chain over uint64 planes (its mixer wraps the same
        # way): each key axis mixes in as a vector broadcast along it, and
        # a sorted search of the ring's points stands in for its bisect.
        (points, owners), out = self.ring._points, []
        for origin, shape in boxes:
            h = np.full((1,) * len(shape), _mix64(self.ring.seed ^ _CELL_TAG), dtype=np.uint64)
            for d in range(len(shape)) if self.dims is None else self.dims:
                axis = np.arange(origin[d], origin[d] + shape[d]).astype(np.uint64)
                h = _mix64(h ^ axis.reshape([-1 if e == d else 1 for e in range(len(shape))]))
            at = np.searchsorted(points, h & np.uint64(0xFFFFFFFF)) % len(points)
            out.append(np.broadcast_to(owners[at], shape).copy())
        return out

    def sites(self) -> tuple[int, ...]:
        return self.ring.members

    def chain_sites(self, primary: int, k: int) -> tuple[int, ...]:
        """Chained declustering over the sorted members: the ``k`` sites
        starting at ``primary`` in member order, wrapping."""
        members = self.ring.members
        if k > len(members):
            raise PartitioningError(
                f"replication {k} exceeds ring membership {len(members)}"
            )
        if primary not in members:
            raise PartitioningError(f"site {primary} is not a ring member")
        start = members.index(primary)
        return tuple(members[(start + i) % len(members)] for i in range(k))

    def with_member(self, member: int) -> "ConsistentHashPartitioner":
        """The ring one grid-growth step ahead: same layout plus one
        member.  ``n_sites`` grows to cover the new id if needed."""
        out = ConsistentHashPartitioner.__new__(ConsistentHashPartitioner)
        Partitioner.__init__(out, max(self.n_sites, member + 1))
        out.ring = self.ring.with_member(member)
        out.dims = self.dims
        return out

    def without_member(self, member: int) -> "ConsistentHashPartitioner":
        out = ConsistentHashPartitioner.__new__(ConsistentHashPartitioner)
        Partitioner.__init__(out, self.n_sites)
        out.ring = self.ring.without_member(member)
        out.dims = self.dims
        return out

    def descriptor(self) -> tuple:
        return (
            "consistent_hash",
            self.n_sites,
            self.ring.descriptor(),
            self.dims,
        )
