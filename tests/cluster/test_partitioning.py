"""Unit tests for partitioning schemes (Section 2.7)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.array import Chunk
from repro.core.errors import PartitioningError
from repro.cluster.partitioning import (
    BlockCyclicPartitioner,
    BlockPartitioner,
    ConsistentHashPartitioner,
    HashPartitioner,
    RangePartitioner,
    TimeEpochPartitioner,
)


class TestHash:
    def test_deterministic_and_in_range(self):
        p = HashPartitioner(4)
        for c in [(1, 1), (37, 99), (1000, 1)]:
            s = p.site_of(c)
            assert 0 <= s < 4
            assert p.site_of(c) == s

    def test_dims_subset(self):
        p = HashPartitioner(4, dims=[0])
        assert p.site_of((7, 1)) == p.site_of((7, 99))

    def test_roughly_balanced(self):
        p = HashPartitioner(4)
        counts = [0] * 4
        for i in range(1, 101):
            for j in range(1, 101):
                counts[p.site_of((i, j))] += 1
        assert max(counts) / (sum(counts) / 4) < 1.2

    def test_equality(self):
        assert HashPartitioner(4) == HashPartitioner(4)
        assert HashPartitioner(4) != HashPartitioner(8)
        assert HashPartitioner(4, dims=[0]) != HashPartitioner(4)

    def test_invalid_sites(self):
        with pytest.raises(PartitioningError):
            HashPartitioner(0)


@pytest.mark.parametrize("ndim", [1, 2, 3])
@pytest.mark.parametrize("high", [200, 70_000, 2**40])
def test_site_planes_are_site_of_at_every_occupied_cell(ndim, high):
    """The read path's batched form (hash: crc32 taken apart per axis;
    ring: the hash chain over uint64 planes) places every cell where the
    per-cell form does, at negative, one-, two- and many-byte
    coordinates."""
    rng = np.random.default_rng(ndim * high)
    blocks = []
    for _ in range(12):
        shape = tuple(rng.integers(1, 6, size=ndim).tolist())
        origin = tuple(rng.integers(-high // 100, high, size=ndim).tolist())
        state = (rng.random(shape) < 0.6).astype(np.uint8)
        blocks.append(Chunk(origin, shape, state, {}))
    for p in (
        HashPartitioner(4), HashPartitioner(7, dims=[ndim - 1]),
        HashPartitioner(5, dims=[0, 0]), RangePartitioner(3, 0, [10, 1000]),
        ConsistentHashPartitioner(4), ConsistentHashPartitioner(6, members=[0, 2, 5], seed=3),
        ConsistentHashPartitioner(4, dims=[ndim - 1, 0]),
    ):
        for block, plane in zip(blocks, p.site_planes(blocks)):
            assert plane.shape == block.shape
            for off in map(tuple, np.argwhere(block.state).tolist()):
                at = tuple(o + x for o, x in zip(block.origin, off))
                assert plane[off] == p.site_of(at), (p, at)
    assert HashPartitioner(4).site_planes([]) == []


class TestRange:
    def test_boundaries(self):
        p = RangePartitioner(3, dim=0, boundaries=[100, 200])
        assert p.site_of((50, 1)) == 0
        assert p.site_of((100, 1)) == 0
        assert p.site_of((101, 1)) == 1
        assert p.site_of((999, 1)) == 2

    def test_boundary_count_checked(self):
        with pytest.raises(PartitioningError):
            RangePartitioner(3, dim=0, boundaries=[100])

    def test_ascending_required(self):
        with pytest.raises(PartitioningError):
            RangePartitioner(3, dim=0, boundaries=[200, 100])


class TestBlock:
    def test_fixed_spatial_grid(self):
        p = BlockPartitioner(4, bounds=[100, 100], blocks=[2, 2])
        # Four quadrants -> four sites, row-major.
        assert p.site_of((1, 1)) == 0
        assert p.site_of((1, 51)) == 1
        assert p.site_of((51, 1)) == 2
        assert p.site_of((51, 51)) == 3

    def test_more_blocks_than_sites_wraps(self):
        p = BlockPartitioner(2, bounds=[100], blocks=[4])
        sites = {p.site_of((x,)) for x in (1, 26, 51, 76)}
        assert sites == {0, 1}

    def test_edge_coordinates_clamped(self):
        p = BlockPartitioner(4, bounds=[10, 10], blocks=[3, 3])
        assert 0 <= p.site_of((10, 10)) < 4

    def test_validation(self):
        with pytest.raises(PartitioningError):
            BlockPartitioner(4, bounds=[100], blocks=[2, 2])
        with pytest.raises(PartitioningError):
            BlockPartitioner(4, bounds=[0], blocks=[1])


class TestBlockCyclic:
    def test_within_block_locality(self):
        p = BlockCyclicPartitioner(4, block_side=[10, 10])
        assert p.site_of((1, 1)) == p.site_of((10, 10))

    def test_blocks_spread(self):
        p = BlockCyclicPartitioner(4, block_side=[10, 10])
        sites = {p.site_of((1 + 10 * b, 1)) for b in range(16)}
        assert len(sites) > 1

    def test_validation(self):
        with pytest.raises(PartitioningError):
            BlockCyclicPartitioner(4, block_side=[0, 10])


class TestTimeEpoch:
    """'A first partitioning scheme is used for time less than T and a
    second partitioning scheme for time > T.'"""

    def make(self):
        a = RangePartitioner(2, dim=1, boundaries=[50])
        b = HashPartitioner(2)
        return TimeEpochPartitioner(2, time_dim=0, epochs=[(100, a)], final=b), a, b

    def test_epoch_selection(self):
        p, a, b = self.make()
        assert p.scheme_for((50, 10)) is a
        assert p.scheme_for((100, 10)) is a
        assert p.scheme_for((101, 10)) is b

    def test_site_delegation(self):
        p, a, b = self.make()
        assert p.site_of((50, 10)) == a.site_of((50, 10))
        assert p.site_of((200, 10)) == b.site_of((200, 10))

    def test_multiple_epochs(self):
        s0 = HashPartitioner(2)
        s1 = RangePartitioner(2, dim=1, boundaries=[10])
        s2 = BlockCyclicPartitioner(2, block_side=[5, 5])
        p = TimeEpochPartitioner(2, 0, [(10, s0), (20, s1)], s2)
        assert p.scheme_for((5, 1)) is s0
        assert p.scheme_for((15, 1)) is s1
        assert p.scheme_for((25, 1)) is s2

    def test_thresholds_ascending(self):
        a, b = HashPartitioner(2), HashPartitioner(2)
        with pytest.raises(PartitioningError):
            TimeEpochPartitioner(2, 0, [(20, a), (10, b)], a)

    def test_site_counts_consistent(self):
        with pytest.raises(PartitioningError):
            TimeEpochPartitioner(
                2, 0, [(10, HashPartitioner(3))], HashPartitioner(2)
            )

    def test_equality_structural(self):
        p1, _, _ = self.make()
        p2, _, _ = self.make()
        assert p1 == p2


class TestHashRing:
    def make(self):
        from repro.cluster.partitioning import HashRing

        return HashRing([0, 1, 2, 3], vnodes=96, seed=0)

    def test_deterministic_ownership(self):
        from repro.cluster.partitioning import HashRing

        a, b = self.make(), self.make()
        for point in range(0, 2**32, 2**24):
            assert a.owner_of(point) == b.owner_of(point)
        # Member order at construction is irrelevant: the ring is a
        # function of the member *set*.
        shuffled = HashRing([3, 1, 0, 2], vnodes=96, seed=0)
        assert shuffled.members == a.members
        assert shuffled.owner_of(12345) == a.owner_of(12345)

    def test_needs_members(self):
        from repro.cluster.partitioning import HashRing

        with pytest.raises(PartitioningError):
            HashRing([])
        with pytest.raises(PartitioningError):
            HashRing([1, 1])
        with pytest.raises(PartitioningError):
            HashRing([0], vnodes=0)

    def test_with_without_member_roundtrip(self):
        ring = self.make()
        grown = ring.with_member(4)
        assert grown.members == (0, 1, 2, 3, 4)
        assert grown.without_member(4).members == ring.members
        with pytest.raises(PartitioningError):
            ring.with_member(2)  # already present
        with pytest.raises(PartitioningError):
            ring.without_member(9)  # not a member
        with pytest.raises(PartitioningError):
            # A ring must never go empty.
            ring.without_member(0).without_member(1).without_member(
                2
            ).without_member(3)

    def test_single_member_owns_everything(self):
        from repro.cluster.partitioning import HashRing

        ring = HashRing([7], vnodes=4)
        for point in (0, 1, 2**31, 2**32 - 1):
            assert ring.owner_of(point) == 7


class TestConsistentHash:
    def make(self, members=(0, 1, 2, 3), n_sites=4, **kw):
        from repro.cluster.partitioning import ConsistentHashPartitioner

        return ConsistentHashPartitioner(n_sites, members=members, **kw)

    def test_deterministic_and_in_members(self):
        p = self.make()
        for c in [(1, 1), (37, 99), (1000, 1), (5,)]:
            s = p.site_of(c)
            assert s in p.members
            assert p.site_of(c) == s

    def test_members_subset_receives_everything(self):
        """Drained sites are structurally empty: site_of never returns a
        non-member even though n_sites still covers them."""
        p = self.make(members=(0, 2), n_sites=4)
        assert p.sites() == (0, 2)
        for i in range(1, 50):
            assert p.site_of((i, i)) in (0, 2)

    def test_members_must_fit_n_sites(self):
        with pytest.raises(PartitioningError):
            self.make(members=(0, 5), n_sites=4)

    def test_dims_subset(self):
        p = self.make(dims=[0])
        assert p.site_of((7, 1)) == p.site_of((7, 99))

    def test_roughly_balanced(self):
        p = self.make()
        counts = [0] * 4
        for i in range(1, 101):
            for j in range(1, 101):
                counts[p.site_of((i, j))] += 1
        assert max(counts) / (sum(counts) / 4) < 1.25

    def test_chain_sites_member_aware(self):
        p = self.make(members=(0, 2, 5), n_sites=6)
        # Chained declustering over sorted members, wrapping.
        assert p.chain_sites(2, 2) == (2, 5)
        assert p.chain_sites(5, 2) == (5, 0)
        with pytest.raises(PartitioningError):
            p.chain_sites(1, 2)  # not a member
        with pytest.raises(PartitioningError):
            p.chain_sites(2, 4)  # k exceeds membership

    def test_equality_structural(self):
        assert self.make() == self.make()
        assert self.make() != self.make(members=(0, 1, 2))
        assert self.make() != self.make(seed=1)
        assert self.make() != self.make(vnodes=48)

    def test_with_member_grows_n_sites(self):
        p = self.make()
        grown = p.with_member(4)
        assert grown.n_sites == 5
        assert grown.members == (0, 1, 2, 3, 4)
        # Dropping a member keeps n_sites: drained ids stay addressable.
        shrunk = p.without_member(1)
        assert shrunk.n_sites == 4
        assert shrunk.members == (0, 2, 3)

    def test_minimal_movement_on_membership_change(self):
        """The consistent-hash contract: adding one member to an N-member
        ring re-homes roughly 1/(N+1) of keys — and only *to* the new
        member, never between old members."""
        p = self.make()
        grown = p.with_member(4)
        keys = [(i, j) for i in range(1, 51) for j in range(1, 51)]
        moved = 0
        for c in keys:
            before, after = p.site_of(c), grown.site_of(c)
            if before != after:
                moved += 1
                assert after == 4, "a key moved between two old members"
        fraction = moved / len(keys)
        assert 0.10 <= fraction <= 0.30, fraction


def every_partitioner(ndim):
    bounds = [60] * ndim
    return [
        HashPartitioner(4), HashPartitioner(7, dims=[ndim - 1]),
        RangePartitioner(3, 0, [10, 30]),
        BlockPartitioner(5, bounds, [3] * ndim),
        BlockCyclicPartitioner(3, [4] * ndim),
        TimeEpochPartitioner(
            4, ndim - 1, [(20, HashPartitioner(4))], BlockCyclicPartitioner(4, [5] * ndim)
        ),
        ConsistentHashPartitioner(6, members=[0, 2, 3, 5]),
    ]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_site_planes_cached_or_not_are_site_of_at_every_cell(ndim, seed):
    """Every cell of a box, occupied or not (a kept plane serves every
    block with that box), window-sliced boxes included; the second ask
    is served the first answer, which no one can write."""
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(6):
        shape = tuple(rng.integers(1, 7, size=ndim).tolist())
        origin = tuple(rng.integers(1, 50, size=ndim).tolist())
        state = (rng.random(shape) < 0.5).astype(np.uint8)
        block = Chunk(origin, shape, state, {})
        blocks.append(block)
        low = tuple(o + int(rng.integers(0, n)) for o, n in zip(origin, shape))
        cut = block.sliced((low, tuple(l + 2 for l in low)))
        blocks.append(cut)
    for p in every_partitioner(ndim):
        first = p.site_planes(blocks)
        again = p.site_planes(blocks)
        for block, plane, kept in zip(blocks, first, again):
            assert kept is plane
            assert plane.shape == block.shape
            for off in itertools.product(*map(range, block.shape)):
                at = tuple(o + x for o, x in zip(block.origin, off))
                assert plane[off] == p.site_of(at), (p, at)
        with pytest.raises(ValueError):
            first[0][(0,) * ndim] = 0


def test_kept_site_planes_stay_within_their_bound():
    """Many distinct window boxes over one array: the partitioner keeps at
    most ``PLANE_CACHE_BYTES`` of planes, the newest, and still answers
    every box right."""
    p = HashPartitioner(4)
    bound = p.PLANE_CACHE_BYTES
    asked = 0
    for i in range(400):  # 400 distinct 64x64 windows, ~1.6x the bound
        origin = (1 + i % 20, 1 + i // 20)
        (plane,) = p.site_planes([Chunk(origin, (64, 64), None, {})])
        asked += plane.nbytes
        assert plane[5, 7] == p.site_of((origin[0] + 5, origin[1] + 7))
    assert asked > bound
    assert 0 < sum(plane.nbytes for plane in p._planes.values()) <= bound
    assert p._plane_bytes == sum(plane.nbytes for plane in p._planes.values())
    assert ((20, 20), (64, 64)) in p._planes  # the newest box is kept


def test_distinct_windows_over_a_grid_array_keep_planes_within_the_bound(
    tmp_path, monkeypatch
):
    """The read path's planes, through the grid: with the bound lowered,
    sixty distinct windows keep no more than it and answer every window."""
    from repro import define_array
    from repro.cluster import Grid, Partitioner
    from repro.storage.loader import LoadRecord

    bound = 4096
    monkeypatch.setattr(Partitioner, "PLANE_CACHE_BYTES", bound)
    schema = define_array("sky", {"flux": "float"}, ["x", "y"]).bind([40, 40])
    part = HashPartitioner(3)
    arr = Grid(3, tmp_path).create_array("sky", schema, part, stride=(8, 8))
    arr.load([LoadRecord((x, y), (float(x * 100 + y),))
              for x in range(1, 41) for y in range(1, 41)])
    rng = np.random.default_rng(9)
    for _ in range(60):
        low = tuple(rng.integers(1, 30, size=2).tolist())
        high = tuple((np.array(low) + rng.integers(0, 11, size=2)).tolist())
        got = {c: cell.flux for c, cell in arr.subsample((low, high)).cells()}
        assert got == {
            (x, y): float(x * 100 + y)
            for x in range(low[0], high[0] + 1) for y in range(low[1], high[1] + 1)
        }
        assert part._plane_bytes <= bound
    assert part._planes  # it does keep planes
