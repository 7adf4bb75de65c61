"""The mid-rebalance route: a migrating grid against a dict model.

A hypothesis :class:`RuleBasedStateMachine` drives one migration on a
4-node k=2 grid — a ring gaining a member, a ring draining one, or a hash
partitioner converted to a ring — with writes (NULLs among them), hand
ticks, window reads, node failures and rebuilds (at most ``K - 1`` nodes
dead at once), finalize and abort between them, in any order.

Invariant: every window read equals the model.  At the end the dead node
is rebuilt and the migration is driven to its end.  One that cut over
holds every model cell, with its model value, on each site of its new
chain; one that aborted serves the model from the old placement.

The run is derandomized with a fixed example budget, so it is the same
run every time.
"""

import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import define_array
from repro.cluster import ConsistentHashPartitioner, Grid, HashPartitioner
from repro.storage.loader import LoadRecord

pytestmark = pytest.mark.tier1

N, K, SIDE = 4, 2, 6
SCHEMA = define_array("m", {"v": "float"}, ["x", "y"])
coord = st.integers(1, SIDE)


def cells_of(arr, window=None):
    return {
        c: None if cell is None else cell.v for c, cell in arr.scan(window)
    }


class MigratingGrid(RuleBasedStateMachine):
    @initialize(
        kind=st.sampled_from(["add", "drain", "convert"]),
        filled=st.sets(st.tuples(coord, coord), min_size=4, max_size=24),
        throttle=st.integers(1, 8),
    )
    def start(self, kind, filled, throttle):
        self.directory = tempfile.mkdtemp(prefix="rebalance-machine-")
        self.grid = Grid(
            N, self.directory, default_replication=K, parallelism=1
        )
        if kind == "convert":
            before = HashPartitioner(N)
            target = ConsistentHashPartitioner(N)
        else:
            members = (0, 1, 2) if kind == "add" else (0, 1, 2, 3)
            before = ConsistentHashPartitioner(N, members=members)
            target = (
                before.with_member(3) if kind == "add"
                else before.without_member(1)
            )
        self.arr = self.grid.create_array(
            "m", SCHEMA.bind([SIDE, SIDE]), before, stride=(3, 3)
        )
        self.old = before
        self.model = {c: float(i) for i, c in enumerate(sorted(filled))}
        self.arr.load(LoadRecord(c, (v,)) for c, v in self.model.items())
        self.rb = self.grid.start_rebalance(
            "m", target, max_transfer_cells_per_tick=throttle
        )
        self.dead = None
        self.version = 100.0

    def teardown(self):
        directory = getattr(self, "directory", None)
        if directory is None:
            return
        try:
            if self.dead is not None:
                self.rebuild()
            for _ in range(500):
                if self.rb.finished or self.rb.finalize():
                    break
                self.rb.tick()
            assert self.rb.finished
            assert cells_of(self.arr) == self.model
            if self.rb.aborted:
                assert self.arr.partitioner is self.old
            else:
                assert self.arr.partitioner is self.rb.migration.new_partitioner
                held = [
                    {c: None if cell is None else cell.v
                     for c, cell in node.scan_partition("m")}
                    for node in self.grid.nodes
                ]
                for c, v in self.model.items():
                    for site in self.arr.replica_sites(c):
                        assert (c, site, held[site].get(c, "absent")) == (
                            c, site, v
                        )
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    @rule(x=coord, y=coord, null=st.booleans())
    def write(self, x, y, null):
        self.version += 1.0
        value = None if null else self.version
        self.arr.write((x, y), None if null else (value,))
        self.arr.flush()
        self.model[(x, y)] = value

    @precondition(lambda self: not self.rb.finished)
    @rule()
    def tick(self):
        self.rb.tick()

    @precondition(lambda self: not self.rb.finished)
    @rule()
    def finalize(self):
        self.rb.finalize()

    @precondition(lambda self: not self.rb.finished)
    @rule()
    def abort(self):
        self.rb.abort("the model aborts")

    @precondition(lambda self: self.dead is None)
    @rule(node=st.integers(0, N - 1))
    def fail(self, node):
        self.grid.nodes[node].fail()
        self.dead = node

    @precondition(lambda self: self.dead is not None)
    @rule()
    def rebuild(self):
        self.grid.rebuild_node(self.dead)
        self.dead = None

    @rule(lo=st.tuples(coord, coord), hi=st.tuples(coord, coord))
    def read(self, lo, hi):
        window = (tuple(map(min, lo, hi)), tuple(map(max, lo, hi)))
        want = {
            c: v for c, v in self.model.items()
            if all(l <= a <= h for a, l, h in zip(c, *window))
        }
        assert cells_of(self.arr, window) == want

    @invariant()
    def reads_the_model(self):
        if hasattr(self, "arr"):
            assert cells_of(self.arr) == self.model


MigratingGrid.TestCase.settings = settings(
    max_examples=150,
    stateful_step_count=30,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=list(HealthCheck),
)
TestMigratingGrid = MigratingGrid.TestCase
