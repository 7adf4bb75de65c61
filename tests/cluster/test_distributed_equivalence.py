"""Metamorphic equivalence: distributed operators == single-node core ops.

The defining property of the shared-nothing grid (Section 2.7) is that
partitioning, replication, and failover are *invisible* in query answers:
any operator run over a :class:`~repro.cluster.grid.DistributedArray` must
return exactly what the single-node :mod:`repro.core.ops` implementation
returns over the materialized array.  Hypothesis generates random sparse
datasets, grid shapes (nodes × replication k × placement policy ×
partitioner), and — when k permits — a dead node, and checks the
equivalence for aggregate, regrid, sjoin, and subsample.  Runs are
derandomized so every failure reproduces.

Cell values are integral floats so aggregation is exact regardless of the
order partial states merge in — except ``stdev``, whose merged squared
deviations round by merge order, so it is compared to a relative 1e-9.
"""

import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster.grid import Grid
from repro.cluster.partitioning import (
    BlockCyclicPartitioner,
    HashPartitioner,
    RangePartitioner,
)
from repro.cluster.replication import (
    ChainedDeclusteringPlacement,
    ScatterPlacement,
)
from repro.core.errors import QuorumError
from repro.core.ops import content, structural
from repro.core.schema import define_array
from repro.core.udf import UserAggregate
from repro.storage.loader import LoadRecord

SETTINGS = dict(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: The built-ins (plane kernels), a user aggregate with a merge but no
#: kernel (merged fold states) and a holistic one (shipped raw cells).
AGGS = [
    "sum", "count", "min", "max", "avg", "stdev",
    UserAggregate("sumsq", lambda: 0.0, lambda s, v: s + v * v,
                  merge=lambda a, b: a + b),
    UserAggregate("spread", lambda: [], lambda s, v: s + [v],
                  lambda s: max(s) - min(s) if s else None),
]


def _cells(arr):
    """Content signature of a SciArray: coords → value tuple (None = NULL)."""
    return {
        coords: None if cell is None else tuple(cell.values)
        for coords, cell in arr.cells()
    }


def _assert_same(dist, want, agg):
    got, expected = _cells(dist), _cells(want)
    if agg != "stdev":
        assert got == expected
        return
    assert got.keys() == expected.keys()
    for coords, values in expected.items():
        assert got[coords] == pytest.approx(values, rel=1e-9, abs=1e-12)


coords_2d = st.tuples(st.integers(1, 6), st.integers(1, 6))
datasets = st.dictionaries(
    coords_2d,
    st.integers(-100, 100).map(float),
    min_size=1,
    max_size=15,
)


@st.composite
def grid_specs(draw, with_dead_node=True):
    n_nodes = draw(st.integers(2, 4))
    k = draw(st.integers(1, min(3, n_nodes)))
    placement = draw(
        st.one_of(
            st.builds(ChainedDeclusteringPlacement),
            st.builds(ScatterPlacement, salt=st.integers(0, 7)),
        )
    )
    partitioner = draw(_partitioners(n_nodes))
    dead = None
    if with_dead_node and k >= 2 and draw(st.booleans()):
        dead = draw(st.integers(0, n_nodes - 1))
    return {
        "n_nodes": n_nodes,
        "k": k,
        "placement": placement,
        "partitioner": partitioner,
        "dead": dead,
    }


def _partitioners(n_nodes):
    boundaries = [1 + i for i in range(n_nodes - 1)]  # ascending within 1..6
    return st.one_of(
        st.builds(HashPartitioner, st.just(n_nodes)),
        st.builds(
            BlockCyclicPartitioner,
            st.just(n_nodes),
            st.tuples(st.integers(1, 3), st.integers(1, 3)),
        ),
        st.just(RangePartitioner(n_nodes, 0, boundaries)),
    )


def _make_grid(tmpdir, spec):
    return Grid(spec["n_nodes"], tmpdir, default_replication=spec["k"])


def _load_array(grid, spec, name, cells, partitioner=None):
    schema = define_array(name, {"v": "float"}, ["x", "y"]).bind([6, 6])
    darr = grid.create_array(
        name,
        schema,
        partitioner or spec["partitioner"],
        replication=spec["k"],
        placement=spec["placement"],
    )
    darr.load(
        LoadRecord(coords, (value,)) for coords, value in sorted(cells.items())
    )
    return darr


class TestAggregateEquivalence:
    @settings(max_examples=80, **SETTINGS)
    @given(
        spec=grid_specs(),
        cells=datasets,
        dim=st.sampled_from(["x", "y"]),
        agg=st.sampled_from(AGGS),
    )
    def test_matches_local_aggregate(self, spec, cells, dim, agg):
        with tempfile.TemporaryDirectory() as tmpdir:
            grid = _make_grid(tmpdir, spec)
            darr = _load_array(grid, spec, "D", cells)
            local = darr.materialize()  # ground truth read pre-failure
            if spec["dead"] is not None:
                grid.nodes[spec["dead"]].fail()
            dist = darr.aggregate([dim], agg, "v")
            want = content.aggregate(local, [dim], agg, "v")
            _assert_same(dist, want, agg)

    @settings(max_examples=60, **SETTINGS)
    @given(
        spec=grid_specs(),
        cells=datasets,
        factors=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        agg=st.sampled_from(AGGS),
    )
    def test_matches_local_regrid(self, spec, cells, factors, agg):
        with tempfile.TemporaryDirectory() as tmpdir:
            grid = _make_grid(tmpdir, spec)
            darr = _load_array(grid, spec, "D", cells)
            local = darr.materialize()
            if spec["dead"] is not None:
                grid.nodes[spec["dead"]].fail()
            dist = darr.regrid(list(factors), agg, "v")
            want = content.regrid(local, list(factors), agg, "v")
            _assert_same(dist, want, agg)


class TestSjoinEquivalence:
    @settings(max_examples=60, **SETTINGS)
    @given(
        spec=grid_specs(),
        left=datasets,
        right=datasets,
        right_part=st.data(),
    )
    def test_matches_local_sjoin(self, spec, left, right, right_part):
        on = [("x", "x"), ("y", "y")]
        with tempfile.TemporaryDirectory() as tmpdir:
            grid = _make_grid(tmpdir, spec)
            darr = _load_array(grid, spec, "L", left)
            # An independently drawn partitioner forces the shuffle path
            # about 2/3 of the time; equal partitioners join in place.
            other = _load_array(
                grid, spec, "R", right,
                partitioner=right_part.draw(
                    _partitioners(spec["n_nodes"]), label="right_partitioner"
                ),
            )
            local_l, local_r = darr.materialize(), other.materialize()
            if spec["dead"] is not None:
                grid.nodes[spec["dead"]].fail()
            dist = darr.sjoin(other, on=on)
            want = structural.sjoin(local_l, local_r, on)
            assert _cells(dist) == _cells(want)


class TestSubsampleEquivalence:
    @settings(max_examples=80, **SETTINGS)
    @given(
        spec=grid_specs(),
        cells=datasets,
        window=st.tuples(coords_2d, coords_2d),
    )
    def test_window_gather_then_local_op_matches(self, spec, cells, window):
        (x0, y0), (x1, y1) = window
        lo = (min(x0, x1), min(y0, y1))
        hi = (max(x0, x1), max(y0, y1))
        pred = {"x": (lo[0], hi[0]), "y": (lo[1], hi[1])}
        with tempfile.TemporaryDirectory() as tmpdir:
            grid = _make_grid(tmpdir, spec)
            darr = _load_array(grid, spec, "D", cells)
            local = darr.materialize()
            if spec["dead"] is not None:
                grid.nodes[spec["dead"]].fail()
            # The raw window gather keeps original coordinates…
            slab = darr.subsample((lo, hi))
            want_raw = {
                c: v
                for c, v in _cells(local).items()
                if all(l <= ci <= h for ci, l, h in zip(c, lo, hi))
            }
            assert _cells(slab) == want_raw
            # …and applying the core operator to the gathered slab (the
            # executor's dispatch decomposition) matches the single-node
            # operator, rebased coordinates and all.
            dist = structural.subsample(slab, pred)
            want = structural.subsample(local, pred)
            assert _cells(dist) == _cells(want)


class TestEveryPlacementAndK:
    """Deterministic sweep: the full placement × k matrix, dead node where
    replication covers it — guaranteed coverage independent of generation."""

    DATA = {(x, y): float(x * 10 + y) for x in range(1, 7) for y in range(1, 7)
            if (x + y) % 3 != 0}

    @pytest.mark.parametrize("placement", [
        ChainedDeclusteringPlacement(),
        ChainedDeclusteringPlacement(offset=2),
        ScatterPlacement(salt=3),
    ], ids=["chain1", "chain2", "scatter"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_aggregate_survives_dead_node_when_k_covers(
        self, tmp_path, placement, k
    ):
        grid = Grid(3, tmp_path, default_replication=k)
        spec = {"n_nodes": 3, "k": k, "placement": placement,
                "partitioner": HashPartitioner(3), "dead": None}
        darr = _load_array(grid, spec, "D", self.DATA)
        local = darr.materialize()
        want = _cells(content.aggregate(local, ["x"], "sum", "v"))
        assert _cells(darr.aggregate(["x"], "sum", "v")) == want

        grid.nodes[1].fail()
        if k == 1:
            with pytest.raises(QuorumError):
                darr.aggregate(["x"], "sum", "v")
        else:
            assert _cells(darr.aggregate(["x"], "sum", "v")) == want
            assert grid.failover_log  # the answer came through a replica
