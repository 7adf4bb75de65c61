"""Cost-model calibration, bucket statistics, and per-query opt-out.

Three layers of the optimizer that the equivalence battery
(:mod:`tests.query.test_pruning_equivalence`) deliberately doesn't pin:

* the statistics themselves — :class:`BucketStats` built at bucket-write
  time (min/max over PRESENT cells, NaN- and NULL-aware, occupancy
  footprint round-trips);
* the self-calibrating :class:`CostModel` — EWMA per-operator rates
  converge on observed timings, and after a warm-up run ``explain``
  reports estimates within a stated factor of actuals (the QueryProfile
  ``estimated`` slot PR 8 reserved is now populated and exported);
* :class:`PlannerConfig` threading — ``SciDB.query/execute/explain``
  accept a per-statement override, and the planner emits
  ``planner.rewrite`` / ``planner.prune`` flight-recorder events.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster import HashPartitioner
from repro.core.schema import define_array
from repro.database import SciDB
from repro.query import PlannerConfig
from repro.query.binding import array, attr, dim
from repro.query.cost import CostModel, DEFAULT_MS_PER_CELL
from repro.query.stats import Interval, attr_intervals
from repro.query.ast import AttrPredicate, PredicateConjunction
from repro.storage.loader import LoadRecord
from repro.storage.manager import PersistentArray

pytestmark = pytest.mark.tier1

#: Estimates must land within this factor of actuals after warm-up.
CALIBRATION_FACTOR = 2.0


# -- bucket statistics --------------------------------------------------------


def _parray(tmp_path, cells, stride=(2, 2)):
    schema = define_array("S", {"v": "float"}, ["x", "y"]).bind([8, 8])
    arr = PersistentArray(schema, tmp_path / "S", stride=stride)
    for coords, value in sorted(cells.items()):
        arr.append(coords, value)
    arr.flush()
    return arr


class TestBucketStats:
    def test_minmax_over_present_cells_only(self, tmp_path):
        arr = _parray(
            tmp_path,
            {(1, 1): (5.0,), (1, 2): (9.0,), (2, 1): None},  # one NULL
        )
        stats = arr.array_stats()
        assert stats.chunk_count == 1
        b = stats.buckets[0]
        assert b.attrs["v"].lo == 5.0 and b.attrs["v"].hi == 9.0
        assert b.null_count == 1
        assert b.cell_count == 3  # NULL cells occupy the footprint

    def test_footprint_roundtrips_occupied_coords(self, tmp_path):
        cells = {(1, 1): (1.0,), (2, 2): None, (1, 2): (3.0,)}
        arr = _parray(tmp_path, cells)
        b = arr.array_stats().buckets[0]
        got = np.argwhere(b.occupied()) + np.asarray(b.origin)
        assert sorted(map(tuple, got.tolist())) == sorted(cells)

    def test_nan_values_never_prunable(self, tmp_path):
        arr = _parray(tmp_path, {(1, 1): (float("nan"),), (1, 2): (2.0,)})
        b = arr.array_stats().buckets[0]
        # NaN is ignored for the range, but the bucket keeps a real range
        # from the comparable cell — and can never be pruned by a range
        # the comparable value could satisfy.
        assert b.attrs["v"].lo == 2.0
        assert b.can_match({"v": Interval(lo=1.0)})

    def test_all_nan_bucket_prunable_by_any_range(self, tmp_path):
        arr = _parray(tmp_path, {(1, 1): (float("nan"),)})
        b = arr.array_stats().buckets[0]
        # No comparable value exists: no comparison can pass, so any
        # range predicate proves no match.
        assert b.attrs["v"].lo is None
        assert not b.can_match({"v": Interval(lo=0.0)})

    def test_unknown_attribute_never_prunes(self, tmp_path):
        arr = _parray(tmp_path, {(1, 1): (1.0,)})
        b = arr.array_stats().buckets[0]
        assert b.can_match({"no_such_attr": Interval(lo=1e9)})

    def test_invalidate_drops_all_stats(self, tmp_path):
        arr = _parray(tmp_path, {(1, 1): (1.0,), (5, 5): (2.0,)})
        assert arr.array_stats().chunk_count > 0
        arr.invalidate_stats()
        assert arr.array_stats().chunk_count == 0


class TestIntervals:
    def test_conjunction_intersects_same_attribute(self):
        pred = PredicateConjunction(
            (AttrPredicate("v", ">", 2.0), AttrPredicate("v", "<=", 7.0))
        )
        iv = attr_intervals(pred)["v"]
        assert (iv.lo, iv.hi, iv.lo_open, iv.hi_open) == (2.0, 7.0, True, False)
        assert iv.excludes_range(0.0, 2.0)  # hi == open lo: no overlap
        assert not iv.excludes_range(0.0, 2.5)
        assert iv.excludes_range(7.5, 9.0)

    def test_inequality_and_non_numeric_terms_are_skipped(self):
        pred = PredicateConjunction(
            (AttrPredicate("v", "!=", 3.0), AttrPredicate("tag", "=", "hot"))
        )
        assert attr_intervals(pred) == {}

    def test_contradictory_conjunction_is_empty(self):
        pred = PredicateConjunction(
            (AttrPredicate("v", ">", 5.0), AttrPredicate("v", "<", 1.0))
        )
        assert attr_intervals(pred)["v"].empty


# -- cost model ---------------------------------------------------------------


def _profile(op, time_ms, cells):
    return SimpleNamespace(
        op=op, time_ms=time_ms, cells_scanned=cells, cells_out=0,
        children=(), error=None,
    )


class TestCostModelCalibration:
    def test_rates_converge_on_observed_timings(self):
        model = CostModel(alpha=0.3)
        for _ in range(25):
            model.observe(_profile("filter", 100.0, 1000))
        rate = model.ms_per_cell("filter")
        assert rate == pytest.approx(0.1, rel=0.05)
        assert model.estimate_ms("filter", 500) == pytest.approx(50.0, rel=0.1)

    def test_unseen_operator_uses_seed_rates(self):
        model = CostModel()
        assert model.ms_per_cell("scan") == DEFAULT_MS_PER_CELL["scan"]
        assert model.estimate_ms("scan", 0) == 0.0

    def test_errored_and_empty_profiles_are_ignored(self):
        model = CostModel()
        bad = SimpleNamespace(
            op="filter", time_ms=50.0, cells_scanned=100, cells_out=0,
            children=(), error="boom",
        )
        assert model.observe(bad) == 0
        assert model.observe(_profile("filter", 0.0, 100)) == 0
        assert model.observe(_profile("filter", 5.0, 0)) == 0

    def test_observe_walks_children(self):
        parent = SimpleNamespace(
            op="aggregate", time_ms=10.0, cells_scanned=100, cells_out=0,
            children=(_profile("scan", 5.0, 100),), error=None,
        )
        model = CostModel()
        assert model.observe(parent) == 2
        calib = model.calibration()
        assert calib["scan"]["samples"] == 1
        assert calib["aggregate"]["ms_per_cell"] == pytest.approx(0.1)

    def test_from_profiles_seeds_a_model(self):
        model = CostModel.from_profiles(
            [SimpleNamespace(root=_profile("filter", 10.0, 100))
             for _ in range(3)]
        )
        assert model.calibration()["filter"]["samples"] == 3


# -- end-to-end: estimated vs. actual, config threading, events ---------------


def _detection_db(tmp_path):
    """A SciDB with a clustered grid array: v = x*12 + y over [12,12]."""
    db = SciDB(tmp_path)
    grid = db.create_grid(n_nodes=2)
    schema = define_array("D", {"v": "float"}, ["x", "y"]).bind([12, 12])
    arr = grid.create_array("D", schema, HashPartitioner(2), stride=(2, 2))
    cells = {
        (x, y): float(x * 12 + y) for x in range(1, 13) for y in range(1, 13)
    }
    arr.load(LoadRecord(c, (v,)) for c, v in sorted(cells.items()))
    db.executor.register("D", arr)
    return db, grid, arr


def _pruned_count(grid, name="D"):
    return sum(
        node.partition(name).stats.buckets_value_pruned
        for node in grid.nodes
        if node.alive
    )


SELECTIVE = lambda: array("D").filter(attr("v") > 130.0).node  # noqa: E731


class TestEstimatedVsActual:
    def test_explain_estimates_within_factor_after_warmup(self, tmp_path):
        db, grid, _ = _detection_db(tmp_path)
        db.execute(SELECTIVE())  # warm-up: calibrates the cost model
        report = db.explain(SELECTIVE())
        root = report.root  # the filter operator
        assert root.est_cells is not None and root.est_chunks is not None
        assert root.est_ms is not None and root.est_ms > 0
        # Chunk estimate vs. buckets actually served (warm cache counts
        # as hits, not chunk reads; k=1 so counts are logical).
        actual_chunks = root.chunks_touched + root.cache_hits
        assert actual_chunks > 0
        assert (
            root.est_chunks / CALIBRATION_FACTOR
            <= actual_chunks
            <= root.est_chunks * CALIBRATION_FACTOR
        )
        # The planner predicted pruning and the scan delivered it.
        assert root.est_chunks_pruned and root.chunks_pruned > 0
        # Cell estimate vs. the query's true selectivity (26 of the 144
        # clustered cells exceed 130): bucket min/max over 2x2 buckets
        # over-approximates only at the boundary bucket.
        true_matches = sum(
            1
            for x in range(1, 13)
            for y in range(1, 13)
            if x * 12 + y > 130
        )
        assert (
            true_matches / CALIBRATION_FACTOR
            <= root.est_cells
            <= true_matches * CALIBRATION_FACTOR
        )
        rendered = report.render()
        assert "[estimated:" in rendered and "pruned" in rendered

    def test_query_profile_estimated_slot_populated_and_exported(
        self, tmp_path
    ):
        db, grid, _ = _detection_db(tmp_path)
        db.execute(SELECTIVE())
        db.execute(SELECTIVE())
        prof = db.profiles(1)[0]
        est = prof.estimated
        assert est is not None
        assert est["cells"] > 0 and est["chunks"] > 0
        assert est["chunks_pruned"] > 0
        assert est["ms"] > 0  # warm model: scan/filter rates calibrated
        assert "estimated:" in prof.render()

    def test_cost_model_absorbs_executed_queries(self, tmp_path):
        db, _, _ = _detection_db(tmp_path)
        before = db.executor.cost_model.calibration()
        db.execute(SELECTIVE())
        after = db.executor.cost_model.calibration()
        assert sum(v["samples"] for v in after.values()) > sum(
            v["samples"] for v in before.values()
        )


class TestPlannerConfigThreading:
    def test_per_query_opt_out_forces_full_scans(self, tmp_path):
        db, grid, _ = _detection_db(tmp_path)
        db.query(SELECTIVE())
        skipped = _pruned_count(grid)
        assert skipped > 0
        db.query(SELECTIVE(), planner=PlannerConfig(enable_pruning=False))
        assert _pruned_count(grid) == skipped  # control arm read everything
        db.query(SELECTIVE())
        assert _pruned_count(grid) > skipped  # default: pruning back on

    def test_explain_honours_override(self, tmp_path):
        db, _, _ = _detection_db(tmp_path)
        on = db.explain(SELECTIVE())
        assert on.root.est_chunks_pruned
        off = db.explain(
            SELECTIVE(), planner=PlannerConfig(enable_pruning=False)
        )
        assert not off.root.est_chunks_pruned
        assert off.root.chunks_pruned == 0

    def test_planner_events_emitted(self, tmp_path):
        db, _, _ = _detection_db(tmp_path)
        prune_before = len(db.events(kind="planner.prune"))
        rewrite_before = len(db.events(kind="planner.rewrite"))
        db.execute(SELECTIVE())
        prunes = db.events(kind="planner.prune")
        assert len(prunes) > prune_before
        assert prunes[-1].array == "D"
        assert "v∈" in prunes[-1].detail.get("detail", "")
        # A pushdown-eligible tree also emits planner.rewrite.
        window = (
            (dim("x") >= 1) & (dim("x") <= 12)
            & (dim("y") >= 1) & (dim("y") <= 12)
        )
        db.execute(
            array("D").filter(attr("v") > 130.0).subsample(window).node
        )
        assert len(db.events(kind="planner.rewrite")) > rewrite_before
