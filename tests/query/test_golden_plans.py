"""Golden physical plans for nine SS-DB-style queries.

Each SS-DB query shape (:mod:`repro.bench.ssdb`, Q1–Q9) is expressed in
the Python binding and planned against a fixed, hand-built catalog — so
the pinned ``render_physical()`` strings exercise every planner feature
deterministically: pushdown rewrites, pruning specs with estimated
chunks, cost-based aggregate/sjoin strategies, and catalog-backed size
estimates.  A plan change that alters any golden fails with a unified
diff, making intentional regressions a one-line review and accidental
ones obvious.

``est_ms`` is deliberately absent from ``render()`` (timing estimates
drift with cost-model calibration); everything pinned here is a pure
function of the plan tree and the catalog.
"""

import difflib

import numpy as np
import pytest

from repro.query.binding import array, attr, dim
from repro.query.cost import CostModel
from repro.query.planner import Planner, PlannerConfig
from repro.query.stats import (
    ArrayDescription,
    ArrayStats,
    AttrStats,
    BucketStats,
)

pytestmark = pytest.mark.tier1


def _bucket(i, lo, hi, cells=64):
    return BucketStats(
        i, (1 + 8 * i, 1, 1), (8, 8, 1), cells, 0,
        {"radiance": AttrStats(lo, hi, 0)},
        np.packbits(np.ones(64, dtype=bool)),
    )


#: 12 cooked buckets with radiance ranges marching 0.00–0.93: a filter at
#: 0.55 provably matches 5 of them and prunes 7.
_COOKED_STATS = ArrayStats(
    buckets=[
        _bucket(i, round(i * 0.08, 2), round(i * 0.08 + 0.05, 2))
        for i in range(12)
    ]
)

CATALOG = {
    "raw": ArrayDescription(
        "raw", "distributed", cells=2304, chunks=36, nodes=4,
        replication=1, grid_id=1, partitioner="HashPartitioner",
        dims=(("x", 24), ("y", 24), ("t", 4)),
    ),
    "cooked": ArrayDescription(
        "cooked", "distributed", cells=768, chunks=12, nodes=4,
        replication=1, grid_id=1, partitioner="HashPartitioner",
        dims=(("x", 24), ("y", 24), ("t", 4)), stats=_COOKED_STATS,
    ),
    "e1": ArrayDescription(
        "e1", "distributed", cells=576, chunks=9, nodes=4,
        replication=1, grid_id=1, partitioner="HashPartitioner",
        dims=(("x", 24), ("y", 24)),
    ),
    "e2": ArrayDescription(
        "e2", "distributed", cells=576, chunks=9, nodes=4,
        replication=1, grid_id=1, partitioner="HashPartitioner",
        dims=(("x", 24), ("y", 24)),
    ),
    "ref": ArrayDescription(
        "ref", "distributed", cells=576, chunks=9, nodes=2,
        replication=1, grid_id=2, partitioner="RangePartitioner",
        dims=(("x", 24), ("y", 24)),
    ),
}


def _cook(c):
    return 0.001 * (c.v - 100.0)


_SLAB = (
    (dim("x") >= 7) & (dim("x") <= 12)
    & (dim("y") >= 7) & (dim("y") <= 12) & (dim("t") == 1)
)

#: The nine SS-DB query shapes (Section 2.15) in the Python binding.
QUERIES = {
    # Q1: average raw value over a spatial slab of epoch 1.
    "Q1": lambda: array("raw").subsample(_SLAB).aggregate([], "avg", "v"),
    # Q2: regrid epoch 1 by a 4x4 spatial factor.
    "Q2": lambda: array("raw").subsample(dim("t") == 1)
    .regrid([4, 4, 1], "avg", "v"),
    # Q3: per-epoch total flux.
    "Q3": lambda: array("raw").aggregate(["t"], "sum", "v"),
    # Q4: cook epoch 1 (counts -> radiance) and checksum it.
    "Q4": lambda: array("raw").subsample(dim("t") == 1)
    .apply(_cook, [("radiance", "float")])
    .aggregate([], "sum", "radiance"),
    # Q5: detect observations on the stored cooked array.
    "Q5": lambda: array("cooked").filter(attr("radiance") > 0.55),
    # Q6: detection density per 8x8 spatial block.
    "Q6": lambda: array("cooked").filter(attr("radiance") > 0.55)
    .regrid([8, 8, 4], "count", "radiance"),
    # Q7: co-located join of two epoch arrays on the same grid.
    "Q7": lambda: array("e1").sjoin("e2", on=[("x", "x"), ("y", "y")]),
    # Q8: the time series of one cell.
    "Q8": lambda: array("raw").subsample(
        (dim("x") == 12) & (dim("y") == 12)
    ),
    # Q9: global mean/stdev.
    "Q9": lambda: array("raw").aggregate([], "stdev", "v"),
}

GOLDEN = {
    "Q1": """\
aggregate ~cells=2304
  subsample [window] ~cells=2304
    scan raw ~cells=2304 ~chunks=36""",
    "Q2": """\
regrid ~cells=2304
  subsample [window] ~cells=2304
    scan raw ~cells=2304 ~chunks=36""",
    "Q3": """\
aggregate [partial-aggregate] ~cells=2304
  scan raw ~cells=2304 ~chunks=36""",
    "Q4": """\
aggregate ~cells=2304
  apply ~cells=2304
    subsample [window] ~cells=2304
      scan raw ~cells=2304 ~chunks=36""",
    "Q5": """\
filter [gather] prune{radiance∈(0.55, +inf)} ~cells=320 ~chunks=5(-7 pruned)
  scan cooked prune{radiance∈(0.55, +inf)} ~cells=320 ~chunks=5(-7 pruned)""",
    "Q6": """\
regrid ~cells=320
  filter [gather] prune{radiance∈(0.55, +inf)} ~cells=320 ~chunks=5(-7 pruned)
    scan cooked prune{radiance∈(0.55, +inf)} ~cells=320 ~chunks=5(-7 pruned)""",
    "Q7": """\
sjoin [copartitioned] ~cells=576
  scan e1 ~cells=576 ~chunks=9
  scan e2 ~cells=576 ~chunks=9""",
    "Q8": """\
subsample [window] ~cells=2304
  scan raw ~cells=2304 ~chunks=36""",
    "Q9": """\
aggregate [partial-aggregate] ~cells=2304
  scan raw ~cells=2304 ~chunks=36""",
}


def _planner():
    return Planner(catalog=CATALOG.get, cost_model=CostModel())


def _assert_plan(actual: str, want: str, qid: str) -> None:
    if actual == want:
        return
    diff = "\n".join(
        difflib.unified_diff(
            want.splitlines(), actual.splitlines(),
            fromfile=f"{qid} golden", tofile=f"{qid} actual", lineterm="",
        )
    )
    pytest.fail(f"physical plan for {qid} changed:\n{diff}")


class TestGoldenPlans:
    @pytest.mark.parametrize("qid", sorted(QUERIES))
    def test_physical_plan_is_pinned(self, qid):
        planned = _planner().plan(QUERIES[qid]().node)
        _assert_plan(planned.render_physical(), GOLDEN[qid], qid)

    def test_every_query_has_a_golden(self):
        assert sorted(QUERIES) == sorted(GOLDEN)


class TestPlannerBehaviorsPinned:
    """Beyond the nine shapes: the rewrites and strategy flips that the
    goldens above can't show on their own."""

    def test_pushdown_moves_prune_spec_below_filter(self):
        node = (
            array("cooked").filter(attr("radiance") > 0.55)
            .subsample(_SLAB).node
        )
        planned = _planner().plan(node)
        assert planned.rewrites == [
            "pushed subsample below filter (structural op evaluated first)"
        ]
        _assert_plan(
            planned.render_physical(),
            """\
filter ~cells=320
  subsample [window] prune{radiance∈(0.55, +inf)} ~cells=320 ~chunks=5(-7 pruned)
    scan cooked prune{radiance∈(0.55, +inf)} ~cells=320 ~chunks=5(-7 pruned)""",
            "pushdown",
        )

    def test_cross_grid_sjoin_chooses_gather(self):
        planned = _planner().plan(
            array("e1").sjoin("ref", on=[("x", "x")]).node
        )
        _assert_plan(
            planned.render_physical(),
            """\
sjoin [gather] ~cells=576
  scan e1 ~cells=576 ~chunks=9
  scan ref ~cells=576 ~chunks=9""",
            "cross-grid sjoin",
        )

    def test_opt_out_strips_pruning(self):
        node = array("cooked").filter(attr("radiance") > 0.55).node
        planned = _planner().plan(
            node,
            config=PlannerConfig(
                enable_pushdown=False,
                enable_pruning=False,
            ),
        )
        _assert_plan(
            planned.render_physical(),
            """\
filter [gather] ~cells=768
  scan cooked ~cells=768 ~chunks=12""",
            "opt-out",
        )

    def test_holistic_aggregate_chooses_gather(self):
        planned = _planner().plan(
            array("raw").aggregate(["t"], "median", "v").node
        )
        assert planned.physical.strategy == "gather"
