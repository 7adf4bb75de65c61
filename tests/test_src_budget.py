"""The line ratchet: ``src/`` does not grow unnoticed.

ROADMAP's rule — "a PR that adds lines to ``src/`` names the lines it
deletes in the same diff or says in its first paragraph that it found
none" — was missed twice (PRs 14 and 20) with only prose to notice.  The
budgets below are the counts the last PR left; a PR that must grow
``src/`` raises them in its own diff, where review sees it, and a PR that
shrinks it lowers them.
"""

from pathlib import Path

import pytest

pytestmark = pytest.mark.tier1

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

# A grid sjoin on the local operator's body: every budget held (the new
# counts equal them, so none is lowered).  Deleted: DistributedArray.sjoin's
# per-partition left, right and result SciArrays and its empty-result
# special case, and the local sjoin's inline full-dimension loop (now
# `structural.sjoin_blocks`, the one body both run).  Paid for by that:
# `readpath.Blocks.planes` (10 lines) and the routing of a permuted `on`
# (a right block's site planes in the left's axis order).  query/:
# `_intersect`'s range algebra is paid for by `predicate_window` reading
# `dims_condition()` instead of folding the terms a second time.
# Rebalance in planes: cluster/ 5,203 -> 5,275 and src/ 22,639 -> 22,711
# (raised: this change adds code).  Deleted: the per-cell placement of
# cluster/rebalance.py (`Migration.trusted`/`enqueue`/`take`, `_owed`,
# `_read`'s coordinate filter, the per-cell loops of `_verify`,
# `_cutover`, `abort` and `_diagnose`), `_dual_resolve`'s per-cell loops
# and `Bucket.from_cells`, and the write path's dual-write body (moved
# into `Migration.dual_write`).  Added, more lines than that: the
# chain table and `Migration.owed`; `cluster.array.Planes` (about 90
# lines: cell sets per stride box, each plane spanning only its cells,
# with a site axis); and fixes with a regression each — the plan's
# attach-first read and its rollback, a dual write's untrusting miss kept
# apart from the rollback list, `Grid.deliver` noting what a dead node
# misses so `rebuild_node` refreshes exactly that, and
# `ConsistentHashPartitioner`'s vectorised site planes.
# PR 37 (a grouped grid read folds one cached block's bucket segments):
# core/ops/ 1,582 -> 1,581, its per-block `reduce` closures and
# `_Planes.accumulate` gone into one fold; the read that hands the fold
# its segments is named against them: storage/ +7
# (`PersistentArray.segmented` and its boxes, net of the re-read path a
# read now restarts instead of), cluster/ +6 (the grouped read mode and
# `Blocks.boxes`; `Node.merged` deleted); query/ + obs/ +7 and
# database.py carry a database's own slow threshold on its statements.
# A cold bucket read parses its frame from the payload bytes and counts
# once per read: storage/ + core/array.py held at 4,023 and src/
# 22,711 -> 22,710.  The frame parser (`format.parse_frame`), the batched
# counters (`PersistentArray._tally`; a merged hit adds its one counter
# inline), the one-read file path, a merge's
# retirement of only its sources' cache entries and `core.array.union_box`
# (value-pruned footprints written into one state plane, not coalesced
# block by block) are paid for by the deleted whole-directory retirement,
# `_cache_key`, `_hits`, `ChunkCache.clear` (unused), the R-tree's
# redundant `_contains`, its split's four copies of one placement, and
# the delta codec's three decode branches (one unsigned cumulative sum
# now).  cluster/ 5,275 -> 5,274:
# `is_copartitioned` takes the join's `on` (a permuted join is not
# co-partitioned), paid for inside `DistributedArray.sjoin`.
# A grid statement runs its partitions on its own thread: cluster/ 5,274
# -> 5,268 and src/ 22,710 -> 22,709.  Deleted: the scheduler's separate
# inline path and its pooled collect loop (one result loop and one
# failure policy now serve both) and the grid's fault-drill comment.
# Paid for by that: `Grid._reads_wait` and `FaultInjector.slows_reads`
# (the per-batch "can these reads wait" predicate), and the bench
# harness's per-repeat samples behind a median `per_call` (+5).
SRC_BUDGET = 22_709
OPS_BUDGET = 1_581  # core/ops/ + core/udf.py: one aggregate protocol, one body per operator
BLOCK_BUDGET = 4_023  # storage/ + core/array.py: where the block lives, and its cache
PLAN_BUDGET = 4_472  # query/ + obs/: where a statement's one tree lives
HISTORY_BUDGET = 656  # history/: one as-of rule
CLUSTER_BUDGET = 5_268  # cluster/: the grid adds partitions, metering, coverage


def lines(paths) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in paths)


def test_src_is_no_larger_than_its_budget():
    total = lines(SRC.rglob("*.py"))
    assert total <= SRC_BUDGET, (
        f"src/repro is {total} lines, budget {SRC_BUDGET}: ROADMAP says "
        '"a PR that adds lines to `src/` names the lines it deletes in the '
        'same diff or says in its first paragraph that it found none" — '
        "delete as many, or raise SRC_BUDGET in this diff and say why"
    )


def test_the_block_modules_are_no_larger_than_their_budget():
    total = lines([*(SRC / "storage").glob("*.py"), SRC / "core" / "array.py"])
    assert total <= BLOCK_BUDGET, (
        f"storage/ + core/array.py are {total} lines, budget {BLOCK_BUDGET}"
    )


def test_the_plan_modules_are_no_larger_than_their_budget():
    total = lines([*(SRC / "query").glob("*.py"), *(SRC / "obs").glob("*.py")])
    assert total <= PLAN_BUDGET, (
        f"query/ + obs/ are {total} lines, budget {PLAN_BUDGET}"
    )


def test_the_operator_modules_are_no_larger_than_their_budget():
    total = lines([*(SRC / "core" / "ops").glob("*.py"), SRC / "core" / "udf.py"])
    assert total <= OPS_BUDGET, (
        f"core/ops/ + core/udf.py are {total} lines, budget {OPS_BUDGET}"
    )


def test_the_cluster_modules_are_no_larger_than_their_budget():
    total = lines((SRC / "cluster").glob("*.py"))
    assert total <= CLUSTER_BUDGET, (
        f"cluster/ is {total} lines, budget {CLUSTER_BUDGET}"
    )


def test_the_history_modules_are_no_larger_than_their_budget():
    total = lines((SRC / "history").glob("*.py"))
    assert total <= HISTORY_BUDGET, (
        f"history/ is {total} lines, budget {HISTORY_BUDGET}"
    )
