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

SRC_BUDGET = 22_504
BLOCK_BUDGET = 3_944  # storage/ + core/array.py: where the block lives
PLAN_BUDGET = 4_463  # query/ + obs/: where a statement's one tree lives
HISTORY_BUDGET = 656  # history/: one as-of rule


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


def test_the_history_modules_are_no_larger_than_their_budget():
    total = lines((SRC / "history").glob("*.py"))
    assert total <= HISTORY_BUDGET, (
        f"history/ is {total} lines, budget {HISTORY_BUDGET}"
    )
