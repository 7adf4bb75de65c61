"""The aggregate protocol's merge step.

A built-in ``stdev`` partial absorbed into an empty one adds no spread
term, so values whose mean squares past the float range still give a
finite deviation.  A user aggregate's partial is read, not rewritten,
when another source's partials absorb it: first-reach order is kept
per grouping, in the holding side only.
"""

import numpy as np
import pytest

from repro import SciArray, UserAggregate, define_array
from repro.core import ops
from repro.core.ops.content import Grouping, aggregate_all

pytestmark = pytest.mark.tier1


@pytest.fixture
def huge():
    """Values near 1e160 a few 1e150 apart: their squares overflow, their
    deviations do not."""
    schema = define_array("Huge", {"v": "float"}, ["x", "y"])
    values = 1e160 + np.arange(16.0).reshape(4, 4) * 1e150
    return SciArray.from_numpy(schema, values, name="huge"), values


def test_stdev_of_huge_close_values_is_finite_on_every_route(huge):
    array, values = huge
    def close(expected):
        return pytest.approx(np.ravel(expected).tolist(), rel=1e-9)

    assert [aggregate_all(array, "stdev")] == close(np.std(values))
    rows = ops.aggregate(array, ["x"], "stdev").cells()
    assert [c.stdev for _, c in rows] == close(np.std(values, axis=1))
    blocks = values.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(2, 2, 4)
    cells = ops.regrid(array, [2, 2], "stdev").cells()
    assert [c.stdev for _, c in cells] == close(np.std(blocks, axis=2))


def test_merging_a_partition_leaves_its_partials_as_they_were():
    schema = define_array("Small", {"v": "float"}, ["x", "y"])
    values = np.arange(16.0).reshape(4, 4)
    array = SciArray.from_numpy(schema, values, name="small")
    total = UserAggregate(
        "total", lambda: 0.0, lambda s, v: s + v, merge=lambda a, b: a + b
    )
    grouping = Grouping("aggregate", array, ["x"], total)
    part = grouping.local(array)
    before = {key: (corner, p.copy()) for key, (corner, p) in part.items()}
    merged = grouping.merge(grouping.merge({}, part), grouping.local(array))
    for key, (corner, p) in part.items():
        assert corner == before[key][0]
        assert p.tolist() == before[key][1].tolist()
    assert [c.total for _, c in grouping.write(merged).cells()] == [
        2 * sum(range(4 * x, 4 * x + 4)) for x in range(4)
    ]
