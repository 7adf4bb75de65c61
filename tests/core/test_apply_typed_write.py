"""apply writes its output through one typed check, whichever form — the
per-cell ``fn`` or the vectorised ``block_fn`` — computed it: a plane of
the wrong shape, or of a dtype that does not cast to its component's
type, is a :class:`TypeMismatchError` naming the component, as a bad
value from ``fn`` is."""

import numpy as np
import pytest

from repro import SciArray, define_array
from repro.core import ops
from repro.core.errors import TypeMismatchError

pytestmark = pytest.mark.tier1


@pytest.fixture
def halves():
    schema = define_array("H", {"v": "float"}, ["x"])
    return SciArray.from_numpy(schema, np.arange(4.0) + 0.5, name="halves")


def test_a_block_fn_returning_a_scalar_is_a_typed_error(halves):
    with pytest.raises(TypeMismatchError, match="'w'"):
        ops.apply(halves, output=[("w", "float")], block_fn=lambda b: 1.0)


def test_a_float_plane_into_an_int64_component_is_a_typed_error(halves):
    with pytest.raises(TypeMismatchError, match="'m'.*int64"):
        ops.apply(halves, output=[("m", "int64")], block_fn=lambda b: b["v"])


def test_a_plane_of_the_wrong_shape_names_its_component(halves):
    with pytest.raises(TypeMismatchError, match="'w'"):
        ops.apply(
            halves, output=[("w", "float")], block_fn=lambda b: b["v"][:2]
        )


def test_one_bad_plane_of_several_names_its_component(halves):
    with pytest.raises(TypeMismatchError, match="'flag'"):
        ops.apply(
            halves, output=[("w", "float"), ("flag", "bool")],
            block_fn=lambda b: {"w": b["v"], "flag": b["v"] * 2},
        )


def test_fn_and_block_fn_raise_the_same_error_for_the_same_values(halves):
    with pytest.raises(TypeMismatchError):
        ops.apply(halves, lambda cell: cell.v, [("m", "int64")])
    with pytest.raises(TypeMismatchError):
        ops.apply(halves, output=[("m", "int64")], block_fn=lambda b: b["v"])


def test_planes_that_cast_are_written(halves):
    out = ops.apply(
        halves, output=[("w", "float"), ("n", "int64")],
        block_fn=lambda b: {"w": (b["v"] > 1).astype(np.int32),
                            "n": np.ones(b["v"].shape, np.int8)},
    )
    assert [tuple(c.values) for _, c in out.cells()] == [
        (0.0, 1), (1.0, 1), (1.0, 1), (1.0, 1)
    ]
