"""The grouped fold over a block's segments, against a sequential model.

A grid partition's grouped read is one block and its *segments* — the
boxes of the buckets it was built from, in bucket-id order.
``Grouping.local`` computes the partials of segments alike in shape and
runs in one call and folds them into the held partials rank by rank.
The claim is that this is exact: the same bits as taking each segment
as a block of its own, its partial by ``_partial``, absorbed with
``_absorb`` in segment order.  The model below does exactly that, one
segment at a time, over a dense total.

Tilings are a stride grid with some 2x2 groups of tiles merged (mixed
shapes, as ``merge_small_buckets`` leaves them), some tiles left out,
in a random order, at a random block origin (so regrid phases vary).
Values include NaN, +-inf, -0.0 and int64 beyond 2**53; states mix
PRESENT, NULL and EMPTY, so some segments hold no cell.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro import define_array
from repro.cluster.readpath import Blocks
from repro.core.array import Chunk, SciArray
from repro.core.cells import CellState
from repro.core.ops import content

pytestmark = pytest.mark.tier1

BUILTINS = ["sum", "count", "min", "max", "avg", "stdev"]
FLOATS = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 0.1, 1e300, -1e-300]),
    st.floats(-1e6, 1e6),
)
INTS = st.one_of(
    st.sampled_from([2**53 + 1, -(2**53) - 3, 2**60, -(2**60), 0]),
    st.integers(-(2**62) // 64, 2**62 // 64),
)


@st.composite
def cases(draw):
    ndim = draw(st.integers(2, 3))
    stride = [draw(st.integers(1, 4)) for _ in range(ndim)]
    tiles = [draw(st.integers(1, 4)) for _ in range(ndim)]
    shape = tuple(s * t - draw(st.integers(0, s - 1)) for s, t in zip(stride, tiles))
    origin = tuple(draw(st.integers(1, 5)) for _ in range(ndim))
    boxes = []
    for corner in itertools.product(*(range(0, t, 2) for t in tiles)):
        group = [
            tuple(c + d for c, d in zip(corner, step))
            for step in itertools.product((0, 1), repeat=ndim)
        ]
        group = [g for g in group if all(k < t for k, t in zip(g, tiles))]
        merged = draw(st.booleans())
        for part in [group] if merged else [[g] for g in group]:
            lo = [min(g[d] for g in part) * s for d, s in enumerate(stride)]
            hi = [min((max(g[d] for g in part) + 1) * s, n) - 1
                  for d, (s, n) in enumerate(zip(stride, shape))]
            if draw(st.integers(0, 9)):  # now and then a tile is left out
                boxes.append((lo, hi))
    assume(boxes)  # a block the read kept holds a cell, so a segment
    order = draw(st.permutations(range(len(boxes))))
    boxes = [boxes[i] for i in order]
    cells = int(np.prod(shape))
    states = draw(st.lists(st.sampled_from([0, 1, 1, 1, 2]), min_size=cells, max_size=cells))
    if draw(st.booleans()):
        dtype, values = "float", draw(st.lists(FLOATS, min_size=cells, max_size=cells))
    else:
        dtype, values = "int64", draw(st.lists(INTS, min_size=cells, max_size=cells))
    if draw(st.booleans()):
        op = "regrid"
        groups = [draw(st.integers(1, 4)) for _ in range(ndim)]
    else:
        op = "aggregate"
        dims = draw(st.permutations(range(ndim)))
        groups = [f"d{d}" for d in dims[: draw(st.integers(1, ndim))]]
    return op, groups, origin, shape, boxes, np.array(states, np.uint8), dtype, values


def layout(op, groups, origin, shape):
    """A segment's runs, group key and axis order, written out again."""
    if op == "regrid":
        runs = [None if f == 1 else ((1 - o) % f, f) for o, f in zip(origin, groups)]
        return runs, tuple((o - 1) // f + 1 for o, f in zip(origin, groups)), None
    positions = [int(g[1:]) for g in groups]
    runs = [None if d in positions else (0, n) for d, n in enumerate(shape)]
    return runs, tuple(origin[p] for p in positions), positions


def model(name, out, op, groups, origin, plane, state, boxes):
    """Each segment's ``_partial``, absorbed in order into a dense total."""
    total = like = None
    for lo, hi in boxes:
        at = tuple(slice(l, h + 1) for l, h in zip(lo, hi))
        corner = tuple(o + l for o, l in zip(origin, lo))
        runs, key, positions = layout(op, groups, corner, plane[at].shape)
        part = content._partial(name, plane[at], state[at] == CellState.PRESENT, runs)
        if positions is not None:
            part = part.squeeze(tuple(
                d + 1 for d in range(plane.ndim) if d not in positions
            )).transpose(0, *(sorted(positions).index(p) + 1 for p in positions))
        if total is None:
            like = part
            total = np.zeros((len(part), *out.bounds), part.dtype)
            total[1:2] = content._identity(name, part.dtype)
        far = tuple(k + n - 1 for k, n in zip(key, part.shape[1:]))
        into = total[(slice(None), *(slice(k - 1, f) for k, f in zip(key, far)))]
        content._absorb(name, into, part)
    return total, like


@settings(
    max_examples=200, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(cases(), st.sampled_from(BUILTINS))
def test_the_fold_over_segments_is_the_sequential_fold(case, name):
    op, groups, origin, shape, boxes, states, dtype, values = case
    ndim = len(shape)
    schema = define_array("S", {"v": dtype}, [f"d{d}" for d in range(ndim)]).bind(
        [o + n - 1 for o, n in zip(origin, shape)]
    )
    plane = np.array(values, np.float64 if dtype == "float" else np.int64).reshape(shape)
    state = states.reshape(shape)
    grouping = content.Grouping(op, SciArray(schema), groups, name)
    source = Blocks([Chunk(origin, shape, state, {"v": plane})])
    source.boxes = [np.array([
        [[o + l for o, l in zip(origin, lo)], [o + h for o, h in zip(origin, hi)]]
        for lo, hi in boxes
    ], np.int64).reshape(-1, 2, ndim)]
    with np.errstate(all="ignore"):  # inf - inf, as the sequential fold meets it
        held = grouping.local(source)
        want, like = model(name, grouping.out, op, groups, origin, plane, state, boxes)
    if want is None:
        assert held == {}
        return
    got = np.zeros_like(want)
    got[1:2] = content._identity(name, like.dtype)
    for corner, part in held.values():
        at = tuple(slice(c - 1, c - 1 + n) for c, n in zip(corner, part.shape[1:]))
        got[(slice(None), *at)] = part
    assert got.dtype == want.dtype
    assert bits(got) == bits(want)


def bits(part):
    """The bytes of *part*, every NaN the one NaN: which of two NaNs an
    addition returns is up to numpy's loop, not to the order of the fold
    (a -0.0 or a last-bit difference still shows)."""
    return (np.where(np.isnan(part), np.nan, part) if part.dtype.kind == "f" else part).tobytes()
