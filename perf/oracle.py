"""The independent oracle: expected answers in dense numpy.

Each statement class is computed straight from the generated planes —
nothing here imports the engine, least of all ``repro.core.ops`` — and
compared cell for cell with what the engine returned, on every sample.
A mismatch is a failed operation, never a crash.

A result, expected or observed, is an :class:`Answer`: one dense float
plane per attribute with NaN wherever the cell is not PRESENT, plus the
PRESENT and occupied (PRESENT + NULL) counts.  The CSV+ route cannot
tell NULL from EMPTY, so there ``occupied`` is ``None`` and not compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

Planes = dict[str, np.ndarray]

#: grouped sums are re-associated by the partial-aggregate route
RTOL = 1e-9


@dataclass
class Answer:
    values: Planes
    present: int
    occupied: Optional[int]


def _dense(values: Planes) -> Answer:
    n = int(next(iter(values.values())).size)
    return Answer(values, n, n)


def window(planes: Planes, box: tuple[tuple[int, int], ...]) -> Answer:
    """Cut-out by 1-based inclusive ``(lo, hi)`` per leading axis; the
    result is rebased to 1 (Subsample semantics)."""
    cut = tuple(slice(lo - 1, hi) for lo, hi in box)
    return _dense({a: p[cut].copy() for a, p in planes.items()})


def filter_gt(planes: Planes, attr: str, threshold: float) -> Answer:
    """``filter(A, attr > t)``: same shape, failures are NULL."""
    keep = planes[attr] > threshold
    values = {a: np.where(keep, p, np.nan) for a, p in planes.items()}
    return Answer(values, int(keep.sum()), int(keep.size))


def aggregate_sum(planes: Planes, attr: str) -> Answer:
    """``aggregate(A, {x}, sum(attr))``: x is the leading axis."""
    p = planes[attr]
    return _dense({"sum": p.sum(axis=tuple(range(1, p.ndim)))})


def regrid_avg(planes: Planes, attr: str, factors: tuple[int, ...]) -> Answer:
    p = planes[attr]
    shape: list[int] = []
    for size, f in zip(p.shape, factors):
        shape += [size // f, f]
    blocks = p.reshape(shape)
    return _dense({"avg": blocks.mean(axis=tuple(range(1, 2 * p.ndim, 2)))})


def sjoin(left: Planes, right: Planes) -> Answer:
    """Full-dimension equijoin of equal-extent arrays: concatenated
    records, right-hand duplicates renamed ``<attr>_r``."""
    values = dict(left)
    for a, p in right.items():
        values[a if a not in values else f"{a}_r"] = p
    return _dense(values)


def matches(expected: Answer, got: Answer) -> bool:
    if got.present != expected.present:
        return False
    if got.occupied is not None and got.occupied != expected.occupied:
        return False
    if list(got.values) != list(expected.values):
        return False
    for attr, want in expected.values.items():
        have = got.values[attr]
        if have.shape != want.shape:
            return False
        if not np.allclose(have, want, rtol=RTOL, atol=0.0, equal_nan=True):
            return False
    return True
