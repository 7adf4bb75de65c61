"""Seeded inputs: the arrays and statements every workload is built from.

Numpy only — nothing here imports the engine.  The same seed gives the
same arrays, threshold and window; what varies with the seed is *values*
and the window's offset, never the amount of work: the window keeps its
size, the buckets it overlaps and so its place in a cold cache's
eviction order; the filter keeps its selectivity; the classes keep
their order in the round (a sub-millisecond statement costs half as
much again right after a 100 ms cell walk as after another small one).
So a metric can be compared across seeds.

Sizes are SS-DB "small" (Cheng & Rusu: 1600x1600 cells per image) scaled
down by 1/1111 per plane to 48x48, so that twenty rounds of six statement
classes fit in a twelve-second run on a two-core host.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: side of the sky planes (embedded, grid) and of the service array
SIDE = 48
EPOCHS = 4
SVC_SIDE = 16
#: bucket stride of every disk-backed array; value bands follow it
STRIDE = 8
WINDOW_SIDE = 12
REGRID = 4
#: ingest_mixed: columns, pre-loaded rows, rows per batch
OBS_COLS = 64
OBS_BASE_ROWS = 16
OBS_BATCH_ROWS = 4

READ_CLASSES = ("window", "filter", "aggregate", "scan", "regrid", "sjoin")

Planes = dict[str, np.ndarray]


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def clustered(
    rng: np.random.Generator, shape: tuple[int, ...], x0: int = 0
) -> np.ndarray:
    """``flux``: value-clustered along x in bands one bucket stride wide
    (band b holds 100*b + [0, 50)), the way time-monotone, spatially
    smooth instrument data clusters.  Bucket min/max ranges are tight and
    disjoint along x, so a threshold inside the top band lets the
    statistics prune every other band's buckets — for every seed.
    Row 0 of the block sits at 0-based x = *x0*."""
    band = ((x0 + np.arange(shape[0])) // STRIDE + 1) * 100.0
    band = band.reshape((-1,) + (1,) * (len(shape) - 1))
    return np.round(band + rng.random(shape) * 50.0, 3)


def noise(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return np.round(0.001 + rng.random(shape), 3)


def planes(rng: np.random.Generator, shape: tuple[int, ...]) -> Planes:
    return {"flux": clustered(rng, shape), "err": noise(rng, shape)}


def number(value: float) -> str:
    """A float as the AQL tokenizer reads it (no exponent form)."""
    return f"{value:.6f}"


def window_box(rng: np.random.Generator, side: int) -> tuple[int, int]:
    """1-based inclusive ``(lo, hi)`` of a WINDOW_SIDE run on one axis.

    Always the last two stride blocks of the axis — the ones a full scan
    evicts first from a small cache — entered 2 to 5 cells deep."""
    block = side // STRIDE - 2
    lo = STRIDE * block + int(rng.integers(2, 6))
    return lo, lo + WINDOW_SIDE - 1


@dataclass(frozen=True)
class Statements:
    """The six read statements over one array (and its join partner)."""

    text: dict[str, str]
    window: tuple[tuple[int, int], tuple[int, int]]
    threshold: float


def read_statements(
    rng: np.random.Generator,
    array: str,
    flux: np.ndarray,
    join: tuple[str, str],
    ndim: int = 2,
    within: str = "",
) -> Statements:
    """AQL for the six classes over *array*; ``sjoin`` joins the *join*
    pair on x and y.

    *within* is an optional ``x <= n`` restriction wrapped around the
    left-hand arrays (ingest_mixed reads its fixed base rows beside the
    writes, and builds its own ``window`` over the rows just written)."""
    side_x, side_y = flux.shape[0], flux.shape[1]
    wx, wy = window_box(rng, side_x), window_box(rng, side_y)
    # The formatted text is what the engine parses, so the oracle must
    # compare against exactly that value.
    threshold = float(number(float(np.quantile(flux, 7 / 8))))

    def restricted(name: str) -> str:
        return f"subsample({name}, {within})" if within else name

    source, (left, right) = restricted(array), join
    box = f"x >= {wx[0]} and x <= {wx[1]} and y >= {wy[0]} and y <= {wy[1]}"
    factors = [REGRID, REGRID] + [1] * (ndim - 2)
    text = {
        "window": f"select subsample({array}, {box})",
        "filter": f"select filter({source}, flux > {number(threshold)})",
        "aggregate": f"select aggregate({source}, {{x}}, sum(flux))",
        "scan": f"select filter({source}, flux > 0.5)",
        "regrid": f"select regrid({source}, {factors}, avg(flux))",
        "sjoin": (
            f"select sjoin({restricted(left)}, {right}, "
            f"{left}.x = {right}.x and {left}.y = {right}.y)"
        ),
    }
    return Statements(text, (wx, wy), threshold)
