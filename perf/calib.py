"""Host-speed calibration: the timing rule that makes runs comparable.

Raw CPU timings on a shared host drift by ten percent and more from one
process launch to the next, and by a factor of two for seconds or minutes
when a neighbour is busy, which alone would break "repeats within a
tenth".  The driver therefore times a fixed probe before and after every
operation; the operation's *host speed factor* is the mean of the two
probes, each expressed as a ratio to the reference host.  An in-process
sample is divided by its factor before any median is taken, so a ``*_ms``
metric reads as milliseconds "at reference host speed".

The probe has three parts because the host's slow spells do not slow
all code alike: native numpy/zlib work dilates least, a register-bound
interpreter spin more, code that churns objects through the caches most,
and the engine's statement classes are mixes of the three.  The ratio is
the geometric mean of the three parts' ratios.  Measured over eight
launches per estimator on the defining host while it was busy (CV of a
launch's per-class median, worst class of a workload): raw 6-16 %, spin
and walk only 6-7 %, all three parts 4-6 %.

``SPIN_REF_MS``, ``WALK_REF_MS`` and ``NATIVE_REF_MS`` are the medians
measured on the host that defined the benchmark while it was quiet.  A change that claims a gain never edits
them or the probe.
"""

from __future__ import annotations

import time
import zlib

import numpy as np

SPIN_ITERS = 40_000
WALK_ITERS = 3_000
NATIVE_ITERS = 12
#: medians on the defining host (2 cores, CPython 3.11.7)
SPIN_REF_MS = 6.4
WALK_REF_MS = 0.97
NATIVE_REF_MS = 4.0

_VALUES = np.random.default_rng(0).random(WALK_ITERS)
_PLANE = np.round(np.random.default_rng(1).random((64, 64)) * 50.0, 3)
_BLOB = zlib.compress(_PLANE.tobytes(), 6)


def spin_ms() -> float:
    """Register-bound interpreter work: integer arithmetic and a small
    dict store per iteration."""
    table: dict[int, int] = {}
    put = table.__setitem__
    acc = 0
    t0 = time.perf_counter()
    for i in range(SPIN_ITERS):
        acc = (acc + i * 7) & 0xFFFF
        put(acc & 0xFF, i)
    return (time.perf_counter() - t0) * 1e3


def walk_ms() -> float:
    """Object churn, the stuff of the engine's cell walks: a numpy
    scalar read, a tuple key and a record stored per iteration."""
    cells: dict[tuple[int, int], tuple] = {}
    values = _VALUES
    t0 = time.perf_counter()
    for i in range(WALK_ITERS):
        v = values[i]
        key = (i & 63, i >> 6)
        cells[key] = (float(v), key)
    return (time.perf_counter() - t0) * 1e3


def native_ms() -> float:
    """Native work that the interpreter only dispatches: inflate a
    bucket-sized plane, slice, mask and reduce it, deflate the slice."""
    t0 = time.perf_counter()
    for _ in range(NATIVE_ITERS):
        plane = np.frombuffer(zlib.decompress(_BLOB)).reshape(64, 64)
        block = plane[8:40, 8:40].copy()
        np.where(block > 25.0, block, np.nan).sum()
        zlib.compress(block.tobytes(), 1)
    return (time.perf_counter() - t0) * 1e3


class HostSpeed:
    """The probe, and every reading it took; > 1 is slower than the
    reference host."""

    def __init__(self) -> None:
        self.spins: list[float] = []
        self.walks: list[float] = []
        self.natives: list[float] = []
        self.ratios: list[float] = []

    def probe(self) -> float:
        spin, walk, native = spin_ms(), walk_ms(), native_ms()
        self.spins.append(spin)
        self.walks.append(walk)
        self.natives.append(native)
        self.ratios.append((
            (spin / SPIN_REF_MS) * (walk / WALK_REF_MS)
            * (native / NATIVE_REF_MS)
        ) ** (1.0 / 3.0))
        return self.ratios[-1]
