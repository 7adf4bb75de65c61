"""The science benchmark (Section 2.15), SS-DB-shaped.

The paper promises "a science benchmark ... a collection of tasks"; the
published form of that promise is SS-DB (Cudre-Mauroux et al.), built
around telescope-style imagery: raw integer frames over time, a cooking
stage, detected observations, and queries spanning raw slabs, regridding,
per-epoch statistics, detection, co-located joins, and time series.

:class:`SSDB` generates the data set once and runs the query set Q1–Q9 on
either backend:

* ``"native"`` — the SciDB array engine (:mod:`repro.core`);
* ``"table"`` — the same data as (x, y, t, value) rows on the relational
  baseline (:mod:`repro.baseline`).

Both backends compute identical answers (validated by the test suite);
experiment E12 reports the per-query timing ratio.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from ..core.array import SciArray
from ..core.ops import content as cops
from ..core.ops import structural as sops
from ..core.ops.content import aggregate_all
from ..core.schema import define_array
from ..query.ast import AttrPredicate, PredicateConjunction
from ..baseline.arraysim import ArrayOnTable
from ..baseline.tabledb import TableDB

__all__ = ["SSDB", "SSDB_QUERIES"]

#: The query ids in benchmark order.
SSDB_QUERIES = ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9")

RAW_SCHEMA = define_array("SSDBRaw", {"v": "float"}, ["x", "y", "t"])

#: Detection threshold (in cooked units) for Q5/Q6.
DETECT_THRESHOLD = 0.55
GAIN, OFFSET = 0.001, 100.0


class SSDB:
    """Data generator + dual-backend query set."""

    def __init__(self, side: int = 24, epochs: int = 4, seed: int = 0) -> None:
        self.side = side
        self.epochs = epochs
        rng = np.random.default_rng(seed)
        # Raw counts: a smooth background + point sources + noise.
        x = np.arange(side)[:, None, None] / side
        y = np.arange(side)[None, :, None] / side
        t = np.arange(epochs)[None, None, :]
        background = 400 + 120 * np.sin(2 * np.pi * (x + y)) * np.cos(
            0.5 * t
        )
        data = background + rng.normal(0, 20, size=(side, side, epochs))
        # Sprinkle bright sources (the "observations").
        n_src = max(4, side * side // 60)
        for _ in range(n_src):
            sx, sy = rng.integers(0, side, size=2)
            data[sx, sy, :] += rng.uniform(300, 900)
        self.data = np.clip(data, 0, 65535)
        self._native: Optional[SciArray] = None
        self._table: Optional[ArrayOnTable] = None

    # -- backends --------------------------------------------------------------------

    def native(self) -> SciArray:
        if self._native is None:
            self._native = SciArray.from_numpy(
                RAW_SCHEMA, self.data, name="ssdb_raw"
            )
        return self._native

    def table(self) -> ArrayOnTable:
        if self._table is None:
            db = TableDB()
            arr = ArrayOnTable(db, "ssdb_raw", dims=["x", "y", "t"], attrs=["v"])
            arr.load_dense(self.data)
            self._table = arr
        return self._table

    # -- helpers ---------------------------------------------------------------------

    @staticmethod
    def cook_value(v: float) -> float:
        return GAIN * (v - OFFSET)

    def _cooked(self, raw: SciArray) -> SciArray:
        """Counts -> radiance, as one masked numpy pass."""
        return cops.apply(
            raw,
            output=[("radiance", "float")],
            block_fn=lambda b: GAIN * (b["v"] - OFFSET),
        )

    def _detections(self) -> SciArray:
        """Cooked cells above the detection threshold (the rest NULL)."""
        return cops.filter(
            self._cooked(self.native()),
            PredicateConjunction(
                (AttrPredicate("radiance", ">", DETECT_THRESHOLD),)
            ),
        )

    def slab(self) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        q = self.side // 4
        return (q + 1, q + 1, 1), (2 * q, 2 * q, 1)

    # -- the query set ------------------------------------------------------------------
    # Each query has a _native and a _table implementation returning
    # comparable plain-Python results.

    def q1(self, backend: str) -> float:
        """Q1: average raw value over a spatial slab of epoch 1."""
        lo, hi = self.slab()
        if backend == "native":
            sub = sops.subsample(
                self.native(),
                {"x": (lo[0], hi[0]), "y": (lo[1], hi[1]), "t": 1},
            )
            return aggregate_all(sub, "avg")
        rows = self.table().subsample((lo, hi))
        values = [r[3] for r in rows]
        return sum(values) / len(values)

    def q2(self, backend: str) -> dict[tuple, float]:
        """Q2: regrid epoch 1 by a 4x4 spatial factor (avg)."""
        if backend == "native":
            epoch = sops.subsample(self.native(), {"t": 1})
            out = cops.regrid(epoch, [4, 4, 1], "avg")
            return {c[:2]: cell.avg for c, cell in out.cells()}
        db = TableDB()
        epoch_rows = self.table().slice("t", 1)
        tmp = ArrayOnTable(db, "epoch1", dims=["x", "y"], attrs=["v"])
        tmp.load_cells(((r[0], r[1]), (r[3],)) for r in epoch_rows)
        return tmp.regrid([4, 4], "avg")

    def q3(self, backend: str) -> dict[Any, float]:
        """Q3: per-epoch total flux (aggregate grouped on time)."""
        if backend == "native":
            out = cops.aggregate(self.native(), ["t"], "sum")
            return {c[0]: cell.sum for c, cell in out.cells()}
        return {
            k[0]: v for k, v in self.table().aggregate(["t"], "sum").items()
        }

    def q4(self, backend: str) -> float:
        """Q4: cook epoch 1 (counts -> radiance) and checksum it."""
        if backend == "native":
            epoch = sops.subsample(self.native(), {"t": 1})
            return aggregate_all(self._cooked(epoch), "sum", attr="radiance")
        rows = self.table().slice("t", 1)
        return sum(self.cook_value(r[3]) for r in rows)

    def q5(self, backend: str) -> int:
        """Q5: detect observations (cooked value above threshold)."""
        if backend == "native":
            return self._detections().count_present()
        return sum(
            1
            for row in self.table().table.scan()
            if self.cook_value(row[3]) > DETECT_THRESHOLD
        )

    def q6(self, backend: str) -> dict[tuple, float]:
        """Q6: detection density per 8x8 spatial block (all epochs)."""
        if backend == "native":
            # Filter leaves NULLs where nothing was detected; regrid counts
            # the surviving PRESENT cells of each block (ragged edge and
            # all) and leaves blocks without one EMPTY.
            density = cops.regrid(
                self._detections(), [8, 8, self.epochs], "count"
            )
            return {c[:2]: cell.count for c, cell in density.cells()}
        groups: dict[tuple, float] = {}
        for row in self.table().table.scan():
            if self.cook_value(row[3]) > DETECT_THRESHOLD:
                key = ((row[0] - 1) // 8 + 1, (row[1] - 1) // 8 + 1)
                groups[key] = groups.get(key, 0) + 1
        return groups

    def q7(self, backend: str) -> float:
        """Q7: co-located join of epochs 1 and 2; mean absolute change."""
        if backend == "native":
            e1 = sops.remove_dimension(
                sops.subsample(self.native(), {"t": 1}), "t"
            )
            e2 = sops.remove_dimension(
                sops.subsample(self.native(), {"t": 2}), "t"
            )
            joined = sops.sjoin(e1, e2, on=[("x", "x"), ("y", "y")])
            blocks = joined.region((1, 1), joined.bounds, fill=0)
            return float(np.abs(blocks["v"] - blocks["v_r"]).mean())
        db = TableDB()
        t1 = ArrayOnTable(db, "e1", dims=["x", "y"], attrs=["v"])
        t2 = ArrayOnTable(db, "e2", dims=["x", "y"], attrs=["v"])
        t1.load_cells(((r[0], r[1]), (r[3],)) for r in self.table().slice("t", 1))
        t2.load_cells(((r[0], r[1]), (r[3],)) for r in self.table().slice("t", 2))
        joined = t1.join(t2)
        diffs = [abs(row[2] - row[5]) for row in joined]
        return sum(diffs) / len(diffs)

    def q8(self, backend: str) -> list[float]:
        """Q8: the time series of the central cell across all epochs."""
        c = self.side // 2
        if backend == "native":
            series = sops.subsample(self.native(), {"x": c, "y": c})
            return [cell.v for _, cell in series.cells(include_null=False)]
        out = []
        for t in range(1, self.epochs + 1):
            out.append(self.table().get((c, c, t))[0])
        return out

    def q9(self, backend: str) -> tuple[float, float]:
        """Q9: global mean and standard deviation of the raw data."""
        if backend == "native":
            return (
                aggregate_all(self.native(), "avg"),
                aggregate_all(self.native(), "stdev"),
            )
        values = [row[3] for row in self.table().table.scan()]
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        return mean, var**0.5

    # -- driver -----------------------------------------------------------------------

    def query(self, qid: str) -> Callable[[str], Any]:
        return getattr(self, qid.lower())

    def run_all(self, backend: str) -> dict[str, Any]:
        if backend not in ("native", "table"):
            raise ValueError(f"unknown backend {backend!r}")
        return {qid: self.query(qid)(backend) for qid in SSDB_QUERIES}
