"""Cost model for physical-plan strategy choice and row estimates.

The model is deliberately simple — a per-operator ms/cell rate — because
its inputs are real: every executed query leaves an operator tree in the
flight recorder's QueryProfile store (PR 8) with measured ``time_ms`` and
``cells_scanned``/``cells_out`` per operator.  :meth:`CostModel.observe`
folds those into an exponentially-weighted moving average, so the model
self-calibrates as the workload runs; :meth:`CostModel.from_profiles`
warm-starts one from the recorder's retained history.

Strategy choice covers the two decisions the executor used to make by
exception-driven trial (``try native; except SchemaError: gather``):

* **aggregate** — algebraic aggregates (sum/count/avg/min/max/stdev)
  decompose into per-node partials merged at the coordinator; holistic
  ones (median, arbitrary callables) cannot, so the plan gathers.
* **sjoin** — arrays co-located on the same grid join node-locally;
  otherwise the smaller side would have to move, which this engine
  realizes as a gather.

Seeding defaults were measured once on single-core CPython; they only
matter until the first few queries overwrite them.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Iterable, Optional

__all__ = ["CostModel", "ALGEBRAIC_AGGREGATES", "DEFAULT_MS_PER_CELL"]

#: Aggregates with a partial/merge decomposition (mirrors the operator
#: layer's ``_ALGEBRAIC_MERGES`` in :mod:`repro.cluster.grid`).
ALGEBRAIC_AGGREGATES = frozenset({"sum", "count", "avg", "min", "max", "stdev"})

#: Seed rates (ms per cell handled) until observations arrive.
DEFAULT_MS_PER_CELL: dict[str, float] = {
    "scan": 0.004,
    "subsample": 0.004,
    "filter": 0.006,
    "apply": 0.006,
    "project": 0.004,
    "aggregate": 0.005,
    "regrid": 0.008,
    "sjoin": 0.010,
    "cjoin": 0.015,
}
_FALLBACK_RATE = 0.006


class CostModel:
    """EWMA per-operator cost rates + strategy choices.

    Thread-safe: the executor observes completed profiles from the query
    thread while the planner reads rates from wherever a plan is built.
    """

    def __init__(self, alpha: float = 0.3) -> None:
        self.alpha = alpha
        self._rates: dict[str, float] = {}
        self._samples: dict[str, int] = {}
        self._lock = threading.Lock()

    # -- calibration ----------------------------------------------------

    def observe(self, profile: Any) -> int:
        """Fold one executed operator tree (an ``OperatorProfile``-shaped
        object: ``op``/``time_ms``/``cells_scanned``/``cells_out``/
        ``children``) into the per-op rates.  Returns how many operator
        samples were absorbed.  Duck-typed so callers need not import
        the observability layer.
        """
        absorbed = 0
        stack = [profile]
        with self._lock:
            while stack:
                p = stack.pop()
                if p is None:
                    continue
                stack.extend(getattr(p, "children", ()) or ())
                op = getattr(p, "op", None)
                if not op or getattr(p, "error", None):
                    continue
                units = int(getattr(p, "cells_scanned", 0) or 0) + int(
                    getattr(p, "cells_out", 0) or 0
                )
                time_ms = float(getattr(p, "time_ms", 0.0) or 0.0)
                if units <= 0 or time_ms <= 0.0:
                    continue
                rate = time_ms / units
                if not math.isfinite(rate):
                    continue
                prev = self._rates.get(op)
                self._rates[op] = (
                    rate if prev is None
                    else prev + self.alpha * (rate - prev)
                )
                self._samples[op] = self._samples.get(op, 0) + 1
                absorbed += 1
        return absorbed

    @classmethod
    def from_profiles(
        cls, profiles: Iterable[Any], alpha: float = 0.3
    ) -> "CostModel":
        """Warm-start a model from retained QueryProfiles (oldest first,
        so recent queries dominate the EWMA)."""
        model = cls(alpha=alpha)
        for qp in profiles:
            root = getattr(qp, "root", None)
            if root is not None:
                model.observe(root)
        return model

    # -- estimation ------------------------------------------------------

    def ms_per_cell(self, op: str) -> float:
        with self._lock:
            rate = self._rates.get(op)
        if rate is not None:
            return rate
        return DEFAULT_MS_PER_CELL.get(op, _FALLBACK_RATE)

    def estimate_ms(self, op: str, cells: int) -> float:
        return self.ms_per_cell(op) * max(0, cells)

    def samples(self, op: str) -> int:
        with self._lock:
            return self._samples.get(op, 0)

    def calibration(self) -> dict[str, dict[str, float]]:
        """Current rates + sample counts, for export/inspection."""
        with self._lock:
            return {
                op: {"ms_per_cell": rate, "samples": self._samples.get(op, 0)}
                for op, rate in sorted(self._rates.items())
            }

    # -- strategy choice ---------------------------------------------------

    def aggregate_strategy(self, agg: Any) -> str:
        """``"partial-aggregate"`` when the aggregate decomposes into
        per-node partials, else ``"gather"``."""
        if isinstance(agg, str) and agg in ALGEBRAIC_AGGREGATES:
            return "partial-aggregate"
        return "gather"

    def sjoin_strategy(
        self, left: Optional[Any], right: Optional[Any]
    ) -> str:
        """``"copartitioned"`` when both sides live on the same grid
        (node-local join legal), else ``"gather"``.  Descriptions are
        :class:`~repro.query.stats.ArrayDescription`-shaped; unknown
        sides (computed subtrees) default to copartitioned-if-same-grid
        being unknowable, i.e. ``"gather"`` only when provably apart."""
        if left is None or right is None:
            return "copartitioned"  # runtime identity check still applies
        if not getattr(left, "distributed", False) or not getattr(
            right, "distributed", False
        ):
            return "copartitioned"
        lg, rg = getattr(left, "grid_id", None), getattr(right, "grid_id", None)
        if lg is not None and rg is not None and lg != rg:
            return "gather"
        return "copartitioned"
