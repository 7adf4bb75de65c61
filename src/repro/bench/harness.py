"""Shared measurement utilities for the experiment suite.

Keeps the ``benchmarks/`` modules small: timing with warmup, ratio
formatting, and a fixed-width result table that prints the same
rows/series EXPERIMENTS.md records.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

__all__ = ["Measurement", "measure", "ratio", "ResultTable"]


@dataclass
class Measurement:
    """Wall-clock timing of one callable: the total and each repeat's."""

    label: str
    seconds: float
    repeats: int
    result: Any = None
    samples: Sequence[float] = ()

    @property
    def per_call(self) -> float:
        """The median repeat, so one slow repeat does not move it."""
        return statistics.median(self.samples or [self.seconds / self.repeats])

    def __repr__(self) -> str:
        return f"<{self.label}: {self.per_call * 1e3:.3f} ms/call x{self.repeats}>"


def measure(
    fn: Callable[[], Any],
    label: str = "",
    repeats: int = 3,
    warmup: int = 1,
) -> Measurement:
    """Time each of *repeats* calls of *fn* after warmup; keeps the last
    result for validation."""
    result = None
    for _ in range(warmup):
        result = fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - start)
    return Measurement(label or getattr(fn, "__name__", "fn"), sum(samples),
                       repeats, result, tuple(samples))


def ratio(slow: Measurement, fast: Measurement) -> float:
    """slow/fast per-call ratio (the 'who wins by what factor' number)."""
    if fast.per_call == 0:
        return float("inf")
    return slow.per_call / fast.per_call


class ResultTable:
    """A fixed-width text table, printed the way EXPERIMENTS.md records it."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: list[list[str]] = []

    def add(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append([_fmt(v) for v in values])

    def render(self) -> str:
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in self.rows))
            if self.rows
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [self.title, "-" * len(self.title)]
        lines.append("  ".join(c.ljust(w) for c, w in zip(self.columns, widths)))
        for row in self.rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        return "\n".join(lines)

    def print(self) -> None:  # pragma: no cover - console side effect
        print()
        print(self.render())


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.3f}"
    return str(value)
