"""Composable cooking pipelines executed through the provenance engine
(Sections 2.10, 2.11).

A :class:`CookingStep` is a named engine operation; a
:class:`CookingPipeline` runs a sequence of them through a
:class:`~repro.provenance.log.ProvenanceEngine`'s ``execute``, so "accurate
provenance information" is recorded for every (named, catalogued)
intermediate — the paper's argument for cooking *inside* the DBMS.

The compositing step implements the paper's named-version use case
directly: a composite image is built from several satellite passes by
picking, per cell, "the observation with least cloud cover" — and a
scientist who instead wants "the observation when the satellite is closest
to being directly overhead" gets it via :func:`recook_region`, which
re-composites only their study region into a named version.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from ..core.array import SciArray
from ..core.cells import Cell
from ..core.errors import SchemaError
from ..core.ops import register_operator
from ..core.schema import ArraySchema, define_array
from ..history.versions import Version
from ..provenance.log import ProvenanceEngine
from ..storage.loader import LoadRecord, LoadReport, load_stream
from ..storage.manager import StorageManager
from ..storage.quarantine import QuarantineStore

__all__ = [
    "CookingStep",
    "CookingPipeline",
    "load_stage",
    "decode_counts",
    "calibrate",
    "cloud_filter",
    "regrid_step",
    "apply_step",
    "composite_passes",
    "recook_region",
    "COMPOSITE_SCHEMA",
    "PASS_SCHEMA",
]

#: One satellite pass: measured value + cloud fraction + off-nadir angle.
PASS_SCHEMA = define_array(
    "SatellitePass",
    values={"value": "float", "cloud": "float", "zenith": "float"},
    dims=["x", "y"],
)

#: A cooked composite: the chosen value plus which pass supplied it.
COMPOSITE_SCHEMA = define_array(
    "Composite",
    values={"value": "float", "source_pass": "int32"},
    dims=["x", "y"],
)

#: Compositing strategies (Section 2.11's two scientists).
STRATEGIES = ("least_cloud", "most_overhead")


@dataclass(frozen=True)
class CookingStep:
    """One named stage of a pipeline: an operator plus its parameters."""

    op: str
    params: dict
    label: str

    def output_name(self, base: str, index: int) -> str:
        return f"{base}__{index}_{self.label}"


class CookingPipeline:
    """A sequence of cooking steps run through the provenance engine."""

    def __init__(self, engine: ProvenanceEngine, steps: Sequence[CookingStep]) -> None:
        if not steps:
            raise SchemaError("a cooking pipeline needs at least one step")
        self.engine = engine
        self.steps = list(steps)

    def run(self, input_name: str, output_name: Optional[str] = None) -> SciArray:
        """Cook catalog array *input_name*; every step is logged."""
        names = [s.output_name(input_name, i) for i, s in enumerate(self.steps)]
        if output_name:
            names[-1] = output_name
        for step, source, out in zip(self.steps, [input_name] + names, names):
            result = self.engine.execute(step.op, [source], out, **step.params)
        return result


# -- stage 0: durable ingest of the raw stream -------------------------------------


def load_stage(
    stream: Iterable[LoadRecord],
    schema: ArraySchema,
    directory: "str | Path",
    name: str = "raw",
    batch_size: int = 64,
    tolerant: bool = True,
    quarantine: Optional[QuarantineStore] = None,
    load_epoch: int = 0,
) -> tuple[SciArray, LoadReport]:
    """Stage 0 of every cooking pipeline: get the raw data in, durably.

    The paper's scientists are "still trying to load my data" — so the
    ingest that feeds a pipeline must not restart from byte zero when a
    feed hiccups.  This drives *stream* through the checkpointed
    :class:`~repro.storage.loader.BulkLoader` into a persistent array
    under *directory*: batches commit atomically, a crash mid-stream
    resumes from the last committed batch on the next call with the same
    *load_epoch*, and (in the default tolerant mode) malformed records are
    quarantined with their source offsets instead of poisoning the cook.

    Returns the materialised raw array (ready for
    :meth:`CookingPipeline.run`) and the :class:`LoadReport` describing
    what was loaded, skipped, and quarantined.
    """
    manager = StorageManager(Path(directory))
    target = manager.ensure_array(name, schema)
    report = load_stream(
        target, stream, batch_size, load_epoch, tolerant, quarantine
    )
    return target.to_sciarray(name), report


# -- step constructors -------------------------------------------------------------


def decode_counts(
    gain: float = 0.01, offset: float = 100.0, attr: str = "counts"
) -> CookingStep:
    """Counts → physical units (the decode stage)."""

    def fn(cell: Cell) -> float:
        return gain * (getattr(cell, attr) - offset)

    return CookingStep(
        "apply",
        {"fn": fn, "output": [("value", "float")]},
        label="decode",
    )


def calibrate(scale: float, bias: float = 0.0, attr: str = "value") -> CookingStep:
    """Apply a calibration correction ('correcting for calibration
    information')."""

    def fn(cell: Cell) -> float:
        return scale * getattr(cell, attr) + bias

    return CookingStep(
        "apply", {"fn": fn, "output": [("value", "float")]}, label="calibrate"
    )


def cloud_filter(max_cloud: float, attr: str = "cloud") -> CookingStep:
    """NULL out cloudy cells ('correcting for cloud cover')."""
    return CookingStep(
        "filter",
        {"predicate": lambda cell: getattr(cell, attr) <= max_cloud},
        label="cloudmask",
    )


def regrid_step(factors: Sequence[int], agg: str = "avg",
                attr: Optional[str] = None) -> CookingStep:
    return CookingStep(
        "regrid",
        {"factors": list(factors), "agg": agg, "attr": attr},
        label="regrid",
    )


def apply_step(fn: Callable[[Cell], object],
               output: Sequence[tuple[str, str]], label: str) -> CookingStep:
    """An arbitrary user cooking stage."""
    return CookingStep("apply", {"fn": fn, "output": list(output)}, label=label)


# -- multi-pass compositing (the Section 2.11 use case) -------------------------------


def _pick(strategy: str, candidates: list[tuple[int, Cell]]) -> tuple[int, Cell]:
    if strategy == "least_cloud":
        return min(candidates, key=lambda pc: pc[1].cloud)
    if strategy == "most_overhead":
        return min(candidates, key=lambda pc: abs(pc[1].zenith))
    raise SchemaError(
        f"unknown compositing strategy {strategy!r}; choose from {STRATEGIES}"
    )


def composite_passes(
    *passes: SciArray,
    strategy: str = "least_cloud",
    name: str = "composite",
) -> SciArray:
    """Build one composite from several satellite passes.

    Per cell, the strategy selects which pass's observation survives:
    ``least_cloud`` (the default cooking algorithm) or ``most_overhead``
    (the dissenting scientist's).  Cells observed by no pass stay EMPTY.
    """
    if not passes:
        raise SchemaError("compositing needs at least one pass")
    bounds = passes[0].bounds
    for p in passes[1:]:
        if p.bounds != bounds:
            raise SchemaError("all passes must cover the same grid")
    out = COMPOSITE_SCHEMA.create(name, list(bounds))
    per_cell: dict[tuple, list[tuple[int, Cell]]] = {}
    for idx, p in enumerate(passes, start=1):
        for coords, cell in p.cells(include_null=False):
            per_cell.setdefault(coords, []).append((idx, cell))
    for coords, candidates in per_cell.items():
        source, chosen = _pick(strategy, candidates)
        out[coords] = (chosen.value, source)
    return out


register_operator("composite_passes", composite_passes)


def recook_region(
    version: Version,
    region: tuple[tuple[int, ...], tuple[int, ...]],
    passes: Sequence[SciArray],
    strategy: str = "most_overhead",
) -> int:
    """Re-composite only *region* with a different strategy, writing the
    replacement values into a named version (Section 2.11's scenario:
    "the same as a parent data set for much of the study region, but
    different in a portion").

    Returns the number of cells written to the version's delta — which is
    what "consumes essentially no space" means operationally.
    """
    lo, hi = region
    per_cell: dict[tuple, list[tuple[int, Cell]]] = {}
    for idx, p in enumerate(passes, start=1):
        for coords, cell in p.cells(include_null=False):
            if all(l <= c <= h for c, l, h in zip(coords, lo, hi)):
                per_cell.setdefault(coords, []).append((idx, cell))
    if not per_cell:
        return 0
    txn = version.begin()
    for coords, candidates in per_cell.items():
        source, chosen = _pick(strategy, candidates)
        txn.set(coords, (chosen.value, source))
    txn.commit()
    return len(per_cell)
