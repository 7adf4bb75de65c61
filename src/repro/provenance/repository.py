"""The metadata repository for externally-derived data (Section 2.12).

"For arrays that are loaded externally, scientists want a metadata
repository in which they can enter programs that were run along with their
run-time parameters, so that a record of provenance is available."

Each :class:`ExternalDerivation` records the program, its parameters, and
the named inputs it consumed; the repository indexes them by output array
so a backward trace that reaches an externally-loaded array terminates in
a human-readable derivation record rather than a dead end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from ..core.errors import ProvenanceError

__all__ = ["ExternalDerivation", "MetadataRepository"]


@dataclass(frozen=True)
class ExternalDerivation:
    """One externally-run program recorded for provenance."""

    output: str
    program: str
    parameters: tuple[tuple[str, Any], ...]
    inputs: tuple[str, ...] = ()
    description: str = ""
    #: the derivation log's length then: commands from ``seq`` on read this
    seq: int = 0

    def describe(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in self.parameters)
        src = f" from {', '.join(self.inputs)}" if self.inputs else ""
        return f"{self.output} = {self.program}({params}){src}"


class MetadataRepository:
    """Registry of external derivations, keyed by the array they produced."""

    def __init__(self) -> None:
        self._by_output: dict[str, list[ExternalDerivation]] = {}

    def record(
        self,
        output: str,
        program: str,
        parameters: Optional[Mapping[str, Any]] = None,
        inputs: Sequence[str] = (),
        description: str = "",
        seq: int = 0,
    ) -> ExternalDerivation:
        entry = ExternalDerivation(
            output=output,
            program=program,
            parameters=tuple(sorted((parameters or {}).items())),
            inputs=tuple(inputs),
            description=description,
            seq=seq,
        )
        self._by_output.setdefault(output, []).append(entry)
        return entry

    def derivations_of(self, output: str) -> list[ExternalDerivation]:
        return list(self._by_output.get(output, []))

    def latest(self, output: str) -> ExternalDerivation:
        entries = self._by_output.get(output)
        if not entries:
            raise ProvenanceError(
                f"no external derivation recorded for array {output!r}"
            )
        return entries[-1]

    def is_external(self, output: str) -> bool:
        return output in self._by_output
