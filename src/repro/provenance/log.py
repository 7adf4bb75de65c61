"""The provenance command log and its engine (Section 2.12).

"For a sequence of processing steps inside SciDB, one merely needs to
record a log of the commands that were run to create A."

:class:`ProvenanceEngine` is that log plus the metadata repository, over a
catalog of named arrays — the query executor's own, when one is wired to
it.  Whoever runs an operator hands the engine what ran, and it appends a
:class:`LoggedCommand` (operator, input names, output name, parameters).
The log is the minimal-space provenance representation;
:mod:`repro.provenance.trace` re-derives item-level lineage — and any
intermediate nobody kept — from it on demand, and
:mod:`repro.provenance.itemstore` optionally records lineage eagerly
(Trio-style) as each command is logged.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Optional, Sequence

from ..core.array import SciArray
from ..core.errors import ProvenanceError
from ..core.ops import get_operator
from .repository import MetadataRepository

if TYPE_CHECKING:  # pragma: no cover
    from .itemstore import ItemLineageStore

__all__ = ["LoggedCommand", "CommandLog", "ProvenanceEngine"]


@dataclass(frozen=True)
class LoggedCommand:
    """One engine operation as recorded in the provenance log."""

    seq: int
    op: str
    inputs: tuple[str, ...]
    output: str
    params: Mapping[str, Any]

    def describe(self) -> str:
        params = ", ".join(f"{k}={_short(v)}" for k, v in self.params.items())
        return f"#{self.seq}: {self.output} = {self.op}({', '.join(self.inputs)}; {params})"


def _short(value: Any, limit: int = 40) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


class CommandLog:
    """Append-only, replayable log of commands."""

    def __init__(self) -> None:
        self._commands: list[LoggedCommand] = []

    def append(self, command: LoggedCommand) -> None:
        self._commands.append(command)

    def __len__(self) -> int:
        return len(self._commands)

    def __iter__(self) -> Iterator[LoggedCommand]:
        return iter(self._commands)

    def command_producing(self, array_name: str) -> Optional[LoggedCommand]:
        """The most recent command whose output is *array_name*."""
        for cmd in reversed(self._commands):
            if cmd.output == array_name:
                return cmd
        return None

    def commands_reading(
        self, array_name: str, after_seq: int = -1
    ) -> list[LoggedCommand]:
        """Commands that consumed *array_name*, in execution order."""
        return [
            c
            for c in self._commands
            if array_name in c.inputs and c.seq > after_seq
        ]

    def describe(self) -> str:
        return "\n".join(c.describe() for c in self._commands)


class ProvenanceEngine:
    """The derivation log and metadata repository over one array catalog.

    Parameters
    ----------
    itemstore:
        Optional :class:`~repro.provenance.itemstore.ItemLineageStore`;
        when provided, item-level lineage is recorded eagerly as each
        command is logged (the Trio design point).
    """

    def __init__(self, itemstore: "Optional[ItemLineageStore]" = None) -> None:
        #: name -> array; a wired Executor's ``arrays`` is this very dict
        self.catalog: dict[str, Any] = {}
        self.log = CommandLog()
        self.repository = MetadataRepository()
        self.itemstore = itemstore
        self._anonymous = itertools.count()
        # Concurrent statements (the multi-tenant service, or two threads
        # sharing one SciDB) bind names and commit derivations at the same
        # time; the catalog check-and-insert and the seq/log append must
        # each be one atomic step.
        self._lock = threading.Lock()

    # -- catalog ------------------------------------------------------------------

    def register_external(
        self,
        name: str,
        array: Any,
        program: str,
        parameters: Optional[Mapping[str, Any]] = None,
        inputs: Sequence[str] = (),
        description: str = "",
    ) -> Any:
        """Bind *name* to an externally-produced array, with its
        derivation record (the same object again is a no-op).  Over a name
        in use this *rebinds* it: the record carries the log's next
        ``seq``, so a trace never takes the new array for the old."""
        with self._lock:
            if self.catalog.get(name) is not array:
                self.catalog[name] = array
                self.repository.record(
                    name, program, parameters, inputs=inputs,
                    description=description, seq=len(self.log),
                )
        return array

    def get(self, name: str) -> Any:
        try:
            return self.catalog[name]
        except KeyError:
            raise ProvenanceError(f"no array named {name!r} in the catalog") from None

    def names(self) -> list[str]:
        return sorted(self.catalog)

    # -- the log --------------------------------------------------------------------

    def record(
        self,
        op: str,
        inputs: Sequence[str],
        output: Optional[str],
        params: Mapping[str, Any],
        arrays: Sequence[SciArray],
        result: Any,
    ) -> SciArray:
        """Append the command that derived *result* from *arrays*.

        A named *output* enters the catalog, and never overwrites; ``None``
        is an anonymous statement result, logged under the next ``__qN``
        and left to whoever holds it (a trace re-derives it from this)."""
        if not isinstance(result, SciArray):
            raise ProvenanceError(
                f"operator {op!r} did not return an array; only array-"
                "producing commands belong in the derivation log"
            )
        with self._lock:
            if output is None:
                output = f"__q{next(self._anonymous)}"
            elif output in self.catalog:
                raise ProvenanceError(
                    f"output {output!r} already exists; derivations never "
                    "overwrite (create a new name or a named version)"
                )
            else:
                self.catalog[output] = result
            result.name = output
            command = LoggedCommand(
                seq=len(self.log),
                op=op,
                inputs=tuple(inputs),
                output=output,
                params=dict(params),
            )
            self.log.append(command)
        if self.itemstore is not None:
            self.itemstore.record_command(command, arrays, result)
        return result

    def execute(
        self,
        op: str,
        inputs: Sequence[str],
        output: str,
        /,
        **params: Any,
    ) -> SciArray:
        """Run a catalog operator on catalogued names, enter the result
        under *output* and record the command.

        The operator is looked up in the user-extendable operator catalog;
        inputs are passed positionally, *params* as keywords.  It runs
        outside the engine's lock, so concurrent callers keep overlapping.
        """
        arrays = [self.get(n) for n in inputs]
        result = get_operator(op)(*arrays, **params)
        return self.record(op, inputs, output, params, arrays, result)

    def rerun(self, command: LoggedCommand, output: Optional[str] = None) -> SciArray:
        """Re-derive a command's output (the repeatability requirement).

        "This re-derivation will not overwrite old data, but will produce
        new value(s)": the result lands under a fresh name.
        """
        new_name = output or f"{command.output}__rederived_{len(self.log)}"
        return self.execute(
            command.op, command.inputs, new_name, **dict(command.params)
        )
