"""In-situ data access: querying external files without a load stage
(Section 2.9).

"A common complaint from scientists is 'I am looking forward to getting
something done, but I am still trying to load my data'."  SciDB therefore
operates on external files through *adaptors*.  An :class:`InSituArray`
exposes the subset of the :class:`~repro.core.array.SciArray` reading
surface (``get``, ``exists``, ``region``, ``cells``, ``subsample``) backed
directly by the file — nothing is copied until the user explicitly calls
:meth:`InSituArray.load`.

As the paper warns, in-situ data "will not have many DBMS services, such as
recovery since it is under user control and not DBMS control": adaptors are
read-only, unlogged, and unversioned.  :attr:`InSituArray.services` spells
that out programmatically.

External files are also exactly where malformed bytes come from, so every
adaptor raises a typed :class:`~repro.core.errors.InSituFormatError`
carrying the file path and a source offset (CSV line number, NPY header,
container chunk index) instead of leaking ``ValueError``/``KeyError``/
``struct.error`` from its parsing internals.  :meth:`InSituArray.records`
exposes the file as a stream of offset-tagged
:class:`~repro.storage.loader.LoadRecord`\\ s and
:meth:`InSituArray.load_into` drives that stream through the checkpointed
:class:`~repro.storage.loader.BulkLoader` — the explicit load stage gains
crash-resumability and quarantine exactly like any other ingest.

Adaptors provided: CSV (coords + attribute columns), NPY (a dense numpy
array, one attribute), and the SciDB container format of
:mod:`repro.storage.format` — the stand-ins for the paper's HDF-5 and
NetCDF examples, which are structured the same way (named datasets +
chunk directory).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from ..core.array import SciArray, block_cells
from ..core.cells import Cell
from ..core.errors import InSituError, InSituFormatError
from ..core.schema import ArraySchema, define_array
from .format import DECODE_ERRORS, ContainerReader
from .loader import LoadRecord, LoadReport, load_stream
from .quarantine import QuarantineStore

__all__ = [
    "InSituArray",
    "CsvAdaptor",
    "NpyAdaptor",
    "SciDBContainerAdaptor",
    "open_in_situ",
]

Coords = tuple[int, ...]

#: Services a fully loaded array enjoys that in-situ data does not.
_IN_SITU_SERVICES = {
    "query": True,
    "recovery": False,
    "no_overwrite_history": False,
    "named_versions": False,
    "provenance_log": False,
}


class InSituArray:
    """Read-only array facade over an external file."""

    def __init__(self, schema: ArraySchema, path: Path) -> None:
        self.schema = schema
        self.path = path
        self.name = path.stem
        #: Reduced service level (Section 2.9).
        self.services = dict(_IN_SITU_SERVICES)

    # -- to be provided by adaptors ------------------------------------------------

    def cells(self) -> Iterator[tuple[Coords, Optional[Cell]]]:
        raise NotImplementedError

    # -- generic reading surface ------------------------------------------------------

    @property
    def ndim(self) -> int:
        return self.schema.ndim

    @property
    def attr_names(self) -> tuple[str, ...]:
        return self.schema.attr_names

    @property
    def dim_names(self) -> tuple[str, ...]:
        return self.schema.dim_names

    def get(self, *coords: int) -> Optional[Cell]:
        target = tuple(coords[0]) if len(coords) == 1 and isinstance(
            coords[0], tuple
        ) else tuple(coords)
        for c, cell in self.cells():
            if c == target:
                return cell
        raise InSituError(f"cell {target} not present in {self.path.name}")

    def exists(self, *coords: int) -> bool:
        try:
            self.get(*coords)
        except InSituError:
            return False
        return True

    def records(self) -> Iterator[LoadRecord]:
        """The file as an offset-tagged load stream.

        Offsets are cell ordinals by default; adaptors override this to
        report source-native offsets (CSV line numbers, chunk indexes).
        """
        for i, (coords, cell) in enumerate(self.cells()):
            yield LoadRecord(
                coords, None if cell is None else tuple(cell.values), offset=i
            )

    def load(self, name: Optional[str] = None) -> SciArray:
        """The explicit load stage: copy everything into a SciArray."""
        arr = SciArray(self.schema, name=name or self.name)
        for record in self.records():
            arr.set(
                record.coords,
                None if record.values is None
                else Cell(self.schema.attr_names, tuple(record.values)),
            )
        return arr

    def load_into(
        self,
        target,
        batch_size: int = 64,
        tolerant: bool = False,
        quarantine: Optional[QuarantineStore] = None,
        load_epoch: int = 0,
        max_retries: int = 3,
    ) -> LoadReport:
        """Durable load stage: drive :meth:`records` through the
        checkpointed :class:`~repro.storage.loader.BulkLoader` into
        *target* (a :class:`~repro.storage.manager.PersistentArray` or any
        object with the same sink surface).

        Batches commit atomically on the target; re-running after a crash
        under the same *load_epoch* skips committed batches, so a load
        interrupted halfway through a large external file resumes instead
        of restarting.  With ``tolerant=True`` malformed-but-routable
        records land in the quarantine store instead of aborting.
        """
        return load_stream(
            target, self.records(), batch_size, load_epoch, tolerant,
            quarantine, max_retries,
        )

    def count(self) -> int:
        return sum(1 for _ in self.cells())


class CsvAdaptor(InSituArray):
    """CSV files with one row per cell: dimension columns then attributes.

    The header row must name every column; dimension columns are those
    matching *dims*.  Attribute types default to float; pass ``types`` to
    override per attribute.
    """

    def __init__(
        self,
        path: "str | Path",
        dims: Sequence[str],
        types: Optional[dict[str, str]] = None,
    ) -> None:
        path = Path(path)
        with open(path, newline="") as f:
            reader = csv.reader(f)
            try:
                header = next(reader)
            except StopIteration:
                raise InSituError(f"{path} is empty") from None
        missing = [d for d in dims if d not in header]
        if missing:
            raise InSituError(f"{path} lacks dimension columns {missing}")
        attr_cols = [c for c in header if c not in dims]
        if not attr_cols:
            raise InSituError(f"{path} has no attribute columns")
        types = types or {}
        schema = define_array(
            _safe_name(path.stem),
            values=[(c, types.get(c, "float")) for c in attr_cols],
            dims=list(dims),
        )
        super().__init__(schema, path)
        self._dims = list(dims)
        self._attr_cols = attr_cols
        self._header = header

    def cells(self) -> Iterator[tuple[Coords, Optional[Cell]]]:
        names = self.schema.attr_names
        for record in self.records():
            yield record.coords, Cell(names, tuple(record.values))

    def records(self) -> Iterator[LoadRecord]:
        """Rows as load records; ``offset`` is the 1-based source line.

        Malformed rows — wrong column count, non-integer dimension,
        unparsable attribute — raise :class:`InSituFormatError` naming the
        line, so a tolerant checkpointed load can quarantine by source
        position and a strict one aborts with an actionable message.
        """
        idx = {c: i for i, c in enumerate(self._header)}
        expect = len(self._header)
        with open(self.path, newline="") as f:
            reader = csv.reader(f)
            next(reader)  # header (line 1)
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != expect:
                    raise InSituFormatError(
                        self.path,
                        f"row has {len(row)} columns, expected {expect}",
                        offset=f"line {lineno}",
                    )
                try:
                    coords = tuple(int(row[idx[d]]) for d in self._dims)
                except ValueError as exc:
                    raise InSituFormatError(
                        self.path,
                        f"non-integer dimension value: {exc}",
                        offset=f"line {lineno}",
                    ) from exc
                values = []
                for c in self._attr_cols:
                    raw = row[idx[c]]
                    a = self.schema.attribute(c)
                    try:
                        if raw == "":
                            values.append(None)
                        elif a.type.name in ("string",):
                            values.append(raw)
                        elif "int" in a.type.name:
                            values.append(int(raw))
                        else:
                            values.append(float(raw))
                    except ValueError as exc:
                        raise InSituFormatError(
                            self.path,
                            f"attribute {c!r} unparsable as "
                            f"{a.type.name}: {raw!r}",
                            offset=f"line {lineno}",
                        ) from exc
                yield LoadRecord(coords, tuple(values), offset=lineno)


class NpyAdaptor(InSituArray):
    """A dense ``.npy`` array exposed as a single-attribute array.

    Uses ``mmap_mode='r'`` so only touched pages are read — the in-situ
    point in its purest form.
    """

    def __init__(
        self,
        path: "str | Path",
        attr: str = "value",
        dims: Optional[Sequence[str]] = None,
    ) -> None:
        path = Path(path)
        try:
            self._data = np.load(path, mmap_mode="r")
        except (ValueError, OSError, EOFError) as exc:
            # np.load reports a truncated or corrupt header as a bare
            # ValueError; surface it as a typed in-situ failure instead.
            raise InSituFormatError(
                path, f"unreadable NPY file: {exc}", offset="header"
            ) from exc
        if self._data.dtype == object:
            raise InSituFormatError(
                path, "object-dtype NPY arrays are not in-situ readable",
                offset="header",
            )
        ndim = self._data.ndim
        dims = list(dims) if dims else [f"d{i}" for i in range(1, ndim + 1)]
        if len(dims) != ndim:
            raise InSituError(
                f"{path} is {ndim}-D but {len(dims)} dimension names given"
            )
        type_name = "int64" if np.issubdtype(self._data.dtype, np.integer) else "float"
        schema = define_array(
            _safe_name(path.stem), values=[(attr, type_name)], dims=dims
        ).bind(list(self._data.shape))
        super().__init__(schema, path)

    def cells(self) -> Iterator[tuple[Coords, Optional[Cell]]]:
        names = self.schema.attr_names
        for off in np.ndindex(*self._data.shape):
            coords = tuple(int(i + 1) for i in off)
            try:
                value = self._data[off].item()
            except (ValueError, OSError) as exc:
                # A file truncated below what its header promises fails
                # here, on the first touch of an unbacked page.
                raise InSituFormatError(
                    self.path,
                    f"data truncated below header-declared shape: {exc}",
                    offset=f"cell {coords}",
                ) from exc
            yield coords, Cell(names, (value,))

    def get(self, *coords: int) -> Optional[Cell]:
        target = tuple(coords[0]) if len(coords) == 1 and isinstance(
            coords[0], tuple
        ) else tuple(coords)
        off = tuple(c - 1 for c in target)
        if any(not 0 <= o < s for o, s in zip(off, self._data.shape)):
            raise InSituError(f"cell {target} outside {self.path.name}")
        return Cell(self.schema.attr_names, (self._data[off].item(),))

    def region(self, lo: Coords, hi: Coords) -> np.ndarray:
        sel = tuple(slice(l - 1, h) for l, h in zip(lo, hi))
        return np.asarray(self._data[sel])


class SciDBContainerAdaptor(InSituArray):
    """The self-describing container format, read lazily chunk by chunk.

    Header and chunk-directory corruption raises
    :class:`InSituFormatError` with the failing chunk index — never a raw
    ``KeyError``/``struct.error`` from the decoder.
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self._reader = self._typed(
            "corrupt container header", "header", ContainerReader, path
        )
        super().__init__(self._reader.schema, self.path)

    def _typed(self, what: str, offset: str, read, *args):
        try:
            return read(*args)
        except InSituError:
            raise
        except DECODE_ERRORS as exc:
            raise InSituFormatError(
                self.path, f"{what}: {exc!r}", offset=offset
            ) from exc

    def cells(self) -> Iterator[tuple[Coords, Optional[Cell]]]:
        names = self.schema.attr_names
        count = self._typed(
            "corrupt chunk directory", "header",
            lambda: len(self._reader.header["chunks"]),
        )
        for i in range(count):
            block = self._typed(
                "corrupt chunk directory or payload", f"chunk {i}",
                self._reader.read_block, i,
            )
            yield from block_cells(*block, names)

    def chunk_boxes(self):
        return self._typed(
            "corrupt chunk directory", "header", self._reader.chunk_boxes
        )

    def load(self, name: Optional[str] = None) -> SciArray:
        return self._typed(
            "corrupt container payload", "load",
            self._reader.to_sciarray, name or self.name,
        )


def _safe_name(stem: str) -> str:
    cleaned = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in stem)
    if not cleaned or not cleaned[0].isalpha():
        cleaned = f"a_{cleaned}"
    return cleaned


def open_in_situ(path: "str | Path", **options: Any) -> InSituArray:
    """Open an external file through the adaptor its extension selects.

    ``.csv`` needs ``dims=[...]``; ``.npy`` accepts ``attr=``/``dims=``;
    ``.scidb`` opens the container format.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".csv":
        if "dims" not in options:
            raise InSituError("CSV adaptor requires dims=[...]")
        return CsvAdaptor(path, **options)
    if suffix == ".npy":
        return NpyAdaptor(path, **options)
    if suffix in (".scidb", ".sdb"):
        return SciDBContainerAdaptor(path)
    raise InSituError(f"no in-situ adaptor for {suffix!r} files")
