"""A small relational engine: the comparator substrate (Section 2.1).

Deliberately a *real* (if minimal) row engine rather than a strawman:
heap-stored tuples, hash indexes with equality lookups, predicate scans,
hash joins, and grouped aggregation — the machinery a relational system
would actually use to host an array simulated as a table.  Everything is
pure Python, like the array engine's cell paths, so the E1 ratio compares
designs, not implementation languages.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from ..core.errors import SchemaError, StorageError

__all__ = ["HashIndex", "Table", "TableDB"]

Row = tuple


class HashIndex:
    """An equality index over one or more columns."""

    def __init__(self, table: "Table", columns: Sequence[str]) -> None:
        self.table = table
        self.columns = tuple(columns)
        self._positions = tuple(table.position(c) for c in columns)
        self._map: dict[tuple, list[int]] = {}
        for rid, row in enumerate(table._rows):
            if row is not None:
                self._insert(rid, row)

    def _key(self, row: Row) -> tuple:
        return tuple(row[p] for p in self._positions)

    def _insert(self, rid: int, row: Row) -> None:
        self._map.setdefault(self._key(row), []).append(rid)

    def _remove(self, rid: int, row: Row) -> None:
        ids = self._map.get(self._key(row))
        if ids and rid in ids:
            ids.remove(rid)

    def lookup(self, key: tuple) -> Iterator[Row]:
        for rid in self._map.get(tuple(key), ()):
            row = self.table._rows[rid]
            if row is not None:
                yield row

    def __len__(self) -> int:
        return sum(len(v) for v in self._map.values())


class Table:
    """A heap table: named columns, tuple rows, optional hash indexes."""

    def __init__(self, name: str, columns: Sequence[str]) -> None:
        if not columns:
            raise SchemaError(f"table {name!r} needs at least one column")
        if len(set(columns)) != len(columns):
            raise SchemaError(f"duplicate column names in table {name!r}")
        self.name = name
        self.columns = tuple(columns)
        self._rows: list[Optional[Row]] = []
        self._indexes: dict[tuple[str, ...], HashIndex] = {}
        self.rows_scanned = 0  # work accounting for benchmarks

    # -- schema ------------------------------------------------------------------

    def position(self, column: str) -> int:
        try:
            return self.columns.index(column)
        except ValueError:
            raise SchemaError(
                f"table {self.name!r} has no column {column!r}"
            ) from None

    def create_index(self, columns: Sequence[str]) -> HashIndex:
        key = tuple(columns)
        if key in self._indexes:
            raise SchemaError(f"index on {key} already exists")
        idx = HashIndex(self, columns)
        self._indexes[key] = idx
        return idx

    def index_on(self, columns: Sequence[str]) -> Optional[HashIndex]:
        return self._indexes.get(tuple(columns))

    # -- modification -----------------------------------------------------------------

    def insert(self, row: Sequence[Any]) -> int:
        row = tuple(row)
        if len(row) != len(self.columns):
            raise SchemaError(
                f"row width {len(row)} != table width {len(self.columns)}"
            )
        rid = len(self._rows)
        self._rows.append(row)
        for idx in self._indexes.values():
            idx._insert(rid, row)
        return rid

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        n = 0
        for row in rows:
            self.insert(row)
            n += 1
        return n

    def delete_where(self, predicate: Callable[[Row], bool]) -> int:
        deleted = 0
        for rid, row in enumerate(self._rows):
            if row is not None and predicate(row):
                for idx in self._indexes.values():
                    idx._remove(rid, row)
                self._rows[rid] = None
                deleted += 1
        return deleted

    def update_where(
        self, predicate: Callable[[Row], bool],
        updater: Callable[[Row], Row],
    ) -> int:
        changed = 0
        for rid, row in enumerate(self._rows):
            if row is not None and predicate(row):
                new_row = tuple(updater(row))
                for idx in self._indexes.values():
                    idx._remove(rid, row)
                    idx._insert(rid, new_row)
                self._rows[rid] = new_row
                changed += 1
        return changed

    # -- queries -------------------------------------------------------------------------

    def scan(self) -> Iterator[Row]:
        for row in self._rows:
            if row is not None:
                self.rows_scanned += 1
                yield row

    def __len__(self) -> int:
        return sum(1 for r in self._rows if r is not None)

    def select(
        self,
        predicate: Optional[Callable[[Row], bool]] = None,
        columns: Optional[Sequence[str]] = None,
    ) -> list[Row]:
        positions = (
            [self.position(c) for c in columns] if columns is not None else None
        )
        out = []
        for row in self.scan():
            if predicate is None or predicate(row):
                out.append(
                    row if positions is None else tuple(row[p] for p in positions)
                )
        return out

    def lookup(self, columns: Sequence[str], key: tuple) -> list[Row]:
        """Equality lookup, via an index when one exists."""
        idx = self.index_on(columns)
        if idx is not None:
            return list(idx.lookup(key))
        positions = [self.position(c) for c in columns]
        return [
            row for row in self.scan()
            if tuple(row[p] for p in positions) == tuple(key)
        ]

    def group_by(
        self,
        group_columns: Sequence[str],
        agg_column: str,
        agg: str = "sum",
    ) -> dict[tuple, float]:
        """Grouped aggregation over a full scan."""
        gpos = [self.position(c) for c in group_columns]
        apos = self.position(agg_column)
        groups: dict[tuple, list[float]] = {}
        for row in self.scan():
            groups.setdefault(tuple(row[p] for p in gpos), []).append(row[apos])
        reducers: dict[str, Callable[[list], float]] = {
            "sum": sum,
            "count": len,
            "min": min,
            "max": max,
            "avg": lambda vs: sum(vs) / len(vs),
        }
        try:
            reduce = reducers[agg]
        except KeyError:
            raise SchemaError(f"unsupported table aggregate {agg!r}") from None
        return {k: reduce(vs) for k, vs in groups.items()}

    def hash_join(
        self,
        other: "Table",
        self_columns: Sequence[str],
        other_columns: Sequence[str],
    ) -> list[Row]:
        """Classic build/probe equi-join; output rows are concatenated."""
        if len(self_columns) != len(other_columns):
            raise SchemaError("join column lists must align")
        build_pos = [other.position(c) for c in other_columns]
        build: dict[tuple, list[Row]] = {}
        for row in other.scan():
            build.setdefault(tuple(row[p] for p in build_pos), []).append(row)
        probe_pos = [self.position(c) for c in self_columns]
        out = []
        for row in self.scan():
            key = tuple(row[p] for p in probe_pos)
            for match in build.get(key, ()):
                out.append(row + match)
        return out


class TableDB:
    """A named collection of tables (one 'database')."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}

    def create_table(self, name: str, columns: Sequence[str]) -> Table:
        if name in self._tables:
            raise StorageError(f"table {name!r} already exists")
        t = Table(name, columns)
        self._tables[name] = t
        return t

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise StorageError(f"no table named {name!r}") from None

    def drop_table(self, name: str) -> None:
        self.table(name)
        del self._tables[name]

    def names(self) -> list[str]:
        return sorted(self._tables)
