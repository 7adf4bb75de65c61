"""Write-ahead logging and crash recovery for *loaded* arrays.

Section 2.9 contrasts in-situ data — "will not have many DBMS services,
such as recovery" — with DBMS-controlled data, which implicitly does get
them.  This module supplies that recovery service: cell writes are appended
to a per-store log before being acknowledged, and :meth:`WriteAheadLog.recover`
replays the log into fresh arrays after a crash.  The in-situ benchmark
(E9) uses this to make the service-level trade-off concrete.

Records are newline-delimited JSON, fsync'd per commit batch.  Every
record carries a CRC32 of its own payload (the ``"crc"`` field, appended
last), so recovery can tell a *torn tail* — a crash mid-append, which is
legal and simply ends the replayable prefix — from *mid-log corruption*
(bit rot, a truncated middle, an edited file), which raises
:class:`~repro.core.errors.StorageError` rather than silently dropping
every committed record after the bad line.
"""

from __future__ import annotations

import datetime as _dt
import json
import os
import threading
import zlib
from pathlib import Path
from typing import Any, Iterator, Optional

from ..core.array import SciArray
from ..core.errors import StorageError
from ..core.schema import ArraySchema, define_array
from ..obs import tracing
from ..obs.recorder import emit as _flight_emit

__all__ = ["WriteAheadLog"]


def _jsonable(obj: Any) -> Any:
    """Narrow numpy scalars (int64 etc.) to their Python equivalents so
    cell payloads scanned off disk buckets stay loggable."""
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"WAL record value {obj!r} is not JSON-serializable")


def _schema(record: dict[str, Any]) -> ArraySchema:
    """The schema a ``create``/``create_updatable`` record logged."""
    name = record["array"]
    return define_array(
        name if name.isidentifier() else "recovered",
        values=[(a["name"], a["type"]) for a in record["attrs"]],
        dims=[(d["name"], d["size"]) for d in record["dims"]],
        updatable=record["op"] == "create_updatable",
    )


def _verified(line: str) -> dict[str, Any]:
    """Parse one logged line, checking its CRC; ``ValueError`` if bad."""
    record = json.loads(line)
    crc = record.pop("crc", None)
    if crc is not None and zlib.crc32(json.dumps(record).encode("utf-8")) != crc:
        raise ValueError("checksum mismatch")
    return record


class WriteAheadLog:
    """An append-only redo log covering one directory of arrays."""

    def __init__(self, path: "str | Path", sync: bool = False) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.sync = sync
        self._fh = open(self.path, "a", encoding="utf-8")
        self.records_appended = 0
        self.commits = 0
        # Parallel repartition/rebuild can append from several scheduler
        # workers; interleaved writes to one file handle would tear lines.
        self._lock = threading.Lock()

    # -- logging ----------------------------------------------------------------

    def log_create(self, array: Any) -> None:
        """Record an array's schema: a loaded :class:`SciArray`
        (``create``) or an updatable array (``create_updatable``,
        Section 2.5)."""
        updatable = not isinstance(array, SciArray)
        self._append({
            "op": "create_updatable" if updatable else "create",
            "array": array.name,
            "dims": [
                {"name": d.name, "size": d.size}
                # the implicit history dimension is re-added on replay
                for d in array.schema.dimensions[: -1 if updatable else None]
            ],
            "attrs": [
                {"name": a.name, "type": getattr(a.type, "name", "float64")}
                for a in array.schema.attributes
            ],
        })

    def log_write(
        self, array_name: str, coords: tuple, values: Optional[tuple]
    ) -> None:
        self._append(
            {
                "op": "write",
                "array": array_name,
                "coords": list(coords),
                "values": None if values is None else list(values),
            }
        )

    def log_delete(self, array_name: str, coords: tuple) -> None:
        self._append({"op": "delete", "array": array_name, "coords": list(coords)})

    def log_load_commit(
        self, array_name: str, epoch: "int | str", seq: int
    ) -> None:
        """Record one checkpointed load-batch commit (Section 2.8 ingest).

        Written *after* the batch's cell writes, so a WAL replay that sees
        the marker has already re-applied every cell of the batch — the
        restored cursor never claims more than the replay delivered.
        *epoch* may be a scoped string key (``"0/p2"``) on grid nodes.
        """
        self._append(
            {"op": "load_commit", "array": array_name,
             "epoch": epoch, "seq": int(seq)}
        )

    # -- updatable (no-overwrite) arrays -----------------------------------------

    def log_commit(
        self, array_name: str, history: int, writes: dict, when: _dt.datetime
    ) -> None:
        """Record one no-overwrite commit and its wall-clock time; *writes*
        maps cell coords to a value tuple, ``None`` (NULL) or the deletion
        flag."""
        from ..history.transactions import DELETED

        encoded = []
        for coords, values in writes.items():
            if values is DELETED:
                encoded.append({"coords": list(coords), "deleted": True})
                continue
            if values is not None and not isinstance(values, tuple):
                values = (values,)  # bare scalar on a 1-attribute array
            encoded.append({
                "coords": list(coords),
                "values": None if values is None else list(values),
            })
        self._append({
            "op": "commit",
            "array": array_name,
            "history": history,
            "timestamp": when.isoformat(),
            "writes": encoded,
        })

    def commit(self) -> None:
        """Durability point: flush (and optionally fsync) the log."""
        with self._lock:
            self._fh.flush()
            if self.sync:
                os.fsync(self._fh.fileno())
            self.commits += 1

    def _append(self, record: dict[str, Any]) -> None:
        payload = json.dumps(record, default=_jsonable)
        crc = zlib.crc32(payload.encode("utf-8"))
        # Splice the checksum in as the final key: the CRC covers exactly
        # the serialization of the record without it, which entries() can
        # reconstruct (json.loads preserves key order).
        with self._lock:
            self._fh.write(payload[:-1] + f', "crc": {crc}}}\n')
            self.records_appended += 1
        tracing.add_current("wal_appends", 1)

    def close(self) -> None:
        self.commit()
        self._fh.close()

    # -- recovery -------------------------------------------------------------------

    def entries(self) -> Iterator[dict[str, Any]]:
        """Iterate verified records.

        A bad **final** line (unparsable or failing its CRC) is a torn
        tail from a crash mid-append: legal, replay stops silently there.
        A bad line **followed by further records** means the log itself is
        damaged — raising :class:`StorageError` is mandatory, because
        silently truncating would discard committed records after the bad
        line.
        """
        self.commit()
        with open(self.path, encoding="utf-8") as f:
            lines = [
                (i, stripped)
                for i, raw in enumerate(f, start=1)
                if (stripped := raw.strip())
            ]
        for pos, (lineno, line) in enumerate(lines):
            try:
                record = _verified(line)
            except ValueError as exc:  # JSONDecodeError is a ValueError
                if pos == len(lines) - 1:
                    return  # torn final record from a crash: legal
                raise StorageError(
                    f"WAL corruption at {self.path.name}:{lineno} "
                    f"({exc}) with committed records after it"
                ) from None
            yield record

    def truncate_torn_tail(self) -> int:
        """Chop an unparsable/bad-CRC final record off the log file.

        A crash mid-append leaves a torn tail; real logs must remove it
        before appending again, or the next record would concatenate onto
        the partial line and turn a legal torn tail into mid-log
        corruption.  Returns the number of bytes removed (0 when the log
        is clean or empty).
        """
        self.commit()
        with open(self.path, encoding="utf-8") as f:
            raw_lines = f.readlines()
        kept = len(raw_lines)
        while kept:
            last = raw_lines[kept - 1].strip()
            if not last:
                kept -= 1
                continue
            try:
                _verified(last)
            except ValueError:
                kept -= 1
            break
        if kept == len(raw_lines):
            return 0
        keep_bytes = len("".join(raw_lines[:kept]).encode("utf-8"))
        total = os.path.getsize(self.path)
        with open(self.path, "r+", encoding="utf-8") as f:
            f.truncate(keep_bytes)
        _flight_emit(
            "wal_torn_tail",
            path=self.path.name,
            bytes_removed=total - keep_bytes,
        )
        return total - keep_bytes

    def recover(self) -> dict[str, SciArray]:
        """Replay the log, returning the reconstructed arrays by name."""
        return self._replay()[0]

    def recover_updatable(self) -> "dict[str, Any]":
        """Replay the log's updatable arrays, every commit at its logged
        wall-clock time (a record without one gets an untimed commit's)."""
        return self._replay()[1]

    def _replay(self) -> "tuple[dict[str, SciArray], dict[str, Any]]":
        from ..history.transactions import DELETED, UpdatableArray

        loaded: dict[str, SciArray] = {}
        updatable: dict[str, UpdatableArray] = {}
        for record in self.entries():
            op = record["op"]
            if op == "create":
                loaded[record["array"]] = SciArray(
                    _schema(record), name=record["array"]
                )
            elif op == "create_updatable":
                updatable[record["array"]] = UpdatableArray(
                    _schema(record), name=record["array"]
                )
            elif op == "write":
                values = record["values"]
                self._target(loaded, record).set(
                    tuple(record["coords"]), None if values is None else tuple(values)
                )
            elif op == "delete":
                self._target(loaded, record).delete(tuple(record["coords"]))
            elif op == "commit":
                txn = self._target(updatable, record).begin()
                for w in record["writes"]:
                    values = DELETED if w.get("deleted") else w["values"]
                    if isinstance(values, list):
                        values = tuple(values)
                    txn.set(w["coords"], values)
                when = record.get("timestamp")
                replayed = txn.commit(
                    None if when is None else _dt.datetime.fromisoformat(when)
                )
                if replayed != record["history"]:
                    raise StorageError(
                        f"replay drift on {record['array']!r}: commit "
                        f"{record['history']} landed at {replayed}"
                    )
            elif op != "load_commit":  # load cursors are the node's to replay
                raise StorageError(f"unknown WAL op {op!r}")
        return loaded, updatable

    @staticmethod
    def _target(arrays: dict[str, Any], record: dict[str, Any]) -> Any:
        try:
            return arrays[record["array"]]
        except KeyError:
            raise StorageError(
                f"WAL {record['op']} to array {record['array']!r} before its "
                "create record"
            ) from None
