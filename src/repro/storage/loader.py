"""Streaming bulk loader with checkpointed, resumable batches (Section 2.8).

"Most data will come into SciDB through a streaming bulk loader.  We assume
that the input stream is ordered by some dominant dimension — often time.
SciDB will divide the load stream into site-specific substreams.  Each one
will appear in the main memory of the associated node."

:class:`BulkLoader` consumes an iterator of :class:`LoadRecord` (coords +
values), routes each record to its site's substream through a partitioning
function, and feeds each substream into that site's
:class:`~repro.storage.manager.PersistentArray` (where buffering/spilling
happens).  Used standalone (single site) or by the grid layer with a real
partitioning scheme.

At LSST scale the load stream is too long to restart and too dirty to
trust, so the loader layers three robustness services on the routing core:

* **Checkpointing** — with ``batch_size > 0`` the stream is divided into
  numbered batches; each batch commits atomically per site (a grid node's
  WAL ``load_commit`` record; standalone, a spill + an ``os.replace``'d
  cursor file).  A crash mid-load resumes by re-driving the same stream
  under the same ``load_epoch``: every batch at or below a site's cursor
  is skipped, and a batch that died before its commit replays idempotently
  (cells are keyed by coordinates — dedup by ``(load_epoch, batch_seq)``
  guarantees no duplicates).
* **Quarantine** — in ``tolerant`` mode malformed records (bad arity,
  coords outside the shape, type errors, dominant-dimension regressions)
  are routed to a :class:`~repro.storage.quarantine.QuarantineStore` with
  the reason and source offset instead of aborting the stream.
* **Bounded retries** — a site append that raises
  :class:`~repro.core.errors.TransientIOError` (an injected or real
  intermittent I/O fault) is retried with deterministic exponential
  backoff, charged to the :class:`LoadReport`; only exhaustion raises
  :class:`~repro.core.errors.IngestError`.

Everything the load did — loaded / quarantined / skipped / retried counts,
batch accounting, substream skew, simulated backoff — is summarised in the
:class:`LoadReport` returned by :meth:`BulkLoader.report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

from ..core.errors import (
    IngestError,
    LoadInterrupted,
    StorageError,
    TransientIOError,
    TypeMismatchError,
)
from ..core.datatypes import ScalarType
from ..obs import tracing
from ..obs.recorder import emit as _flight_emit
from .quarantine import QuarantineStore

__all__ = ["LoadRecord", "LoadReport", "BulkLoader", "load_stream"]

Coords = tuple[int, ...]


@dataclass(frozen=True)
class LoadRecord:
    """One cell arriving on the load stream.

    ``offset`` optionally carries the record's position in its source
    (file line, flat index); the loader falls back to the stream ordinal
    when it is absent, so quarantined records are always addressable.
    """

    coords: Coords
    values: Optional[tuple]  # None loads an explicit NULL cell
    offset: Optional[int] = None


@dataclass
class LoadReport:
    """What one (possibly resumed) bulk load actually did."""

    epoch: int = 0
    records_seen: int = 0  #: records consumed from the stream
    records_loaded: int = 0  #: records stored (this run)
    records_quarantined: int = 0  #: records routed to the dead-letter store
    records_skipped: int = 0  #: replayed records below a site checkpoint
    records_retried: int = 0  #: transient-I/O retry attempts charged
    batches_committed: int = 0  #: per-site batch commits performed
    batches_replayed: int = 0  #: per-site batches skipped via the cursor
    backoff_ms: float = 0.0  #: simulated retry backoff charged
    store_latency_ms: float = 0.0  #: simulated slow-site latency charged
    skew: float = 0.0  #: max/mean records per site (load balance)
    per_site: dict = field(default_factory=dict)
    quarantine: Optional[QuarantineStore] = None

    @property
    def quarantine_rate(self) -> float:
        if self.records_seen == 0:
            return 0.0
        return self.records_quarantined / self.records_seen

    def summary(self) -> dict:
        return {
            "epoch": self.epoch,
            "seen": self.records_seen,
            "loaded": self.records_loaded,
            "quarantined": self.records_quarantined,
            "skipped": self.records_skipped,
            "retried": self.records_retried,
            "batches_committed": self.batches_committed,
            "batches_replayed": self.batches_replayed,
            "backoff_ms": self.backoff_ms,
            "skew": self.skew,
        }


class BulkLoader:
    """Routes a load stream into per-site substreams.

    Parameters
    ----------
    sites:
        Mapping from site id to that site's persistent array (or any sink
        exposing ``schema`` / ``append`` / ``flush`` and, for
        checkpointing, ``load_cursor`` / ``commit_load_batch``).
    route:
        ``route(coords) -> site id``; with a single site it may be omitted.
    dominant_dimension:
        Optional index of the stream's ordering dimension.  When set, the
        loader verifies the stream is in fact non-decreasing on it (the
        paper's stated assumption) — across *all* ``load()`` calls on this
        loader — and raises on violations (quarantines them in tolerant
        mode).
    batch_size:
        ``> 0`` enables checkpointed loading: the stream is cut into
        batches of this many consumed records, each committed atomically
        per site.  ``0`` (default) keeps the legacy streaming behaviour.
    load_epoch:
        Identity of this logical load.  A resume MUST reuse the epoch of
        the interrupted load (to dedup replayed batches); a fresh load of
        new data into the same arrays must use a new epoch.
    tolerant:
        Quarantine malformed records instead of raising.
    quarantine:
        Dead-letter store for tolerant mode (one is created on demand).
    max_retries / backoff_base_ms / backoff_max_ms:
        Bounded-retry policy for :class:`TransientIOError` from a site;
        the exponential backoff is capped at ``backoff_max_ms``.
    on_record:
        Optional hook invoked once per consumed record — the fault
        injector's crash clock
        (:meth:`~repro.cluster.faults.FaultInjector.on_load_record`).

    The loader is a context manager: ``finish()`` (flush every site
    buffer) runs on *both* success and error paths, so an exception
    mid-stream no longer strands buffered cells with no cleanup hook.
    """

    def __init__(
        self,
        sites: Mapping[object, "object"],
        route: Optional[Callable[[Coords], object]] = None,
        dominant_dimension: Optional[int] = None,
        batch_size: int = 0,
        load_epoch: int = 0,
        tolerant: bool = False,
        quarantine: Optional[QuarantineStore] = None,
        max_retries: int = 3,
        backoff_base_ms: float = 1.0,
        backoff_max_ms: float = 64.0,
        on_record: Optional[Callable[[], None]] = None,
    ) -> None:
        if not sites:
            raise StorageError("bulk loader needs at least one site")
        if batch_size < 0:
            raise StorageError("batch_size must be >= 0")
        if route is None:
            if len(sites) != 1:
                raise StorageError("multiple sites require a routing function")
            only = next(iter(sites))
            route = lambda coords: only  # noqa: E731
        self.sites = dict(sites)
        self.route = route
        self.dominant_dimension = dominant_dimension
        self.batch_size = batch_size
        self.load_epoch = load_epoch
        self.tolerant = tolerant
        self.quarantine = quarantine if quarantine is not None else (
            QuarantineStore() if tolerant else None
        )
        self.max_retries = max_retries
        self.backoff_base_ms = backoff_base_ms
        self.backoff_max_ms = backoff_max_ms
        self.on_record = on_record
        self.schema = getattr(next(iter(self.sites.values())), "schema", None)
        self.records_loaded = 0
        self.per_site_counts: dict[object, int] = {k: 0 for k in self.sites}
        self.stats = LoadReport(epoch=load_epoch, quarantine=self.quarantine)
        # Stream-order state persists across load() calls on one loader —
        # the dominant-dimension contract is a property of the whole
        # stream, not of one call.
        self._last_dominant: Optional[int] = None
        self._offset = 0  #: next stream ordinal (source offset fallback)
        self._batch_seq = 0  #: next batch number (deterministic replay key)

    # -- context management ------------------------------------------------------

    def __enter__(self) -> "BulkLoader":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            self.finish()
        except Exception:
            if exc_type is None:
                raise
            # A failing flush must not mask the in-flight error (e.g. a
            # crashed node): the original exception propagates.
        return False

    # -- validation ---------------------------------------------------------------

    def _check(self, record: LoadRecord) -> "tuple[str, str] | None":
        """Validate one record; returns ``(reason, detail)`` on rejection."""
        schema = self.schema
        coords = record.coords
        if schema is not None:
            if len(coords) != schema.ndim:
                return (
                    "bad_arity",
                    f"{len(coords)} coords for a {schema.ndim}-D array",
                )
            for c, dim in zip(coords, schema.dimensions):
                if not isinstance(c, int):
                    try:
                        c = int(c)
                    except (TypeError, ValueError):
                        return ("bad_coords", f"non-integer coordinate {c!r}")
                if not dim.contains(c):
                    return (
                        "out_of_bounds",
                        f"{dim.name}={c} outside {dim}",
                    )
            if record.values is not None:
                if len(record.values) != len(schema.attributes):
                    return (
                        "bad_arity",
                        f"{len(record.values)} values for "
                        f"{len(schema.attributes)} attributes",
                    )
                for attr, v in zip(schema.attributes, record.values):
                    if isinstance(attr.type, ScalarType):
                        try:
                            attr.type.validate(v)
                        except TypeMismatchError as exc:
                            return ("type_error", str(exc))
        if self.dominant_dimension is not None:
            value = record.coords[self.dominant_dimension]
            if self._last_dominant is not None and value < self._last_dominant:
                return (
                    "dominant_regression",
                    f"{value} after {self._last_dominant} on the dominant "
                    "dimension",
                )
        return None

    def _admit(self, record: LoadRecord, offset: int) -> "object | None":
        """Validate and route one record; returns its site or ``None``.

        In tolerant mode a rejected record lands in the quarantine store;
        in strict mode only dominant-dimension violations and router
        errors raise (validation of shapes/types is a tolerant-mode
        service — strict mode preserves the raw fail-fast pipeline).
        """
        if self.tolerant:
            rejection = self._check(record)
            if rejection is not None:
                reason, detail = rejection
                self.quarantine.add(
                    offset, reason, detail,
                    coords=tuple(record.coords),
                    batch_seq=self._batch_seq if self.batch_size else None,
                )
                self.stats.records_quarantined += 1
                return None
        elif self.dominant_dimension is not None:
            value = record.coords[self.dominant_dimension]
            if self._last_dominant is not None and value < self._last_dominant:
                raise StorageError(
                    "load stream is not ordered by the dominant "
                    f"dimension: {value} after {self._last_dominant}"
                )
        if self.dominant_dimension is not None:
            self._last_dominant = record.coords[self.dominant_dimension]
        site = self.route(record.coords)
        if site not in self.sites:
            if self.tolerant:
                self.quarantine.add(
                    offset, "unroutable",
                    f"router returned unknown site {site!r}",
                    coords=tuple(record.coords),
                    batch_seq=self._batch_seq if self.batch_size else None,
                )
                self.stats.records_quarantined += 1
                return None
            raise StorageError(f"router returned unknown site {site!r}")
        return site

    # -- retry policy --------------------------------------------------------------

    def _with_retries(self, op: Callable[[], None], what: str) -> None:
        """Run *op*, retrying TransientIOError with recorded backoff."""
        attempt = 0
        while True:
            try:
                op()
                return
            except TransientIOError as exc:
                attempt += 1
                if attempt > self.max_retries:
                    raise IngestError(
                        f"{what}: transient I/O fault persisted through "
                        f"{self.max_retries} retries"
                    ) from exc
                self.stats.records_retried += 1
                _flight_emit("load_retry", what=what, attempt=attempt)
                # Capped: the uncapped doubling overflows semantically for
                # large attempt budgets (attempt 60 would charge ~18 years
                # of simulated backoff to the report).
                self.stats.backoff_ms += min(
                    self.backoff_base_ms * 2 ** (attempt - 1),
                    self.backoff_max_ms,
                )

    # -- the load loop -------------------------------------------------------------

    def load(self, stream: Iterable[LoadRecord]) -> int:
        """Consume *stream*; returns cumulative records loaded.

        With ``batch_size > 0`` the stream is checkpointed: resume by
        re-driving the same stream under the same ``load_epoch``.
        """
        if self.batch_size:
            return self._load_batched(stream)
        return self._load_streaming(stream)

    def _consume(self, record: LoadRecord) -> int:
        """Per-record bookkeeping shared by both load modes."""
        if self.on_record is not None:
            try:
                self.on_record()  # the injector's crash clock
            except LoadInterrupted as exc:
                exc.epoch = self.load_epoch
                exc.batch_seq = self._batch_seq
                raise
        offset = record.offset if record.offset is not None else self._offset
        self._offset += 1
        self.stats.records_seen += 1
        return offset

    def _load_streaming(self, stream: Iterable[LoadRecord]) -> int:
        for record in stream:
            offset = self._consume(record)
            site = self._admit(record, offset)
            if site is None:
                continue
            target = self.sites[site]
            self._with_retries(
                lambda: target.append(record.coords, record.values),
                f"append to site {site!r}",
            )
            self.per_site_counts[site] += 1
            self.records_loaded += 1
            self.stats.records_loaded += 1
        return self.records_loaded

    def _load_batched(self, stream: Iterable[LoadRecord]) -> int:
        batch: dict[object, list[LoadRecord]] = {}
        in_batch = 0
        for record in stream:
            offset = self._consume(record)
            site = self._admit(record, offset)
            if site is not None:
                batch.setdefault(site, []).append(record)
            in_batch += 1
            # Batch boundaries count *consumed* records (quarantined ones
            # included) so batch numbering replays deterministically.
            if in_batch == self.batch_size:
                self._commit_batch(batch)
                batch, in_batch = {}, 0
        if in_batch:
            self._commit_batch(batch)
        return self.records_loaded

    def _commit_batch(self, batch: dict[object, list[LoadRecord]]) -> None:
        seq = self._batch_seq
        self._batch_seq += 1
        for site, records in batch.items():
            sink = self.sites[site]
            if sink.load_cursor(self.load_epoch) >= seq:
                # Dedup by (load_epoch, batch_seq): this site already
                # committed the batch before the crash — replay skips it.
                self.stats.records_skipped += len(records)
                self.stats.batches_replayed += 1
                _flight_emit(
                    "load_resume",
                    batch_seq=seq,
                    site=str(site),
                    records_skipped=len(records),
                )
                continue

            def commit(sink=sink, records=records) -> None:
                for rec in records:
                    sink.append(rec.coords, rec.values)
                # Atomic per-site commit (WAL record, or spill then
                # cursor).  A crash before it replays the batch next run.
                sink.commit_load_batch(self.load_epoch, seq)

            self._with_retries(commit, f"commit batch {seq} on site {site!r}")
            self.per_site_counts[site] += len(records)
            self.records_loaded += len(records)
            self.stats.records_loaded += len(records)
            self.stats.batches_committed += 1
            tracing.add_current("ingest_batches", 1)

    def finish(self) -> None:
        """Flush every site's buffer (end of stream)."""
        for site in self.sites.values():
            site.flush()

    def report(self) -> LoadReport:
        """The load's figures of merit (loaded/quarantined/retried/skew)."""
        self.stats.skew = self.substream_skew()
        self.stats.per_site = dict(self.per_site_counts)
        return self.stats

    def substream_skew(self) -> float:
        """max/mean records per site — the load-balance figure of merit."""
        counts = list(self.per_site_counts.values())
        mean = sum(counts) / len(counts)
        if mean == 0:
            return 0.0
        return max(counts) / mean


def load_stream(
    target: object,
    stream: Iterable[LoadRecord],
    batch_size: int,
    load_epoch: int,
    tolerant: bool,
    quarantine: Optional[QuarantineStore],
    max_retries: int = 3,
) -> LoadReport:
    """One checkpointed load of *stream* into the single sink *target*:
    the wiring behind ``SciDB.ingest``, ``cooking.load_stage`` and
    ``InSituArray.load_into``.  Buffers are flushed on both the success
    and the error path."""
    loader = BulkLoader(
        {0: target},
        batch_size=batch_size,
        load_epoch=load_epoch,
        tolerant=tolerant,
        quarantine=quarantine,
        max_retries=max_retries,
    )
    with loader:
        loader.load(stream)
    return loader.report()
