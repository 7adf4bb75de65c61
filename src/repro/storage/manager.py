"""The within-node storage manager (Section 2.8).

Write path, exactly as the paper sketches it: cells stream in (usually from
the bulk loader, ordered by a dominant dimension) and accumulate in a main-
memory buffer.  "When main memory is nearly full, the storage manager will
form the data into a collection of rectangular buckets, defined by a stride
in each dimension, compress the bucket and write it to disk."  An R-tree
tracks the buckets; "a background thread can combine buckets into larger
ones as an optimization" (Vertica-style merge).

Read path: window queries prune buckets through the R-tree, decompress only
the intersecting ones, and merge in any still-buffered cells.

Every byte written/read and every bucket event is counted in
:class:`StorageStats`, which the storage benchmarks (E8) report.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from ..core.array import BlockSource, Chunk, blank_plane, coalesce, union_box, within
from ..core.cells import CellState
from ..core.errors import StorageError
from ..core.schema import ArraySchema
from ..obs import tracing
from ..obs.recorder import emit as _flight_emit
from .bucket import Bucket
from .compression import Codec
from .rtree import RTree

__all__ = ["ChunkCache", "StorageStats", "PersistentArray", "StorageManager"]

Coords = tuple[int, ...]

#: Cache key: (array directory, bucket id or a merged read's ids and
#: window, codec generation).  Bucket ids are never reused within one
#: :class:`PersistentArray`; the generation, one per instance drawn from a
#: process-wide counter, tells apart the buckets of a dropped array and of
#: one recreated over its directory (ids restart at 0), so a put after the
#: drop keys nothing anyone reads.
CacheKey = tuple[str, Any, int]
_generations = itertools.count()


class ChunkCache:
    """A byte-budgeted LRU cache of *decompressed* blocks.

    The SS-DB-style observation (PAPERS.md): cooked-data query time is
    dominated by redoing the same work on the same chunks.  This cache
    keeps decoded :class:`~repro.storage.bucket.Bucket` objects keyed by
    ``(array, bucket, codec_generation)`` so a hot window pays codec cost
    once, and each merged read (:meth:`PersistentArray.merged`) keyed by
    the buckets it was built from, so it pays the merge once.  Bucket
    files are immutable and their ids never reused, so a key names fixed
    content: a merge retires only the entries naming a bucket it took,
    ``drop_array`` (which repartition rides on) the array's, and a node
    restart builds a fresh manager, hence a fresh cache.  Every reader
    shares what it holds, so its planes are read-only.

    Thread-safe: the parallel partition scheduler reads through it from
    several worker threads at once.
    """

    #: one ``cache_pressure`` flight-recorder event per this many evictions
    PRESSURE_EVERY = 64

    def __init__(self, budget_bytes: int = 8 << 20) -> None:
        if budget_bytes <= 0:
            raise StorageError(
                f"chunk cache budget must be positive, got {budget_bytes}"
            )
        self.budget_bytes = budget_bytes
        self._entries: "OrderedDict[CacheKey, tuple[Chunk, int]]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        # Next cumulative-eviction threshold at which a cache_pressure
        # event fires (rate-limited so a churning cache cannot flood the
        # flight-recorder ring and push operational events out of it).
        self._pressure_mark = self.PRESSURE_EVERY

    def get(self, key: CacheKey) -> Optional[Chunk]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
        return entry[0]

    def put(self, key: CacheKey, block: Chunk) -> None:
        for plane in (block.state, *block.data.values()):
            plane.setflags(write=False)
        nbytes = block.nbytes
        if nbytes > self.budget_bytes:
            return  # would evict everything and still not fit
        with self._lock:
            old = self._entries.pop(key, None)
            self._bytes += nbytes - (0 if old is None else old[1])
            self._entries[key] = (block, nbytes)
            while self._bytes > self.budget_bytes and self._entries:
                self._bytes -= self._entries.popitem(last=False)[1][1]
                self.evictions += 1
            pressure = self.evictions >= self._pressure_mark
            if pressure:
                self._pressure_mark = self.evictions + self.PRESSURE_EVERY
        if pressure:
            _flight_emit(
                "cache_pressure",
                evictions=self.evictions,
                bytes_cached=self._bytes,
                budget_bytes=self.budget_bytes,
            )

    def invalidate(self, array_prefix: str, ids: Optional[set[int]] = None) -> int:
        """Drop every entry whose array directory equals *array_prefix*; given
        bucket *ids*, only those naming one (its bucket, or a merged read of it)."""
        with self._lock:
            doomed = [k for k in self._entries if k[0] == array_prefix and (ids is None or (
                k[1] in ids if isinstance(k[1], int) else not ids.isdisjoint(k[1][0])))]
            for key in doomed:
                _, nbytes = self._entries.pop(key)
                self._bytes -= nbytes
            self.invalidations += len(doomed)
            return len(doomed)

    @property
    def bytes_cached(self) -> int:
        return self._bytes

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, "int | float"]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "budget_bytes": self.budget_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "hit_ratio": self.hit_ratio,
            }

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"<ChunkCache {len(self._entries)} blocks "
            f"{self._bytes}/{self.budget_bytes} B "
            f"hit_ratio={self.hit_ratio:.2f}>"
        )


@dataclass
class StorageStats:
    """Byte/IO accounting for one persistent array."""

    cells_written: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    buckets_written: int = 0
    buckets_read: int = 0
    buckets_pruned: int = 0
    buckets_value_pruned: int = 0
    spills: int = 0
    merges: int = 0
    load_batches: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def snapshot(self) -> dict[str, int]:
        return dict(self.__dict__)


class PersistentArray(BlockSource):
    """A disk-backed array managed buffer-spill-merge style; a
    :class:`~repro.core.array.BlockSource` whose ``scan`` is ``cells``.

    Parameters
    ----------
    schema:
        Bound array schema.
    directory:
        Where bucket files live (one file per bucket).
    memory_budget:
        Approximate bytes of buffered cells that trigger a spill — "when
        main memory is nearly full".
    stride:
        Bucket stride per dimension; buffered cells are grouped into
        stride-aligned rectangles at spill time.
    codec:
        Codec name, :class:`Codec`, or ``"auto"`` (per-plane best choice).
    cache:
        Optional shared :class:`ChunkCache` of decompressed buckets.
    """

    absent = StorageError

    def __init__(
        self,
        schema: ArraySchema,
        directory: "str | Path",
        memory_budget: int = 1 << 20,
        stride: Optional[Sequence[int]] = None,
        codec: "str | Codec" = "auto",
        cache: Optional[ChunkCache] = None,
    ) -> None:
        self.schema = schema
        self.name = schema.name
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.memory_budget = memory_budget
        self.stride = tuple(stride) if stride else tuple([64] * schema.ndim)
        if len(self.stride) != schema.ndim:
            raise StorageError(
                f"stride has {len(self.stride)} entries for a "
                f"{schema.ndim}-D array"
            )
        self.codec = codec
        self.stats = StorageStats()
        self._buffer: dict[Coords, Optional[tuple]] = {}
        self._buffer_bytes = 0
        self._live_coords: set[Coords] = set()
        # delete()d cells not written since, which blocks() masks EMPTY.
        self._tombstones: set[Coords] = set()
        self._cell_cost = 8 * schema.ndim + 16 * len(schema.attributes)
        self._rtree = RTree(max_entries=8)
        self._next_bucket = 0
        self._cache = cache
        # Per-bucket value statistics (min/max/null-count per attribute +
        # occupancy footprint) by bucket id, built at write time and dropped
        # with the bucket.  A missing entry reads as "cannot prune".
        self._bucket_stats: dict[int, Any] = {}
        self.collect_stats = True
        # Stored buckets whose box meets another's (see _index).
        self._overlapping: set[int] = set()
        # Cache keys' per-instance part (see CacheKey): a recreated array
        # over this directory restarts bucket ids, never this number.
        self.codec_generation = next(_generations)
        self._files = os.path.join(self.directory, "bucket_")
        self._lock = threading.RLock()
        self._merger: Optional[threading.Thread] = None
        self._merger_stop = threading.Event()
        # Per-epoch load cursors (checkpointed bulk load, Section 2.8):
        # epoch key -> last batch_seq committed on this site.  The key is
        # stringified so callers can scope it ("3" for a plain epoch,
        # "3/p2" for epoch 3 of logical partition 2 on a grid node whose
        # storage backs several replica chains).  A grid node's WAL holds
        # them; a single-site load persists them in an atomically replaced
        # JSON file in the directory (commit_load_batch).
        self._load_cursors: dict[str, int] = self._read_load_cursors()
        self._reopen()

    def _reopen(self) -> None:
        """Index the bucket files an earlier instance left in the directory:
        box and live coordinates from each image's entry and state plane,
        no value plane decoded, no statistics rebuilt.  Ids continue past
        the highest on disk, so a leftover merge source loses to its
        merged bucket as any older bucket does."""
        for path in sorted(self.directory.glob("bucket_*.bkt")):
            bucket_id = int(path.stem.rpartition("_")[2])
            block = self._typed(path, Bucket.footprint, path.read_bytes())
            self._index(block.box, bucket_id)
            self._live_coords.update(
                map(tuple, (np.argwhere(block.state) + block.origin).tolist())
            )
            self._next_bucket = bucket_id + 1

    @staticmethod
    def _typed(path: "str | Path", decode, *args):
        try:
            return decode(*args)
        except StorageError as exc:
            raise StorageError(f"{path}: {exc}") from exc

    # -- write path -----------------------------------------------------------

    def append(self, coords: Coords, values: Optional[tuple]) -> None:
        """Buffer one cell; spills automatically at the memory budget."""
        with self._lock:
            coords = tuple(int(c) for c in coords)
            if coords not in self._buffer:
                self._buffer_bytes += self._cell_cost
            self._buffer[coords] = values
            self._live_coords.add(coords)
            self._tombstones.discard(coords)
            self.stats.cells_written += 1
            if self._buffer_bytes >= self.memory_budget:
                self._spill_locked()

    def flush(self) -> None:
        """Spill any buffered cells to disk buckets."""
        with self._lock:
            if self._buffer:
                self._spill_locked()

    def delete(self, coords: Coords) -> bool:
        """Logically remove one cell; returns whether it was stored.

        Bucket files are immutable, so deletion is a tombstone that
        :meth:`blocks` masks EMPTY; the bytes stay (a merge carries them
        across).  The tombstone is memory only: re-opening the directory
        brings the cell back unless a WAL replays the delete
        (:meth:`repro.cluster.node.Node.replay_wal`).
        """
        with self._lock:
            coords = tuple(int(c) for c in coords)
            if coords not in self._live_coords:
                return False
            self._live_coords.discard(coords)
            self._tombstones.add(coords)
            if coords in self._buffer:
                del self._buffer[coords]
                self._buffer_bytes -= self._cell_cost
            return True

    def contains(self, coords: Coords) -> bool:
        """O(1) liveness probe for one cell address."""
        with self._lock:
            return tuple(int(c) for c in coords) in self._live_coords

    # -- checkpointed load (Section 2.8 ingest) ------------------------------------

    @property
    def _cursor_path(self) -> Path:
        return self.directory / "load_cursor.json"

    def _read_load_cursors(self) -> dict[str, int]:
        if not self._cursor_path.exists():
            return {}
        raw = json.loads(self._cursor_path.read_text(encoding="utf-8"))
        return {str(k): int(v) for k, v in raw.items()}

    def load_cursor(self, epoch: "int | str" = 0) -> int:
        """Last batch committed on this site for *epoch* (-1: none yet)."""
        with self._lock:
            return self._load_cursors.get(str(epoch), -1)

    def commit_load_batch(self, epoch: "int | str", batch_seq: int) -> None:
        """Atomically commit one load batch where no WAL covers the array
        (the single-site loads): spill, then persist the cursor.

        The cursor file is replaced via ``os.replace`` so a crash between
        spill and rename leaves the *previous* cursor intact — the batch
        simply replays on resume, and replay is idempotent because cells
        are keyed by coordinates.
        """
        with self._lock:
            if self._buffer:
                self._spill_locked()
            self.restore_load_cursor(epoch, batch_seq)
            tmp = self._cursor_path.with_suffix(".json.tmp")
            tmp.write_text(json.dumps(self._load_cursors), encoding="utf-8")
            os.replace(tmp, self._cursor_path)
            self.stats.load_batches += 1

    def restore_load_cursor(self, epoch: "int | str", batch_seq: int) -> None:
        """Advance (never regress) *epoch*'s cursor in memory: a grid
        node's WAL commit and its replay (:mod:`repro.cluster.node`)."""
        key = str(epoch)
        with self._lock:
            self._load_cursors[key] = max(batch_seq, self._load_cursors.get(key, -1))

    def _buffered_buckets(
        self, window: Optional[tuple[Coords, Coords]] = None
    ) -> Iterator[Bucket]:
        """The write buffer's cells inside *window* as stride-aligned
        buckets; a window of fewer cells than the buffer holds is looked
        up address by address."""
        cells = self._buffer.items()
        if window is not None and _volume(window) < len(self._buffer):
            at = itertools.product(*(range(l, h + 1) for l, h in zip(*window)))
            cells = [(c, self._buffer[c]) for c in at if c in self._buffer]
        groups: dict[Coords, list[tuple[Coords, Optional[tuple]]]] = {}
        for coords, values in cells:
            if within(coords, window):
                key = tuple((c - 1) // s for c, s in zip(coords, self.stride))
                groups.setdefault(key, []).append((coords, values))
        for cells in groups.values():
            yield Bucket.from_cells(self.schema, cells)

    def _spill_locked(self) -> None:
        for bucket in self._buffered_buckets():
            self._write_bucket(bucket)
        self._buffer.clear()
        self._buffer_bytes = 0
        self.stats.spills += 1

    def _write_bucket(self, bucket: Bucket) -> int:
        t0 = time.perf_counter()
        payload = bucket.to_bytes(self.codec)
        codec_ms = (time.perf_counter() - t0) * 1e3
        bucket_id = self._next_bucket
        self._next_bucket += 1
        path = self._bucket_path(bucket_id)
        with open(path, "wb") as f:
            f.write(payload)
        self.stats.bytes_written += len(payload)
        self.stats.buckets_written += 1
        tracing.add_current("chunks_written", 1)
        tracing.add_current("codec_ms", codec_ms)
        self._index(bucket.box, bucket_id)
        if self.collect_stats:
            # Lazy import: stats live in query/ (the planner consumes
            # them) and importing at module scope would cycle through the
            # partially-initialized query package during boot.
            from ..query.stats import BucketStats

            self._bucket_stats[bucket_id] = BucketStats.from_bucket(
                bucket, bucket_id
            )
        return bucket_id

    def _index(self, box: tuple[Coords, Coords], bucket_id: int) -> None:
        """Enter a bucket in the R-tree, flagging it and each bucket its box
        meets as overlapping (true while stored: a merged box covers its
        sources')."""
        met = [other for _, other in self._rtree.search(box)]
        self._overlapping.update(met, [bucket_id] if met else [])
        self._rtree.insert(box, bucket_id)

    def _bucket_path(self, bucket_id: int) -> str:
        return f"{self._files}{bucket_id:08d}.bkt"

    def _read_bucket(self, bucket_id: int) -> tuple[Bucket, tuple[int, float]]:
        """A bucket file decoded, and its ``(bytes, decode ms)``; a file a
        merge took raises :class:`FileNotFoundError`."""
        path = self._bucket_path(bucket_id)
        fd = os.open(path, os.O_RDONLY)
        try:  # one unbuffered read: a bucket file never grows
            payload = os.read(fd, os.fstat(fd).st_size)
        finally:
            os.close(fd)
        t0 = time.perf_counter()
        bucket = self._typed(path, Bucket.from_bytes, self.schema, payload)
        return bucket, (len(payload), (time.perf_counter() - t0) * 1e3)

    def _load_bucket(self, bucket_id: int) -> tuple[Bucket, Optional[tuple[int, float]]]:
        """:meth:`_read_bucket` through the chunk cache, if any; a hit costs ``None``."""
        if self._cache is None:
            return self._read_bucket(bucket_id)
        key = (str(self.directory), bucket_id, self.codec_generation)
        bucket = self._cache.get(key)
        if bucket is None:
            bucket, cost = self._read_bucket(bucket_id)
            self._cache.put(key, bucket)
            return bucket, cost
        return bucket, None

    def _tally(self, costs: list, cached: bool = True) -> None:
        """Count a read's loads — each a file's ``(bytes, decode ms)``, or
        ``None`` for a cache hit — one add per counter: a merge's (not
        *cached*) count no miss, and a load that raised counts nothing."""
        read = [c for c in costs if c is not None]
        counts = {"cache_hits": len(costs) - len(read),
                  "cache_misses": len(read) if cached and self._cache is not None else 0,
                  "chunks_read": len(read), "codec_ms": sum(ms for _, ms in read)}
        with self._lock:
            self.stats.cache_hits += counts["cache_hits"]
            self.stats.cache_misses += counts["cache_misses"]
            self.stats.bytes_read += sum(n for n, _ in read)
            self.stats.buckets_read += len(read)
        for key, n in counts.items():
            if n:
                tracing.add_current(key, n)

    @property
    def live_cells(self) -> int:
        """Distinct stored cell addresses, maintained incrementally.

        O(1), unlike counting a full :meth:`scan` — grid bookkeeping
        (balance metrics, rebuild diffs) calls this per query.
        """
        return len(self._live_coords)

    def live_coords(self) -> frozenset[Coords]:
        """Snapshot of every stored cell address (buffered or spilled)."""
        with self._lock:
            return frozenset(self._live_coords)

    # -- read path ----------------------------------------------------------------

    def blocks(
        self,
        window: Optional[tuple[Coords, Coords]] = None,
        attr_ranges: Optional[dict[str, Any]] = None,
    ) -> Iterator[Chunk]:
        """Every stored bucket as a block, oldest first, then the write
        buffer as stride-aligned blocks, each sliced to *window*; buckets
        the window misses are never read (R-tree pruning, experiment E2).
        A cell is occupied only in the block holding its newest copy, and
        a :meth:`delete` tombstone nowhere.  Blocks share cached planes,
        which are read-only.

        *attr_ranges* (name -> :class:`repro.query.stats.Interval`) also
        prunes buckets whose statistics prove no value can satisfy them.
        A ``filter`` turns a failing cell NULL, not EMPTY, so those come
        back as all-NULL footprints (:func:`_null_blocks`), no file
        opened.  Buckets without statistics are read in full."""
        return self._read(window, attr_ranges, merge=False)

    def merged(
        self,
        window: Optional[tuple[Coords, Coords]] = None,
        attr_ranges: Optional[dict[str, Any]] = None,
    ) -> Sequence[Chunk]:
        """:meth:`blocks` merged by :func:`~repro.core.array.coalesce`.
        A read no buffered cell, tombstone or overlap flag can change is
        cached as its one block, keyed by the ids it read and value-pruned
        and *window*; a hit counts a cache hit per bucket it holds."""
        return self._read(window, attr_ranges, merge=True)

    def segmented(self, window=None, attr_ranges=None) -> tuple[Sequence[Chunk], list]:
        """:meth:`merged` for a grouped read, ``(blocks, boxes)``: its one
        cached block and the boxes of the buckets in it (``(m, 2, ndim)``,
        cut to *window*, id order), or else :meth:`blocks`, each ``None``."""
        return self._read(window, attr_ranges, merge=True, segments=True)

    def _read(self, window, attr_ranges, merge: bool, segments: bool = False):
        with self._lock:
            buffered = list(self._buffered_buckets(window))
            if window is None:
                entries = list(self._rtree.all_entries())
            elif sum(b.cell_count for b in buffered) == _volume(window):
                entries = []  # the buffer holds every cell's newest copy
            else:
                entries = list(self._rtree.search(window))
            self.stats.buckets_pruned += len(self._rtree) - len(entries)
            tombstones = [t for t in self._tombstones if within(t, window)]
            stats_map = dict(self._bucket_stats) if attr_ranges else {}
            # Blocks that may lose a cell to a newer copy or a tombstone:
            shared = set(self._overlapping)
            meets = [entries and {i for _, i in self._rtree.search(b.box)}
                     for b in buffered]
            shared.update(*meets)
            for t in tombstones:
                shared.update(i for _, i in self._rtree.search((t, t)))

        pending = sorted(entries, key=lambda e: e[1])
        queued = {i for _, i in pending}
        cut = self._value_pruned(pending, stats_map, attr_ranges)
        key = boxes = None
        if merge and self._cache is not None and not (buffered or shared & queued):
            at = window and tuple(map(tuple, window))
            read = (tuple(sorted(queued)), tuple(sorted(cut)), at)
            key = (str(self.directory), read, self.codec_generation)
            if segments:  # each bucket's box, cut to the window
                boxes = np.array([b for b, i in pending if i not in cut], np.int64)
                boxes = boxes.reshape(-1, 2, len(self.stride))
                boxes = boxes if window is None else np.clip(boxes, *window)
            hit = self._cache.get(key)
            if hit is not None:  # the hot path: one counter, not _tally's four
                with self._lock:
                    self.stats.cache_hits += len(queued) - len(cut)
                tracing.add_current("cache_hits", len(queued) - len(cut))
                return ([hit], [boxes]) if segments else [hit]
        stored: list[Chunk] = []
        flags: list[bool] = []
        pruned = []  # value-pruned buckets sharing no cell with another block
        costs = []  # each load's cost (see _tally)
        try:  # what loaded is counted, also when a later load raises
            for box, bucket_id in pending:
                if bucket_id in cut:
                    if bucket_id not in shared:
                        pruned.append(stats_map[bucket_id])
                    else:
                        stored += _null_blocks(self.schema, [stats_map[bucket_id]])
                        flags.append(True)
                    continue
                try:
                    bucket, cost = self._load_bucket(bucket_id)
                except FileNotFoundError as exc:
                    with self._lock:
                        indexed = any(i == bucket_id for _, i in self._rtree.search(box))
                    if indexed:  # gone, but no merge took it: the array was dropped
                        raise StorageError(f"{self._bucket_path(bucket_id)}: gone") from exc
                    # A concurrent merge rewrote the file set since the snapshot:
                    # read again from a new one, so the answer is one state of
                    # the array — never old cells beside newer ones.
                    return self._read(window, attr_ranges, merge, segments)
                stored.append(bucket)
                costs.append(cost)
                flags.append(bucket_id in shared)
        finally:
            self._tally(costs)
        # Pruned footprints go first, as the oldest: they share no cell
        # with another block of the snapshot.
        nulls = _null_blocks(self.schema, pruned) if pruned else []
        flags = [False] * len(nulls) + flags + [bool(m) for m in meets]
        blocks = nulls + stored + buffered
        blocks = _newest(blocks, flags, tombstones, window)
        if not merge:
            return blocks
        blocks = list(blocks)
        merged = coalesce(blocks)
        cached = key is not None and len(merged) == 1  # the one predicate
        if cached:
            self._cache.put(key, merged[0])
        if segments:  # each bucket's cells sit unmasked in its box of the one block
            return (merged, [boxes]) if cached else (blocks, [None] * len(blocks))
        return merged

    def _value_pruned(self, entries, stats_map: dict, attr_ranges) -> set[int]:
        """The ids of *entries* whose statistics prove no value can
        satisfy *attr_ranges*, counted as value-pruned."""
        cut = {i for _, i in entries
               if i in stats_map and not stats_map[i].can_match(attr_ranges)}
        if cut:
            with self._lock:
                self.stats.buckets_value_pruned += len(cut)
            tracing.add_current("chunks_pruned", len(cut))
        return cut

    #: ``scan(window, attr_ranges)``: each live cell of :meth:`blocks` once
    scan = BlockSource.cells

    # -- statistics catalog ---------------------------------------------------

    def invalidate_stats(self) -> None:
        """Forget every bucket's value statistics.

        Subsequent scans read everything (no value pruning) until new
        buckets are written; existing buckets regain statistics only when
        a merge rewrites them.  Used by tests and as the escape hatch for
        externally modified bucket files.
        """
        with self._lock:
            self._bucket_stats.clear()

    def array_stats(self) -> Any:
        """Snapshot this array's statistics as a
        :class:`repro.query.stats.ArrayStats` (buffered cells counted
        without per-bucket detail — they have no statistics yet)."""
        from ..query.stats import ArrayStats

        with self._lock:
            return ArrayStats(
                buckets=list(self._bucket_stats.values()),
                buffered_cells=len(self._buffer),
            )

    # -- merge optimisation ----------------------------------------------------------

    def bucket_count(self) -> int:
        return len(self._rtree)

    def merge_small_buckets(
        self, min_cells: int = 256, group_factor: int = 2
    ) -> int:
        """Combine small buckets into larger ones; returns merges performed.

        Buckets holding fewer than *min_cells* cells are grouped by a
        coarser stride (``group_factor`` x the base stride) and each group
        is rewritten as a single bucket — the Vertica-style background
        optimization the paper describes.
        """
        with self._lock:
            small: dict[Coords, list[tuple[tuple, int]]] = {}
            for box, bucket_id in list(self._rtree.all_entries()):
                if np.prod(np.subtract(box[1], box[0]) + 1) >= min_cells:
                    continue
                key = tuple(
                    (c - 1) // (s * group_factor)
                    for c, s in zip(box[0], self.stride)
                )
                small.setdefault(key, []).append((box, bucket_id))

            merges, gone = 0, set()
            for group in small.values():
                if len(group) < 2:
                    continue
                group.sort(key=lambda e: e[1])  # oldest first; newer wins
                sources = [self._read_bucket(b) for _, b in group]
                self._tally([cost for _, cost in sources], cached=False)
                merged = functools.reduce(Bucket.merge, [b for b, _ in sources])
                # Write, then unlink: a crash in between leaves sources a
                # re-open ranks below the merged bucket, never a gap.
                merged_id = self._write_bucket(merged)
                for box, bucket_id in group:
                    self._rtree.delete(box, bucket_id)
                    self._bucket_stats.pop(bucket_id, None)
                    self._overlapping.discard(bucket_id)
                    os.unlink(self._bucket_path(bucket_id))
                    gone.add(bucket_id)
                if all(i == merged_id for _, i in self._rtree.search(merged.box)):
                    self._overlapping.discard(merged_id)  # met its sources only
                merges += 1
            self.stats.merges += merges
            if gone and self._cache is not None:  # no key can ask for these again
                self._cache.invalidate(str(self.directory), gone)
            return merges

    def start_background_merger(
        self, interval: float = 0.05, min_cells: int = 256
    ) -> None:
        """Run :meth:`merge_small_buckets` periodically on a daemon thread."""
        if self._merger is not None:
            raise StorageError("background merger already running")
        self._merger_stop.clear()

        def loop() -> None:
            while not self._merger_stop.wait(interval):
                self.merge_small_buckets(min_cells=min_cells)

        self._merger = threading.Thread(target=loop, daemon=True)
        self._merger.start()

    def stop_background_merger(self) -> None:
        if self._merger is None:
            return
        self._merger_stop.set()
        self._merger.join()
        self._merger = None


def _volume(window: tuple[Coords, Coords]) -> int:
    return math.prod(max(h - l + 1, 0) for l, h in zip(*window))


def _newest(
    blocks: list[Chunk],
    shared: list[bool],
    tombstones: list[Coords],
    window: Optional[tuple[Coords, Coords]],
) -> Iterator[Chunk]:
    """*blocks* (oldest first) with every cell a later block also holds,
    and every tombstoned cell, masked EMPTY, then sliced to *window*;
    only the blocks flagged in *shared* can hold such a cell."""
    picked = [i for i, flag in enumerate(shared) if flag]
    at = [np.argwhere(blocks[i].state) for i in picked]
    if at:  # newest first, the first copy of each cell is the one standing
        dead = np.array(tombstones, dtype=np.int64).reshape(-1, at[0].shape[1])
        cells = np.concatenate([a + blocks[i].origin for a, i in zip(at, picked)] + [dead])
        _, first = np.unique(cells[::-1], axis=0, return_index=True)
        stands = np.zeros(len(cells), dtype=bool)
        stands[len(cells) - 1 - first] = True
        ends = np.cumsum([len(a) for a in at])
        for i, a, kept in zip(picked, at, np.split(stands, ends)):
            if not kept.all():
                b, state = blocks[i], blocks[i].state.copy()
                state[tuple(a[~kept].T)] = CellState.EMPTY
                blocks[i] = Chunk(b.origin, b.shape, state, b.data)
    for block in blocks:
        block = block if window is None else block.sliced(window)
        if block is not None:
            yield block


def _null_blocks(schema: ArraySchema, footprints: list) -> Sequence[Chunk]:
    """Value-pruned buckets' :class:`~repro.query.stats.BucketStats` as
    all-NULL blocks with broadcast blank planes: one over their union box
    where ``coalesce`` would make one (no pruned bucket meets another)."""
    union = len(footprints) > 1 and union_box(footprints)
    if union:
        occupied = np.zeros(union[1], dtype=bool)
        for f, at in zip(footprints, union[2]):
            occupied[at] = f.occupied()
    boxes = [(*union[:2], occupied)] if union else [
        (f.origin, f.shape, f.occupied()) for f in footprints]
    blank = {a.name: blank_plane((), a) for a in schema.attributes}
    return [Chunk(origin, shape, occupied * np.uint8(CellState.NULL),
                  {n: np.broadcast_to(v, shape) for n, v in blank.items()})
            for origin, shape, occupied in boxes]


class StorageManager:
    """A node's catalog of persistent arrays rooted at one directory."""

    def __init__(
        self,
        directory: "str | Path",
        memory_budget: int = 1 << 20,
        chunk_cache_bytes: int = 8 << 20,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.memory_budget = memory_budget
        # One decompressed-chunk cache shared by every array of the node;
        # 0 (or negative) disables caching entirely.
        self.chunk_cache: Optional[ChunkCache] = (
            ChunkCache(chunk_cache_bytes) if chunk_cache_bytes > 0 else None
        )
        self._arrays: dict[str, PersistentArray] = {}
        # What dropped arrays had counted: totals are cumulative.
        self._retired: dict[str, int] = {}
        # Concurrent ingests (the service's per-request threads) race
        # ensure_array's check-then-create; without this lock two threads
        # could build two PersistentArray instances over one directory.
        self._lock = threading.RLock()

    def create_array(
        self,
        name: str,
        schema: ArraySchema,
        stride: Optional[Sequence[int]] = None,
        codec: "str | Codec" = "auto",
        memory_budget: Optional[int] = None,
    ) -> PersistentArray:
        with self._lock:
            if name in self._arrays:
                raise StorageError(
                    f"array {name!r} already exists in this store"
                )
            arr = PersistentArray(
                schema,
                self.directory / name,
                memory_budget=memory_budget or self.memory_budget,
                stride=stride,
                codec=codec,
                cache=self.chunk_cache,
            )
            self._arrays[name] = arr
            return arr

    def ensure_array(
        self,
        name: str,
        schema: ArraySchema,
        stride: Optional[Sequence[int]] = None,
        codec: "str | Codec" = "auto",
        memory_budget: Optional[int] = None,
    ) -> PersistentArray:
        """Get *name* if registered, else create it over its directory.

        The resumable-ingest entry point: after a crash a fresh process
        re-opens the same directory and the new :class:`PersistentArray`
        picks its buckets and load cursors back up from disk.
        """
        with self._lock:
            if name in self._arrays:
                existing = self._arrays[name]
                if existing.schema.attr_names != schema.attr_names:
                    raise StorageError(
                        f"array {name!r} already exists with different "
                        "attributes"
                    )
                return existing
            return self.create_array(
                name, schema, stride=stride, codec=codec,
                memory_budget=memory_budget,
            )

    def get_array(self, name: str) -> PersistentArray:
        with self._lock:
            try:
                return self._arrays[name]
            except KeyError:
                raise StorageError(
                    f"no array named {name!r} in this store"
                ) from None

    def drop_array(self, name: str) -> None:
        with self._lock:
            arr = self.get_array(name)
            arr.stop_background_merger()
            for path in arr.directory.glob("bucket_*.bkt"):
                path.unlink()
            arr._cursor_path.unlink(missing_ok=True)
            if self.chunk_cache is not None:
                # A recreated array reuses the directory and restarts
                # bucket ids at 0 (repartition does exactly this) —
                # cached decodes of the dropped files must not survive.
                self.chunk_cache.invalidate(str(arr.directory))
            del self._arrays[name]
            _add_counts(self._retired, arr.stats)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._arrays)

    def total_stats(self) -> dict[str, int]:
        """Every array's counters summed, dropped arrays included, so no
        count ever steps back."""
        with self._lock:
            totals = dict(self._retired)
            arrays = list(self._arrays.values())
        for arr in arrays:
            _add_counts(totals, arr.stats)
        return totals


def _add_counts(totals: dict[str, int], stats: StorageStats) -> None:
    for k, v in stats.snapshot().items():
        totals[k] = totals.get(k, 0) + v
