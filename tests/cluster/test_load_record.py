"""What a checkpointed grid load leaves behind, pinned before a grid batch
committed to the WAL alone.

For seeded streams on a 4-node grid at k in {1, 2, 3} and batch sizes
{1, 25, 64}, four scenarios run on one ``SciDB``-owned grid each:

* ``clean`` — an uninterrupted ``load_checkpointed``;
* ``crash`` — a ``LoadInterrupted`` loader crash halfway, then a resume;
* ``killed`` — node 1 dies mid-load (with k=1 its chains die with it and
  the load ends in ``QuorumError``);
* ``rebuilt`` — the ``killed`` grid after ``rebuild_node(1)``, followed by
  a resume of the same stream (``resumed``).

After every step the test compares the load's ``LoadReport.summary()``,
each node's cells (a SHA-256 digest of their canonical text plus the
count), each chain site's cursor per ``epoch/pN`` key (chain order; ``None``
for a dead site), the rebuild report
and ``db.metrics_snapshot()["counters"]``' ``ingest.batch_commits`` and
``wal.commits`` with the values recorded at the commit before the change.
Bucket and spill counts are not pinned: where buckets form is what the
change moves.

``test_bucket_images_are_byte_identical`` pins the byte image
``encode_block`` writes for seeded planes under ``codec="auto"``.
"""

import hashlib
import json

import numpy as np
import pytest

from repro import SciDB, define_array
from repro.cluster import FaultInjector, HashPartitioner
from repro.core.errors import LoadInterrupted, QuorumError
from repro.storage.format import encode_block
from repro.storage.loader import LoadRecord

pytestmark = pytest.mark.tier1

N = 4
SIDE = 24
RECORDS = 96
KILLED = 1

#: (k, batch) -> step -> (summary values, per-node (cell digest, count),
#: per-partition chain-site cursors, rebuild report, counters), recorded at
#: the parent commit.
PINNED = {(1, 1): {'clean': ((0, 96, 96, 0, 0, 0, 96, 0, 0.0, 1.0416666666666667),
                    [('3341d55cb4900384', 24), ('1c8ddca9bb1c3edf', 23),
                     ('671e1a4467dc97bf', 24), ('378b31aece5837ae', 25)],
                    ((85,), (95,), (89,), (93,)), None, (96, 96)),
          'crash': ((('LoadInterrupted', 47),
                     (0, 96, 49, 0, 47, 0, 49, 47, 0.0, 1.3877551020408163)),
                    [('3341d55cb4900384', 24), ('1c8ddca9bb1c3edf', 23),
                     ('671e1a4467dc97bf', 24), ('378b31aece5837ae', 25)],
                    ((85,), (95,), (89,), (93,)), None, (96, 96)),
          'killed': (('QuorumError', None),
                     [('6af2fb77fcbd2c34', 14), None,
                      ('79f25f1c577ff10e', 13), ('752dcf3323dafa10', 16)],
                     ((48,), (None,), (46,), (47,)), None, (49, 49)),
          'rebuilt': (None,
                      [('6af2fb77fcbd2c34', 14), ('963d47e4a41ee788', 6),
                       ('79f25f1c577ff10e', 13), ('752dcf3323dafa10', 16)],
                      ((48,), (43,), (46,), (47,)), (6, 0, 6), (43, 51)),
          'resumed': ((0, 96, 47, 0, 49, 0, 47, 49, 0.0, 1.446808510638298),
                      [('3341d55cb4900384', 24), ('1c8ddca9bb1c3edf', 23),
                       ('671e1a4467dc97bf', 24), ('378b31aece5837ae', 25)],
                      ((85,), (95,), (89,), (93,)), None, (90, 98))},
 (1, 25): {'clean': ((0, 96, 96, 0, 0, 0, 16, 0, 0.0, 1.2083333333333333),
                     [('a9c64bbff46aff93', 18), ('44abbaba6d6ccd89', 23),
                      ('10cac858b46e8ef2', 29), ('3b4b5714d9d1426f', 26)],
                     ((3,), (3,), (3,), (3,)), None, (16, 16)),
           'crash': ((('LoadInterrupted', 1),
                      (0, 96, 71, 0, 25, 0, 12, 4, 0.0, 1.4647887323943662)),
                     [('a9c64bbff46aff93', 18), ('44abbaba6d6ccd89', 23),
                      ('10cac858b46e8ef2', 29), ('3b4b5714d9d1426f', 26)],
                     ((3,), (3,), (3,), (3,)), None, (16, 16)),
           'killed': (('QuorumError', None),
                      [('dd41447845ecfd12', 9), None,
                       ('7c9395c49e1c5012', 21), ('0eba6c7041f8cdc1', 22)],
                      ((1,), (None,), (2,), (2,)), None, (10, 10)),
           'rebuilt': (None,
                       [('dd41447845ecfd12', 9), ('8a9d8db797373457', 14),
                        ('7c9395c49e1c5012', 21), ('0eba6c7041f8cdc1', 22)],
                       ((1,), (1,), (2,), (2,)), (14, 0, 2), (8, 12)),
           'resumed': ((0, 96, 30, 0, 66, 0, 6, 10, 0.0, 1.2),
                       [('a9c64bbff46aff93', 18), ('44abbaba6d6ccd89', 23),
                        ('10cac858b46e8ef2', 29), ('3b4b5714d9d1426f', 26)],
                       ((3,), (3,), (3,), (3,)), None, (14, 18))},
 (1, 64): {'clean': ((0, 96, 96, 0, 0, 0, 8, 0, 0.0, 1.1666666666666667),
                     [('82e5b3956909bb93', 28), ('aa61db7cf389cdf9', 18),
                      ('836cb5d9101a8057', 22), ('39d45f95437de3d5', 28)],
                     ((1,), (1,), (1,), (1,)), None, (8, 8)),
           'crash': ((('LoadInterrupted', 0),
                      (0, 96, 96, 0, 0, 0, 8, 0, 0.0, 1.1666666666666667)),
                     [('82e5b3956909bb93', 28), ('aa61db7cf389cdf9', 18),
                      ('836cb5d9101a8057', 22), ('39d45f95437de3d5', 28)],
                     ((1,), (1,), (1,), (1,)), None, (8, 8)),
           'killed': (('QuorumError', None),
                      [('8e9891988eab60f6', 19), None,
                       ('4f53cda18c2baa0c', 0), ('4edc40c461c43ec1', 21)],
                      ((0,), (None,), (-1,), (0,)), None, (2, 2)),
           'rebuilt': (None,
                       [('8e9891988eab60f6', 19), ('c387a50b06ee617d', 7),
                        ('4f53cda18c2baa0c', 0), ('4edc40c461c43ec1', 21)],
                       ((0,), (-1,), (-1,), (0,)), (7, 0, 0), (2, 4)),
           'resumed': ((0, 96, 56, 0, 40, 0, 6, 2, 0.0, 1.5714285714285714),
                       [('82e5b3956909bb93', 28), ('aa61db7cf389cdf9', 18),
                        ('836cb5d9101a8057', 22), ('39d45f95437de3d5', 28)],
                       ((1,), (1,), (1,), (1,)), None, (8, 10))},
 (2, 1): {'clean': ((0, 96, 96, 0, 0, 0, 96, 0, 0.0, 1.3333333333333333),
                    [('529d08dcff1bf053', 54), ('1081366b48336254', 38),
                     ('8dfd31cf9ec70753', 42), ('bd6b92d90c674519', 58)],
                    ((94, 94), (90, 90), (95, 95), (92, 92)), None,
                    (192, 192)),
          'crash': ((('LoadInterrupted', 47),
                     (0, 96, 49, 0, 47, 0, 49, 47, 0.0, 1.2244897959183674)),
                    [('529d08dcff1bf053', 54), ('1081366b48336254', 38),
                     ('8dfd31cf9ec70753', 42), ('bd6b92d90c674519', 58)],
                    ((94, 94), (90, 90), (95, 95), (92, 92)), None,
                    (192, 192)),
          'killed': ((0, 96, 96, 0, 0, 0, 96, 0, 0.0, 1.3333333333333333),
                     [('529d08dcff1bf053', 54), None,
                      ('8dfd31cf9ec70753', 42), ('bd6b92d90c674519', 58)],
                     ((94, None), (None, 90), (95, 95), (92, 92)), None,
                     (173, 173)),
          'rebuilt': (None,
                      [('529d08dcff1bf053', 54), ('1081366b48336254', 38),
                       ('8dfd31cf9ec70753', 42), ('bd6b92d90c674519', 58)],
                      ((94, 41), (39, 90), (95, 95), (92, 92)), (19, 19, 19),
                      (154, 175)),
          'resumed': ((0, 96, 0, 0, 96, 0, 0, 96, 0.0, 0.0),
                      [('529d08dcff1bf053', 54), ('1081366b48336254', 38),
                       ('8dfd31cf9ec70753', 42), ('bd6b92d90c674519', 58)],
                      ((94, 41), (39, 90), (95, 95), (92, 92)), None,
                      (154, 175))},
 (2, 25): {'clean': ((0, 96, 96, 0, 0, 0, 16, 0, 0.0, 1.25),
                     [('1f9f41183308624d', 48), ('b1b561e4ac603cab', 41),
                      ('9a72f90efeec4f11', 48), ('e60a83f3d1f7ca9e', 55)],
                     ((3, 3), (3, 3), (3, 3), (3, 3)), None, (32, 32)),
           'crash': ((('LoadInterrupted', 1),
                      (0, 96, 71, 0, 25, 0, 12, 4, 0.0, 1.2394366197183098)),
                     [('1f9f41183308624d', 48), ('b1b561e4ac603cab', 41),
                      ('9a72f90efeec4f11', 48), ('e60a83f3d1f7ca9e', 55)],
                     ((3, 3), (3, 3), (3, 3), (3, 3)), None, (32, 32)),
           'killed': ((0, 96, 96, 0, 0, 0, 16, 0, 0.0, 1.25),
                      [('1f9f41183308624d', 48), None,
                       ('9a72f90efeec4f11', 48), ('e60a83f3d1f7ca9e', 55)],
                      ((3, None), (None, 3), (3, 3), (3, 3)), None,
                      (27, 27)),
           'rebuilt': (None,
                       [('1f9f41183308624d', 48), ('b1b561e4ac603cab', 41),
                        ('9a72f90efeec4f11', 48), ('e60a83f3d1f7ca9e', 55)],
                       ((3, 0), (1, 3), (3, 3), (3, 3)), (19, 22, 3),
                       (24, 29)),
           'resumed': ((0, 96, 0, 0, 96, 0, 0, 16, 0.0, 0.0),
                       [('1f9f41183308624d', 48), ('b1b561e4ac603cab', 41),
                        ('9a72f90efeec4f11', 48), ('e60a83f3d1f7ca9e', 55)],
                       ((3, 0), (1, 3), (3, 3), (3, 3)), None, (24, 29))},
 (2, 64): {'clean': ((0, 96, 96, 0, 0, 0, 8, 0, 0.0, 1.2916666666666667),
                     [('0c582ead75637af9', 44), ('ed5b004d8bf9b21a', 45),
                      ('f045976802562c7e', 52), ('619114c6ba9115df', 51)],
                     ((1, 1), (1, 1), (1, 1), (1, 1)), None, (16, 16)),
           'crash': ((('LoadInterrupted', 0),
                      (0, 96, 96, 0, 0, 0, 8, 0, 0.0, 1.2916666666666667)),
                     [('0c582ead75637af9', 44), ('ed5b004d8bf9b21a', 45),
                      ('f045976802562c7e', 52), ('619114c6ba9115df', 51)],
                     ((1, 1), (1, 1), (1, 1), (1, 1)), None, (16, 16)),
           'killed': ((0, 96, 96, 0, 0, 0, 8, 0, 0.0, 1.2916666666666667),
                      [('0c582ead75637af9', 44), None,
                       ('f045976802562c7e', 52), ('619114c6ba9115df', 51)],
                      ((1, None), (None, 1), (1, 1), (1, 1)), None,
                      (13, 13)),
           'rebuilt': (None,
                       [('0c582ead75637af9', 44), ('ed5b004d8bf9b21a', 45),
                        ('f045976802562c7e', 52), ('619114c6ba9115df', 51)],
                       ((1, -1), (0, 1), (1, 1), (1, 1)), (27, 18, 1),
                       (12, 15)),
           'resumed': ((0, 96, 0, 0, 96, 0, 0, 8, 0.0, 0.0),
                       [('0c582ead75637af9', 44), ('ed5b004d8bf9b21a', 45),
                        ('f045976802562c7e', 52), ('619114c6ba9115df', 51)],
                       ((1, -1), (0, 1), (1, 1), (1, 1)), None, (12, 15))},
 (3, 1): {'clean': ((0, 96, 96, 0, 0, 0, 96, 0, 0.0, 1.0833333333333333),
                    [('45c0dbbd458f251e', 73), ('d821a177301fc197', 70),
                     ('9ca1cd6f78851949', 72), ('102d17f46065cbc2', 73)],
                    ((94, 94, 94), (92, 92, 92), (95, 95, 95), (89, 89, 89)),
                    None, (288, 288)),
          'crash': ((('LoadInterrupted', 47),
                     (0, 96, 49, 0, 47, 0, 49, 47, 0.0, 1.3061224489795917)),
                    [('45c0dbbd458f251e', 73), ('d821a177301fc197', 70),
                     ('9ca1cd6f78851949', 72), ('102d17f46065cbc2', 73)],
                    ((94, 94, 94), (92, 92, 92), (95, 95, 95), (89, 89, 89)),
                    None, (288, 288)),
          'killed': ((0, 96, 96, 0, 0, 0, 96, 0, 0.0, 1.0833333333333333),
                     [('45c0dbbd458f251e', 73), None,
                      ('9ca1cd6f78851949', 72), ('102d17f46065cbc2', 73)],
                     ((94, None, 94), (None, 92, 92), (95, 95, 95),
                      (89, 89, None)),
                     None, (255, 255)),
          'rebuilt': (None,
                      [('45c0dbbd458f251e', 73), ('d821a177301fc197', 70),
                       ('9ca1cd6f78851949', 72), ('102d17f46065cbc2', 73)],
                      ((94, 46, 94), (44, 92, 92), (95, 95, 95),
                       (89, 89, 45)),
                      (38, 32, 37), (218, 257)),
          'resumed': ((0, 96, 0, 0, 96, 0, 0, 96, 0.0, 0.0),
                      [('45c0dbbd458f251e', 73), ('d821a177301fc197', 70),
                       ('9ca1cd6f78851949', 72), ('102d17f46065cbc2', 73)],
                      ((94, 46, 94), (44, 92, 92), (95, 95, 95),
                       (89, 89, 45)),
                      None, (218, 257))},
 (3, 25): {'clean': ((0, 96, 96, 0, 0, 0, 16, 0, 0.0, 1.0833333333333333),
                     [('c99ffb44476b6de7', 74), ('cf1e6e83999ceaca', 73),
                      ('fcadebd3a39fa4cc', 70), ('3c5d1a3a9fe2c6c2', 71)],
                     ((3, 3, 3), (3, 3, 3), (3, 3, 3), (3, 3, 3)), None,
                     (48, 48)),
           'crash': ((('LoadInterrupted', 1),
                      (0, 96, 71, 0, 25, 0, 12, 4, 0.0, 1.295774647887324)),
                     [('c99ffb44476b6de7', 74), ('cf1e6e83999ceaca', 73),
                      ('fcadebd3a39fa4cc', 70), ('3c5d1a3a9fe2c6c2', 71)],
                     ((3, 3, 3), (3, 3, 3), (3, 3, 3), (3, 3, 3)), None,
                     (48, 48)),
           'killed': ((0, 96, 96, 0, 0, 0, 16, 0, 0.0, 1.0833333333333333),
                      [('c99ffb44476b6de7', 74), None,
                       ('fcadebd3a39fa4cc', 70), ('3c5d1a3a9fe2c6c2', 71)],
                      ((3, None, 3), (None, 3, 3), (3, 3, 3), (3, 3, None)),
                      None, (42, 42)),
           'rebuilt': (None,
                       [('c99ffb44476b6de7', 74), ('cf1e6e83999ceaca', 73),
                        ('fcadebd3a39fa4cc', 70), ('3c5d1a3a9fe2c6c2', 71)],
                       ((3, 1, 3), (1, 3, 3), (3, 3, 3), (3, 3, 1)),
                       (42, 31, 6), (36, 44)),
           'resumed': ((0, 96, 0, 0, 96, 0, 0, 16, 0.0, 0.0),
                       [('c99ffb44476b6de7', 74), ('cf1e6e83999ceaca', 73),
                        ('fcadebd3a39fa4cc', 70), ('3c5d1a3a9fe2c6c2', 71)],
                       ((3, 1, 3), (1, 3, 3), (3, 3, 3), (3, 3, 1)), None,
                       (36, 44))},
 (3, 64): {'clean': ((0, 96, 96, 0, 0, 0, 8, 0, 0.0, 1.5416666666666667),
                     [('466e4d7f403922c5', 82), ('1ad414e02263bc93', 59),
                      ('3b13e638a4cae07e', 73), ('e55b06f3bc3a5f87', 74)],
                     ((1, 1, 1), (1, 1, 1), (1, 1, 1), (1, 1, 1)), None,
                     (24, 24)),
           'crash': ((('LoadInterrupted', 0),
                      (0, 96, 96, 0, 0, 0, 8, 0, 0.0, 1.5416666666666667)),
                     [('466e4d7f403922c5', 82), ('1ad414e02263bc93', 59),
                      ('3b13e638a4cae07e', 73), ('e55b06f3bc3a5f87', 74)],
                     ((1, 1, 1), (1, 1, 1), (1, 1, 1), (1, 1, 1)), None,
                     (24, 24)),
           'killed': ((0, 96, 96, 0, 0, 0, 8, 0, 0.0, 1.5416666666666667),
                      [('466e4d7f403922c5', 82), None,
                       ('3b13e638a4cae07e', 73), ('e55b06f3bc3a5f87', 74)],
                      ((1, None, 1), (None, 1, 1), (1, 1, 1), (1, 1, None)),
                      None, (20, 20)),
           'rebuilt': (None,
                       [('466e4d7f403922c5', 82), ('1ad414e02263bc93', 59),
                        ('3b13e638a4cae07e', 73), ('e55b06f3bc3a5f87', 74)],
                       ((1, 0, 1), (0, 1, 1), (1, 1, 1), (1, 1, -1)),
                       (22, 37, 2), (18, 22)),
           'resumed': ((0, 96, 0, 0, 96, 0, 0, 8, 0.0, 0.0),
                       [('466e4d7f403922c5', 82), ('1ad414e02263bc93', 59),
                        ('3b13e638a4cae07e', 73), ('e55b06f3bc3a5f87', 74)],
                       ((1, 0, 1), (0, 1, 1), (1, 1, 1), (1, 1, -1)), None,
                       (18, 22))}}

#: name -> SHA-256 prefix of ``encode_block(..., "auto")``'s entry + payload
IMAGES = {'smooth': 'a97c60f8d25a3c6b',
 'noise': '92a77c9e2e4bc4d5',
 'constant': '4f69bd46113ffb08',
 'ramp': 'b1606b2b3c8d428f',
 'runs': '137f17465aeb37d8',
 'all': 'aa8798de9fdede6e'}


def records(seed):
    rng = np.random.default_rng(seed)
    seen, out = set(), []
    while len(out) < RECORDS:
        c = (int(rng.integers(1, SIDE + 1)), int(rng.integers(1, SIDE + 1)))
        if c in seen:
            continue
        seen.add(c)
        values = None if len(out) % 11 == 5 else (
            float(rng.integers(-64, 64)) / 4, int(rng.integers(0, 9)),
        )
        out.append(LoadRecord(c, values, offset=len(out)))
    return out


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def build(tmp_path, k, injector=None):
    db = SciDB(tmp_path)
    grid = db.create_grid(
        "g", n_nodes=N, replication=k, fault_injector=injector
    )
    schema = define_array("sky", {"flux": "float", "n": "int64"}, ["x", "y"])
    arr = grid.create_array(
        "sky", schema.bind([SIDE, SIDE]), HashPartitioner(N), stride=(8, 8)
    )
    return db, grid, arr


def state(db, grid, arr, summary, rebuild=None):
    cells = []
    for node in grid.nodes:
        if not node.alive:
            cells.append(None)
            continue
        have = sorted(
            (c, None if cell is None else tuple(cell.values))
            for c, cell in node.scan_partition("sky")
        )
        cells.append((digest(have), len(have)))
    cursors = tuple(
        tuple(
            grid.nodes[site].partition("sky").load_cursor(f"0/p{p}")
            if grid.nodes[site].alive else None
            for site in arr.partition_chain(p)
        )
        for p in arr.partitions()
    )
    counters = db.metrics_snapshot()["counters"]
    return (
        summary, cells, cursors, rebuild,
        (counters.get("ingest.batch_commits", 0), counters.get("wal.commits", 0)),
    )


def load(arr, recs, batch):
    try:
        report = arr.load_checkpointed(iter(recs), batch_size=batch)
        return tuple(report.summary().values())
    except (LoadInterrupted, QuorumError) as exc:
        return (type(exc).__name__, getattr(exc, "batch_seq", None))


def drive(tmp_path, k, batch):
    recs = records(seed=10 * k + batch)
    seen = {}

    db, grid, arr = build(tmp_path / "clean", k)
    seen["clean"] = state(db, grid, arr, load(arr, recs, batch))

    inj = FaultInjector(seed=k)
    db, grid, arr = build(tmp_path / "crash", k, inj)
    inj.schedule_load_crash(after_records=RECORDS // 2)
    first = load(arr, recs, batch)
    seen["crash"] = state(db, grid, arr, (first, load(arr, recs, batch)))

    inj = FaultInjector(seed=k)
    db, grid, arr = build(tmp_path / "killed", k, inj)
    inj.schedule_kill(KILLED, after=k * RECORDS // 2)
    seen["killed"] = state(db, grid, arr, load(arr, recs, batch))
    report = grid.rebuild_node(KILLED)
    seen["rebuilt"] = state(db, grid, arr, None, (
        report.cells_from_wal, report.cells_from_replicas,
        report.load_cursors_restored,
    ))
    seen["resumed"] = state(db, grid, arr, load(arr, recs, batch))
    return seen


@pytest.mark.parametrize("batch", [1, 25, 64])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_checkpointed_load_leaves_what_the_parent_recorded(tmp_path, k, batch):
    seen = drive(tmp_path, k, batch)
    want = PINNED[(k, batch)]
    assert list(seen) == list(want)
    for step, pinned in want.items():
        assert seen[step] == pinned, step


def planes():
    rng = np.random.default_rng(7)
    shape = (16, 12)
    state = (rng.random(shape) < 0.8).astype(np.uint8)
    return {
        "smooth": np.cumsum(rng.normal(size=shape), axis=1),
        "noise": rng.normal(size=shape),
        "constant": np.full(shape, 2.5),
        "ramp": np.arange(np.prod(shape), dtype=np.int64).reshape(shape),
        "runs": np.repeat(rng.integers(0, 4, size=(16, 3)), 4, axis=1),
    }, state


def images():
    data, state = planes()
    out = {}
    for name in data:
        entry, payload = encode_block((3, 5), data, state, [name], "auto")
        out[name] = digest((json.dumps(entry), payload))
    entry, payload = encode_block((1, 1), data, state, sorted(data), "auto")
    out["all"] = digest((json.dumps(entry), payload))
    return out


def test_bucket_images_are_byte_identical():
    assert images() == IMAGES
