"""What repeated grid reads return and count, pinned before a hot read
could be served whole from the node's chunk cache.

One 4-node k=2 disk grid holds ``sky`` and a co-partitioned ``ref``
(16x16, stride 4x4: sixteen buckets on every node, values multiples of
1/4).  Five reads run twice in a row — a ``window`` straddling buckets, a
``filter`` whose statistics value-prune buckets, the benchmark's
``scan`` (``flux > 0.5``), a co-partitioned ``sjoin`` and the Python
``materialize`` — first on the loaded grid, then again after each event
that changes what a node's storage holds or how it is read:

* a buffered ``write`` (inside the window, left in the write buffer);
* ``flush`` of that buffer into a new bucket;
* a rewrite of a spilled cell, flushed (a bucket overlapping an older one);
* ``Node.delete`` of a spilled cell on every replica site (a tombstone);
* ``merge_small_buckets`` on every node (a new codec generation);
* ``invalidate_stats`` on every node (no value pruning any more);
* a node ``fail()`` (the next reads fail over to replicas);
* ``rebuild_node`` of that node (fresh storage, WAL replay, copy-back);
* ``repartition`` of ``sky`` to a ``RangePartitioner`` (every node drops
  and recreates its directory; the ``sjoin`` now shuffles).

After every read the test compares the result's cells (a SHA-256 digest
of their canonical text and their count), the ledger's ``by_reason()``,
``len(ledger.transfers)``, ``scheduler.tasks`` and each node's summed
``buckets_pruned`` / ``buckets_value_pruned`` with the values recorded at
the commit before the change.
"""

import hashlib

import pytest

from repro import SciDB, define_array
from repro.cluster import HashPartitioner, RangePartitioner
from repro.storage.loader import LoadRecord

pytestmark = pytest.mark.tier1

SIDE = 16
SKY = define_array("Sky", {"flux": "float", "err": "float"}, ["x", "y"])

READS = {
    "window": "select subsample(sky, x >= 3 and x <= 10 and y >= 2 and y <= 11)",
    "filter": "select filter(sky, flux > 40)",
    "scan": "select filter(sky, flux > 0.5)",
    "sjoin": "select sjoin(sky, ref, sky.x = ref.x and sky.y = ref.y)",
}

BUFFERED = (5, 6)  # written without a flush, inside the window
REWRITTEN = (9, 3)  # spilled, then rewritten and flushed
DELETED = (4, 9)  # spilled, then deleted on every replica site
DOWN = 1  # the node that fails and is rebuilt

#: read -> (cell digest, cell count, len(ledger.transfers),
#: scheduler.tasks, per-node (buckets_pruned, buckets_value_pruned),
#: ledger.by_reason()), recorded at the parent commit.
PINNED = {
    'loaded/window/1': (
        'bb1059a7ceb3f4d7', 80, 1028, 4, ((7, 0), (7, 0), (7, 0), (7, 0)),
        {'load': 16384, 'replication': 16384, 'gather': 2560},
    ),
    'loaded/window/2': (
        'bb1059a7ceb3f4d7', 80, 1032, 8, ((14, 0), (14, 0), (14, 0), (14, 0)),
        {'load': 16384, 'replication': 16384, 'gather': 5120},
    ),
    'loaded/filter/1': (
        '8de61013a2355b90', 256, 1036, 12, ((14, 8), (14, 8), (14, 8), (14, 8)),
        {'load': 16384, 'replication': 16384, 'gather': 13312},
    ),
    'loaded/filter/2': (
        '8de61013a2355b90', 256, 1040, 16, ((14, 16), (14, 16), (14, 16), (14, 16)),
        {'load': 16384, 'replication': 16384, 'gather': 21504},
    ),
    'loaded/scan/1': (
        '3f2d87deebdbd171', 256, 1044, 20, ((14, 16), (14, 16), (14, 16), (14, 16)),
        {'load': 16384, 'replication': 16384, 'gather': 29696},
    ),
    'loaded/scan/2': (
        '3f2d87deebdbd171', 256, 1048, 24, ((14, 16), (14, 16), (14, 16), (14, 16)),
        {'load': 16384, 'replication': 16384, 'gather': 37888},
    ),
    'loaded/sjoin/1': (
        '63d0f429e04b05f8', 256, 1052, 36, ((14, 16), (14, 16), (14, 16), (14, 16)),
        {'load': 16384, 'replication': 16384, 'gather': 54272},
    ),
    'loaded/sjoin/2': (
        '63d0f429e04b05f8', 256, 1056, 48, ((14, 16), (14, 16), (14, 16), (14, 16)),
        {'load': 16384, 'replication': 16384, 'gather': 70656},
    ),
    'loaded/materialize/1': (
        '3f2d87deebdbd171', 256, 1060, 52, ((14, 16), (14, 16), (14, 16), (14, 16)),
        {'load': 16384, 'replication': 16384, 'gather': 78848},
    ),
    'loaded/materialize/2': (
        '3f2d87deebdbd171', 256, 1064, 56, ((14, 16), (14, 16), (14, 16), (14, 16)),
        {'load': 16384, 'replication': 16384, 'gather': 87040},
    ),
    'write/window/1': (
        'd1c82d2cdb48b4a2', 80, 1070, 60, ((21, 16), (21, 16), (21, 16), (21, 16)),
        {'load': 16416, 'replication': 16416, 'gather': 89600},
    ),
    'write/window/2': (
        'd1c82d2cdb48b4a2', 80, 1074, 64, ((28, 16), (28, 16), (28, 16), (28, 16)),
        {'load': 16416, 'replication': 16416, 'gather': 92160},
    ),
    'write/filter/1': (
        '920b9e22c556d158', 256, 1078, 68, ((28, 24), (28, 24), (28, 24), (28, 24)),
        {'load': 16416, 'replication': 16416, 'gather': 100352},
    ),
    'write/filter/2': (
        '920b9e22c556d158', 256, 1082, 72, ((28, 32), (28, 32), (28, 32), (28, 32)),
        {'load': 16416, 'replication': 16416, 'gather': 108544},
    ),
    'write/scan/1': (
        'cd2b205e75ebabcb', 256, 1086, 76, ((28, 32), (28, 32), (28, 32), (28, 32)),
        {'load': 16416, 'replication': 16416, 'gather': 116736},
    ),
    'write/scan/2': (
        'cd2b205e75ebabcb', 256, 1090, 80, ((28, 32), (28, 32), (28, 32), (28, 32)),
        {'load': 16416, 'replication': 16416, 'gather': 124928},
    ),
    'write/sjoin/1': (
        '3c97a2081ad138c2', 256, 1094, 92, ((28, 32), (28, 32), (28, 32), (28, 32)),
        {'load': 16416, 'replication': 16416, 'gather': 141312},
    ),
    'write/sjoin/2': (
        '3c97a2081ad138c2', 256, 1098, 104, ((28, 32), (28, 32), (28, 32), (28, 32)),
        {'load': 16416, 'replication': 16416, 'gather': 157696},
    ),
    'write/materialize/1': (
        'cd2b205e75ebabcb', 256, 1102, 108, ((28, 32), (28, 32), (28, 32), (28, 32)),
        {'load': 16416, 'replication': 16416, 'gather': 165888},
    ),
    'write/materialize/2': (
        'cd2b205e75ebabcb', 256, 1106, 112, ((28, 32), (28, 32), (28, 32), (28, 32)),
        {'load': 16416, 'replication': 16416, 'gather': 174080},
    ),
    'flush/window/1': (
        'd1c82d2cdb48b4a2', 80, 1110, 116, ((35, 32), (35, 32), (35, 32), (35, 32)),
        {'load': 16416, 'replication': 16416, 'gather': 176640},
    ),
    'flush/window/2': (
        'd1c82d2cdb48b4a2', 80, 1114, 120, ((42, 32), (42, 32), (42, 32), (42, 32)),
        {'load': 16416, 'replication': 16416, 'gather': 179200},
    ),
    'flush/filter/1': (
        '920b9e22c556d158', 256, 1118, 124, ((42, 40), (42, 40), (42, 40), (42, 40)),
        {'load': 16416, 'replication': 16416, 'gather': 187392},
    ),
    'flush/filter/2': (
        '920b9e22c556d158', 256, 1122, 128, ((42, 48), (42, 48), (42, 48), (42, 48)),
        {'load': 16416, 'replication': 16416, 'gather': 195584},
    ),
    'flush/scan/1': (
        'cd2b205e75ebabcb', 256, 1126, 132, ((42, 48), (42, 48), (42, 48), (42, 48)),
        {'load': 16416, 'replication': 16416, 'gather': 203776},
    ),
    'flush/scan/2': (
        'cd2b205e75ebabcb', 256, 1130, 136, ((42, 48), (42, 48), (42, 48), (42, 48)),
        {'load': 16416, 'replication': 16416, 'gather': 211968},
    ),
    'flush/sjoin/1': (
        '3c97a2081ad138c2', 256, 1134, 148, ((42, 48), (42, 48), (42, 48), (42, 48)),
        {'load': 16416, 'replication': 16416, 'gather': 228352},
    ),
    'flush/sjoin/2': (
        '3c97a2081ad138c2', 256, 1138, 160, ((42, 48), (42, 48), (42, 48), (42, 48)),
        {'load': 16416, 'replication': 16416, 'gather': 244736},
    ),
    'flush/materialize/1': (
        'cd2b205e75ebabcb', 256, 1142, 164, ((42, 48), (42, 48), (42, 48), (42, 48)),
        {'load': 16416, 'replication': 16416, 'gather': 252928},
    ),
    'flush/materialize/2': (
        'cd2b205e75ebabcb', 256, 1146, 168, ((42, 48), (42, 48), (42, 48), (42, 48)),
        {'load': 16416, 'replication': 16416, 'gather': 261120},
    ),
    'rewrite/window/1': (
        'a89cbc918e584a49', 80, 1152, 172, ((49, 48), (49, 48), (49, 48), (49, 48)),
        {'load': 16448, 'replication': 16448, 'gather': 263680},
    ),
    'rewrite/window/2': (
        'a89cbc918e584a49', 80, 1156, 176, ((56, 48), (56, 48), (56, 48), (56, 48)),
        {'load': 16448, 'replication': 16448, 'gather': 266240},
    ),
    'rewrite/filter/1': (
        '920b9e22c556d158', 256, 1160, 180, ((56, 57), (56, 57), (56, 56), (56, 56)),
        {'load': 16448, 'replication': 16448, 'gather': 274432},
    ),
    'rewrite/filter/2': (
        '920b9e22c556d158', 256, 1164, 184, ((56, 66), (56, 66), (56, 64), (56, 64)),
        {'load': 16448, 'replication': 16448, 'gather': 282624},
    ),
    'rewrite/scan/1': (
        '0ad52d80bf3ffad1', 256, 1168, 188, ((56, 67), (56, 67), (56, 64), (56, 64)),
        {'load': 16448, 'replication': 16448, 'gather': 290816},
    ),
    'rewrite/scan/2': (
        '0ad52d80bf3ffad1', 256, 1172, 192, ((56, 68), (56, 68), (56, 64), (56, 64)),
        {'load': 16448, 'replication': 16448, 'gather': 299008},
    ),
    'rewrite/sjoin/1': (
        '05c8aa7c595fb3e2', 256, 1176, 204, ((56, 68), (56, 68), (56, 64), (56, 64)),
        {'load': 16448, 'replication': 16448, 'gather': 315392},
    ),
    'rewrite/sjoin/2': (
        '05c8aa7c595fb3e2', 256, 1180, 216, ((56, 68), (56, 68), (56, 64), (56, 64)),
        {'load': 16448, 'replication': 16448, 'gather': 331776},
    ),
    'rewrite/materialize/1': (
        'fff72618bf6fb6f5', 256, 1184, 220, ((56, 68), (56, 68), (56, 64), (56, 64)),
        {'load': 16448, 'replication': 16448, 'gather': 339968},
    ),
    'rewrite/materialize/2': (
        'fff72618bf6fb6f5', 256, 1188, 224, ((56, 68), (56, 68), (56, 64), (56, 64)),
        {'load': 16448, 'replication': 16448, 'gather': 348160},
    ),
    'delete/window/1': (
        'b1e7669ea29540ad', 79, 1192, 228, ((63, 68), (63, 68), (63, 64), (63, 64)),
        {'load': 16448, 'replication': 16448, 'gather': 350688},
    ),
    'delete/window/2': (
        'b1e7669ea29540ad', 79, 1196, 232, ((70, 68), (70, 68), (70, 64), (70, 64)),
        {'load': 16448, 'replication': 16448, 'gather': 353216},
    ),
    'delete/filter/1': (
        '3379cb772c2234f4', 255, 1200, 236, ((70, 77), (70, 77), (70, 72), (70, 72)),
        {'load': 16448, 'replication': 16448, 'gather': 361376},
    ),
    'delete/filter/2': (
        '3379cb772c2234f4', 255, 1204, 240, ((70, 86), (70, 86), (70, 80), (70, 80)),
        {'load': 16448, 'replication': 16448, 'gather': 369536},
    ),
    'delete/scan/1': (
        'b21f7ebd6a14f514', 255, 1208, 244, ((70, 87), (70, 87), (70, 80), (70, 80)),
        {'load': 16448, 'replication': 16448, 'gather': 377696},
    ),
    'delete/scan/2': (
        'b21f7ebd6a14f514', 255, 1212, 248, ((70, 88), (70, 88), (70, 80), (70, 80)),
        {'load': 16448, 'replication': 16448, 'gather': 385856},
    ),
    'delete/sjoin/1': (
        '79cf2f06d5687c62', 255, 1216, 260, ((70, 88), (70, 88), (70, 80), (70, 80)),
        {'load': 16448, 'replication': 16448, 'gather': 402176},
    ),
    'delete/sjoin/2': (
        '79cf2f06d5687c62', 255, 1220, 272, ((70, 88), (70, 88), (70, 80), (70, 80)),
        {'load': 16448, 'replication': 16448, 'gather': 418496},
    ),
    'delete/materialize/1': (
        '5d8167e1e4d0e6e6', 255, 1224, 276, ((70, 88), (70, 88), (70, 80), (70, 80)),
        {'load': 16448, 'replication': 16448, 'gather': 426656},
    ),
    'delete/materialize/2': (
        '5d8167e1e4d0e6e6', 255, 1228, 280, ((70, 88), (70, 88), (70, 80), (70, 80)),
        {'load': 16448, 'replication': 16448, 'gather': 434816},
    ),
    'merge/window/1': (
        'b1e7669ea29540ad', 79, 1232, 284, ((70, 88), (70, 88), (70, 80), (70, 80)),
        {'load': 16448, 'replication': 16448, 'gather': 437344},
    ),
    'merge/window/2': (
        'b1e7669ea29540ad', 79, 1236, 288, ((70, 88), (70, 88), (70, 80), (70, 80)),
        {'load': 16448, 'replication': 16448, 'gather': 439872},
    ),
    'merge/filter/1': (
        '3379cb772c2234f4', 255, 1240, 292, ((70, 89), (70, 89), (70, 82), (70, 82)),
        {'load': 16448, 'replication': 16448, 'gather': 448032},
    ),
    'merge/filter/2': (
        '3379cb772c2234f4', 255, 1244, 296, ((70, 90), (70, 90), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 456192},
    ),
    'merge/scan/1': (
        'b21f7ebd6a14f514', 255, 1248, 300, ((70, 90), (70, 90), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 464352},
    ),
    'merge/scan/2': (
        'b21f7ebd6a14f514', 255, 1252, 304, ((70, 90), (70, 90), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 472512},
    ),
    'merge/sjoin/1': (
        '79cf2f06d5687c62', 255, 1256, 316, ((70, 90), (70, 90), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 488832},
    ),
    'merge/sjoin/2': (
        '79cf2f06d5687c62', 255, 1260, 328, ((70, 90), (70, 90), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 505152},
    ),
    'merge/materialize/1': (
        '5d8167e1e4d0e6e6', 255, 1264, 332, ((70, 90), (70, 90), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 513312},
    ),
    'merge/materialize/2': (
        '5d8167e1e4d0e6e6', 255, 1268, 336, ((70, 90), (70, 90), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 521472},
    ),
    'invalidate_stats/window/1': (
        'b1e7669ea29540ad', 79, 1272, 340, ((70, 90), (70, 90), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 524000},
    ),
    'invalidate_stats/window/2': (
        'b1e7669ea29540ad', 79, 1276, 344, ((70, 90), (70, 90), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 526528},
    ),
    'invalidate_stats/filter/1': (
        '3379cb772c2234f4', 255, 1280, 348, ((70, 90), (70, 90), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 534688},
    ),
    'invalidate_stats/filter/2': (
        '3379cb772c2234f4', 255, 1284, 352, ((70, 90), (70, 90), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 542848},
    ),
    'invalidate_stats/scan/1': (
        'b21f7ebd6a14f514', 255, 1288, 356, ((70, 90), (70, 90), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 551008},
    ),
    'invalidate_stats/scan/2': (
        'b21f7ebd6a14f514', 255, 1292, 360, ((70, 90), (70, 90), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 559168},
    ),
    'invalidate_stats/sjoin/1': (
        '79cf2f06d5687c62', 255, 1296, 372, ((70, 90), (70, 90), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 575488},
    ),
    'invalidate_stats/sjoin/2': (
        '79cf2f06d5687c62', 255, 1300, 384, ((70, 90), (70, 90), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 591808},
    ),
    'invalidate_stats/materialize/1': (
        '5d8167e1e4d0e6e6', 255, 1304, 388, ((70, 90), (70, 90), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 599968},
    ),
    'invalidate_stats/materialize/2': (
        '5d8167e1e4d0e6e6', 255, 1308, 392, ((70, 90), (70, 90), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 608128},
    ),
    'fail/window/1': (
        'b1e7669ea29540ad', 79, 1312, 396, ((70, 90), (70, 90), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 610656},
    ),
    'fail/window/2': (
        'b1e7669ea29540ad', 79, 1316, 400, ((70, 90), (70, 90), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 613184},
    ),
    'fail/filter/1': (
        '3379cb772c2234f4', 255, 1320, 404, ((70, 90), (70, 90), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 621344},
    ),
    'fail/filter/2': (
        '3379cb772c2234f4', 255, 1324, 408, ((70, 90), (70, 90), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 629504},
    ),
    'fail/scan/1': (
        'b21f7ebd6a14f514', 255, 1328, 412, ((70, 90), (70, 90), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 637664},
    ),
    'fail/scan/2': (
        'b21f7ebd6a14f514', 255, 1332, 416, ((70, 90), (70, 90), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 645824},
    ),
    'fail/sjoin/1': (
        '79cf2f06d5687c62', 255, 1336, 428, ((70, 90), (70, 90), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 662144},
    ),
    'fail/sjoin/2': (
        '79cf2f06d5687c62', 255, 1340, 440, ((70, 90), (70, 90), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 678464},
    ),
    'fail/materialize/1': (
        '5d8167e1e4d0e6e6', 255, 1344, 444, ((70, 90), (70, 90), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 686624},
    ),
    'fail/materialize/2': (
        '5d8167e1e4d0e6e6', 255, 1348, 448, ((70, 90), (70, 90), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 694784},
    ),
    'rebuild/window/1': (
        'b1e7669ea29540ad', 79, 1352, 456, ((70, 90), (7, 0), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 697312},
    ),
    'rebuild/window/2': (
        'b1e7669ea29540ad', 79, 1356, 460, ((70, 90), (14, 0), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 699840},
    ),
    'rebuild/filter/1': (
        '3379cb772c2234f4', 255, 1360, 464, ((70, 90), (14, 7), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 708000},
    ),
    'rebuild/filter/2': (
        '3379cb772c2234f4', 255, 1364, 468, ((70, 90), (14, 14), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 716160},
    ),
    'rebuild/scan/1': (
        'b21f7ebd6a14f514', 255, 1368, 472, ((70, 90), (14, 14), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 724320},
    ),
    'rebuild/scan/2': (
        'b21f7ebd6a14f514', 255, 1372, 476, ((70, 90), (14, 14), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 732480},
    ),
    'rebuild/sjoin/1': (
        '79cf2f06d5687c62', 255, 1376, 488, ((70, 90), (14, 14), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 748800},
    ),
    'rebuild/sjoin/2': (
        '79cf2f06d5687c62', 255, 1380, 500, ((70, 90), (14, 14), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 765120},
    ),
    'rebuild/materialize/1': (
        '5d8167e1e4d0e6e6', 255, 1384, 504, ((70, 90), (14, 14), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 773280},
    ),
    'rebuild/materialize/2': (
        '5d8167e1e4d0e6e6', 255, 1388, 508, ((70, 90), (14, 14), (70, 84), (70, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 781440},
    ),
    'repartition/window/1': (
        'b1e7669ea29540ad', 79, 1644, 516, ((75, 90), (16, 14), (72, 84), (75, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 783968, 'repartition': 8096},
    ),
    'repartition/window/2': (
        'b1e7669ea29540ad', 79, 1647, 520, ((80, 90), (18, 14), (74, 84), (80, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 786496, 'repartition': 8096},
    ),
    'repartition/filter/1': (
        '3379cb772c2234f4', 255, 1651, 524, ((80, 94), (18, 21), (74, 87), (80, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 794656, 'repartition': 8096},
    ),
    'repartition/filter/2': (
        '3379cb772c2234f4', 255, 1655, 528, ((80, 98), (18, 28), (74, 90), (80, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 802816, 'repartition': 8096},
    ),
    'repartition/scan/1': (
        'b21f7ebd6a14f514', 255, 1659, 532, ((80, 98), (18, 28), (74, 90), (80, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 810976, 'repartition': 8096},
    ),
    'repartition/scan/2': (
        'b21f7ebd6a14f514', 255, 1663, 536, ((80, 98), (18, 28), (74, 90), (80, 84)),
        {'load': 16448, 'replication': 16448, 'gather': 819136, 'repartition': 8096},
    ),
    'repartition/sjoin/1': (
        '79cf2f06d5687c62', 255, 1858, 548, ((80, 98), (18, 28), (74, 90), (80, 84)),
        {
            'load': 16448,
            'replication': 16448,
            'gather': 835456,
            'repartition': 8096,
            'join_shuffle': 6112,
        },
    ),
    'repartition/sjoin/2': (
        '79cf2f06d5687c62', 255, 2053, 560, ((80, 98), (18, 28), (74, 90), (80, 84)),
        {
            'load': 16448,
            'replication': 16448,
            'gather': 851776,
            'repartition': 8096,
            'join_shuffle': 12224,
        },
    ),
    'repartition/materialize/1': (
        '5d8167e1e4d0e6e6', 255, 2057, 564, ((80, 98), (18, 28), (74, 90), (80, 84)),
        {
            'load': 16448,
            'replication': 16448,
            'gather': 859936,
            'repartition': 8096,
            'join_shuffle': 12224,
        },
    ),
    'repartition/materialize/2': (
        '5d8167e1e4d0e6e6', 255, 2061, 568, ((80, 98), (18, 28), (74, 90), (80, 84)),
        {
            'load': 16448,
            'replication': 16448,
            'gather': 868096,
            'repartition': 8096,
            'join_shuffle': 12224,
        },
    ),
}


def records(scale):
    for x in range(1, SIDE + 1):
        for y in range(1, SIDE + 1):
            yield LoadRecord((x, y), (scale * (x * SIDE + y) / 4, 0.25 * (y % 3)))


def canonical(arr):
    return sorted(
        (coords, None if cell is None else tuple(cell.values))
        for coords, cell in arr.cells()
    )


def digest(cells):
    return hashlib.sha256(repr(cells).encode()).hexdigest()[:16]


def drive(tmp_path):
    db = SciDB(tmp_path)
    grid = db.create_grid("g", n_nodes=4, replication=2)
    arrays = {}
    for name, scale in (("sky", 1.0), ("ref", 2.0)):
        arrays[name] = grid.create_array(
            name, SKY.bind([SIDE, SIDE]), HashPartitioner(4), stride=(4, 4)
        )
        db.register(name, arrays[name])
        arrays[name].load_checkpointed(records(scale))
    sky = arrays["sky"]
    seen = {}

    def pruning():
        out = []
        for node in grid.nodes:
            totals = node.storage.total_stats()
            out.append((
                totals.get("buckets_pruned", 0),
                totals.get("buckets_value_pruned", 0),
            ))
        return tuple(out)

    def reads(phase):
        runs = [(cls, lambda text=text: db.query(text)) for cls, text in READS.items()]
        runs.append(("materialize", sky.materialize))
        for cls, run in runs:
            for rep in (1, 2):
                cells = canonical(run())
                seen[f"{phase}/{cls}/{rep}"] = (
                    digest(cells), len(cells), len(grid.ledger.transfers),
                    grid.scheduler.tasks, pruning(), grid.ledger.by_reason(),
                )

    def every_node(action):
        for node in grid.alive_nodes():
            for name in ("sky", "ref"):
                action(node.partition(name))

    reads("loaded")
    sky.write(BUFFERED, (77.25, 0.5))
    reads("write")
    sky.flush()
    reads("flush")
    sky.write(REWRITTEN, (-8.5, 0.75))
    sky.flush()
    reads("rewrite")
    for site in sky.replica_sites(DELETED):
        assert grid.nodes[site].delete("sky", DELETED)
    reads("delete")
    every_node(lambda part: part.merge_small_buckets())
    reads("merge")
    every_node(lambda part: part.invalidate_stats())
    reads("invalidate_stats")
    grid.nodes[DOWN].fail()
    reads("fail")
    grid.rebuild_node(DOWN)
    reads("rebuild")
    sky.repartition(RangePartitioner(4, dim=0, boundaries=[4, 8, 12]))
    reads("repartition")
    return seen


def test_repeated_reads_return_and_count_what_the_parent_recorded(tmp_path):
    seen = drive(tmp_path)
    assert list(seen) == list(PINNED)
    for step, want in PINNED.items():
        assert seen[step] == want, step


def test_a_repeated_read_returns_the_same_cells(tmp_path):
    seen = drive(tmp_path)
    for step, got in seen.items():
        if step.endswith("/2"):
            first = seen[step[:-1] + "1"]
            assert got[:2] == first[:2], step
