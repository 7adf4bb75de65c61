"""What the grid's movers store and move, pinned before they sent batches.

One 4-node k=2 disk grid holds ``ring`` (a consistent-hash ring) and
``hash`` (a hash partitioner), 12x12 with two float components, and is
driven through every way cells move between nodes:

* a ``load`` (the routed write) and a ``load_checkpointed``;
* node-local ``filter`` and ``apply`` through the Python API — their
  outputs are pinned, then taken out of the catalog so that the later
  steps pin the movers on the two loaded arrays only;
* a node ``fail()`` with writes while it is down, then ``rebuild_node``;
* ``repartition`` of ``hash`` to a ``RangePartitioner``;
* ``add_node`` with a write between ticks, ``drain_node``, ``remove_node``;
* ``start_rebalance`` with a destination killed between ticks, then
  ``run`` to abort and roll back.

After every step the test compares, with the values recorded at the
commit before the change: per node and array the digest of the sorted
``Node.scan_partition``; per node the WAL's ``write`` and ``delete``
record counts for the loaded arrays; ``ledger.by_reason()``,
``len(ledger.transfers)``, ``len(ledger.dropped)`` and
``scheduler.tasks``; and every field of the step's rebuild or rebalance
reports.

With a seeded :class:`FaultInjector` (drops, then a scheduled kill) the
order of deliveries may change what a drop or a kill hits, so only what
batching must not move is pinned: the logical content equals a dict
model, and which migrations aborted.
"""

import hashlib
from dataclasses import asdict

import pytest

from repro import define_array
from repro.cluster import (
    ConsistentHashPartitioner,
    FaultInjector,
    Grid,
    HashPartitioner,
    RangePartitioner,
)
from repro.storage.loader import LoadRecord

pytestmark = pytest.mark.tier1

N, K, SIDE = 4, 2, 12
SKY = define_array("Sky", {"flux": "float", "err": "float"}, ["x", "y"])
ARRAYS = ("ring", "hash")


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def value(name, coords, round_=0):
    x, y = coords
    scale = 1.0 if name == "ring" else 2.0
    return (scale * (x * SIDE + y) + 1000.0 * round_, 0.25 * (x % 4))


def build(tmp_path, injector=None):
    grid = Grid(
        N, tmp_path, default_replication=K, fault_injector=injector,
    )
    arrays = {
        "ring": grid.create_array(
            "ring", SKY.bind([SIDE, SIDE]),
            ConsistentHashPartitioner(N, members=range(N)), stride=(4, 4),
        ),
        "hash": grid.create_array(
            "hash", SKY.bind([SIDE, SIDE]), HashPartitioner(N), stride=(4, 4),
        ),
    }
    model = {name: {} for name in ARRAYS}
    # Row SIDE stays empty: the writes while a node is down fill it.
    cells = [(x, y) for x in range(1, SIDE) for y in range(1, SIDE + 1)]
    for c in cells:
        model["ring"][c] = value("ring", c)
        model["hash"][c] = value("hash", c)
    arrays["ring"].load(LoadRecord(c, model["ring"][c]) for c in cells)
    arrays["hash"].load_checkpointed(
        LoadRecord(c, model["hash"][c]) for c in cells
    )
    return grid, arrays, model


def stored(grid, names):
    """Per node and array: digest and count of the sorted stored cells."""
    out = []
    for node in grid.nodes:
        if not node.alive:
            out.append(None)
            continue
        row = {}
        for name in names:
            have = sorted(
                (c, None if cell is None else tuple(cell.values))
                for c, cell in node.scan_partition(name)
            )
            row[name] = (digest(have), len(have))
        out.append(row)
    return out


def wal_counts(grid):
    """Per node: (write, delete) WAL records for the loaded arrays."""
    out = []
    for node in grid.nodes:
        ops = [
            r["op"] for r in node.wal.entries() if r.get("array") in ARRAYS
        ]
        out.append((ops.count("write"), ops.count("delete")))
    return out


def state(grid, names=ARRAYS, reports=()):
    ledger = grid.ledger
    return (
        stored(grid, names),
        wal_counts(grid),
        ledger.by_reason(),
        len(ledger.transfers),
        len(ledger.dropped),
        grid.scheduler.tasks,
        [asdict(r) for r in reports],
    )


def forget(grid, name):
    """Take a node-local operator's output out of the grid again."""
    del grid._arrays[name]
    for node in grid.nodes:
        if node.alive and name in node.storage.names():
            node.storage.drop_array(name)


def drive(tmp_path):
    grid, arrays, model = build(tmp_path)
    seen = {"load": state(grid)}

    arrays["hash"].filter(lambda cell: cell.flux > 150.0, "hash_f")
    arrays["ring"].apply(
        lambda cell: (cell.flux * 2.0, cell.err + cell.flux),
        [("twice", "float"), ("sum", "float")],
        "ring_a",
    )
    seen["filter_apply"] = state(grid, ARRAYS + ("hash_f", "ring_a"))
    forget(grid, "hash_f")
    forget(grid, "ring_a")

    grid.nodes[1].fail()
    for y in range(1, SIDE + 1, 3):
        for name in ARRAYS:
            model[name][(SIDE, y)] = value(name, (SIDE, y), 1)
            arrays[name].write((SIDE, y), model[name][(SIDE, y)])
    for name in ARRAYS:
        arrays[name].flush()
    seen["write_while_down"] = state(grid)
    seen["rebuild"] = state(grid, reports=[grid.rebuild_node(1)])

    moved = arrays["hash"].repartition(
        RangePartitioner(N, dim=0, boundaries=[3, 6, 9])
    )
    seen["repartition"] = state(grid) + (moved,)

    writes = iter([(y, x) for x in (2, 5, 8, 11) for y in range(1, SIDE + 1)])

    def interleave():
        c = next(writes)
        model["ring"][c] = value("ring", c, 2)
        arrays["ring"].write(c, model["ring"][c])

    nid, reports = grid.add_node(max_transfer_cells_per_tick=16,
                                 interleave=interleave)
    seen["add_node"] = state(grid, reports=reports) + (nid,)
    seen["drain_node"] = state(grid, reports=grid.drain_node(
        2, max_transfer_cells_per_tick=24
    ))
    seen["remove_node"] = state(grid, reports=grid.remove_node(
        0, max_transfer_cells_per_tick=24
    ))

    ring = arrays["ring"]
    rb = grid.start_rebalance(
        "ring", ring.partitioner.without_member(3),
        max_transfer_cells_per_tick=8,
    )
    rb.tick()
    grid.nodes[4].fail()
    seen["abort"] = state(grid, reports=[rb.run()])
    return seen, grid, arrays, model


#: step -> state() (plus repartition's moved count and add_node's new
#: node id), recorded at the parent commit.
PINNED = {'load': ([{'ring': ('de7c7cf7ac8451b3', 63), 'hash': ('d6b7b7e81c98694c', 66)},
           {'ring': ('0faa46919cf94c12', 58), 'hash': ('4e854bce7461289a', 67)},
           {'ring': ('bdfae3117be549eb', 69), 'hash': ('67ab8f94c28aaf7f', 66)},
           {'ring': ('467d7c3857d19017', 74), 'hash': ('5ebec59a45a59ced', 65)}],
          [(129, 0), (125, 0), (135, 0), (139, 0)],
          {'load': 8448, 'replication': 8448},
          528,
          0,
          0,
          []),
 'filter_apply': ([{'ring': ('de7c7cf7ac8451b3', 63),
                    'hash': ('d6b7b7e81c98694c', 66),
                    'hash_f': ('3c5141e5104f4319', 66),
                    'ring_a': ('9488d0dbe1a3fa5f', 63)},
                   {'ring': ('0faa46919cf94c12', 58),
                    'hash': ('4e854bce7461289a', 67),
                    'hash_f': ('d902443954b28671', 67),
                    'ring_a': ('3ceeb4f0664a0428', 58)},
                   {'ring': ('bdfae3117be549eb', 69),
                    'hash': ('67ab8f94c28aaf7f', 66),
                    'hash_f': ('2968fcb3db3bbe93', 66),
                    'ring_a': ('eb457eebb3355ed6', 69)},
                   {'ring': ('467d7c3857d19017', 74),
                    'hash': ('5ebec59a45a59ced', 65),
                    'hash_f': ('94d7a54fae5856cc', 65),
                    'ring_a': ('7d8146c500674ba3', 74)}],
                  [(129, 0), (125, 0), (135, 0), (139, 0)],
                  {'load': 8448, 'replication': 8448},
                  528,
                  0,
                  8,
                  []),
 'write_while_down': ([{'ring': ('e76cc9ca60c34eeb', 66), 'hash': ('52a2fde5fda8c609', 69)},
                       None,
                       {'ring': ('5357474ae195fd9c', 70), 'hash': ('2d15890d3178b4f1', 67)},
                       {'ring': ('1d63992e3ac0f556', 75), 'hash': ('00b8169063250913', 67)}],
                      [(135, 0), (125, 0), (137, 0), (142, 0)],
                      {'load': 8640, 'replication': 8608},
                      539,
                      5,
                      8,
                      []),
 'rebuild': ([{'ring': ('e76cc9ca60c34eeb', 66), 'hash': ('52a2fde5fda8c609', 69)},
              {'ring': ('cd867cb3390df19f', 61), 'hash': ('2f3ff20cf80e39da', 69)},
              {'ring': ('5357474ae195fd9c', 70), 'hash': ('2d15890d3178b4f1', 67)},
              {'ring': ('1d63992e3ac0f556', 75), 'hash': ('00b8169063250913', 67)}],
             [(135, 0), (130, 0), (137, 0), (142, 0)],
             {'load': 8640, 'replication': 8608, 'rebuild': 160},
             544,
             5,
             12,
             [{'node_id': 1,
               'cells_from_wal': 125,
               'cells_from_replicas': 5,
               'bytes_moved': 160,
               'load_cursors_restored': 5}]),
 'repartition': ([{'ring': ('e76cc9ca60c34eeb', 66), 'hash': ('4cff8decf15ac199', 64)},
                  {'ring': ('cd867cb3390df19f', 61), 'hash': ('11fb6145a4706f72', 72)},
                  {'ring': ('5357474ae195fd9c', 70), 'hash': ('ede4ff897d08ce18', 72)},
                  {'ring': ('1d63992e3ac0f556', 75), 'hash': ('31075a2241d3c0cc', 64)}],
                 [(199, 0), (202, 0), (209, 0), (206, 0)],
                 {'load': 8640, 'replication': 8608, 'rebuild': 160, 'repartition': 4224},
                 676,
                 5,
                 16,
                 [],
                 101),
 'add_node': ([{'ring': ('9ed47cfa68a67e8a', 52), 'hash': ('cc8b09d5141b8150', 52)},
               {'ring': ('b689735b08b7069d', 49), 'hash': ('b42d0883e205b4f9', 48)},
               {'ring': ('a09cf2caa9ccc100', 53), 'hash': ('46a9c5a0112b215c', 52)},
               {'ring': ('8fab3ccfe1f4eca9', 59), 'hash': ('b74c713962e36cd8', 59)},
               {'ring': ('9c0935f9b88a3ee9', 61), 'hash': ('55c5ffc211c43388', 61)}],
              [(248, 69), (228, 57), (239, 61), (243, 52), (123, 0)],
              {'load': 9024,
               'replication': 8992,
               'rebuild': 160,
               'repartition': 4224,
               'rebalance': 7648,
               'rebalance_dual': 64},
              941,
              5,
              24,
              [{'array': 'hash',
                'old_descriptor': ('range', 4, 0, (3, 6, 9)),
                'new_descriptor': ('consistent_hash', 5, ('ring', (0, 1, 2, 3, 4), 96, 0), None),
                'cells_total': 136,
                'cells_moved': 116,
                'copies_delivered': 160,
                'cells_dropped': 160,
                'dual_writes': 0,
                'bytes_moved': 5120,
                'ticks': 8,
                'throttle_hits': 7,
                'aborted': False,
                'reason': ''},
               {'array': 'ring',
                'old_descriptor': ('consistent_hash', 4, ('ring', (0, 1, 2, 3), 96, 0), None),
                'new_descriptor': ('consistent_hash', 5, ('ring', (0, 1, 2, 3, 4), 96, 0), None),
                'cells_total': 137,
                'cells_moved': 61,
                'copies_delivered': 79,
                'cells_dropped': 79,
                'dual_writes': 4,
                'bytes_moved': 2528,
                'ticks': 4,
                'throttle_hits': 3,
                'aborted': False,
                'reason': ''}],
              4),
 'drain_node': ([{'ring': ('c7d73a518c211dd3', 70), 'hash': ('98c7bd1143fc99fc', 70)},
                 {'ring': ('9a945ffcab77d9fa', 66), 'hash': ('3449acb82b9336a2', 65)},
                 {'ring': ('4f53cda18c2baa0c', 0), 'hash': ('4f53cda18c2baa0c', 0)},
                 {'ring': ('476132a0ef08f4d3', 67), 'hash': ('8e62a1907c26a0ab', 66)},
                 {'ring': ('ce7f9dda4b761041', 71), 'hash': ('d19e06ccbbf24b12', 71)}],
                [(284, 69), (262, 57), (239, 166), (294, 88), (143, 0)],
                {'load': 9024,
                 'replication': 8992,
                 'rebuild': 160,
                 'repartition': 4224,
                 'rebalance': 12160,
                 'rebalance_dual': 64},
                1082,
                5,
                34,
                [{'array': 'hash',
                  'old_descriptor': ('consistent_hash', 5, ('ring', (0, 1, 2, 3, 4), 96, 0), None),
                  'new_descriptor': ('consistent_hash', 5, ('ring', (0, 1, 3, 4), 96, 0), None),
                  'cells_total': 136,
                  'cells_moved': 52,
                  'copies_delivered': 70,
                  'cells_dropped': 70,
                  'dual_writes': 0,
                  'bytes_moved': 2240,
                  'ticks': 3,
                  'throttle_hits': 2,
                  'aborted': False,
                  'reason': ''},
                 {'array': 'ring',
                  'old_descriptor': ('consistent_hash', 5, ('ring', (0, 1, 2, 3, 4), 96, 0), None),
                  'new_descriptor': ('consistent_hash', 5, ('ring', (0, 1, 3, 4), 96, 0), None),
                  'cells_total': 137,
                  'cells_moved': 53,
                  'copies_delivered': 71,
                  'cells_dropped': 71,
                  'dual_writes': 0,
                  'bytes_moved': 2272,
                  'ticks': 3,
                  'throttle_hits': 2,
                  'aborted': False,
                  'reason': ''}]),
 'remove_node': ([None,
                  {'ring': ('1f5b8e95ea62f487', 68), 'hash': ('33b4e572f0262b2a', 67)},
                  {'ring': ('f799a14c54a29234', 61), 'hash': ('a7974f88d9ca00cb', 60)},
                  {'ring': ('8a5f13e891cbab22', 69), 'hash': ('448ab8972e079871', 69)},
                  {'ring': ('51218fda46781edb', 76), 'hash': ('e7300ccdef5c2e96', 76)}],
                 [(284, 209), (320, 111), (360, 166), (350, 139), (173, 20)],
                 {'load': 9024,
                  'replication': 8992,
                  'rebuild': 160,
                  'repartition': 4224,
                  'rebalance': 20640,
                  'rebalance_dual': 64},
                 1347,
                 5,
                 42,
                 [{'array': 'hash',
                   'old_descriptor': ('consistent_hash', 5, ('ring', (0, 1, 3, 4), 96, 0), None),
                   'new_descriptor': ('consistent_hash', 5, ('ring', (1, 2, 3, 4), 96, 0), None),
                   'cells_total': 136,
                   'cells_moved': 104,
                   'copies_delivered': 132,
                   'cells_dropped': 132,
                   'dual_writes': 0,
                   'bytes_moved': 4224,
                   'ticks': 5,
                   'throttle_hits': 4,
                   'aborted': False,
                   'reason': ''},
                  {'array': 'ring',
                   'old_descriptor': ('consistent_hash', 5, ('ring', (0, 1, 3, 4), 96, 0), None),
                   'new_descriptor': ('consistent_hash', 5, ('ring', (1, 2, 3, 4), 96, 0), None),
                   'cells_total': 137,
                   'cells_moved': 105,
                   'copies_delivered': 133,
                   'cells_dropped': 133,
                   'dual_writes': 0,
                   'bytes_moved': 4256,
                   'ticks': 5,
                   'throttle_hits': 4,
                   'aborted': False,
                   'reason': ''}]),
 'abort': ([None,
            {'ring': ('1f5b8e95ea62f487', 68), 'hash': ('33b4e572f0262b2a', 67)},
            {'ring': ('f799a14c54a29234', 61), 'hash': ('a7974f88d9ca00cb', 60)},
            {'ring': ('8a5f13e891cbab22', 69), 'hash': ('448ab8972e079871', 69)},
            None],
           [(284, 209), (320, 111), (360, 166), (350, 139), (181, 20)],
           {'load': 9024,
            'replication': 8992,
            'rebuild': 160,
            'repartition': 4224,
            'rebalance': 20896,
            'rebalance_dual': 64},
           1355,
           5,
           46,
           [{'array': 'ring',
             'old_descriptor': ('consistent_hash', 5, ('ring', (1, 2, 3, 4), 96, 0), None),
             'new_descriptor': ('consistent_hash', 5, ('ring', (1, 2, 4), 96, 0), None),
             'cells_total': 137,
             'cells_moved': 8,
             'copies_delivered': 8,
             'cells_dropped': 0,
             'dual_writes': 0,
             'bytes_moved': 256,
             'ticks': 3,
             'throttle_hits': 3,
             'aborted': True,
             'reason': 'cell (2, 8): destination node(s) [4] dead'}])}


def test_movers_store_and_move_what_the_parent_recorded(tmp_path):
    seen, grid, arrays, model = drive(tmp_path)
    assert list(seen) == list(PINNED)
    for step, want in PINNED.items():
        assert seen[step] == want, step
    for name in ARRAYS:
        got = {c: tuple(cell.values) for c, cell in arrays[name].scan()}
        assert got == model[name], name


def logical(arr):
    return {c: tuple(cell.values) for c, cell in arr.scan()}


@pytest.mark.parametrize("seed", [3, 11])
def test_faulted_movers_keep_the_logical_content(tmp_path, seed):
    injector = FaultInjector(seed=seed)
    grid, arrays, model = build(tmp_path, injector)
    injector.drop_rate = 0.1
    aborted = []
    for reports in (
        grid.drain_node(3, max_transfer_cells_per_tick=16),
        grid.add_node(max_transfer_cells_per_tick=16)[1],
    ):
        aborted.append([r.aborted for r in reports])
        for name in ARRAYS:
            assert logical(arrays[name]) == model[name], (seed, name)
    injector.drop_rate = 0.0
    injector.schedule_kill(4, after=20)
    reports = grid.drain_node(1, max_transfer_cells_per_tick=16)
    aborted.append([r.aborted for r in reports])
    for name in ARRAYS:
        assert logical(arrays[name]) == model[name], (seed, name)
    assert aborted == [[False, False], [False, False], [True, True]]
