"""What hand-ticked migrations report, pinned before placement went per box.

A 4-node k=2 disk grid holds one 12x12 array with two float components
(rows 1-10 loaded, rows 11-12 left for writes made during a migration),
and three migrations are driven by hand, tick by tick:

* ``add``: a three-member ring gains member 3; a write to a cell that
  does not relocate lands after the first tick, a write to a new cell
  that does lands once the queue is empty;
* ``drain``: a four-member ring loses member 2; once the queue is empty
  nodes 2 and 3 die, so partition 2's old chain is dead, and a scan is
  served from the new homes (``_dual_resolve``); the nodes are rebuilt
  before the cutover;
* ``convert``: a hash partitioner becomes a four-member ring; after the
  first tick nodes 0 and 1 die and a scan must raise ``QuorumError``
  (the new homes cannot account for partition 0 yet).

For each the test compares, with the values recorded at the commit
before the change: per tick ``tick()``'s return value, ``progress()`` and
the ``rebalance_plan`` / ``rebalance_tick`` / ``rebalance_cutover``
events; the report; per node the digest of what it stores; the WAL's
write and delete counts; ``ledger.by_reason()``; and for the dual-resolve
scan its result digest, the ``dual_reads`` counter and the ledger.

Two more cases pin behaviour without pinning every step.  The trust
rule: a node dead across a cutover comes back with its stale copies, and
a second migration that makes it a home again overwrites them, never
serving one.  A verify re-queue: copies of cells written during a
migration are dropped by a seeded injector, so the first ``finalize``
finds them missing and re-queues them; only the content and the report
are pinned there.
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
)
from repro.core.errors import QuorumError
from repro.obs.recorder import FlightRecorder, use_flight_recorder
from repro.storage.loader import LoadRecord

pytestmark = pytest.mark.tier1

N, K, SIDE = 4, 2, 12
SKY = define_array("Sky", {"flux": "float", "err": "float"}, ["x", "y"])
KINDS = ("rebalance_plan", "rebalance_tick", "rebalance_cutover", "rebalance_abort")


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def value(coords, round_=0):
    x, y = coords
    return (float(x * SIDE + y) + 1000.0 * round_, 0.25 * (x % 4))


def build(tmp_path, partitioner, injector=None):
    grid = Grid(N, tmp_path, default_replication=K, fault_injector=injector)
    arr = grid.create_array(
        "sky", SKY.bind([SIDE, SIDE]), partitioner, stride=(4, 4)
    )
    model = {
        (x, y): value((x, y)) for x in range(1, SIDE - 1)
        for y in range(1, SIDE + 1)
    }
    arr.load(LoadRecord(c, v) for c, v in model.items())
    return grid, arr, model


def content(arr, window=None):
    return {
        c: None if cell is None else tuple(cell.values)
        for c, cell in arr.scan(window)
    }


def stored(grid):
    out = []
    for node in grid.nodes:
        if not node.alive:
            out.append(None)
            continue
        have = sorted(
            (c, None if cell is None else tuple(cell.values))
            for c, cell in node.scan_partition("sky")
        )
        out.append((digest(have), len(have)))
    return out


def wal_counts(grid):
    out = []
    for node in grid.nodes:
        ops = [r["op"] for r in node.wal.entries() if r.get("array") == "sky"]
        out.append((ops.count("write"), ops.count("delete")))
    return out


class Events:
    """The rebalance events the recorder took since the last call."""

    def __init__(self, rec):
        self.rec, self.seq = rec, 0

    def __call__(self):
        out = [
            (e.kind, e.array, dict(e.detail))
            for e in self.rec.events(since_seq=self.seq) if e.kind in KINDS
        ]
        self.seq = self.rec.events_log.emitted
        return out


def relocating(mig, c):
    return set(mig.new_chain(c)) != set(mig.old_chain(c))


def drive(tmp_path, kind):
    """One hand-ticked migration; returns what it recorded, step by step."""
    if kind == "add":
        before = ConsistentHashPartitioner(N, members=(0, 1, 2))
        target, throttle = before.with_member(3), 16
    elif kind == "drain":
        before = ConsistentHashPartitioner(N, members=(0, 1, 2, 3))
        target, throttle = before.without_member(2), 24
    else:
        before, target, throttle = HashPartitioner(N), ConsistentHashPartitioner(N), 32
    grid, arr, model = build(tmp_path, before)
    rec = FlightRecorder()
    log = {}
    with use_flight_recorder(rec):
        events = Events(rec)
        rb = grid.start_rebalance("sky", target, max_transfer_cells_per_tick=throttle)
        mig = rb.migration
        log["plan"] = (rb.progress(), events())
        ticks = []
        while rb.progress()["cells_remaining"]:
            ticks.append((rb.tick(), rb.progress(), events()))
            if kind == "add" and len(ticks) == 1:
                c = next(c for c in sorted(model) if not relocating(mig, c))
                model[c] = value(c, 1)
                arr.write(c, model[c])
            if kind == "convert" and len(ticks) == 1:
                grid.nodes[0].fail()
                grid.nodes[1].fail()
                with pytest.raises(QuorumError):
                    content(arr)
                log["quorum"] = (
                    grid.resilience_counters["dual_reads"],
                    grid.ledger.by_reason(),
                )
                grid.rebuild_node(0)
                grid.rebuild_node(1)
        log["ticks"] = ticks
        if kind == "add":
            c = next(
                (SIDE - 1, y) for y in range(1, SIDE + 1)
                if relocating(mig, (SIDE - 1, y))
            )
            model[c] = value(c, 2)
            arr.write(c, model[c])
        if kind == "drain":
            grid.nodes[2].fail()
            grid.nodes[3].fail()
            got = content(arr)
            assert got == model
            log["dual_resolve"] = (
                digest(sorted(got.items())),
                grid.resilience_counters["dual_reads"],
                grid.ledger.by_reason(),
            )
            grid.rebuild_node(2)
            grid.rebuild_node(3)
        finals = []
        while not rb.finished:
            finals.append(rb.finalize())
            if not rb.finished:
                finals.append(rb.tick())
        log["finalize"] = (finals, rb.progress(), events())
    assert content(arr) == model
    log["after"] = (
        asdict(rb.report()),
        stored(grid),
        wal_counts(grid),
        grid.ledger.by_reason(),
        len(grid.ledger.transfers),
        digest(sorted(model.items())),
    )
    return log


@pytest.mark.parametrize("kind", ["add", "drain", "convert"])
def test_hand_ticked_migration_is_pinned(tmp_path, kind):
    assert drive(tmp_path, kind) == PINNED[kind]


def test_a_stale_copy_is_overwritten_never_served(tmp_path):
    """Node 3 is dead across the cutover that drains it, so its copies are
    never deleted; rebuilt, it holds them again.  Cells rewritten since are
    stale there.  A second migration makes node 3 a home again: it is
    sent the fresh values, and no read ever returns a stale one."""
    ring = ConsistentHashPartitioner(N, members=(0, 1, 2, 3))
    grid, arr, model = build(tmp_path, ring)
    had = {c for c, _ in grid.nodes[3].scan_partition("sky")}
    rb = grid.start_rebalance("sky", ring.without_member(3), max_transfer_cells_per_tick=32)
    grid.nodes[3].fail()
    while not rb.finalize():
        rb.tick()
    rewritten = sorted(had)[::3]
    for c in rewritten:
        model[c] = value(c, 3)
        arr.write(c, model[c])
    grid.rebuild_node(3)
    stale = {c for c, cell in grid.nodes[3].scan_partition("sky")
             if c in rewritten and tuple(cell.values) != model[c]}
    assert stale == set(rewritten)
    rb = grid.start_rebalance(
        "sky", arr.partitioner.with_member(3), max_transfer_cells_per_tick=32
    )
    mig = rb.migration
    homes = {c for c in rewritten if 3 in mig.new_chain(c)}
    while not rb.finalize():
        assert content(arr) == model
        rb.tick()
    assert content(arr) == model
    at3 = {c: tuple(cell.values) for c, cell in grid.nodes[3].scan_partition("sky")}
    assert {c: at3[c] for c in homes} == {c: model[c] for c in homes}
    assert (len(homes), asdict(rb.report())) == PINNED["stale"]


def test_verify_requeues_dropped_copies(tmp_path):
    injector = FaultInjector(seed=7)
    ring = ConsistentHashPartitioner(N, members=(0, 1, 2))
    grid, arr, model = build(tmp_path, ring, injector)
    rb = grid.start_rebalance("sky", ring.with_member(3), max_transfer_cells_per_tick=16)
    while rb.progress()["cells_remaining"]:
        rb.tick()
    injector.drop_rate = 0.3
    for y in range(1, SIDE + 1):
        model[(SIDE, y)] = value((SIDE, y), 4)
        arr.write((SIDE, y), model[(SIDE, y)])
    injector.drop_rate = 0.0
    first = rb.finalize()
    requeued = rb.progress()["cells_remaining"]
    while not rb.finalize():
        rb.tick()
    got = content(arr)
    assert (first, requeued, digest(sorted(got.items())), asdict(rb.report())) == PINNED["verify"]


#: what each case recorded at the parent commit
PINNED = {'add': {'plan': ({'array': 'sky',
                   'cells_total': 120,
                   'cells_moved': 0,
                   'cells_remaining': 64,
                   'copies_delivered': 0,
                   'dual_writes': 0,
                   'ticks': 0,
                   'throttle_hits': 0,
                   'finished': False,
                   'aborted': False},
                  [('rebalance_plan', 'sky', {'cells_total': 120, 'cells_queued': 64})]),
         'ticks': [(16,
                    {'array': 'sky',
                     'cells_total': 120,
                     'cells_moved': 16,
                     'cells_remaining': 48,
                     'copies_delivered': 16,
                     'dual_writes': 0,
                     'ticks': 1,
                     'throttle_hits': 1,
                     'finished': False,
                     'aborted': False},
                    [('rebalance_tick', 'sky', {'tick': 1, 'moved': 16, 'pending': 48})]),
                   (16,
                    {'array': 'sky',
                     'cells_total': 120,
                     'cells_moved': 32,
                     'cells_remaining': 32,
                     'copies_delivered': 37,
                     'dual_writes': 1,
                     'ticks': 2,
                     'throttle_hits': 2,
                     'finished': False,
                     'aborted': False},
                    [('rebalance_tick', 'sky', {'tick': 2, 'moved': 16, 'pending': 32})]),
                   (16,
                    {'array': 'sky',
                     'cells_total': 120,
                     'cells_moved': 48,
                     'cells_remaining': 16,
                     'copies_delivered': 53,
                     'dual_writes': 1,
                     'ticks': 3,
                     'throttle_hits': 3,
                     'finished': False,
                     'aborted': False},
                    [('rebalance_tick', 'sky', {'tick': 3, 'moved': 16, 'pending': 16})]),
                   (16,
                    {'array': 'sky',
                     'cells_total': 120,
                     'cells_moved': 64,
                     'cells_remaining': 0,
                     'copies_delivered': 69,
                     'dual_writes': 1,
                     'ticks': 4,
                     'throttle_hits': 3,
                     'finished': False,
                     'aborted': False},
                    [('rebalance_tick', 'sky', {'tick': 4, 'moved': 16, 'pending': 0})])],
         'finalize': ([True],
                      {'array': 'sky',
                       'cells_total': 121,
                       'cells_moved': 64,
                       'cells_remaining': 0,
                       'copies_delivered': 69,
                       'dual_writes': 2,
                       'ticks': 4,
                       'throttle_hits': 3,
                       'finished': True,
                       'aborted': False},
                      [('rebalance_cutover',
                        'sky',
                        {'cells_moved': 64, 'old_copies_dropped': 70, 'ticks': 4})]),
         'after': ({'array': 'sky',
                    'old_descriptor': ('consistent_hash', 4, ('ring', (0, 1, 2), 96, 0), None),
                    'new_descriptor': ('consistent_hash', 4, ('ring', (0, 1, 2, 3), 96, 0), None),
                    'cells_total': 121,
                    'cells_moved': 64,
                    'copies_delivered': 69,
                    'cells_dropped': 70,
                    'dual_writes': 2,
                    'bytes_moved': 2208,
                    'ticks': 4,
                    'throttle_hits': 3,
                    'aborted': False,
                    'reason': ''},
                   [('72b13987e8a83690', 59),
                    ('5aa0b6ce9330ae5d', 56),
                    ('9301a478b253d5a2', 62),
                    ('f8e66158c8155352', 65)],
                   [(90, 31), (82, 25), (77, 14), (65, 0)],
                   {'load': 3904,
                    'replication': 3904,
                    'rebalance': 2208,
                    'rebalance_dual': 32,
                    'gather': 3872},
                   318,
                   'ff3f48546ffdeff6')},
 'drain': {'plan': ({'array': 'sky',
                     'cells_total': 120,
                     'cells_moved': 0,
                     'cells_remaining': 62,
                     'copies_delivered': 0,
                     'dual_writes': 0,
                     'ticks': 0,
                     'throttle_hits': 0,
                     'finished': False,
                     'aborted': False},
                    [('rebalance_plan', 'sky', {'cells_total': 120, 'cells_queued': 62})]),
           'ticks': [(24,
                      {'array': 'sky',
                       'cells_total': 120,
                       'cells_moved': 24,
                       'cells_remaining': 38,
                       'copies_delivered': 24,
                       'dual_writes': 0,
                       'ticks': 1,
                       'throttle_hits': 1,
                       'finished': False,
                       'aborted': False},
                      [('rebalance_tick', 'sky', {'tick': 1, 'moved': 24, 'pending': 38})]),
                     (24,
                      {'array': 'sky',
                       'cells_total': 120,
                       'cells_moved': 48,
                       'cells_remaining': 14,
                       'copies_delivered': 57,
                       'dual_writes': 0,
                       'ticks': 2,
                       'throttle_hits': 2,
                       'finished': False,
                       'aborted': False},
                      [('rebalance_tick', 'sky', {'tick': 2, 'moved': 24, 'pending': 14})]),
                     (14,
                      {'array': 'sky',
                       'cells_total': 120,
                       'cells_moved': 62,
                       'cells_remaining': 0,
                       'copies_delivered': 80,
                       'dual_writes': 0,
                       'ticks': 3,
                       'throttle_hits': 2,
                       'finished': False,
                       'aborted': False},
                      [('rebalance_tick', 'sky', {'tick': 3, 'moved': 14, 'pending': 0})])],
           'dual_resolve': ('355bf36179462c76',
                            1,
                            {'load': 3840, 'replication': 3840, 'rebalance': 2560, 'gather': 3840}),
           'finalize': ([True],
                        {'array': 'sky',
                         'cells_total': 120,
                         'cells_moved': 62,
                         'cells_remaining': 0,
                         'copies_delivered': 80,
                         'dual_writes': 0,
                         'ticks': 3,
                         'throttle_hits': 2,
                         'finished': True,
                         'aborted': False},
                        [('rebalance_cutover',
                          'sky',
                          {'cells_moved': 62, 'old_copies_dropped': 80, 'ticks': 3})]),
           'after': ({'array': 'sky',
                      'old_descriptor': ('consistent_hash', 4, ('ring', (0, 1, 2, 3), 96, 0), None),
                      'new_descriptor': ('consistent_hash', 4, ('ring', (0, 1, 3), 96, 0), None),
                      'cells_total': 120,
                      'cells_moved': 62,
                      'copies_delivered': 80,
                      'cells_dropped': 80,
                      'dual_writes': 0,
                      'bytes_moved': 2560,
                      'ticks': 3,
                      'throttle_hits': 2,
                      'aborted': False,
                      'reason': ''},
                     [('8eed3ec14f4811aa', 82),
                      ('fc835109db50d2d4', 81),
                      ('4f53cda18c2baa0c', 0),
                      ('c71539da6634256d', 77)],
                     [(82, 0), (81, 0), (62, 62), (95, 18)],
                     {'load': 3840, 'replication': 3840, 'rebalance': 2560, 'gather': 7680},
                     328,
                     '355bf36179462c76')},
 'convert': {'plan': ({'array': 'sky',
                       'cells_total': 120,
                       'cells_moved': 0,
                       'cells_remaining': 93,
                       'copies_delivered': 0,
                       'dual_writes': 0,
                       'ticks': 0,
                       'throttle_hits': 0,
                       'finished': False,
                       'aborted': False},
                      [('rebalance_plan', 'sky', {'cells_total': 120, 'cells_queued': 93})]),
             'quorum': (0, {'load': 3840, 'replication': 3840, 'rebalance': 1344, 'gather': 2848}),
             'ticks': [(32,
                        {'array': 'sky',
                         'cells_total': 120,
                         'cells_moved': 32,
                         'cells_remaining': 61,
                         'copies_delivered': 42,
                         'dual_writes': 0,
                         'ticks': 1,
                         'throttle_hits': 1,
                         'finished': False,
                         'aborted': False},
                        [('rebalance_tick', 'sky', {'tick': 1, 'moved': 32, 'pending': 61})]),
                       (32,
                        {'array': 'sky',
                         'cells_total': 120,
                         'cells_moved': 64,
                         'cells_remaining': 29,
                         'copies_delivered': 86,
                         'dual_writes': 0,
                         'ticks': 2,
                         'throttle_hits': 2,
                         'finished': False,
                         'aborted': False},
                        [('rebalance_tick', 'sky', {'tick': 2, 'moved': 32, 'pending': 29})]),
                       (29,
                        {'array': 'sky',
                         'cells_total': 120,
                         'cells_moved': 93,
                         'cells_remaining': 0,
                         'copies_delivered': 126,
                         'dual_writes': 0,
                         'ticks': 3,
                         'throttle_hits': 2,
                         'finished': False,
                         'aborted': False},
                        [('rebalance_tick', 'sky', {'tick': 3, 'moved': 29, 'pending': 0})])],
             'finalize': ([True],
                          {'array': 'sky',
                           'cells_total': 120,
                           'cells_moved': 93,
                           'cells_remaining': 0,
                           'copies_delivered': 126,
                           'dual_writes': 0,
                           'ticks': 3,
                           'throttle_hits': 2,
                           'finished': True,
                           'aborted': False},
                          [('rebalance_cutover',
                            'sky',
                            {'cells_moved': 93, 'old_copies_dropped': 126, 'ticks': 3})]),
             'after': ({'array': 'sky',
                        'old_descriptor': ('hash', 4, None),
                        'new_descriptor': ('consistent_hash',
                                           4,
                                           ('ring', (0, 1, 2, 3), 96, 0),
                                           None),
                        'cells_total': 120,
                        'cells_moved': 93,
                        'copies_delivered': 126,
                        'cells_dropped': 126,
                        'dual_writes': 0,
                        'bytes_moved': 4032,
                        'ticks': 3,
                        'throttle_hits': 2,
                        'aborted': False,
                        'reason': ''},
                       [('300cf441441faf86', 58),
                        ('8790e85286de359d', 56),
                        ('f0a8abbb20f23f9c', 62),
                        ('206ac322fcbbae8c', 64)],
                       [(89, 31), (92, 36), (91, 29), (94, 30)],
                       {'load': 3840, 'replication': 3840, 'rebalance': 4032, 'gather': 6688},
                       373,
                       '355bf36179462c76')},
 'stale': (22,
           {'array': 'sky',
            'old_descriptor': ('consistent_hash', 4, ('ring', (0, 1, 2), 96, 0), None),
            'new_descriptor': ('consistent_hash', 4, ('ring', (0, 1, 2, 3), 96, 0), None),
            'cells_total': 120,
            'cells_moved': 64,
            'copies_delivered': 69,
            'cells_dropped': 69,
            'dual_writes': 0,
            'bytes_moved': 2208,
            'ticks': 2,
            'throttle_hits': 1,
            'aborted': False,
            'reason': ''}),
 'verify': (False,
            6,
            '8d2445c01fd8b400',
            {'array': 'sky',
             'old_descriptor': ('consistent_hash', 4, ('ring', (0, 1, 2), 96, 0), None),
             'new_descriptor': ('consistent_hash', 4, ('ring', (0, 1, 2, 3), 96, 0), None),
             'cells_total': 132,
             'cells_moved': 70,
             'copies_delivered': 75,
             'cells_dropped': 73,
             'dual_writes': 12,
             'bytes_moved': 2400,
             'ticks': 5,
             'throttle_hits': 3,
             'aborted': False,
             'reason': ''})}
