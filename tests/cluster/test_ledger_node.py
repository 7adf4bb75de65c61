"""Unit tests for the movement ledger and node accounting (Section 2.7)."""

import pytest

from repro import define_array
from repro.cluster.grid import COORDINATOR, DataMovementLedger, Transfer
from repro.cluster.node import Node


class TestLedger:
    def test_records_cross_node_only(self):
        led = DataMovementLedger()
        led.record(0, 1, 100, "load")
        led.record(2, 2, 999, "load")  # local: free by definition
        assert led.total_bytes() == 100
        assert len(led.transfers) == 1

    def test_totals_by_reason(self):
        led = DataMovementLedger()
        led.record(0, 1, 100, "load")
        led.record(1, 0, 50, "load")
        led.record(0, 2, 30, "join_shuffle")
        assert led.total_bytes("load") == 150
        assert led.total_bytes("join_shuffle") == 30
        assert led.total_bytes("nothing") == 0
        assert led.by_reason() == {"load": 150, "join_shuffle": 30}

    def test_reset(self):
        led = DataMovementLedger()
        led.record(0, 1, 100, "load")
        led.reset()
        assert led.total_bytes() == 0

    def test_coordinator_is_a_site(self):
        led = DataMovementLedger()
        led.record(COORDINATOR, 3, 10, "load")
        led.record(3, COORDINATOR, 10, "gather")
        assert led.total_bytes() == 20

    def test_transfer_immutable(self):
        t = Transfer(0, 1, 10, "load")
        with pytest.raises(AttributeError):
            t.nbytes = 20


class TestNode:
    def test_private_storage(self, tmp_path):
        schema = define_array("N", {"v": "float"}, ["x"]).bind([8])
        n0 = Node(0, tmp_path / "n0")
        n1 = Node(1, tmp_path / "n1")
        n0.create_partition("arr", schema)
        n1.create_partition("arr", schema)
        n0.store("arr", [((1,), (1.0,))])
        assert n0.cell_count("arr") == 1
        assert n1.cell_count("arr") == 0  # shared-nothing

    def test_counters(self, tmp_path):
        schema = define_array("N", {"v": "float"}, ["x"]).bind([8])
        n = Node(0, tmp_path / "n")
        n.create_partition("arr", schema)
        for i in range(1, 4):
            n.store("arr", [((i,), (float(i),))])
        assert n.counters.cells_stored == 3

    def test_partition_lookup_error(self, tmp_path):
        n = Node(0, tmp_path / "n")
        with pytest.raises(Exception):
            n.partition("missing")
