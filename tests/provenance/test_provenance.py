"""Unit tests for provenance: command log, backward/forward tracing, the
Trio-style item store, and the metadata repository (Section 2.12)."""

import numpy as np
import pytest

from repro import SciArray, define_array
from repro.core.errors import ProvenanceError
from repro.provenance import (
    ItemLineageStore,
    MetadataRepository,
    ProvenanceEngine,
    TraceCache,
    trace_backward,
    trace_forward,
)


def raw_array(n=4, name="raw"):
    schema = define_array("Raw", {"v": "float"}, ["x", "y"])
    data = np.arange(1.0, n * n + 1).reshape(n, n)
    return SciArray.from_numpy(schema, data, name=name)


@pytest.fixture
def engine():
    eng = ProvenanceEngine()
    eng.register_external(
        "raw", raw_array(), program="telescope_ingest",
        parameters={"night": "2009-01-01"},
    )
    return eng


def build_pipeline(eng):
    """raw -> filtered -> coarse (regrid) ; raw -> row_sums (aggregate)."""
    eng.execute("filter", ["raw"], "filtered", predicate=lambda c: c.v > 2.0)
    eng.execute("regrid", ["filtered"], "coarse", factors=[2, 2], agg="sum")
    eng.execute("aggregate", ["raw"], "row_sums", group_dims=["x"], agg="sum")
    return eng


class TestEngineAndLog:
    def test_commands_logged_in_order(self, engine):
        build_pipeline(engine)
        ops = [c.op for c in engine.log]
        assert ops == ["filter", "regrid", "aggregate"]
        assert engine.log.command_producing("coarse").op == "regrid"

    def test_outputs_registered(self, engine):
        build_pipeline(engine)
        assert engine.get("coarse").name == "coarse"
        assert set(engine.names()) == {"raw", "filtered", "coarse", "row_sums"}

    def test_no_overwrite_of_outputs(self, engine):
        build_pipeline(engine)
        with pytest.raises(ProvenanceError):
            engine.execute("filter", ["raw"], "filtered",
                           predicate=lambda c: True)

    def test_unknown_input(self, engine):
        with pytest.raises(ProvenanceError):
            engine.execute("filter", ["nope"], "out", predicate=lambda c: True)

    def test_commands_reading(self, engine):
        build_pipeline(engine)
        readers = engine.log.commands_reading("raw")
        assert [c.op for c in readers] == ["filter", "aggregate"]

    def test_rerun_produces_new_name(self, engine):
        """Re-derivation 'will not overwrite old data, but will produce new
        value(s)'."""
        build_pipeline(engine)
        cmd = engine.log.command_producing("filtered")
        again = engine.rerun(cmd)
        assert again.name != "filtered"
        assert again.content_equal(engine.get("filtered"))

    def test_describe_is_readable(self, engine):
        build_pipeline(engine)
        text = engine.log.describe()
        assert "filter(raw" in text and "regrid(filtered" in text


class TestBackwardTrace:
    """Requirement 1: find the processing steps that created D."""

    def test_single_step(self, engine):
        build_pipeline(engine)
        steps = trace_backward(engine, ("filtered", (3, 3)))
        assert steps[0].command.op == "filter"
        assert ("raw", (3, 3)) in steps[0].contributors

    def test_multi_step_chain_reaches_external(self, engine):
        build_pipeline(engine)
        steps = trace_backward(engine, ("coarse", (1, 1)))
        ops = [s.command.op for s in steps]
        assert ops[0] == "regrid"
        assert "filter" in ops
        # Leaves are raw cells; raw terminates at the repository.
        leaf_items = steps[-1].contributors
        assert all(name == "raw" for name, _ in leaf_items)
        assert engine.repository.is_external("raw")

    def test_regrid_block_contributors(self, engine):
        build_pipeline(engine)
        steps = trace_backward(engine, ("coarse", (2, 2)))
        regrid_step = steps[0]
        contributing = {c for _, c in regrid_step.contributors}
        assert contributing == {(3, 3), (3, 4), (4, 3), (4, 4)}

    def test_aggregate_group_contributors(self, engine):
        build_pipeline(engine)
        steps = trace_backward(engine, ("row_sums", (2,)))
        contributing = {c for _, c in steps[0].contributors}
        assert contributing == {(2, 1), (2, 2), (2, 3), (2, 4)}

    def test_sjoin_backward(self):
        eng = ProvenanceEngine()
        schema = define_array("T", {"v": "float"}, ["x"])
        eng.register_external("a", SciArray.from_numpy(schema, np.array([1.0, 2.0]), name="a"),
                              program="gen")
        eng.register_external("b", SciArray.from_numpy(schema, np.array([3.0, 4.0]), name="b"),
                              program="gen")
        eng.execute("sjoin", ["a", "b"], "j", on=[("x", "x")])
        steps = trace_backward(eng, ("j", (2,)))
        assert set(steps[0].contributors) == {("a", (2,)), ("b", (2,))}

    def test_an_operator_without_a_rule_names_every_input_cell(self, engine):
        # transpose and concatenate have no cell-level rule: conservative
        # lineage names every cell of every input, NULL cells included.
        other = raw_array(n=4, name="other")
        other.set_null((2, 3))
        engine.register_external("other", other, program="gen")
        engine.execute("concatenate", ["raw", "other"], "stacked", dim="x")
        engine.execute("transpose", ["stacked"], "flipped", order=["y", "x"])
        steps = trace_backward(engine, ("flipped", (1, 1)))
        assert [s.command.op for s in steps[:2]] == ["transpose", "concatenate"]
        stacked = engine.get("stacked")
        assert stacked.count_occupied() == 32
        assert steps[0].contributors == [("stacked", c) for c, _ in stacked.cells()]
        every = {("raw", (x, y)) for x in range(1, 5) for y in range(1, 5)}
        every |= {("other", c) for _, c in every}
        assert len(every) == 32
        for step in steps[1:]:
            assert step.command.op == "concatenate"
            assert len(step.contributors) == 32 and set(step.contributors) == every
        assert len(steps) == 1 + 32  # one step per stacked cell reached


class TestForwardTrace:
    """Requirement 2: find downstream elements impacted by D."""

    def test_direct_and_transitive_impact(self, engine):
        build_pipeline(engine)
        affected = trace_forward(engine, ("raw", (3, 3)))
        assert ("filtered", (3, 3)) in affected
        assert ("coarse", (2, 2)) in affected
        assert ("row_sums", (3,)) in affected

    def test_unrelated_cells_not_affected(self, engine):
        build_pipeline(engine)
        affected = trace_forward(engine, ("raw", (1, 1)))
        assert ("coarse", (2, 2)) not in affected
        assert ("row_sums", (2,)) not in affected

    def test_terminates_when_no_further_activity(self, engine):
        build_pipeline(engine)
        affected = trace_forward(engine, ("coarse", (1, 1)))
        assert affected == set()  # nothing reads coarse

    def test_subsample_forward_mapping(self):
        eng = ProvenanceEngine()
        schema = define_array("T", {"v": "float"}, ["x"])
        eng.register_external(
            "src",
            SciArray.from_numpy(schema, np.arange(1.0, 9.0), name="src"),
            program="gen",
        )
        eng.execute("subsample", ["src"], "evens",
                    predicate={"x": lambda x: x % 2 == 0})
        affected = trace_forward(eng, ("src", (4,)))
        assert ("evens", (2,)) in affected
        assert trace_forward(eng, ("src", (3,))) == set()

    def test_sjoin_forward_from_either_side(self):
        """A left cell reaches every output cell it joined into (one per
        matching right cell along the right's unjoined dimension); a
        right cell reaches exactly the one it produced."""
        eng = ProvenanceEngine()
        line = define_array("Line", {"v": "float"}, ["x"])
        plane = define_array("Plane", {"w": "float"}, ["x", "t"])
        eng.register_external(
            "a", SciArray.from_numpy(line, np.array([1.0, 2.0]), name="a"),
            program="gen",
        )
        eng.register_external(
            "b",
            SciArray.from_numpy(plane, np.arange(6.0).reshape(2, 3), name="b"),
            program="gen",
        )
        eng.execute("sjoin", ["a", "b"], "j", on=[("x", "x")])
        assert trace_forward(eng, ("a", (2,))) == {
            ("j", (2, 1)), ("j", (2, 2)), ("j", (2, 3)),
        }
        assert trace_forward(eng, ("b", (1, 3))) == {("j", (1, 3))}
        # And back again: the forward image's backward trace is the pair.
        steps = trace_backward(eng, ("j", (1, 3)))
        assert set(steps[0].contributors) == {("a", (1,)), ("b", (1, 3))}

    def test_cjoin_lineage_is_the_cross_product(self):
        eng = ProvenanceEngine()
        schema = define_array("T", {"v": "float"}, ["x"])
        other = define_array("U", {"w": "float"}, ["y"])
        eng.register_external(
            "a", SciArray.from_numpy(schema, np.array([1.0, 2.0]), name="a"),
            program="gen",
        )
        eng.register_external(
            "b", SciArray.from_numpy(other, np.array([1.0, 2.0, 3.0]), name="b"),
            program="gen",
        )
        eng.execute("cjoin", ["a", "b"], "c", predicate=lambda l, r: True)
        assert trace_forward(eng, ("a", (2,))) == {
            ("c", (2, 1)), ("c", (2, 2)), ("c", (2, 3)),
        }
        assert trace_forward(eng, ("b", (3,))) == {("c", (1, 3)), ("c", (2, 3))}
        steps = trace_backward(eng, ("c", (2, 3)))
        assert set(steps[0].contributors) == {("a", (2,)), ("b", (3,))}


class TestItemStore:
    """The Trio design point: eager item-level lineage."""

    def make(self):
        store = ItemLineageStore()
        eng = ProvenanceEngine(itemstore=store)
        eng.register_external("raw", raw_array(), program="telescope_ingest")
        build_pipeline(eng)
        return eng, store

    def test_backward_matches_replay(self):
        eng, store = self.make()
        replayed = trace_backward(eng, ("coarse", (2, 2)))
        direct = store.backward(("coarse", (2, 2)))
        assert set(direct) == set(replayed[0].contributors)

    def test_forward_closure_matches_replay(self):
        eng, store = self.make()
        assert store.forward_closure(("raw", (3, 3))) == trace_forward(
            eng, ("raw", (3, 3))
        )

    def test_backward_closure(self):
        eng, store = self.make()
        closure = store.backward_closure(("coarse", (1, 1)))
        # raw (1,1)=1.0 fails the filter (NULL), so it is correctly absent;
        # the surviving block cells and their raw sources are present.
        assert ("raw", (1, 1)) not in closure
        assert ("raw", (2, 2)) in closure
        assert ("filtered", (2, 1)) in closure

    def test_space_cost_grows_with_items(self):
        """'The space cost of recording item-level derivations is way too
        high' — edges scale with cells processed; the log does not."""
        eng, store = self.make()
        assert store.edges > len(eng.log) * 10
        assert store.space_nbytes() == store.edges * 48


class TestTraceCache:
    def test_cache_hit_returns_same_result(self, engine):
        build_pipeline(engine)
        cache = TraceCache(engine)
        first = cache.forward(("raw", (3, 3)))
        second = cache.forward(("raw", (3, 3)))
        assert first == second
        assert cache.hits == 1 and cache.misses == 1

    def test_cache_invalidated_by_new_commands(self, engine):
        build_pipeline(engine)
        cache = TraceCache(engine)
        cache.forward(("raw", (3, 3)))
        engine.execute("filter", ["coarse"], "hot", predicate=lambda c: c.sum > 20)
        updated = cache.forward(("raw", (3, 3)))
        assert cache.misses == 2
        assert any(name == "hot" for name, _ in updated)

    def test_space_accounting(self, engine):
        build_pipeline(engine)
        cache = TraceCache(engine)
        cache.forward(("raw", (3, 3)))
        assert cache.space_items() > 0


class TestRepository:
    def test_record_and_describe(self):
        repo = MetadataRepository()
        repo.record("cooked", "calibrate.py", {"gain": 1.5}, inputs=["raw"])
        entry = repo.latest("cooked")
        assert "calibrate.py" in entry.describe()
        assert "gain=1.5" in entry.describe()
        assert repo.is_external("cooked")

    def test_multiple_derivations_kept(self):
        repo = MetadataRepository()
        repo.record("a", "v1.py")
        repo.record("a", "v2.py")
        assert len(repo.derivations_of("a")) == 2
        assert repo.latest("a").program == "v2.py"

    def test_missing_entry(self):
        repo = MetadataRepository()
        with pytest.raises(ProvenanceError):
            repo.latest("nope")
        assert repo.derivations_of("nope") == []
