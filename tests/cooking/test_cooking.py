"""Unit tests for the cooking layer (Sections 2.10, 2.11)."""

import pytest

from repro import SchemaError, define_array
from repro.cooking import (
    CookingPipeline,
    RawDecoder,
    RawReading,
    calibrate,
    cloud_filter,
    composite_passes,
    decode_counts,
    load_stage,
    recook_region,
    regrid_step,
)
from repro.cooking.pipeline import COMPOSITE_SCHEMA, PASS_SCHEMA
from repro.cooking.raw import QUALITY_DEAD, QUALITY_GOOD, QUALITY_SATURATED
from repro.history import UpdatableArray, VersionTree
from repro.provenance import ProvenanceEngine, trace_backward
from repro.storage.loader import LoadRecord
from repro.workloads import SatelliteInstrument


class TestRawDecoder:
    def test_linear_decode(self):
        d = RawDecoder(gain=0.01, offset=100.0)
        value, flag = d.decode_one(RawReading(1, 1, counts=1100))
        assert value == pytest.approx(10.0)
        assert flag == QUALITY_GOOD

    def test_saturation_flag(self):
        d = RawDecoder(saturation=60000)
        value, flag = d.decode_one(RawReading(1, 1, counts=65000))
        assert flag == QUALITY_SATURATED

    def test_dead_pixel_flag(self):
        d = RawDecoder()
        value, flag = d.decode_one(RawReading(1, 1, counts=0))
        assert value == 0.0 and flag == QUALITY_DEAD

    def test_temperature_correction(self):
        d = RawDecoder(gain=1.0, offset=0.0, temp_coefficient=0.1)
        hot, _ = d.decode_one(RawReading(1, 1, counts=10, detector_temp=303.0))
        cold, _ = d.decode_one(RawReading(1, 1, counts=10, detector_temp=293.0))
        assert hot - cold == pytest.approx(1.0)

    def test_frame_round_trip(self):
        d = RawDecoder(gain=0.01, offset=100.0)
        frame = d.frame_from_readings(
            [RawReading(1, 1, 1100), RawReading(2, 2, 2100)], bounds=(4, 4)
        )
        decoded = d.decode_frame(frame)
        assert decoded[1, 1].radiance == pytest.approx(10.0)
        assert decoded[2, 2].radiance == pytest.approx(20.0)
        assert not decoded.exists(3, 3)

    def test_gain_validation(self):
        with pytest.raises(SchemaError):
            RawDecoder(gain=0.0)


class TestPipeline:
    def make_engine_with_raw(self):
        engine = ProvenanceEngine()
        inst = SatelliteInstrument(width=16, height=16, seed=1)
        engine.register_external(
            "raw", inst.acquire_raw_frame(1), program="satellite_downlink",
            parameters={"pass": 1},
        )
        return engine

    def test_every_step_logged(self):
        """The point of in-engine cooking: accurate provenance."""
        engine = self.make_engine_with_raw()
        pipeline = CookingPipeline(
            engine,
            [decode_counts(gain=0.01, offset=100.0),
             calibrate(scale=1.02, bias=-0.1),
             regrid_step([4, 4], "avg")],
        )
        out = pipeline.run("raw", output_name="cooked")
        assert out.name == "cooked"
        assert [c.op for c in engine.log] == ["apply", "apply", "regrid"]

    def test_cooked_values(self):
        engine = self.make_engine_with_raw()
        pipeline = CookingPipeline(engine, [decode_counts(0.01, 100.0)])
        out = pipeline.run("raw", output_name="cooked")
        raw = engine.get("raw")
        assert out[3, 3].value == pytest.approx(
            0.01 * (raw[3, 3].counts - 100.0)
        )

    def test_backward_trace_through_pipeline(self):
        engine = self.make_engine_with_raw()
        CookingPipeline(
            engine, [decode_counts(0.01, 100.0), regrid_step([4, 4], "avg")]
        ).run("raw", output_name="cooked")
        steps = trace_backward(engine, ("cooked", (1, 1)))
        # regrid <- apply <- raw (external)
        assert steps[0].command.op == "regrid"
        assert engine.repository.is_external("raw")

    def raw_downlink(self):
        """An 8x8 raw frame as a load stream, with one stray reading from
        outside the sensor frame spliced in at offset 1000."""
        frame = SatelliteInstrument(width=8, height=8, seed=1).acquire_raw_frame(1)
        records = [
            LoadRecord(coords, tuple(cell.values), offset=i)
            for i, (coords, cell) in enumerate(frame.cells())
        ]
        records.insert(5, LoadRecord((9, 9), (1, 293.0), offset=1000))
        return frame, records

    def test_load_stage_feeds_the_cook(self, tmp_path):
        """Stage 0 (Section 2.10): the raw downlink comes in durably, a
        reading outside the sensor frame is quarantined by offset instead
        of poisoning the cook, and what comes out is cookable."""
        frame, records = self.raw_downlink()
        raw, report = load_stage(
            records, frame.schema.bind([8, 8]), tmp_path, batch_size=16
        )
        assert (report.records_loaded, report.batches_committed) == (64, 5)
        assert report.quarantine.offsets() == [1000]
        assert raw.content_equal(frame)
        engine = ProvenanceEngine()
        engine.register_external("raw", raw, program="load_stage")
        cooked = CookingPipeline(engine, [decode_counts(0.01, 100.0)]).run("raw")
        assert cooked[3, 3].value == pytest.approx(
            0.01 * (frame[3, 3].counts - 100.0)
        )

    def test_load_stage_resumes_a_feed_that_died(self, tmp_path):
        frame, records = self.raw_downlink()
        schema = frame.schema.bind([8, 8])

        def dying(records):
            yield from records[:40]
            raise ConnectionError("downlink lost")

        with pytest.raises(ConnectionError):
            load_stage(dying(records), schema, tmp_path, batch_size=16)
        raw, report = load_stage(records, schema, tmp_path, batch_size=16)
        assert report.records_skipped == 31  # two batches, less the stray
        assert raw.content_equal(frame)

    def test_cloud_filter_step(self):
        engine = ProvenanceEngine()
        inst = SatelliteInstrument(width=8, height=8, seed=2)
        engine.register_external("pass1", inst.acquire_pass(1), program="sat")
        out = CookingPipeline(engine, [cloud_filter(0.3)]).run("pass1")
        cloudy = sum(
            1 for _, c in engine.get("pass1").cells(include_null=False)
            if c.cloud > 0.3
        )
        assert out.count_occupied() - out.count_present() == cloudy

    def test_empty_pipeline_rejected(self):
        with pytest.raises(SchemaError):
            CookingPipeline(ProvenanceEngine(), [])


class TestCompositing:
    """Section 2.11's use case: per-cell pass selection."""

    def make_passes(self, n=3, seed=3):
        inst = SatelliteInstrument(width=12, height=12, seed=seed)
        return [inst.acquire_pass(k) for k in range(1, n + 1)]

    def test_least_cloud_picks_minimum(self):
        passes = self.make_passes()
        comp = composite_passes(*passes, strategy="least_cloud")
        for coords, cell in comp.cells(include_null=False):
            clouds = [p[coords].cloud for p in passes]
            assert passes[cell.source_pass - 1][coords].cloud == min(clouds)

    def test_most_overhead_picks_min_zenith(self):
        passes = self.make_passes()
        comp = composite_passes(*passes, strategy="most_overhead")
        for coords, cell in comp.cells(include_null=False):
            zeniths = [abs(p[coords].zenith) for p in passes]
            assert abs(passes[cell.source_pass - 1][coords].zenith) == min(zeniths)

    def test_strategies_differ(self):
        passes = self.make_passes()
        a = composite_passes(*passes, strategy="least_cloud")
        b = composite_passes(*passes, strategy="most_overhead")
        differing = sum(
            1
            for coords, cell in a.cells(include_null=False)
            if b[coords].source_pass != cell.source_pass
        )
        assert differing > 0

    def test_unknown_strategy(self):
        passes = self.make_passes(1)
        with pytest.raises(SchemaError):
            composite_passes(*passes, strategy="wishful")

    def test_mismatched_grids(self):
        a = SatelliteInstrument(width=8, height=8, seed=1).acquire_pass(1)
        b = SatelliteInstrument(width=12, height=12, seed=1).acquire_pass(1)
        with pytest.raises(SchemaError):
            composite_passes(a, b)


class TestRecookIntoVersion:
    """The full named-version scenario: a scientist recooks a study region
    with a different algorithm, at delta-only cost."""

    def setup_composite(self):
        passes = [
            SatelliteInstrument(width=16, height=16, seed=4).acquire_pass(k)
            for k in range(1, 4)
        ]
        default = composite_passes(*passes, strategy="least_cloud")
        schema = define_array(
            "CompositeU",
            {"value": "float", "source_pass": "int32"},
            ["x", "y"],
            updatable=True,
        )
        base = UpdatableArray(schema, bounds=[16, 16, "*"], name="composite")
        with base.begin() as t:
            for coords, cell in default.cells(include_null=False):
                t.set(coords, (cell.value, cell.source_pass))
        return passes, base

    def test_recook_writes_only_region(self):
        passes, base = self.setup_composite()
        tree = VersionTree(base)
        v = tree.create("overhead_study")
        written = recook_region(
            v, region=((3, 3), (6, 6)), passes=passes, strategy="most_overhead"
        )
        assert written == 16
        assert v.delta_count() == 16

    def test_inside_region_changed_outside_untouched(self):
        passes, base = self.setup_composite()
        tree = VersionTree(base)
        v = tree.create("overhead_study")
        recook_region(v, ((3, 3), (6, 6)), passes, strategy="most_overhead")
        # Outside the study region: identical to parent.
        assert v.get(10, 10) == base.get(10, 10)
        # Inside: matches the most_overhead choice.
        zeniths = [abs(p[4, 4].zenith) for p in passes]
        assert abs(
            passes[v.get(4, 4).source_pass - 1][4, 4].zenith
        ) == min(zeniths)

    def test_empty_region(self):
        passes, base = self.setup_composite()
        tree = VersionTree(base)
        v = tree.create("empty")
        assert recook_region(v, ((17, 17), (18, 18)), passes) == 0
