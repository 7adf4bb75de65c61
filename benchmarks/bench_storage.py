"""E8: within-node storage — bucket size, background merge, codec choice
(Section 2.8).

The paper's open questions, measured:

* **bucket stride** — window-scan cost vs stride (small buckets prune
  tightly but multiply per-bucket overheads; large buckets read waste);
* **background merge** — scan cost before/after merging a spill-fragmented
  array (Vertica-style consolidation);
* **codec choice** — compression ratio and encode time per codec on three
  characteristic science planes (smooth field, flags, random noise).
"""

import numpy as np
import pytest

from repro import define_array
from repro.storage.compression import get_codec
from repro.storage.manager import PersistentArray

SIDE = 256
N_CELLS = 3000


def populate(pa, seed=0):
    rng = np.random.default_rng(seed)
    seen = set()
    n = 0
    while n < N_CELLS:
        c = (int(rng.integers(1, SIDE + 1)), int(rng.integers(1, SIDE + 1)))
        if c in seen:
            continue
        seen.add(c)
        pa.append(c, (float(rng.normal()),))
        n += 1
    pa.flush()


def make(tmp_path, stride):
    schema = define_array("E8", {"v": "float"}, ["x", "y"]).bind([SIDE, SIDE])
    pa = PersistentArray(
        schema, tmp_path, memory_budget=1 << 30, stride=(stride, stride)
    )
    populate(pa)
    return pa


class TestBucketStride:
    @pytest.mark.parametrize("stride", [16, 64, 256])
    def test_window_scan_vs_stride(self, benchmark, tmp_path, stride):
        pa = make(tmp_path / f"s{stride}", stride)
        out = benchmark(lambda: list(pa.scan(((1, 1), (32, 32)))))
        assert all(c[0] <= 32 and c[1] <= 32 for c, _ in out)

    def test_small_buckets_prune_better(self, benchmark, tmp_path):
        fine = make(tmp_path / "fine", 16)
        coarse = make(tmp_path / "coarse", 256)
        for pa in (fine, coarse):
            pa.stats.buckets_read = 0
            list(pa.scan(((1, 1), (32, 32))))
        # The fine layout reads a small fraction of its buckets; the
        # single-bucket layout always reads everything.
        assert fine.stats.buckets_read < fine.bucket_count()
        assert coarse.stats.buckets_read == coarse.bucket_count()
        benchmark(lambda: None)


class TestBackgroundMerge:
    def make_fragmented(self, tmp_path):
        schema = define_array("E8m", {"v": "float"}, ["x", "y"]).bind(
            [SIDE, SIDE]
        )
        pa = PersistentArray(
            schema, tmp_path, memory_budget=1 << 30, stride=(32, 32)
        )
        rng = np.random.default_rng(1)
        # Many tiny spills fragment the same region into many buckets.
        for k in range(300):
            pa.append(
                (int(rng.integers(1, 65)), int(rng.integers(1, 65))),
                (float(k),),
            )
            if k % 3 == 2:
                pa.flush()
        pa.flush()
        return pa

    def test_scan_fragmented(self, benchmark, tmp_path):
        pa = self.make_fragmented(tmp_path / "frag")
        benchmark(lambda: list(pa.scan(((1, 1), (64, 64)))))

    def test_scan_after_merge(self, benchmark, tmp_path):
        pa = self.make_fragmented(tmp_path / "merged")
        before = pa.bucket_count()
        merges = pa.merge_small_buckets(min_cells=4096, group_factor=4)
        assert merges > 0 and pa.bucket_count() < before
        benchmark(lambda: list(pa.scan(((1, 1), (64, 64)))))

    def test_merge_reduces_bucket_reads(self, benchmark, tmp_path):
        pa = self.make_fragmented(tmp_path / "cmp")
        pa.stats.buckets_read = 0
        list(pa.scan(((1, 1), (64, 64))))
        reads_before = pa.stats.buckets_read
        pa.merge_small_buckets(min_cells=4096, group_factor=4)
        pa.stats.buckets_read = 0
        list(pa.scan(((1, 1), (64, 64))))
        reads_after = pa.stats.buckets_read
        assert reads_after < reads_before
        benchmark(lambda: None)


def science_planes():
    rng = np.random.default_rng(2)
    smooth = np.cumsum(
        rng.normal(0, 0.01, size=64 * 64)
    ).reshape(64, 64)
    flags = (rng.random((64, 64)) < 0.05).astype(np.int32)
    noise = rng.normal(size=(64, 64))
    # Raw instrument counts: a smooth field digitised to int32 — the plane
    # delta coding exists for.
    counts = (1000 + 50 * np.sin(np.arange(64 * 64) / 80.0)).astype(
        np.int32
    ).reshape(64, 64)
    return {
        "smooth_field": smooth,
        "sensor_counts": counts,
        "cloud_flags": flags,
        "noise": noise,
    }


class TestCodecs:
    @pytest.mark.parametrize("codec", ["none", "zlib", "delta", "rle"])
    @pytest.mark.parametrize("plane", ["smooth_field", "sensor_counts", "cloud_flags", "noise"])
    def test_encode(self, benchmark, codec, plane):
        data = science_planes()[plane]
        c = get_codec(codec)
        payload = benchmark(lambda: c.encode(data))
        np.testing.assert_array_equal(
            c.decode(payload, data.dtype, data.shape), data
        )

    def test_ratio_report(self, benchmark, capsys):
        from repro.bench.harness import ResultTable

        rt = ResultTable(
            "E8: compression ratio by codec and plane (raw/encoded)",
            ["plane", "zlib", "delta", "rle"],
        )
        ratios = {}
        for plane, data in science_planes().items():
            raw = len(get_codec("none").encode(data))
            row = []
            for codec in ("zlib", "delta", "rle"):
                encoded = len(get_codec(codec).encode(data))
                row.append(raw / encoded)
                ratios[(plane, codec)] = raw / encoded
            rt.add(plane, *row)
        rt.print()
        benchmark.extra_info[rt.title] = rt.rows
        # Shape: delta shines on digitised smooth data (sensor counts),
        # rle on sparse flags, and nothing compresses white noise well.
        assert ratios[("sensor_counts", "delta")] > 3
        assert ratios[("smooth_field", "delta")] > ratios[("noise", "delta")]
        assert ratios[("cloud_flags", "rle")] > 5
        assert ratios[("noise", "zlib")] < 1.5
        benchmark(lambda: None)
