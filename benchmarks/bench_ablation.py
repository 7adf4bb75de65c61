"""Ablations of the engine's own design choices (DESIGN.md §5).

Not paper claims — sanity checks that our implementation decisions carry
their weight:

* **A1 plane kernel vs cell fold**: aggregate/regrid's one numpy body
  (built-in aggregates) vs the per-cell fold a sum-identical *user*
  aggregate — opaque Python — still has to take;
* **A2 chunked vs single-chunk arrays**: the chunk grid must not tax
  region reads;
* **A3 auto codec choice**: 'auto' must track the best fixed codec per
  plane within a small factor.
"""

import numpy as np
import pytest

from repro import SciArray, define_aggregate, define_array
from repro.core import ops
from repro.storage.compression import best_codec, get_codec
from benchmarks.conftest import dense_2d

SIDE = 96

# A sum-identical user aggregate: opaque to the engine, so folded per cell.
define_aggregate(
    "ablation_sum", lambda: 0.0, lambda s, v: s + v, replace=True
)


class TestA1FastPaths:
    def test_aggregate_fast(self, benchmark):
        arr = dense_2d(SIDE, seed=0)
        out = benchmark(lambda: ops.aggregate(arr, ["y"], "sum"))
        assert out.bounds == (SIDE,)

    def test_aggregate_generic(self, benchmark):
        arr = dense_2d(SIDE, seed=0)
        out = benchmark(lambda: ops.aggregate(arr, ["y"], "ablation_sum"))
        assert out.bounds == (SIDE,)

    def test_regrid_fast(self, benchmark):
        arr = dense_2d(SIDE, seed=1)
        benchmark(lambda: ops.regrid(arr, [8, 8], "sum"))

    def test_regrid_generic(self, benchmark):
        arr = dense_2d(SIDE, seed=1)
        benchmark(lambda: ops.regrid(arr, [8, 8], "ablation_sum"))

    def test_paths_agree_and_fast_wins(self, benchmark):
        from repro.bench.harness import measure, ratio

        arr = dense_2d(SIDE, seed=2)
        fast = measure(lambda: ops.aggregate(arr, ["y"], "sum"), repeats=3)
        slow = measure(
            lambda: ops.aggregate(arr, ["y"], "ablation_sum"), repeats=3
        )
        for j in range(1, SIDE + 1):
            assert fast.result[j].sum == pytest.approx(
                getattr(slow.result[j], "ablation_sum")
            )
        assert ratio(slow, fast) > 5
        benchmark(lambda: None)


class TestA2Chunking:
    @pytest.mark.parametrize("chunk_side", [8, 32, 96])
    def test_region_read_vs_chunk_side(self, benchmark, chunk_side):
        schema = define_array("A2", {"v": "float"}, ["x", "y"])
        arr = SciArray(schema.bind([SIDE, SIDE]), chunk_shape=(chunk_side, chunk_side))
        rng = np.random.default_rng(3)
        arr.set_region((1, 1), {"v": rng.normal(size=(SIDE, SIDE))})
        out = benchmark(lambda: arr.region((17, 17), (80, 80), attr="v"))
        assert out.shape == (64, 64)

    def test_chunked_matches_single_chunk(self, benchmark):
        data = np.random.default_rng(4).normal(size=(SIDE, SIDE))
        schema = define_array("A2b", {"v": "float"}, ["x", "y"])
        chunked = SciArray(schema.bind([SIDE, SIDE]), chunk_shape=(16, 16))
        single = SciArray(schema.bind([SIDE, SIDE]), chunk_shape=(SIDE, SIDE))
        chunked.set_region((1, 1), {"v": data})
        single.set_region((1, 1), {"v": data})
        np.testing.assert_array_equal(
            chunked.region((5, 5), (60, 60), attr="v"),
            single.region((5, 5), (60, 60), attr="v"),
        )
        benchmark(lambda: chunked.region((5, 5), (60, 60), attr="v"))


class TestA3AutoCodec:
    def test_auto_tracks_best(self, benchmark):
        rng = np.random.default_rng(5)
        planes = {
            "smooth": np.cumsum(rng.normal(0, 0.01, 4096)).reshape(64, 64),
            "flags": (rng.random((64, 64)) < 0.03).astype(np.int32),
            "noise": rng.normal(size=(64, 64)),
        }
        for name, plane in planes.items():
            chosen = best_codec(plane)
            chosen_size = len(chosen.encode(plane))
            best_fixed = min(
                len(get_codec(c).encode(plane))
                for c in ("none", "zlib", "delta", "rle")
            )
            assert chosen_size <= best_fixed  # 'auto' tries them all
        benchmark(lambda: best_codec(planes["smooth"]).name)
