"""E10: the cost of uncertainty support (Section 2.13).

"This requires two values for any data element, rather than one.  However,
every effort will be made to effectively code data elements ... so that
arrays with the same error bounds for all values will require negligible
extra space."

Measured: space and per-operation time of uncertain vs exact arrays; the
uniform-error coding claim (a shared sigma compresses away under RLE);
and the Gaussian-propagation arithmetic itself.
"""

import numpy as np
import pytest

from repro import UncertainValue, define_array, uncertain
from repro.core import ops
from repro.storage.compression import get_codec

N = 1024


def exact_array():
    schema = define_array("E10e", {"v": "float"}, ["x"])
    arr = schema.create("exact", [N])
    for i in range(1, N + 1):
        arr[i] = float(i)
    return arr


def uncertain_array(uniform_sigma=None, seed=0):
    schema = define_array("E10u", {"v": "uncertain float"}, ["x"])
    arr = schema.create("uncertain", [N])
    rng = np.random.default_rng(seed)
    for i in range(1, N + 1):
        sigma = uniform_sigma if uniform_sigma is not None else float(
            rng.uniform(0.1, 2.0)
        )
        arr[i] = (float(i), sigma)
    return arr


class TestArithmetic:
    def test_uncertain_add(self, benchmark):
        a = UncertainValue(10.0, 3.0)
        b = UncertainValue(20.0, 4.0)
        out = benchmark(lambda: a + b)
        assert out.sigma == pytest.approx(5.0)

    def test_exact_add(self, benchmark):
        benchmark(lambda: 10.0 + 20.0)

    def test_uncertain_pipeline(self, benchmark):
        a = UncertainValue(10.0, 3.0)
        b = UncertainValue(20.0, 4.0)
        benchmark(lambda: ((a * b) / (a + b)).sqrt())


class TestOperatorOverhead:
    def test_apply_exact(self, benchmark):
        arr = exact_array()
        out = benchmark(
            lambda: ops.apply(arr, lambda c: c.v * 2 + 1, [("w", "float")])
        )
        assert out[1].w == 3.0

    def test_apply_uncertain(self, benchmark):
        arr = uncertain_array()
        out = benchmark(
            lambda: ops.apply(
                arr, lambda c: c.v * 2 + 1, [("w", "uncertain float")]
            )
        )
        assert out[1].w.value == 3.0

    def test_aggregate_exact(self, benchmark):
        from repro.core.ops.content import aggregate_all

        arr = exact_array()
        assert benchmark(lambda: aggregate_all(arr, "count")) == N


class TestSpace:
    def test_space_overhead_report(self, benchmark, capsys):
        from repro.bench.harness import ResultTable

        exact = exact_array()
        varied = uncertain_array()
        rt = ResultTable(
            "E10: storage bytes, exact vs uncertain (1024 cells)",
            ["representation", "nbytes"],
        )
        rt.add("exact float", exact.nbytes())
        rt.add("uncertain (varied sigma)", varied.nbytes())
        rt.print()
        benchmark.extra_info[rt.title] = rt.rows
        assert varied.nbytes() >= exact.nbytes()
        benchmark(lambda: None)

    def test_uniform_error_codes_to_negligible_space(self, benchmark):
        """The coding claim: when every cell shares one error bound, the
        sigma plane is a constant and RLE reduces it to almost nothing."""
        sigma_plane_uniform = np.full(N, 0.5)
        rng = np.random.default_rng(1)
        sigma_plane_varied = rng.uniform(0.1, 2.0, size=N)
        rle = get_codec("rle")
        uniform_bytes = len(rle.encode(sigma_plane_uniform))
        varied_bytes = len(rle.encode(sigma_plane_varied))
        raw_bytes = sigma_plane_uniform.nbytes
        assert uniform_bytes < raw_bytes / 50   # negligible extra space
        assert varied_bytes > raw_bytes / 3     # per-cell errors cost real bytes
        benchmark(lambda: rle.encode(sigma_plane_uniform))


class TestUncertainJoinPredicate:
    def test_overlap_join(self, benchmark):
        """Interval-overlap equality: the executor's 'interval arithmetic
        when combining uncertain elements'."""
        schema = define_array("E10j", {"v": "uncertain float"}, ["x"])
        a = schema.create("a", [40])
        b = schema.create("b", [40])
        rng = np.random.default_rng(2)
        for i in range(1, 41):
            a[i] = (float(i), 0.6)
            b[i] = (float(i) + float(rng.normal(0, 0.3)), 0.6)
        out = benchmark(
            lambda: ops.cjoin(a, b, lambda l, r: l.v.overlaps(r.v))
        )
        # Diagonal cells overlap nearly always; distant ones never.
        diagonal = sum(
            1 for i in range(1, 41) if out.get_or_none(i, i) is not None
        )
        assert diagonal > 30
        assert out.get_or_none(1, 40) is None
