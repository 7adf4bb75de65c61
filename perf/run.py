"""The benchmark of this repository: one command, five workloads.

    python3 perf/run.py --workload <name> --seed <n> [--seconds S]
                        [--trace 0|1] [--smoke]
    python3 perf/run.py --sets 2 [--seed <n>] [--seconds S] [--smoke]

A run builds the workload's data from the seed, checks every result
against the oracle, and prints every metric by name with its unit; the
last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``): the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The full result
(sample counts, tails, host stamp) goes to ``perf/out/``; a traced run
also writes its spans there.

Run shape.  Closed loop: one driver thread, two ``ShimClient``s for
``svc_small``.  An untraced run is three *launches* — fresh processes,
each with its own set-up, one warm-up round and a third of ``--seconds``
of whole rounds (at least seven) — whose samples are pooled before any
median is taken, because the same code runs a few percent faster or
slower from one process to the next.  ``gc.collect()`` and the host
speed probe run untimed between rounds.  See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

T_PROCESS = time.perf_counter()  # before numpy loads: setup_s counts it

from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

from datagen import OBS_BATCH_ROWS, OBS_COLS, READ_CLASSES  # noqa: E402

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
OUT = PERF / "out"

#: processes per untraced run; ``setup_s`` and ``peak_rss_mb`` are medians
LAUNCHES = 3
#: rounds a run measures at least, over all its launches
FLOOR_ROUNDS = 21
SMOKE_ROUNDS = 3
#: a tail is read at the highest percentile with this many samples beyond
TAIL_BEYOND = 10

def host_stamp() -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rev = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_rev": rev or "unknown",
    }


# --------------------------------------------------------------------------
# statistics over rounds: [[(cls, ms, ok, read, client, scale), ...], ...]
# --------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) at the highest percentile that still has
    TAIL_BEYOND samples beyond it (fewer in a short run)."""
    ordered = sorted(values)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n // 2)
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1]


def round_ms(samples) -> float:
    """Summed (normalised) operation time of the slowest client of one
    round."""
    per_client: dict[int, float] = defaultdict(float)
    for _cls, ms, _ok, _read, client, scale in samples:
        per_client[client] += ms / scale
    return max(per_client.values())


def summarise(rounds) -> dict:
    """Medians, tails and rates over whole rounds, each sample divided by
    its host speed factor first."""
    by_class: dict[str, list[float]] = defaultdict(list)
    raw: dict[str, list[float]] = defaultdict(list)
    reads = 0
    total_ms = 0.0
    for samples in rounds:
        total_ms += round_ms(samples)
        for cls, ms, _ok, read, _client, scale in samples:
            by_class[cls].append(ms / scale)
            raw[cls].append(ms)
            reads += read
    tails = {cls: tail(v) for cls, v in by_class.items()}
    batches = by_class.get("ingest_batch", [])
    cells = len(batches) * OBS_BATCH_ROWS * OBS_COLS
    return {
        "rounds": len(rounds),
        "samples": {cls: len(v) for cls, v in by_class.items()},
        "p50": {cls: statistics.median(v) for cls, v in by_class.items()},
        "p50_raw": {cls: statistics.median(v) for cls, v in raw.items()},
        "tail": {cls: t[1] for cls, t in tails.items()},
        "tail_percentile": tails["window"][0],
        "stmt_per_s": reads / (total_ms / 1e3),
        "ingest_cells_per_s": cells / (sum(batches) / 1e3) if batches else 0.0,
    }


# --------------------------------------------------------------------------
# one launch (a child process): set up, warm up, measure, probe
# --------------------------------------------------------------------------


class Launch:
    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.attempted = 0
        self.failed = 0
        self.scratch = OUT / (
            f"tmp-{args.workload}-seed{args.seed}-trace{args.trace}"
            f"-{os.getpid()}"
        )  # removed at exit; run() sweeps what a killed launch left

    def count(self, samples) -> list:
        self.attempted += len(samples)
        self.failed += sum(1 for s in samples if not s.ok)
        return [(s.cls, s.ms, s.ok, s.read, s.client, s.scale)
                for s in samples]

    def rounds(self, wl, host, seconds: float, floor: int, observer=None,
               at_floor=None) -> list:
        """Whole rounds until *seconds* have passed and *floor* rounds
        are done."""
        done = []
        deadline = time.perf_counter() + seconds
        while len(done) < floor or (
            not self.args.smoke and time.perf_counter() < deadline
        ):
            gc.collect()
            samples = wl.run_round(
                observer, host.probe if wl.normalise else None
            )
            wl.after_round()
            done.append(self.count(samples))
            if at_floor is not None and len(done) == floor:
                at_floor()
        return done

    def execute(self) -> dict:
        args = self.args
        import calib

        host = calib.HostSpeed()
        import workloads  # numpy, the engine, the service

        traced = bool(args.trace)
        wl = workloads.WORKLOADS[args.workload](
            args.seed, self.scratch, traced
        )
        if wl.normalise and hasattr(os, "sched_setaffinity"):
            # One core per launch, the next launch the next core.  Left
            # to the scheduler, the engine's worker threads hand the GIL
            # across cores and a launch lands in a fast or a slow mode
            # 20 % apart; on one core the same statements are faster and
            # repeat within 2 % (ROADMAP: "the benchmark host has one
            # CPU core").
            cpus = sorted(os.sched_getaffinity(0))
            os.sched_setaffinity(0, {cpus[args.part % len(cpus)]})
        result: dict = {}
        try:
            wl.build()
            self.count(wl.run_round())  # first answers, checked
            wl.after_round()
            # Process start to first answers: interpreter, imports, data
            # generation, load and flush, service spawn, first round.
            setup_s = time.perf_counter() - T_PROCESS
            self.count(wl.run_round())  # warm-up, untimed
            wl.after_round()
            scale = statistics.median(host.probe() for _ in range(5))
            result["setup_s"] = setup_s / (scale if wl.normalise else 1.0)
            if traced:
                result.update(self.traced_phases(wl, host))
            else:
                result.update(self.plain_phase(wl, host))
        finally:
            wl.close()
            shutil.rmtree(self.scratch, ignore_errors=True)
        result.update(
            attempted=self.attempted,
            failed=self.failed,
            spin_ms=statistics.median(host.spins),
            walk_ms=statistics.median(host.walks),
            native_ms=statistics.median(host.natives),
            host_speed_factor=statistics.median(host.ratios),
        )
        return result

    def plain_phase(self, wl, host) -> dict:
        rss = {}

        def sample_rss() -> None:
            # Read after the same number of rounds in every launch, so it
            # does not grow with how many rounds the host managed.
            own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            rss["mb"] = own + wl.child_rss_mb()

        rounds = self.rounds(wl, host, self.args.seconds, self.args.floor,
                             at_floor=sample_rss)
        self.count(wl.finish())
        return {"rounds": rounds, "rss_mb": rss["mb"]}

    def traced_phases(self, wl, host) -> dict:
        """Half the launch untraced (tails, ingest figures and the
        reference for the tracing overhead), then the wrappers go in and
        the other half is traced."""
        import tracing

        half, floor = self.args.seconds / 2.0, max(self.args.floor // 2, 1)
        plain = self.rounds(wl, host, half, floor)
        tracer = tracing.Tracer(wl)
        tracing.install(tracer)
        self.count(wl.run_round())  # let the wrappers warm up ...
        wl.after_round()
        tracer.spans.clear()  # ... unrecorded
        traced = self.rounds(wl, host, half, floor, tracer)
        self.count(wl.finish(tracer))

        layers = tracing.layer_metrics(tracer)
        layers.update(wl.extras())
        layers["driver.trace_overhead_ratio"] = statistics.median(
            map(round_ms, traced)
        ) / statistics.median(map(round_ms, plain))
        OUT.mkdir(exist_ok=True)
        tracer.write(
            OUT / f"trace-{self.args.workload}-seed{self.args.seed}.json",
            {"workload": self.args.workload, "seed": self.args.seed},
        )
        return {"rounds": plain, "traced_rounds": len(traced),
                "layers": layers}


# --------------------------------------------------------------------------
# one run (the parent): launches, pooled statistics, the report
# --------------------------------------------------------------------------


def launch(args: argparse.Namespace, index: int, seconds: float,
           floor: int) -> dict:
    """One launch in a fresh process; PYTHONHASHSEED is pinned so set and
    dict orders — and with them the engine's work — repeat."""
    cmd = [sys.executable, str(PERF / "run.py"), "--part", str(index),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--floor", str(floor),
           "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    if done.returncode != 0:
        raise SystemExit(f"perf/run.py: launch exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def run(args: argparse.Namespace, spec: dict) -> int:
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    for stale in OUT.glob(f"tmp-{tag}-*"):  # an interrupted earlier attempt
        shutil.rmtree(stale, ignore_errors=True)
    single = bool(args.trace) or args.smoke
    n = 1 if single else LAUNCHES
    floor = SMOKE_ROUNDS if args.smoke else math.ceil(FLOOR_ROUNDS / n)
    parts = [launch(args, k, args.seconds / n, floor) for k in range(n)]

    rounds = [r for part in parts for r in part["rounds"]]
    stats = summarise(rounds)
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    if args.trace:
        part = parts[0]
        values = dict(part["layers"])
        values["driver.spin_ms"] = part["spin_ms"]
        values["driver.walk_ms"] = part["walk_ms"]
        values["driver.native_ms"] = part["native_ms"]
        values["driver.host_speed_factor"] = part["host_speed_factor"]
        values["driver.rounds"] = float(len(rounds) + part["traced_rounds"])
        values["driver.ops_attempted"] = float(attempted)
        values["driver.failed_share"] = failed / attempted
        values["driver.tail_percentile"] = stats["tail_percentile"]
        for cls in READ_CLASSES + ("ingest_batch",):
            values[f"driver.{cls}_tail_ms"] = stats["tail"].get(cls, 0.0)
        values["driver.ingest_batch_p50_ms"] = stats["p50"].get(
            "ingest_batch", 0.0)
        values["driver.ingest_cells_per_s"] = stats["ingest_cells_per_s"]
        declared = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in parts),
            "stmt_per_s": stats["stmt_per_s"],
            **{f"{c}_p50_ms": stats["p50"][c] for c in READ_CLASSES},
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in parts),
        }
        declared = spec["end_to_end"]

    unknown = set(values) - {d["name"] for d in declared}
    if unknown:
        raise SystemExit(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    # A layer the workload does not exercise reports 0.
    metrics = {
        d["name"]: {"value": float(values.get(d["name"], 0.0)),
                    "unit": d["unit"]}
        for d in declared
    }
    bad = [k for k, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        raise SystemExit(f"non-finite metrics: {bad}")

    run_s = time.perf_counter() - T_PROCESS
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"launches={n} rounds={stats['rounds']} run_s={run_s:.1f}")
    for name, m in metrics.items():
        cls = name.removeprefix("driver.").split("_")[0]
        count = stats["samples"].get(cls)
        print(f"{name:52s} {m['value']:14.4f} {m['unit']}"
              + (f"  n={count}" if count else ""))
    line = {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps({
         **line, "workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "smoke": args.smoke, "host": host_stamp(),
         "run_s": run_s, "stats": stats,
         "launches": parts,
     }, indent=1))
    print(json.dumps(line))
    return 0


# --------------------------------------------------------------------------
# several sets of runs
# --------------------------------------------------------------------------


def run_sets(args: argparse.Namespace, spec: dict) -> int:
    """Every workload *sets* times, interleaved (A B C D E A B C D E), each
    run its own process; per end-to-end metric every value, the relative
    difference and pass/fail against the metric's bound."""
    names = [w["name"] for w in spec["workloads"]]
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    ok = True
    for _ in range(args.sets):
        for name in names:
            cmd = [sys.executable, str(PERF / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", "0"] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                return done.returncode
            line = json.loads(done.stdout.splitlines()[-1])
            ok &= line["correct"]
            for metric, m in line["metrics"].items():
                values[(name, metric)].append(m["value"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':14s} {'metric':18s} " + " ".join(
        f"{'set' + str(i + 1):>12s}" for i in range(args.sets)
    ) + f" {'rel.diff':>9s} {'bound':>6s}")
    for (name, metric), vs in values.items():
        worse = max(vs) / min(vs) - 1.0
        within = worse <= bounds[metric]
        ok &= within
        print(f"{name:14s} {metric:18s} "
              + " ".join(f"{v:12.4f}" for v in vs)
              + f" {worse:9.4f} {bounds[metric]:6.2f} "
              + ("pass" if within else "FAIL"))
    return 0 if ok else 1


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the rounds are measured (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, prints the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help=f"one launch, {SMOKE_ROUNDS} rounds")
    parser.add_argument("--sets", type=int, default=0,
                        help="run every workload this many times, compare")
    parser.add_argument("--part", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--floor", type=int, default=FLOOR_ROUNDS,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not args.sets and not args.workload:
        parser.error("give --workload <name> or --sets <n>")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perf/run.py: no engine source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.sets:
        return run_sets(args, spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"perf/run.py: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.part is not None:
        print(json.dumps(Launch(args).execute()))
        return 0
    return run(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
