"""Plain-Python self-check of the benchmark (no pytest, no CI change).

    python3 perf/selftest.py

Smoke-runs every workload — untraced once, traced twice — and checks that

* every name in ``BENCHMARK.json`` is well-formed and is emitted with its
  declared unit and a finite value (end-to-end values non-zero);
* ``driver.layer_sum_ratio`` is within 0.95–1.05 on every workload;
* the per-statement counts of the two traced runs of one seed are
  identical, and both runs report no failed operation.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent
SPEC = json.loads((PERF.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: per-statement counts that must repeat exactly with one seed
COUNTS = (
    "driver.ops_attempted",
    "service.requests_per_stmt",
    "query.executor.result_cells_per_stmt",
    "cluster.scheduler.tasks_per_stmt",
    "cluster.node.cells_scanned_per_stmt",
    "cluster.ledger.bytes_moved_per_stmt",
    "storage.manager.buckets_read_per_stmt",
    "storage.manager.buckets_pruned_per_stmt",
    "storage.manager.buckets_value_pruned_per_stmt",
    "storage.wal.commits_per_batch",
    "storage.manager.spills_per_batch",
)


def smoke(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--workload", workload,
         "--seed", "7", "--smoke", "--trace", str(trace)],
        capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited "
                         f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def check_line(line: dict, declared: list[dict], where: str,
               nonzero: bool) -> list[str]:
    problems = []
    if not line["correct"] or line["failed"] or line["attempted"] < 1:
        problems.append(f"{where}: failed operations: {line['failed']}")
    want = {d["name"]: d["unit"] for d in declared}
    if set(line["metrics"]) != set(want):
        problems.append(f"{where}: metric names differ from BENCHMARK.json: "
                        f"{sorted(set(line['metrics']) ^ set(want))}")
    for name, m in line["metrics"].items():
        if m["unit"] != want.get(name):
            problems.append(f"{where}: {name} has unit {m['unit']!r}")
        if not math.isfinite(m["value"]) or (nonzero and m["value"] == 0):
            problems.append(f"{where}: {name} = {m['value']}")
    return problems


def main() -> int:
    problems = []
    names = [d["name"] for k in ("workloads", "end_to_end", "per_layer")
             for d in SPEC[k]]
    problems += [f"bad name {n!r}" for n in names if not NAME.fullmatch(n)]
    problems += [f"duplicate name {n!r}" for n in set(names)
                 if names.count(n) > 1]
    for w in SPEC["workloads"]:
        name = w["name"]
        problems += check_line(smoke(name, 0), SPEC["end_to_end"],
                               f"{name} trace=0", nonzero=True)
        first, second = smoke(name, 1), smoke(name, 1)
        problems += check_line(first, SPEC["per_layer"], f"{name} trace=1",
                               nonzero=False)
        ratio = first["metrics"]["driver.layer_sum_ratio"]["value"]
        if not 0.95 <= ratio <= 1.05:
            problems.append(f"{name}: driver.layer_sum_ratio = {ratio}")
        for count in COUNTS:
            a = first["metrics"][count]["value"]
            b = second["metrics"][count]["value"]
            if a != b:
                problems.append(f"{name}: {count} differs: {a} vs {b}")
        print(f"{name}: checked")
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
