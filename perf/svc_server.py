"""The query service as a child process, for ``svc_small``.

``python perf/svc_server.py <seed>`` builds the workload's arrays from the
seed, starts ``QueryService`` with the default ``ServiceConfig`` on an
ephemeral port and prints one JSON line ``{"host", "port"}``.  Each
``stats`` line on stdin is answered with one JSON line (open sessions,
killed statements, admission rejections, peak RSS); EOF stops the
service and ends the process.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perf")]


def main() -> int:
    from repro.service import QueryService, ServiceConfig

    from workloads import service_db

    db, _, _ = service_db(int(sys.argv[1]))
    with QueryService(db, ServiceConfig()) as service:
        host, port = service.address
        print(json.dumps({"host": host, "port": port}), flush=True)
        for line in sys.stdin:
            if line.strip() != "stats":
                continue
            print(json.dumps({
                "sessions": service.sessions.count(),
                "killed": service.queries_killed,
                "rejected": service.admission.rejected_queries
                + service.admission.rejected_reads,
                "rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
