"""Exporters: Prometheus text exposition, JSONL event dumps, status.

Three ways out of the flight recorder and the owners' counters:

* :func:`prometheus_text` — the unified ``metrics_snapshot`` dict
  rendered in the Prometheus text exposition format (one ``# TYPE`` line
  per metric family, ``_total`` counter suffixes, escaped label values,
  per-node series labelled ``{grid="...",node="..."}``); the service
  serves it at ``GET /metrics``.
* :func:`events_jsonl` — the event ring as one JSON object per line,
  the interchange format for offline drill reconciliation (and
  ``GET /events``).
* :func:`status_text` — the one-screen ``db.status()`` report: health,
  recent events, recent query profiles and the headline counters.

Everything here is a pure function of already-collected state — an
export never meters, samples, or mutates anything.
"""

from __future__ import annotations

import re
from typing import Any, Iterable, Optional

from .health import HealthReport
from .recorder import FlightRecorder, RecordedEvent

__all__ = [
    "prometheus_text",
    "events_jsonl",
    "status_text",
]

_NAME_OK = re.compile(r"[^a-zA-Z0-9_]")
_LABEL_ESCAPES = str.maketrans({"\\": r"\\", '"': r"\"", "\n": r"\n"})

_NODE_COUNTERS = (
    "cells_stored", "cells_scanned", "bytes_received", "bytes_sent",
    "failovers_served", "read_retries",
)
_RESILIENCE_COUNTERS = (
    "failovers", "hedges", "hedge_wins", "breaker_skips", "deadline_misses",
    "dual_reads", "breaker_transitions",
)


def _fmt(value: Any) -> str:
    try:
        v = float(value)
    except (TypeError, ValueError):
        return "0"
    return repr(int(v)) if v == int(v) else repr(v)


def _labels(**labels: Any) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{str(v).translate(_LABEL_ESCAPES)}"'
        for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def prometheus_text(snapshot: dict[str, Any]) -> str:
    """Render one ``metrics_snapshot()`` dict as Prometheus exposition.

    Counters become ``repro_<name>_total``, the latency summary keeps
    its name, and per-grid node accounting is emitted as labelled
    series.  Samples are grouped by metric family so each family has
    exactly one ``# TYPE`` line, however many grids contribute series to
    it.  The output ends with a newline, as the exposition format
    requires.
    """
    #: family -> (type, sample lines), in first-seen order
    families: dict[str, tuple[str, list[str]]] = {}

    def sample(
        name: str, mtype: str, value: Any, suffix: str = "", /, **labels: Any
    ) -> None:
        family = "repro_" + _NAME_OK.sub("_", name)
        if mtype == "counter":
            family += "_total"
        lines = families.setdefault(family, (mtype, []))[1]
        lines.append(f"{family}{suffix}{_labels(**labels)} {_fmt(value)}")

    for name, value in snapshot.get("counters", {}).items():
        sample(name, "counter", value)
    for name, value in snapshot.get("gauges", {}).items():
        sample(name, "gauge", value)
    for name, summary in snapshot.get("histograms", {}).items():
        sample(name, "summary", summary["p50"], quantile="0.5")
        sample(name, "summary", summary["p95"], quantile="0.95")
        sample(name, "summary", summary["sum"], "_sum")
        sample(name, "summary", summary["count"], "_count")

    for gname, grid in snapshot.get("grids", {}).items():
        ledger = grid.get("ledger", {})
        sample(
            "grid.ledger.bytes", "counter", ledger.get("total_bytes", 0),
            grid=gname,
        )
        for reason, nbytes in sorted(ledger.get("by_reason", {}).items()):
            sample(
                "grid.ledger.bytes", "counter", nbytes,
                grid=gname, reason=reason,
            )
        for node in grid.get("nodes", []):
            nid = node.get("node_id")
            sample(
                "grid.node.alive", "gauge", 1 if node.get("alive") else 0,
                grid=gname, node=nid,
            )
            for counter in _NODE_COUNTERS:
                if counter in node:
                    sample(
                        f"grid.node.{counter}", "counter", node[counter],
                        grid=gname, node=nid,
                    )
        resilience = grid.get("resilience", {})
        for counter in _RESILIENCE_COUNTERS:
            if counter in resilience:
                sample(
                    f"grid.resilience.{counter}", "counter",
                    resilience[counter], grid=gname,
                )

    recorder = snapshot.get("flight_recorder")
    if recorder:
        sample("flight.events", "counter", recorder["events"]["emitted"])
        for kind, count in sorted(recorder["events"]["by_kind"].items()):
            sample("flight.events", "counter", count, kind=kind)
        sample(
            "flight.profiles_retained", "gauge",
            recorder["profiles"]["retained"],
        )

    out: list[str] = []
    for family, (mtype, lines) in families.items():
        out.append(f"# TYPE {family} {mtype}")
        out.extend(lines)
    return "\n".join(out) + "\n"


def events_jsonl(events: Iterable[RecordedEvent]) -> str:
    """The events as JSON Lines (one object per line, oldest first)."""
    return "".join(e.to_json() + "\n" for e in events)


def _truncate(text: str, width: int = 56) -> str:
    text = " ".join(text.split())
    return text if len(text) <= width else text[: width - 1] + "…"


def status_text(
    health: HealthReport,
    recorder: Optional[FlightRecorder] = None,
    snapshot: Optional[dict[str, Any]] = None,
    events_tail: int = 8,
    profiles_tail: int = 5,
) -> str:
    """The one-screen terminal report behind ``db.status()``."""
    lines = ["== repro status ==", health.render()]

    if snapshot is not None:
        counters = snapshot.get("counters", {})
        hist = snapshot.get("histograms", {}).get("query.latency_ms")
        bits = [f"queries={int(counters.get('query.statements', 0))}"]
        if hist:
            bits.append(f"p50={hist['p50']:.2f}ms")
            bits.append(f"p95={hist['p95']:.2f}ms")
        slow = snapshot.get("flight_recorder", {}).get("profiles", {})
        if slow.get("slow"):
            bits.append(f"slow={slow['slow']}")
        total_moved = sum(
            g.get("ledger", {}).get("total_bytes", 0)
            for g in snapshot.get("grids", {}).values()
        )
        bits.append(f"moved={total_moved}B")
        lines.append("-- load: " + "  ".join(bits))

    if recorder is not None:
        summary = recorder.summary()
        lines.append(
            f"-- flight recorder: {summary['events']['emitted']} events "
            f"({summary['events']['retained']} retained), "
            f"{summary['profiles']['retained']} profiles, "
            f"{summary['sampler']['passes']} sample passes"
        )
        tail = recorder.events()[-events_tail:]
        if tail:
            lines.append(f"-- recent events (last {len(tail)}):")
            for event in tail:
                lines.append(f"   {event}")
        profiles = recorder.profiles(profiles_tail)
        if profiles:
            lines.append(f"-- recent queries (last {len(profiles)}):")
            for prof in profiles:
                extras = []
                ratio = prof.cache_hit_ratio
                if ratio is not None:
                    extras.append(f"cache={ratio:.2f}")
                if prof.failovers:
                    extras.append(f"failovers={prof.failovers}")
                if prof.error:
                    extras.append("ERROR")
                suffix = ("  [" + " ".join(extras) + "]") if extras else ""
                lines.append(
                    f"   {prof.query_id}  {prof.total_ms:8.2f} ms  "
                    f"{_truncate(prof.statement)}{suffix}"
                )
    return "\n".join(lines)
