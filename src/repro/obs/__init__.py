"""Observability: one record per statement, and views of it.

The paper's grid design (Section 2.8) assumes operators can be monitored
and repartitioned "if the average query ... touches more than one node".
This package supplies the monitoring half of that contract under one
rule — **owners count, the recorder correlates, everything else is a
view**: a cumulative fact lives once, on the component that owns it
(``StorageStats``, ``ChunkCache``, ``WriteAheadLog``, ``NodeCounters``,
the movement ledger …); the flight recorder keeps what happened to each
statement; metrics, the slow-query list, EXPLAIN ANALYZE, health and
the exporters read those two.

* :mod:`repro.obs.tracing` — hierarchical spans with monotonic timings,
  parent links, self-times and per-span counters, one stack per thread.
  A statement's root opens where it enters the engine; on a thread with
  no open span every ``span()`` is the shared null span, so an untraced
  query pays (almost) nothing.
* :mod:`repro.obs.recorder` — the **flight recorder**: a bounded ring
  of typed operational events (kills, rebuilds, breaker flips,
  rebalance lifecycle, WAL tears …) each stamped with the id of the
  statement it happened to, the last-N :class:`QueryProfile` store
  (plus the slow ones, kept longer), and a fixed-size per-node gauge
  sampler — the continuous record that outlives any single call.
* :mod:`repro.obs.explain` — ``EXPLAIN ANALYZE``-style reports: the plan
  tree annotated with actual times, cells scanned, chunks touched,
  nodes visited and bytes moved per operator, reconciling with the
  grid's movement ledger.
* :mod:`repro.obs.health` — events + gauges rolled into per-node and
  cluster ``ok/degraded/rebalancing/critical`` status with named
  findings.
* :mod:`repro.obs.export` — Prometheus text exposition, JSONL event
  dumps, and the one-screen ``db.status()`` report.
"""

from .explain import ExplainReport
from .export import events_jsonl, prometheus_text, status_text
from .health import HealthModel, HealthReport, NodeHealth
from .recorder import (
    EventLog,
    FlightRecorder,
    GaugeSampler,
    QueryProfile,
    QueryProfileStore,
    RecordedEvent,
    emit,
    get_flight_recorder,
    set_flight_recorder,
    use_flight_recorder,
)
from .tracing import (
    NULL_SPAN,
    Span,
    add_current,
    adopt,
    annotate_current,
    current_query_id,
    current_span,
    enabled,
    mark_current,
    root,
    span,
)

__all__ = [
    "ExplainReport",
    "events_jsonl",
    "prometheus_text",
    "status_text",
    "HealthModel",
    "HealthReport",
    "NodeHealth",
    "EventLog",
    "FlightRecorder",
    "GaugeSampler",
    "QueryProfile",
    "QueryProfileStore",
    "RecordedEvent",
    "emit",
    "get_flight_recorder",
    "set_flight_recorder",
    "use_flight_recorder",
    "NULL_SPAN",
    "Span",
    "add_current",
    "adopt",
    "annotate_current",
    "current_query_id",
    "current_span",
    "enabled",
    "mark_current",
    "root",
    "span",
]
