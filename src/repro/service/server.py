"""The shim-protocol HTTP server in front of one :class:`SciDB`.

The wire surface is the five-verb session protocol SciDB's client
bindings expect (cf. SciDB-Py's shim ``DB``):

========================  =====================================================
``GET /new_session``      open a session; body is the session id
``GET /execute_query``    ``id``, ``query`` (+ ``timeout_ms``, planner flags);
                          runs the statement synchronously, stores the result
``GET /read_bytes``       ``id``, ``n``; next ≤ *n* bytes of the result in
                          shim CSV+ form; ``X-Scidb-Eof: 1`` on the last page
``GET /cancel``           ``id``; cancel the session's running statement
``GET /release_session``  ``id``; drop the session (cancels anything running)
========================  =====================================================

plus four read-only views of the flight recorder (not part of the shim):
``GET /status`` (JSON introspection), ``GET /metrics`` (Prometheus text
exposition of ``db.prometheus()``), ``GET /profile?id=<query_id>`` (one
retained statement record, rendered and as JSON; 404 once evicted) and
``GET /events?since=<seq>`` (the event ring as JSON lines).
``execute_query``'s response — and the 408/409 body of a statement that
timed out, was cancelled or was killed — carries the statement's
``query_id``, which is the key into ``/profile`` and the ``query_id`` on
every ``/events`` line the statement caused.
``POST`` with a form body is accepted everywhere ``GET`` is, so long
statements need not fit in a request line.

A response leaves in one TCP segment: headers and body go through one
buffer, flushed once per request, with Nagle off on the accepted socket.
As two small segments on a keep-alive connection the body waited out the
client's delayed-ACK timer — 44 ms a request on a sub-millisecond engine.

Execution is synchronous *in the handler thread*:
:class:`~http.server.ThreadingHTTPServer` gives each request its own
thread, and the engine below is thread-safe (PR 10's locking sweep), so
concurrency falls out of the server model with no queueing layer.  The
service — not :meth:`SciDB.execute` — constructs the statement's
:class:`~repro.cluster.resilience.Deadline` and installs it via
:func:`deadline_scope`; holding the handle itself is what lets a
``/cancel`` arriving on a *different* connection stop the statement:
:meth:`Deadline.cancel` makes the next cooperative check (operator
boundary, replica attempt, mid-scan) raise
:class:`~repro.core.errors.QueryCancelledError`.  A statement with no
client timeout gets ``Deadline.unbounded()`` — infinite budget, still
cancellable.

Overload policy lives in :mod:`repro.service.admission` (429 +
``Retry-After``); runaway statements are reaped by the housekeeping
thread, which every ``sweep_interval_ms`` expires idle sessions and
cancels any statement running longer than ``kill_after_ms`` (default:
50× the slow-query log threshold, so the killer only ever fires on
statements the slow log would have flagged long before).
"""

from __future__ import annotations

import json
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Iterator, Optional

import numpy as np

from ..cluster.resilience import Deadline, deadline_scope
from ..core.array import SciArray
from ..core.cells import CellState
from ..core.errors import (
    DeadlineExceededError,
    QueryCancelledError,
    SciDBError,
)
from ..database import SciDB
from ..obs import tracing
from ..obs.export import events_jsonl
from ..obs.recorder import emit as _flight_emit
from ..query.planner import PlannerConfig
from .admission import AdmissionConfig, AdmissionController, AdmissionReject
from .session import Session, SessionError, SessionManager

__all__ = ["QueryService", "ResultPager", "ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Service-level knobs (engine knobs stay on :class:`SciDB`)."""

    host: str = "127.0.0.1"
    #: 0 = let the OS pick (the tests and benchmark do this)
    port: int = 0
    idle_timeout_ms: float = 60_000.0
    #: statements running longer than this are killed; ``None`` derives
    #: 50× the database's slow-query threshold
    kill_after_ms: Optional[float] = None
    sweep_interval_ms: float = 100.0
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)


class ResultPager:
    """Serializes one statement's result lazily, in ``read_bytes`` pages.

    The shim CSV+ shape: a header naming dimensions and attributes, then
    one ``{coords} v1,v2`` line per occupied cell.  Text is rendered from
    the result's planes a chunk at a time — a client paging a large
    result never forces the whole serialization into memory, and a
    client that stops reading costs nothing further.
    """

    def __init__(self, value: Any) -> None:
        self._pieces: Optional[Iterator[bytes]] = self._serialize(value)
        self._buffer = b""  # the current piece...
        self._offset = 0  # ...and how much of it has been handed out
        self.bytes_served = 0

    @staticmethod
    def _serialize(value: Any) -> Iterator[bytes]:
        if isinstance(value, SciArray):
            dims = ",".join(d.name for d in value.schema.dimensions)
            attrs = ",".join(value.schema.attr_names)
            yield f"{{{dims}}} {attrs}\n".encode()
            for origin, data, state in value.blocks():
                at = state == CellState.PRESENT
                coords = (np.argwhere(at) + origin).T.tolist()
                pos = zip(*(map(str, column) for column in coords))
                vals = zip(*(map(str, p[at].tolist()) for p in data.values()))
                yield "".join(
                    f"{{{','.join(c)}}} {','.join(v)}\n"
                    for c, v in zip(pos, vals)
                ).encode()
        else:
            yield ("null" if value is None else str(value)).encode() + b"\n"

    @property
    def eof(self) -> bool:
        return self._pieces is None and self._offset >= len(self._buffer)

    def read(self, n: int) -> bytes:
        """The next ≤ *n* bytes (empty at EOF)."""
        parts: list[bytes] = []
        while n > 0 and not self.eof:
            if self._offset >= len(self._buffer):
                piece = next(self._pieces, None)
                if piece is None:
                    self._pieces = None
                else:
                    self._buffer, self._offset = piece, 0
                continue
            part = self._buffer[self._offset : self._offset + n]
            self._offset += len(part)
            n -= len(part)
            parts.append(part)
        out = b"".join(parts)
        self.bytes_served += len(out)
        return out

    def unread(self, data: bytes) -> None:
        """Push a page back (an admission-rejected read retries it whole)."""
        self._buffer, self._offset = data + self._buffer[self._offset :], 0
        self.bytes_served -= len(data)


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP plumbing; every verb is a :class:`QueryService` method."""

    server_version = "repro-scidb/1.0"
    protocol_version = "HTTP/1.1"
    # One segment per response (module docstring): headers plus a default
    # 64 KiB page fit the buffer, which handle_one_request() flushes once.
    wbufsize = 1 << 17
    disable_nagle_algorithm = True

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch()

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch()

    def _dispatch(self) -> None:
        service: "QueryService" = self.server.service  # type: ignore[attr-defined]
        parsed = urllib.parse.urlsplit(self.path)
        params = {
            k: v[-1] for k, v in urllib.parse.parse_qs(parsed.query).items()
        }
        length = (self.headers.get("Content-Length") or "0").strip()
        if not length.isdecimal():
            # Where the body ends is unknowable, so nothing after it on
            # this connection can be parsed: answer, then hang up.
            status, headers, payload = service._error(
                400, "malformed Content-Length", {"Connection": "close"}
            )
        else:
            body = self.rfile.read(int(length)).decode()
            params.update(
                (k, v[-1]) for k, v in urllib.parse.parse_qs(body).items()
            )
            status, headers, payload = service.handle(parsed.path, params)
        self.send_response(status)
        for key, value in headers.items():
            self.send_header(key, value)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # the flight recorder is the service's log, not stderr


class QueryService:
    """The query service: one :class:`SciDB`, many concurrent clients."""

    def __init__(
        self, db: SciDB, config: Optional[ServiceConfig] = None
    ) -> None:
        self.db = db
        self.config = config or ServiceConfig()
        self.sessions = SessionManager(
            idle_timeout_ms=self.config.idle_timeout_ms
        )
        self.admission = AdmissionController(self.config.admission)
        self.kill_after_ms = (
            self.config.kill_after_ms
            if self.config.kill_after_ms is not None
            else max(1_000.0, db.slow_query_ms * 50.0)
        )
        self.queries_served = 0
        self.queries_killed = 0
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), _Handler
        )
        self._httpd.daemon_threads = True
        self._httpd.service = self  # type: ignore[attr-defined]
        self._serve_thread: Optional[threading.Thread] = None
        self._sweep_thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # -- lifecycle ----------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "QueryService":
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-service",
            daemon=True,
        )
        self._serve_thread.start()
        self._sweep_thread = threading.Thread(
            target=self._housekeeping, name="repro-service-sweep", daemon=True
        )
        self._sweep_thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5)
        if self._sweep_thread is not None:
            self._sweep_thread.join(timeout=5)

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- housekeeping: idle sweep + slow-query killer -----------------------------

    def _housekeeping(self) -> None:
        interval = self.config.sweep_interval_ms / 1e3
        while not self._stop.wait(interval):
            for session in self.sessions.sweep_idle():
                _flight_emit(
                    "service.session_expired",
                    session=session.session_id,
                    tenant=session.tenant,
                    idle_ms=round(session.idle_ms(), 1),
                )
            for session in self.sessions.running():
                elapsed = session.running_ms()
                if elapsed > self.kill_after_ms:
                    with session.lock:
                        deadline = session.deadline
                        if deadline is None or deadline.cancelled:
                            continue
                        deadline.cancel(
                            f"killed by service after {elapsed:.0f} ms "
                            f"(limit {self.kill_after_ms:.0f} ms)"
                        )
                        span = session.span
                    self.queries_killed += 1
                    # Adopting the statement's root stamps its query id
                    # on the event, though this is not its thread.
                    with tracing.adopt(span):
                        _flight_emit(
                            "service.query_kill",
                            session=session.session_id,
                            tenant=session.tenant,
                            statement=session.statement,
                            running_ms=round(elapsed, 1),
                        )

    # -- request handling ---------------------------------------------------------

    def handle(
        self, path: str, params: dict[str, str]
    ) -> tuple[int, dict[str, str], bytes]:
        """Route one request; returns ``(status, headers, body)``."""
        try:
            if path == "/new_session":
                return self._new_session(params)
            if path == "/execute_query":
                return self._execute_query(params)
            if path == "/read_bytes":
                return self._read_bytes(params)
            if path == "/cancel":
                return self._cancel(params)
            if path == "/release_session":
                return self._release_session(params)
            if path == "/status":
                return self._status()
            if path == "/metrics":
                return self._text(
                    self.db.prometheus(), "text/plain; version=0.0.4"
                )
            if path == "/profile":
                return self._profile(params)
            if path == "/events":
                since = params.get("since", "0")
                if not since.isdecimal():
                    raise SciDBError(
                        f"since must be a sequence number, got {since!r}"
                    )
                return self._text(
                    events_jsonl(self.db.events(since_seq=int(since))),
                    "application/x-ndjson",
                )
            return self._error(404, f"no such endpoint: {path}")
        except SessionError as exc:
            return self._error(404, str(exc))
        except AdmissionReject as exc:
            _flight_emit("service.admission_reject", reason=str(exc))
            return self._error(
                429,
                str(exc),
                headers={"Retry-After": f"{exc.retry_after_s:.3f}"},
            )
        except SciDBError as exc:
            return self._error(400, f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # noqa: BLE001 — the server must answer
            return self._error(500, f"{type(exc).__name__}: {exc}")

    @staticmethod
    def _error(
        status: int,
        message: str,
        headers: Optional[dict[str, str]] = None,
        **extra: Any,
    ) -> tuple[int, dict[str, str], bytes]:
        body = json.dumps({"error": message, **extra}).encode()
        out = {"Content-Type": "application/json"}
        if headers:
            out.update(headers)
        return status, out, body

    @staticmethod
    def _text(body: str, content_type: str) -> tuple[int, dict[str, str], bytes]:
        return 200, {"Content-Type": content_type}, body.encode()

    @staticmethod
    def _ok_json(payload: dict[str, Any]) -> tuple[int, dict[str, str], bytes]:
        return (
            200,
            {"Content-Type": "application/json"},
            json.dumps(payload).encode(),
        )

    def _session_from(self, params: dict[str, str]) -> Session:
        session_id = params.get("id")
        if not session_id:
            raise SessionError("missing required parameter 'id'")
        return self.sessions.get(session_id)

    @staticmethod
    def _positive(
        params: dict[str, str], name: str, parse: Callable[[str], Any]
    ) -> Any:
        """Numeric parameter *name*, ``None`` if absent; anything but a
        finite number above zero is the client's error (400)."""
        raw = params.get(name)
        if not raw:
            return None
        try:
            value = parse(raw)
        except ValueError:
            value = 0  # rejected below
        if not 0 < value < float("inf"):
            raise SciDBError(f"{name} must be a positive number, got {raw!r}")
        return value

    # -- the five shim verbs ------------------------------------------------------

    def _new_session(
        self, params: dict[str, str]
    ) -> tuple[int, dict[str, str], bytes]:
        session = self.sessions.open(tenant=params.get("tenant", "default"))
        _flight_emit(
            "service.session_open",
            session=session.session_id,
            tenant=session.tenant,
        )
        return 200, {"Content-Type": "text/plain"}, session.session_id.encode()

    def _execute_query(
        self, params: dict[str, str]
    ) -> tuple[int, dict[str, str], bytes]:
        session = self._session_from(params)
        statement = params.get("query")
        if not statement:
            raise SciDBError("missing required parameter 'query'")
        timeout_ms = self._positive(params, "timeout_ms", float)
        planner = self._planner_from(params)

        deadline = (
            Deadline.after_ms(timeout_ms)
            if timeout_ms is not None
            else Deadline.unbounded()
        )
        # Admission first: a 429 here leaves the session untouched.
        self.admission.acquire_query(session.tenant)
        t0 = time.perf_counter()
        started = False
        query_id = None  # stays None if admission or the recorder said no
        try:
            # The statement enters the engine here, so this opens its
            # record: the session holds the root span while it runs (what
            # the killer and /cancel stamp their events with) and the
            # id goes out in the response whether it finishes or not.
            with self.db.flight_recorder.statement(
                statement, name="service.execute_query",
                slow_ms=self.db.executor.slow_ms,
            ) as record:
                query_id = record.query_id if record is not None else None
                with session.lock:
                    if session.running:
                        raise SciDBError(
                            "session already has a statement executing; "
                            "open a second session for parallel statements"
                        )
                    session.deadline = deadline
                    session.span = tracing.current_span()
                    session.query_started = time.time()
                    session.statement = statement
                    session.pager = None  # executing replaces any unread result
                    started = True
                # The scope installs the *service's* deadline so /cancel
                # and the killer hold the live handle while the statement
                # runs.
                with deadline_scope(deadline):
                    result = self.db.execute(statement, planner=planner)
        except QueryCancelledError as exc:
            return self._error(409, str(exc), query_id=query_id)
        except DeadlineExceededError as exc:
            return self._error(408, str(exc), query_id=query_id)
        finally:
            elapsed_ms = (time.perf_counter() - t0) * 1e3
            self.admission.release_query(session.tenant, elapsed_ms)
            if started:
                with session.lock:
                    session.deadline = None
                    session.span = None
                    session.query_started = None
                    session.statement = None
                    session.touch()
        with session.lock:
            session.pager = ResultPager(result.value)
            session.queries_run += 1
        self.queries_served += 1
        return self._ok_json(
            {
                "session": session.session_id,
                "query_id": query_id,
                "elapsed_ms": round(elapsed_ms, 3),
                "rewrites": list(result.rewrites),
                "cells_examined": result.cells_examined,
            }
        )

    @staticmethod
    def _planner_from(params: dict[str, str]) -> Optional[PlannerConfig]:
        flags = {}
        for name in ("enable_pushdown", "enable_pruning"):
            if name in params:
                flags[name] = params[name].lower() not in ("0", "false", "no")
        return PlannerConfig(**flags) if flags else None

    def _read_bytes(
        self, params: dict[str, str]
    ) -> tuple[int, dict[str, str], bytes]:
        session = self._session_from(params)
        n = self._positive(params, "n", int) or 65536
        with session.lock:
            pager = session.pager
            if pager is None:
                raise SciDBError(
                    "no result to read; execute_query first (or the "
                    "result was already drained and released)"
                )
            chunk = pager.read(n)
            try:
                # Charge what was actually produced; a rejected page goes
                # back on the pager so the client's retry gets it whole.
                self.admission.charge_read(session.tenant, len(chunk))
            except AdmissionReject:
                pager.unread(chunk)
                raise
            eof = pager.eof
            if eof:
                session.pager = None
        return (
            200,
            {
                "Content-Type": "text/plain",
                "X-Scidb-Eof": "1" if eof else "0",
            },
            chunk,
        )

    def _cancel(
        self, params: dict[str, str]
    ) -> tuple[int, dict[str, str], bytes]:
        session = self._session_from(params)
        with session.lock:
            deadline = session.deadline
            cancelled = deadline is not None and not deadline.cancelled
            if cancelled:
                deadline.cancel("cancelled by client")
            span = session.span
        if cancelled:
            with tracing.adopt(span):
                _flight_emit(
                    "service.query_cancel",
                    session=session.session_id,
                    tenant=session.tenant,
                )
        return self._ok_json(
            {"session": session.session_id, "cancelled": cancelled}
        )

    def _release_session(
        self, params: dict[str, str]
    ) -> tuple[int, dict[str, str], bytes]:
        session_id = params.get("id")
        if not session_id:
            raise SessionError("missing required parameter 'id'")
        session = self.sessions.release(session_id)
        _flight_emit(
            "service.session_release",
            session=session.session_id,
            tenant=session.tenant,
            queries=session.queries_run,
        )
        return self._ok_json(
            {"released": session.session_id, "queries": session.queries_run}
        )

    # -- introspection ------------------------------------------------------------

    def _profile(
        self, params: dict[str, str]
    ) -> tuple[int, dict[str, str], bytes]:
        profile = self.db.profile(params.get("id", ""))
        if profile is None:
            return self._error(
                404,
                f"no retained profile {params.get('id')!r} (evicted or unknown)",
            )
        return self._ok_json(profile.to_dict())

    def _status(self) -> tuple[int, dict[str, str], bytes]:
        return self._ok_json(
            {
                "sessions": self.sessions.count(),
                "tenants": self.sessions.tenant_counts(),
                "running": len(self.sessions.running()),
                "queries_served": self.queries_served,
                "queries_killed": self.queries_killed,
                "rejected_queries": self.admission.rejected_queries,
                "rejected_reads": self.admission.rejected_reads,
                "admission": self.admission.snapshot(),
                "kill_after_ms": self.kill_after_ms,
            }
        )
