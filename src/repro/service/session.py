"""Shim sessions: the unit of client state in the query service.

A session is what ``new_session`` hands back: an opaque id the client
threads through every later verb.  It carries at most one *running*
statement (the shim contract — clients wanting parallelism open
parallel sessions) and at most one *readable* result; ``execute_query``
replaces the previous result, ``read_bytes`` drains it.

The manager is the registry: creation, lookup (which refreshes the
idle clock), release, and the idle sweep the service's housekeeping
thread runs.  Every mutation is under one lock — session ids are
minted from :func:`secrets.token_hex`, so ids never collide, but two
requests racing on the *same* session must serialize on its state.
"""

from __future__ import annotations

import secrets
import threading
import time
from typing import TYPE_CHECKING, Optional

from ..core.errors import SciDBError

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.resilience import Deadline
    from ..obs.tracing import Span
    from .server import ResultPager

__all__ = ["Session", "SessionError", "SessionManager"]


class SessionError(SciDBError):
    """Unknown, expired, or misused session id."""


class Session:
    """One client's conversation with the service."""

    __slots__ = (
        "session_id",
        "tenant",
        "created_at",
        "last_used",
        "lock",
        "deadline",
        "span",
        "query_started",
        "statement",
        "pager",
        "queries_run",
    )

    def __init__(self, session_id: str, tenant: str) -> None:
        self.session_id = session_id
        self.tenant = tenant
        self.created_at = time.time()
        self.last_used = self.created_at
        #: serializes execute/read/cancel racing on this one session
        self.lock = threading.RLock()
        #: the running statement's cancellation handle, if one is running
        self.deadline: "Optional[Deadline]" = None
        #: the running statement's root span (events a killer or /cancel
        #: emits on its behalf are stamped with the statement's id)
        self.span: "Optional[Span]" = None
        self.query_started: Optional[float] = None
        self.statement: Optional[str] = None
        #: the last completed statement's unread output
        self.pager: "Optional[ResultPager]" = None
        self.queries_run = 0

    @property
    def running(self) -> bool:
        return self.deadline is not None

    def touch(self) -> None:
        self.last_used = time.time()

    def idle_ms(self, now: Optional[float] = None) -> float:
        return ((now if now is not None else time.time()) - self.last_used) * 1e3

    def running_ms(self, now: Optional[float] = None) -> float:
        """How long the current statement has been executing (0 if idle)."""
        if self.query_started is None:
            return 0.0
        return ((now if now is not None else time.time()) - self.query_started) * 1e3

    def __repr__(self) -> str:
        state = "running" if self.running else "idle"
        return (
            f"<Session {self.session_id[:8]} tenant={self.tenant!r} "
            f"{state} queries={self.queries_run}>"
        )


class SessionManager:
    """The service's session registry.

    ``idle_timeout_ms`` bounds how long a session may sit unused before
    :meth:`sweep_idle` reclaims it; a session with a statement still
    executing is never swept (the killer deals with runaways, and its
    deadline — not the idle clock — decides that statement's fate).
    """

    def __init__(self, idle_timeout_ms: float = 60_000.0) -> None:
        if idle_timeout_ms <= 0:
            raise SessionError("idle_timeout_ms must be > 0")
        self.idle_timeout_ms = idle_timeout_ms
        self._sessions: dict[str, Session] = {}
        self._lock = threading.RLock()

    def open(self, tenant: str = "default") -> Session:
        session = Session(secrets.token_hex(16), tenant)
        with self._lock:
            self._sessions[session.session_id] = session
        return session

    def get(self, session_id: str) -> Session:
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise SessionError(f"no session {session_id!r} (expired or released)")
        session.touch()
        return session

    def release(self, session_id: str) -> Session:
        with self._lock:
            session = self._sessions.pop(session_id, None)
        if session is None:
            raise SessionError(f"no session {session_id!r} (expired or released)")
        self._abandon(session, "session released")
        return session

    def sweep_idle(self, now: Optional[float] = None) -> list[Session]:
        """Reclaim sessions idle past the timeout; returns what was swept."""
        now = now if now is not None else time.time()
        with self._lock:
            expired = [
                s
                for s in self._sessions.values()
                if not s.running and s.idle_ms(now) > self.idle_timeout_ms
            ]
            for session in expired:
                del self._sessions[session.session_id]
        for session in expired:
            self._abandon(session, "session expired")
        return expired

    @staticmethod
    def _abandon(session: Session, reason: str) -> None:
        # Releasing a session with a statement mid-flight cancels it:
        # nobody is left to read the answer.
        with session.lock:
            if session.deadline is not None:
                session.deadline.cancel(reason)
            session.pager = None

    def running(self) -> list[Session]:
        with self._lock:
            return [s for s in self._sessions.values() if s.running]

    def count(self) -> int:
        with self._lock:
            return len(self._sessions)

    def tenant_counts(self) -> dict[str, int]:
        with self._lock:
            counts: dict[str, int] = {}
            for s in self._sessions.values():
                counts[s.tenant] = counts.get(s.tenant, 0) + 1
            return counts
