"""A minimal shim-protocol client (stdlib only).

The shape mirrors SciDB-Py's ``DB`` object down to the verb names, so
code written against the real shim reads the same here:

    >>> client = ShimClient("127.0.0.1", 8080)       # doctest: +SKIP
    >>> sid = client.new_session()                   # doctest: +SKIP
    >>> client.execute_query(sid, "select subsample(M, I >= 2)")
    >>> print(client.read_all(sid))                  # doctest: +SKIP
    >>> client.release_session(sid)                  # doctest: +SKIP

or, for the common one-shot case, :meth:`query` runs the whole
open/execute/drain/release cycle.  429 responses surface as
:class:`Throttled` carrying the server's ``Retry-After`` hint;
:meth:`query` honors it automatically up to ``max_retries``.

One :class:`ShimClient` holds one :class:`http.client.HTTPConnection`
and is **not** thread-safe — the benchmark gives each simulated client
its own instance, which is also what exercises the server's
concurrency for real.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.parse
from typing import Any, Optional

from ..core.errors import SciDBError

__all__ = ["ServiceError", "ShimClient", "Throttled"]


class ServiceError(SciDBError):
    """A non-2xx response from the query service."""

    def __init__(
        self, status: int, message: str, query_id: Optional[str] = None
    ) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        #: the failed statement's id (408/409): the key into ``profile()``
        self.query_id = query_id

    @classmethod
    def from_response(
        cls, status: int, body: bytes, retry_after: Optional[str]
    ) -> "ServiceError":
        query_id = None
        try:
            parsed = json.loads(body)
            message = parsed.get("error", body.decode())
            query_id = parsed.get("query_id")
        except (ValueError, UnicodeDecodeError, AttributeError):
            message = repr(body[:200])
        if status == 429:
            return Throttled(
                message, float(retry_after) if retry_after else 0.05
            )
        return cls(status, message, query_id)


class Throttled(ServiceError):
    """Admission control said no; ``retry_after_s`` says when to ask again."""

    def __init__(self, message: str, retry_after_s: float) -> None:
        SciDBError.__init__(self, f"HTTP 429: {message}")
        self.status = 429
        self.retry_after_s = retry_after_s


class ShimClient:
    def __init__(
        self, host: str, port: int, timeout_s: float = 30.0
    ) -> None:
        self.host = host
        self.port = port
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout_s)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ShimClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- raw verb transport -------------------------------------------------------

    def _call(
        self, verb: str, **params: Any
    ) -> tuple[dict[str, str], bytes]:
        query = urllib.parse.urlencode(
            {k: v for k, v in params.items() if v is not None}
        )
        path = f"/{verb}" + (f"?{query}" if query else "")
        try:
            self._conn.request("GET", path)
            response = self._conn.getresponse()
            body = response.read()
        except (ConnectionError, http.client.HTTPException):
            # One reconnect: the server may have dropped a kept-alive
            # connection between requests.
            self._conn.close()
            self._conn.request("GET", path)
            response = self._conn.getresponse()
            body = response.read()
        if response.status != 200:
            raise ServiceError.from_response(
                response.status, body, response.getheader("Retry-After")
            )
        return dict(response.getheaders()), body

    # -- the shim verbs -----------------------------------------------------------

    def new_session(self, tenant: str = "default") -> str:
        _, body = self._call("new_session", tenant=tenant)
        return body.decode()

    def execute_query(
        self,
        session_id: str,
        query: str,
        timeout_ms: Optional[float] = None,
        **planner_flags: bool,
    ) -> dict[str, Any]:
        _, body = self._call(
            "execute_query",
            id=session_id,
            query=query,
            timeout_ms=timeout_ms,
            **{k: int(v) for k, v in planner_flags.items()},
        )
        return json.loads(body)

    def read_bytes(self, session_id: str, n: int = 65536) -> tuple[bytes, bool]:
        """One result page and whether it was the last."""
        headers, body = self._call("read_bytes", id=session_id, n=n)
        return body, headers.get("X-Scidb-Eof") == "1"

    def cancel(self, session_id: str) -> bool:
        _, body = self._call("cancel", id=session_id)
        return bool(json.loads(body).get("cancelled"))

    def release_session(self, session_id: str) -> None:
        self._call("release_session", id=session_id)

    def status(self) -> dict[str, Any]:
        _, body = self._call("status")
        return json.loads(body)

    def metrics(self) -> str:
        """The Prometheus text exposition (``GET /metrics``)."""
        return self._call("metrics")[1].decode()

    def profile(self, query_id: str) -> dict[str, Any]:
        """One retained statement record (404 once evicted)."""
        return json.loads(self._call("profile", id=query_id)[1])

    def events(self, since: int = 0) -> list[dict[str, Any]]:
        """Retained events with ``seq > since``, oldest first."""
        body = self._call("events", since=since)[1].decode()
        return [json.loads(line) for line in body.splitlines()]

    # -- conveniences -------------------------------------------------------------

    def read_all(self, session_id: str, page_bytes: int = 65536) -> str:
        """Drain the session's result, honoring read-rate throttling."""
        if page_bytes <= 0:
            raise ValueError(f"page_bytes must be positive, got {page_bytes}")
        chunks: list[bytes] = []
        while True:
            try:
                chunk, eof = self.read_bytes(session_id, n=page_bytes)
            except Throttled as exc:
                time.sleep(min(exc.retry_after_s, 1.0))
                continue
            chunks.append(chunk)
            if eof:
                return b"".join(chunks).decode()

    def query(
        self,
        statement: str,
        timeout_ms: Optional[float] = None,
        tenant: str = "default",
        max_retries: int = 8,
    ) -> str:
        """One-shot: session open → execute → drain → release."""
        session_id = self.new_session(tenant=tenant)
        try:
            for attempt in range(max_retries + 1):
                try:
                    self.execute_query(
                        session_id, statement, timeout_ms=timeout_ms
                    )
                    break
                except Throttled as exc:
                    if attempt == max_retries:
                        raise
                    time.sleep(min(exc.retry_after_s, 1.0))
            return self.read_all(session_id)
        finally:
            try:
                self.release_session(session_id)
            except ServiceError:
                pass  # already expired: nothing left to leak
