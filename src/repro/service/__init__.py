"""The HTTP query service front-end (ROADMAP item 1).

SciDB's client bindings (SciDB-Py and friends) speak the *shim*
protocol: a tiny session-oriented HTTP surface with five verbs —
``new_session``, ``execute_query``, ``read_bytes``, ``cancel`` and
``release_session``.  This package puts that surface in front of a
:class:`~repro.database.SciDB` instance using only the standard
library:

* :mod:`repro.service.session` — session registry with idle expiry
  and per-session running-query state (the cancellation handle).
* :mod:`repro.service.admission` — per-tenant concurrency caps and
  byte-rate token buckets; overload turns into a 429 with a
  ``Retry-After`` hint instead of a pile-up.
* :mod:`repro.service.server` — the threaded HTTP server, result
  pager, and the housekeeping thread (idle sweep + slow-query killer).
* :mod:`repro.service.client` — a small shim client used by the tests
  and the ``svc_small`` benchmark workload (``perf/``).
"""

from .admission import AdmissionConfig, AdmissionController, AdmissionReject
from .client import ServiceError, ShimClient
from .server import QueryService, ServiceConfig
from .session import Session, SessionError, SessionManager

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionReject",
    "QueryService",
    "ServiceConfig",
    "ServiceError",
    "Session",
    "SessionError",
    "SessionManager",
    "ShimClient",
]
