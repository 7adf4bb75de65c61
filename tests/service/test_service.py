"""The HTTP query service: shim verbs, cancellation, admission, killer."""

import http.client
import itertools
import math
import socket
import statistics
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SciArray, SciDB, define_array, define_function
from repro.cluster.resilience import Deadline
from repro.obs.recorder import FlightRecorder, use_flight_recorder
from repro.service import (
    AdmissionConfig,
    QueryService,
    ServiceConfig,
    ServiceError,
    SessionError,
    ShimClient,
)
from repro.service.client import Throttled
from repro.service.server import ResultPager


def make_db(side=8):
    db = SciDB()
    db.execute("define array Remote (s1 = float) (I, J)")
    db.execute(f"create M as Remote [{side}, {side}]")
    m = db.lookup("M")
    for i in range(1, side + 1):
        for j in range(1, side + 1):
            m[i, j] = float(i * side + j)
    return db


@pytest.fixture
def service():
    db = make_db()
    with QueryService(db, ServiceConfig()) as svc:
        yield svc


@pytest.fixture
def client(service):
    host, port = service.address
    with ShimClient(host, port) as c:
        yield c


def slow_statement(db, delay_ms=4.0):
    """A two-operator statement where every cell evaluation sleeps.

    Cancellation is cooperative at operator boundaries, so the test
    statement needs more than one operator — the cancel lands during
    the inner filter and fires at the boundary before the outer one.
    """
    define_function(
        "Sloth",
        inputs=[("v", "float")],
        outputs=[("out", "float")],
        fn=lambda v: (time.sleep(delay_ms / 1e3), v)[1],
        replace=True,
    )
    return "select apply(apply(M, Sloth(s1)), Sloth(out))"


def reference_bytes(value):
    """A result's CSV+ text rendered cell by cell through
    ``SciArray.cells()`` — the loop ``ResultPager`` ran before it read
    planes, kept as the oracle for the pages it renders now."""

    def fmt(v):
        return repr(v) if isinstance(v, float) else str(v)

    if value is None:
        return b"null\n"
    if not isinstance(value, SciArray):
        return (str(value) + "\n").encode()
    dims = ",".join(d.name for d in value.schema.dimensions)
    attrs = ",".join(value.schema.attr_names)
    lines = [f"{{{dims}}} {attrs}\n"]
    for coords, cell in value.cells(include_null=False):
        pos = ",".join(str(c) for c in coords)
        vals = ",".join(fmt(v) for v in cell)
        lines.append(f"{{{pos}}} {vals}\n")
    return "".join(lines).encode()


VALUES = {
    # NaN, the infinities and -0.0 must print as repr() prints them;
    # None is a null attribute value inside a PRESENT cell.
    "float": [
        math.nan, math.inf, -math.inf, -0.0, 0.1, 1 / 3, 1e300, -2.5e-7, None,
    ],
    "float32": [math.nan, math.inf, -0.0, 0.1, 1 / 3, 3e38, None],
    "int64": [0, -1, 7, 2**62, -(2**63)],
    "int32": [0, -1, 7, 2**31 - 1],
    "bool": [True, False],
    "string": ["a", "", "two words", "caf\u00e9", "1,2", "None", None],
}


@st.composite
def results(draw):
    """Anything ``execute`` can hand the pager: ``None``, a non-array
    value, or an array — 1-3 dimensions, extents no chunk side divides,
    an optional unbounded axis, two or more components, and every cell
    EMPTY, NULL (some over stale values) or PRESENT."""
    kind = draw(st.sampled_from(["array"] * 6 + ["none", "text", "number"]))
    if kind != "array":
        return {"none": None, "text": "defined T2\u00e9", "number": 42.5}[kind]
    ndim = draw(st.integers(1, 3))
    extents = draw(st.lists(st.integers(1, 6), min_size=ndim, max_size=ndim))
    chunk = draw(st.lists(st.integers(1, 4), min_size=ndim, max_size=ndim))
    types = draw(
        st.lists(st.sampled_from(sorted(VALUES)), min_size=2, max_size=4)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    attrs = {f"a{i}": t for i, t in enumerate(types)}
    schema = define_array("Paged_t", attrs, list("xyz"[:ndim]))
    sizes = list(extents)
    if draw(st.booleans()):
        sizes[-1] = "*"
    arr = schema.create("paged", sizes, chunk_shape=chunk)

    def record():
        return tuple(VALUES[t][rng.integers(len(VALUES[t]))] for t in types)

    for c in itertools.product(*(range(1, n + 1) for n in extents)):
        roll = rng.random()
        if roll < 0.5 or rng.random() < 0.5:
            arr[c] = record()
        if roll >= 0.75:
            arr.delete(c)  # an EMPTY hole, half of them over a stale value
        elif roll >= 0.5:
            arr.set_null(c)
    return arr


class TestSessionLifecycle:
    def test_open_execute_read_release(self, client):
        sid = client.new_session()
        info = client.execute_query(sid, "select subsample(M, I >= 7)")
        assert info["session"] == sid
        assert info["elapsed_ms"] >= 0
        text = client.read_all(sid)
        lines = text.strip().splitlines()
        assert lines[0] == "{I,J} s1"
        assert len(lines) == 1 + 16  # header + two rows of 8
        client.release_session(sid)
        with pytest.raises(ServiceError) as err:
            client.execute_query(sid, "select subsample(M, I >= 7)")
        assert err.value.status == 404

    def test_result_matches_direct_execution(self, service, client):
        expected = {
            (coords, tuple(cell))
            for coords, cell in service.db.query(
                "select filter(M, s1 > 40)"
            ).cells(include_null=False)
        }
        got = set()
        for line in client.query("select filter(M, s1 > 40)").splitlines()[1:]:
            pos, vals = line.split(" ")
            coords = tuple(int(c) for c in pos.strip("{}").split(","))
            got.add((coords, tuple(float(v) for v in vals.split(","))))
        assert got == expected

    def test_unknown_session_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.read_bytes("deadbeef")
        assert err.value.status == 404

    def test_sessions_are_independent(self, client, service):
        host, port = service.address
        sid_a = client.new_session()
        client.execute_query(sid_a, "select subsample(M, I >= 7)")
        with ShimClient(host, port) as other:
            sid_b = other.new_session()
            other.execute_query(sid_b, "select subsample(M, I <= 2)")
            b_text = other.read_all(sid_b)
        a_text = client.read_all(sid_a)
        assert a_text != b_text
        assert len(a_text.splitlines()) == len(b_text.splitlines())

    def test_idle_sessions_expire(self):
        db = make_db()
        cfg = ServiceConfig(idle_timeout_ms=80, sweep_interval_ms=20)
        with QueryService(db, cfg) as svc:
            host, port = svc.address
            with ShimClient(host, port) as c:
                sid = c.new_session()
                deadline = time.time() + 5
                while svc.sessions.count() and time.time() < deadline:
                    time.sleep(0.02)
                assert svc.sessions.count() == 0
                with pytest.raises(ServiceError) as err:
                    c.execute_query(sid, "select subsample(M, I >= 7)")
                assert err.value.status == 404


class TestPaging:
    def test_small_pages_reassemble(self, service, client):
        sid = client.new_session()
        client.execute_query(sid, "select filter(M, s1 > 0)")
        chunks, eof = [], False
        pages = 0
        while not eof:
            chunk, eof = client.read_bytes(sid, n=48)
            chunks.append(chunk)
            pages += 1
        text = b"".join(chunks).decode()
        assert pages > 5  # genuinely paged
        assert len(text.splitlines()) == 1 + 64
        client.release_session(sid)

    def test_non_array_results_serialize(self, client):
        out = client.query("define array T2 (v = float) (x)")
        assert "T2" in out

    def test_pager_unread_is_lossless(self):
        pager = ResultPager(None)
        first = pager.read(3)
        pager.unread(first)
        assert pager.read(100) == b"null\n"
        assert pager.eof

    @given(results(), st.integers(1, 65536), st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_pages_from_planes_equal_pages_from_cells(self, value, n, seed):
        want = reference_bytes(value)
        rng = np.random.default_rng(seed)
        pager = ResultPager(value)
        got = []
        while not pager.eof:
            page = pager.read(n)
            assert len(page) <= n
            assert page or pager.eof  # an empty page only at the end
            if rng.random() < 0.3:  # any page can be pushed back whole
                served = pager.bytes_served
                pager.unread(page)
                assert pager.bytes_served == served - len(page)
                assert not pager.eof or not page
                assert pager.read(n) == page
            got.append(page)
        assert b"".join(got) == want
        assert pager.bytes_served == len(want)
        assert pager.read(n) == b"" and pager.eof

    def test_a_small_page_renders_at_most_one_chunk(self, monkeypatch):
        schema = define_array("Lazy_t", {"v": "int64", "w": "float"}, ["x"])
        arr = schema.create("lazy", [16], chunk_shape=[4])
        for x in range(1, 17):
            arr[x] = (x, x / 4)
        want = reference_bytes(arr)
        consumed = []
        blocks = SciArray.blocks

        def counted(self, attrs=None):
            for block in blocks(self, attrs):
                consumed.append(block[0])
                yield block

        monkeypatch.setattr(SciArray, "blocks", counted)
        pager = ResultPager(arr)
        header = pager.read(len(b"{x} v,w\n"))
        assert header == b"{x} v,w\n" and consumed == []
        assert pager.read(5) == want[len(header):][:5]
        assert consumed == [(1,)]  # one small page, one chunk's text
        rest = pager.read(1 << 20)
        assert header + want[len(header):][:5] + rest == want
        assert consumed == [(1,), (5,), (9,), (13,)] and pager.eof

    def test_paging_never_asks_for_cells(self, service, client, monkeypatch):
        """The cliff stays closed (PR 14's idiom), through the front door."""
        statement = "select subsample(M, I >= 3)"
        want = reference_bytes(service.db.query(statement)).decode()
        assert len(want.splitlines()) == 1 + 48

        def cells_requested(self, include_null=True):
            raise AssertionError("the pager asked for cells")

        monkeypatch.setattr(SciArray, "cells", cells_requested)
        sid = client.new_session()
        client.execute_query(sid, statement)
        assert client.read_all(sid, page_bytes=100) == want


class TestErrors:
    def test_parse_error_is_400(self, client):
        sid = client.new_session()
        with pytest.raises(ServiceError) as err:
            client.execute_query(sid, "select nonsense ,,, from ???")
        assert err.value.status == 400
        # ...and the session survives the failed statement.
        client.execute_query(sid, "select subsample(M, I >= 7)")

    def test_unknown_attribute_is_a_typed_400(self, service, client):
        sid = client.new_session()
        with pytest.raises(ServiceError) as err:
            client.execute_query(sid, "select filter(M, w > 5)")
        assert err.value.status == 400
        assert "SchemaError" in str(err.value) and "attributes: s1" in str(err.value)
        client.execute_query(sid, "select filter(M, s1 > 5)")
        client.release_session(sid)
        assert service.sessions.count() == 0

    def test_timeout_is_408(self, client):
        sid = client.new_session()
        with pytest.raises(ServiceError) as err:
            client.execute_query(
                sid, "select filter(M, s1 > 0)", timeout_ms=1e-4
            )
        assert err.value.status == 408

    def test_planner_flags_accepted(self, client):
        sid = client.new_session()
        client.execute_query(
            sid, "select filter(M, s1 > 40)", enable_pruning=False
        )
        text = client.read_all(sid)
        assert len(text.splitlines()) > 1

    @pytest.mark.parametrize("n", ["abc", "1.5", "nan", "0", "-5"])
    def test_malformed_page_size_is_400(self, client, n):
        sid = client.new_session()
        client.execute_query(sid, "select subsample(M, I >= 7)")
        with pytest.raises(ServiceError) as err:
            client.read_bytes(sid, n=n)
        assert err.value.status == 400
        # ...and the result is still there, whole.
        assert len(client.read_all(sid).splitlines()) == 1 + 16

    @pytest.mark.parametrize("timeout_ms", ["soon", "nan", "inf", "0", "-1"])
    def test_malformed_timeout_is_400(self, service, client, timeout_ms):
        sid = client.new_session()
        with pytest.raises(ServiceError) as err:
            client.execute_query(
                sid, "select subsample(M, I >= 7)", timeout_ms=timeout_ms
            )
        assert err.value.status == 400
        assert service.queries_served == 0

    @pytest.mark.parametrize("page_bytes", [0, -5])
    def test_read_all_refuses_a_page_that_cannot_progress(self, page_bytes):
        # Nothing listens on port 1: a request would raise OSError instead.
        with ShimClient("127.0.0.1", 1) as c:
            with pytest.raises(ValueError):
                c.read_all("any", page_bytes=page_bytes)

    @pytest.mark.parametrize("length", ["abc", "-5", "1e3"])
    def test_malformed_content_length_is_400_and_closes(self, service, length):
        host, port = service.address
        with ShimClient(host, port) as c:
            sid = c.new_session()
            conn = http.client.HTTPConnection(host, port, timeout=5)
            try:
                headers = {"Content-Length": length}
                conn.request("POST", f"/cancel?id={sid}", headers=headers)
                response = conn.getresponse()
                assert response.status == 400
                assert response.getheader("Connection") == "close"
                assert b"Content-Length" in response.read()
            finally:
                conn.close()
            assert service.sessions.count() == 1
            assert c.cancel(sid) is False  # the server is still answering


class TestTransport:
    """One segment per response, pinned without a timer: written as two
    small segments on a keep-alive socket, a response body waits out the
    client's delayed-ACK timer (44 ms a request)."""

    @pytest.fixture
    def sends(self, service, monkeypatch):
        """``TCP_NODELAY`` of the accepted socket, logged once per
        ``send``/``sendall`` the server makes on it."""
        port = service.address[1]
        log = []

        def logged(name):
            real = getattr(socket.socket, name)

            def method(sock, data, *flags):
                if sock.getsockname()[1] == port:
                    log.append(
                        sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                    )
                return real(sock, data, *flags)

            return method

        monkeypatch.setattr(socket.socket, "send", logged("send"))
        monkeypatch.setattr(socket.socket, "sendall", logged("sendall"))
        return log

    def test_every_response_is_one_send_with_nagle_off(self, client, sends):
        sid = client.new_session()
        verbs = [
            lambda: client.execute_query(sid, "select filter(M, s1 > 0)"),
            lambda: client.read_bytes(sid, n=48),
            lambda: client.read_all(sid),
            lambda: client.cancel(sid),
            lambda: client.status(),
            lambda: client.release_session(sid),
            lambda: pytest.raises(ServiceError, client.cancel, sid),  # 404
        ]
        assert len(sends) == 1  # new_session
        for expected, verb in enumerate(verbs, start=2):
            verb()
            assert len(sends) == expected, "a response took several sends"
        assert all(sends), "TCP_NODELAY is off on an accepted socket"

    def test_keepalive_round_trip_is_not_timer_bound(self, client):
        sid = client.new_session()
        trips = []
        for _ in range(30):
            t0 = time.perf_counter()
            client.cancel(sid)
            trips.append((time.perf_counter() - t0) * 1e3)
        # 44 ms with the delayed-ACK stall, ~0.3 ms without it
        assert statistics.median(trips) < 10


class TestCancellation:
    def test_cancel_stops_running_statement(self, service, client):
        statement = slow_statement(service.db)
        host, port = service.address
        sid = client.new_session()
        outcome = {}

        def run():
            try:
                client.execute_query(sid, statement)
                outcome["status"] = 200
            except ServiceError as exc:
                outcome["status"] = exc.status

        worker = threading.Thread(target=run)
        worker.start()
        with ShimClient(host, port) as killer:
            deadline = time.time() + 5
            cancelled = False
            while not cancelled and time.time() < deadline:
                cancelled = killer.cancel(sid)
                time.sleep(0.01)
        worker.join(timeout=10)
        assert cancelled
        assert outcome["status"] == 409

    def test_cancel_idle_session_is_noop(self, client):
        sid = client.new_session()
        assert client.cancel(sid) is False

    def test_killer_reaps_runaway_statement(self):
        """The housekeeping thread kills a runaway (409), and it and a
        throttled statement (429) are each accounted for from HTTP
        alone: the error body's query id is the key into /profile and
        the id on the /events line; the rejection is in /events and
        /metrics."""
        db = make_db()
        statement = slow_statement(db, delay_ms=10.0)
        cfg = ServiceConfig(
            kill_after_ms=120,
            sweep_interval_ms=25,
            admission=AdmissionConfig(max_concurrent=1),
        )
        throttled = []

        def second_client(host, port):
            # the tenant's one slot is taken while the runaway runs
            with ShimClient(host, port) as c2:
                sid2 = c2.new_session()
                deadline = time.time() + 5
                while not throttled and time.time() < deadline:
                    try:
                        c2.execute_query(sid2, "select subsample(M, I >= 7)")
                        time.sleep(0.005)
                    except Throttled as exc:
                        throttled.append(exc)

        with use_flight_recorder(FlightRecorder()), QueryService(db, cfg) as svc:
            other = threading.Thread(target=second_client, args=svc.address)
            with ShimClient(*svc.address) as c:
                ok = c.execute_query(c.new_session(), "select subsample(M, I >= 7)")
                assert c.profile(ok["query_id"])["error"] is None
                other.start()
                with pytest.raises(ServiceError) as err:
                    c.execute_query(c.new_session(), statement)
                other.join(timeout=10)
                killed = err.value.query_id
                assert err.value.status == 409
                assert "killed by service" in str(err.value)
                assert svc.queries_killed == 1
                assert killed and killed != ok["query_id"]

                profile = c.profile(killed)
                assert profile["statement"] == statement
                assert profile["error"].startswith("QueryCancelledError")
                assert "killed by service" in profile["error"]
                # the operator tree, with the operator that was cut short
                assert profile["operators"]["op"] == "apply"
                assert "-> apply" in profile["rendered"]
                assert "QueryCancelledError" in profile["rendered"]
                assert "phases: query" in profile["rendered"]

                events = c.events()
                (kill,) = [e for e in events if e["kind"] == "service.query_kill"]
                assert kill["query_id"] == killed
                assert not c.events(since=events[-1]["seq"])
                rejects = [
                    e for e in events if e["kind"] == "service.admission_reject"
                ]
                assert throttled and rejects
                assert "query_id" not in rejects[0]  # never admitted
                assert (
                    'repro_flight_events_total{kind="service.admission_reject"} '
                    f"{len(rejects)}\n"
                ) in c.metrics()
                with pytest.raises(ServiceError) as gone:
                    c.profile("q-999999")
                assert gone.value.status == 404


class TestAdmission:
    def test_concurrency_cap_yields_429_with_retry_after(self, service):
        host, port = service.address
        service.admission.acquire_query("default")
        try:
            # Fill the remaining slots, then overflow.
            for _ in range(service.config.admission.max_concurrent - 1):
                service.admission.acquire_query("default")
            with ShimClient(host, port) as c:
                sid = c.new_session()
                with pytest.raises(Throttled) as err:
                    c.execute_query(sid, "select subsample(M, I >= 7)")
                assert err.value.retry_after_s > 0
        finally:
            for _ in range(service.config.admission.max_concurrent):
                service.admission.release_query("default", 5.0)

    def test_tenants_do_not_share_the_cap(self, service):
        host, port = service.address
        cap = service.config.admission.max_concurrent
        for _ in range(cap):
            service.admission.acquire_query("tenant-a")
        try:
            with ShimClient(host, port) as c:
                sid = c.new_session(tenant="tenant-b")
                c.execute_query(sid, "select subsample(M, I >= 7)")  # admitted
        finally:
            for _ in range(cap):
                service.admission.release_query("tenant-a", 5.0)

    def test_read_throttling_recovers(self):
        db = make_db()
        cfg = ServiceConfig(
            admission=AdmissionConfig(
                max_concurrent=4, bytes_per_sec=1000.0, burst_bytes=64.0
            )
        )
        with QueryService(db, cfg) as svc:
            host, port = svc.address
            with ShimClient(host, port) as c:
                sid = c.new_session()
                c.execute_query(sid, "select subsample(M, I >= 7)")
                with pytest.raises(Throttled):
                    while True:  # burst is 64 B; the result is ~190 B
                        chunk, eof = c.read_bytes(sid, n=64)
                        assert not eof
                # read_all retries after the hinted delay and drains it.
                rest = c.read_all(sid, page_bytes=64)
                assert rest
            assert svc.admission.rejected_reads >= 1

    def test_status_reports_counts(self, service, client):
        client.query("select subsample(M, I >= 7)")
        status = client.status()
        assert status["queries_served"] >= 1
        assert status["sessions"] == 0  # one-shot released its session


class TestSessionManagerUnit:
    def test_release_unknown_raises(self, service):
        with pytest.raises(SessionError):
            service.sessions.release("nope")

    def test_running_sessions_survive_idle_sweep(self, service):
        session = service.sessions.open()
        session.deadline = Deadline.unbounded()
        session.last_used = 0.0  # ancient
        swept = service.sessions.sweep_idle()
        assert session not in swept
        session.deadline = None
        swept = service.sessions.sweep_idle()
        assert session in swept
