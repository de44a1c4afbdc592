"""Wire-protocol validation and fuzz smoke (:mod:`repro.service.protocol`).

Two layers: pure validation (``parse_request`` / ``decode_line`` raise
:class:`ProtocolError` with the right code) and the live fuzz smoke —
every malformed input fed to a running daemon gets a structured error
frame, never a traceback, never a wedged connection.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from contextlib import contextmanager

import pytest

from repro.analysis import SweepEngine
from repro.core.store import graph_fingerprint
from repro.graphs import dwt_graph, mvm_graph
from repro.service import SchedulingDaemon
from repro.service.protocol import (MAX_FRAME_BYTES, ProtocolError,
                                    ServiceClient, decode_line, encode,
                                    parse_request, resolve_graph,
                                    resolve_scheduler)

DWT8 = {"family": "dwt", "n": 8, "d": 2}


def code_of(obj) -> str:
    with pytest.raises(ProtocolError) as err:
        parse_request(obj)
    return err.value.code


class TestValidation:

    def test_minimal_probe_parses(self):
        req = parse_request({"verb": "probe", "graph": DWT8,
                             "strategy": "dwt-optimal", "budget": 64})
        assert req.verb == "probe" and req.budget == 64
        assert req.tenant == "default" and not req.stream
        assert req.graph["weights"] == "equal"  # canonical default

    def test_strategy_string_and_object_canonicalize_identically(self):
        a = parse_request({"verb": "probe", "graph": DWT8,
                           "strategy": "greedy", "budget": 8})
        b = parse_request({"verb": "probe", "graph": DWT8,
                           "strategy": {"name": "greedy"}, "budget": 8})
        assert a.instance_key == b.instance_key

    @pytest.mark.parametrize("mutate, want", [
        (lambda o: o.update(verb="zap"), "unknown-verb"),
        (lambda o: o.pop("verb"), "unknown-verb"),
        (lambda o: o.update(graph=None), "bad-request"),
        (lambda o: o.update(graph={"family": "nope", "n": 4}),
         "bad-request"),
        (lambda o: o.update(graph={"family": "dwt", "n": 0, "d": 2}),
         "bad-request"),
        (lambda o: o.update(graph={"family": "dwt", "n": 10 ** 9,
                                   "d": 2}), "bad-request"),
        (lambda o: o.update(graph={"family": "dwt", "n": True, "d": 2}),
         "bad-request"),
        (lambda o: o.update(graph={"family": "dwt", "n": 4, "d": 2,
                                   "evil": 1}), "bad-request"),
        (lambda o: o.update(graph={"family": "dwt", "n": 4, "d": 2,
                                   "weights": "gold"}), "bad-request"),
        (lambda o: o.update(strategy="nope"), "bad-request"),
        (lambda o: o.update(strategy={"name": "greedy", "evil": 1}),
         "bad-request"),
        (lambda o: o.update(budget="lots"), "bad-request"),
        (lambda o: o.update(budget=True), "bad-request"),
        (lambda o: o.update(budget=-1), "bad-request"),
        (lambda o: o.update(tenant=""), "bad-request"),
        (lambda o: o.update(tenant="x" * 100), "bad-request"),
        (lambda o: o.update(deadline=-2), "bad-request"),
        (lambda o: o.update(mem_limit_mb=0), "bad-request"),
        (lambda o: o.update(id={"not": "scalar"}), "bad-request"),
        (lambda o: o.update(budget=0), "bad-request"),
    ])
    def test_bad_probe_requests(self, mutate, want):
        obj = {"verb": "probe", "graph": dict(DWT8),
               "strategy": "dwt-optimal", "budget": 64}
        mutate(obj)
        assert code_of(obj) == want

    @pytest.mark.parametrize("budgets", [None, [], "48", [48, "x"],
                                         [48, True], list(range(300)),
                                         [48, 0]])
    def test_bad_sweep_budgets(self, budgets):
        assert code_of({"verb": "sweep", "graph": dict(DWT8),
                        "strategy": "greedy",
                        "budgets": budgets}) == "bad-request"

    @pytest.mark.parametrize("extra", [{}, {"budget": 64}],
                             ids=["budgets-only", "with-budget"])
    def test_probe_budgets_list_names_sweep(self, extra):
        # Many budgets go through ``sweep``; a ``budgets`` list on a
        # probe is refused, never silently dropped beside ``budget``.
        with pytest.raises(ProtocolError) as err:
            parse_request({"verb": "probe", "graph": dict(DWT8),
                           "strategy": "dwt-optimal",
                           "budgets": [48, 64], **extra})
        assert err.value.code == "bad-request"
        assert "sweep" in err.value.message

    def test_decode_line_errors(self):
        with pytest.raises(ProtocolError) as e:
            decode_line(b"not json")
        assert e.value.code == "invalid-json"
        with pytest.raises(ProtocolError) as e:
            decode_line(b"\xff\xfe{}")
        assert e.value.code == "invalid-json"
        with pytest.raises(ProtocolError) as e:
            decode_line(b"[1, 2, 3]")
        assert e.value.code == "bad-request"
        with pytest.raises(ProtocolError) as e:
            decode_line(b"x" * (MAX_FRAME_BYTES + 1))
        assert e.value.code == "frame-too-large"

    def test_error_frames_are_strict_json(self):
        frame = ProtocolError("overloaded", "busy",
                              retry_after=0.5).frame(id=7)
        wire = encode(frame)
        back = json.loads(wire)
        assert back["error"]["code"] == "overloaded"
        assert back["error"]["retry_after"] == 0.5 and back["id"] == 7


class TestResolution:

    def test_resolved_graphs_match_cli_built_fingerprints(self):
        from repro.core import double_accumulator, equal
        cases = [
            ({"family": "dwt", "n": 8, "d": 2, "weights": "equal"},
             dwt_graph(8, 2, weights=equal())),
            ({"family": "mvm", "m": 3, "n": 2, "weights": "da"},
             mvm_graph(3, 2, weights=double_accumulator())),
        ]
        for spec, want in cases:
            got = resolve_graph(parse_request(
                {"verb": "probe", "graph": spec, "strategy": "greedy",
                 "budget": 1}).graph)
            assert graph_fingerprint(got) == graph_fingerprint(want)

    def test_resolved_schedulers_carry_stable_cache_keys(self):
        a = resolve_scheduler({"name": "exhaustive", "max_nodes": 20})
        b = resolve_scheduler({"name": "exhaustive", "max_nodes": 20})
        c = resolve_scheduler({"name": "exhaustive"})
        assert a.cache_key() == b.cache_key()
        assert a.cache_key() != c.cache_key()


# --------------------------------------------------------------------- #
# Live fuzz smoke


def fuzz_daemon(body):
    engine = SweepEngine()

    async def main():
        daemon = SchedulingDaemon(engine, close_engine=False)
        await daemon.start()
        try:
            return await body(daemon)
        finally:
            await daemon.shutdown()
    try:
        return asyncio.run(main())
    finally:
        engine.close()


async def raw_exchange(port, payload: bytes, timeout=10.0):
    """Ship raw bytes; read one response line (None on clean EOF)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(payload)
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), timeout)
        return json.loads(line) if line else None
    finally:
        writer.close()


async def valid_probe_roundtrip(port):
    frame = await raw_exchange(port, encode(
        {"verb": "probe", "graph": DWT8, "strategy": "dwt-optimal",
         "budget": 64}))
    assert frame is not None and frame["ok"], frame
    return frame


MALFORMED = [
    pytest.param(b"not json at all\n", "invalid-json", id="garbage"),
    pytest.param(b"\xff\xfe\xfd{}\n", "invalid-json", id="non-utf8"),
    pytest.param(b"[1, 2, 3]\n", "bad-request", id="non-object"),
    pytest.param(b'"just a string"\n', "bad-request", id="string"),
    pytest.param(b'{"verb": "zap"}\n', "unknown-verb", id="unknown-verb"),
    pytest.param(b'{}\n', "unknown-verb", id="empty-object"),
    pytest.param(b'{"verb": "probe"}\n', "bad-request", id="no-graph"),
    pytest.param(
        b'{"verb": "probe", "graph": {"family": "dwt", "n": 8, "d": 2}, '
        b'"strategy": "dwt-optimal", "budget": "many"}\n',
        "bad-request", id="string-budget"),
    pytest.param(
        b'{"verb": "probe", "graph": {"family": "dwt", "n": 999999999, '
        b'"d": 2}, "strategy": "dwt-optimal", "budget": 8}\n',
        "bad-request", id="oversized-graph-param"),
]


class TestFuzzSmoke:

    @pytest.mark.parametrize("payload, want_code", MALFORMED)
    def test_malformed_input_gets_structured_error(self, payload,
                                                   want_code):
        async def body(daemon):
            frame = await raw_exchange(daemon.port, payload)
            assert frame is not None, "daemon closed without answering"
            assert frame["ok"] is False
            assert frame["error"]["code"] == want_code
            assert "Traceback" not in json.dumps(frame)
            # The daemon survives: a fresh valid request still works.
            await valid_probe_roundtrip(daemon.port)
            assert daemon.internal_errors == 0
        fuzz_daemon(body)

    def test_oversized_frame_errors_then_closes(self):
        async def body(daemon):
            blob = b'{"verb": "probe", "pad": "' \
                   + b"x" * (MAX_FRAME_BYTES + 100) + b'"}\n'
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon.port)
            try:
                writer.write(blob)
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), 10.0)
                frame = json.loads(line)
                assert frame["ok"] is False
                assert frame["error"]["code"] == "frame-too-large"
                # The stream cannot be resynchronized: EOF follows.
                tail = await asyncio.wait_for(reader.read(), 10.0)
                assert tail == b""
            finally:
                writer.close()
            await valid_probe_roundtrip(daemon.port)  # daemon survives
        fuzz_daemon(body)

    def test_truncated_frame_then_eof_does_not_wedge(self):
        async def body(daemon):
            _, writer = await asyncio.open_connection(
                "127.0.0.1", daemon.port)
            writer.write(b'{"verb": "probe", "graph"')  # no newline
            await writer.drain()
            writer.close()  # client dies mid-frame
            await asyncio.sleep(0.05)
            await valid_probe_roundtrip(daemon.port)
            assert daemon.internal_errors == 0
        fuzz_daemon(body)

    def test_blank_lines_are_tolerated(self):
        async def body(daemon):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon.port)
            try:
                writer.write(b"\n\n" + encode(
                    {"verb": "health"}) + b"\n")
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), 10.0)
                assert json.loads(line)["ok"]
            finally:
                writer.close()
        fuzz_daemon(body)

    def test_pipelined_requests_answer_with_matching_ids(self):
        async def body(daemon):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon.port)
            try:
                for i in range(4):
                    writer.write(encode(
                        {"verb": "probe", "graph": DWT8,
                         "strategy": "dwt-optimal",
                         "budget": 64 + 16 * i, "id": i}))
                await writer.drain()
                seen = set()
                for _ in range(4):
                    frame = json.loads(await asyncio.wait_for(
                        reader.readline(), 15.0))
                    assert frame["ok"]
                    seen.add(frame["id"])
                assert seen == {0, 1, 2, 3}
            finally:
                writer.close()
        fuzz_daemon(body)


# --------------------------------------------------------------------- #
# Client hardening (the ServiceClient side of the wire)


@contextmanager
def byte_server(behavior):
    """One-connection stub: ``behavior(conn)`` runs in a thread after a
    client connects.  Yields the port."""
    srv = socket.socket()
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    srv.bind(("127.0.0.1", 0))
    srv.listen(4)
    done = threading.Event()

    def serve():
        try:
            srv.settimeout(10.0)
            conn, _ = srv.accept()
        except OSError:
            return
        finally:
            done.set()
        try:
            behavior(conn)
        except OSError:
            pass
    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield srv.getsockname()[1]
    finally:
        srv.close()
        thread.join(5)


def read_request(conn):
    """Consume the client's request line first: closing a socket with
    unread data sends RST, which would race the behavior under test."""
    conn.settimeout(10.0)
    buf = b""
    while b"\n" not in buf:
        data = conn.recv(4096)
        if not data:
            return buf
        buf += data
    return buf


class TestClientHardening:

    def test_recv_enforces_the_frame_cap(self):
        # Regression: a peer that streams 2 MiB without a newline used
        # to grow the client's buffer without bound; now the client
        # mirrors the server's 1 MiB cap and fails structurally.
        def behavior(conn):
            read_request(conn)
            conn.sendall(b"x" * (2 * MAX_FRAME_BYTES))
            conn.close()
        with byte_server(behavior) as port:
            c = ServiceClient("127.0.0.1", port, timeout=10.0)
            with pytest.raises(ProtocolError) as err:
                c.request({"verb": "health"})
            assert err.value.code == "frame-too-large"
            assert c.poisoned
            with pytest.raises(ConnectionError):
                c.request({"verb": "health"})
            c.close()

    def test_timeout_poisons_the_connection(self):
        # Regression: after a receive timeout the late reply is still in
        # flight; reusing the socket would pair it with the *next*
        # request.  The client must refuse reuse, not desync.
        release = threading.Event()

        def behavior(conn):
            read_request(conn)
            release.wait(10)
            # the stale answer to request 1 arrives late
            conn.sendall(b'{"id": 1, "ok": true, "final": true, '
                         b'"result": {"stale": true}}\n')
            conn.close()
        with byte_server(behavior) as port:
            c = ServiceClient("127.0.0.1", port, timeout=0.3)
            with pytest.raises(OSError):
                c.request({"verb": "health", "id": 1})
            assert c.poisoned
            release.set()
            with pytest.raises(ConnectionError):
                # the stale frame must never be served as this answer
                c.request({"verb": "stats", "id": 2})
            c.close()
            c.close()  # idempotent

    def test_unparseable_frame_is_structured_and_poisons(self):
        def behavior(conn):
            read_request(conn)
            conn.sendall(b"this is not json\n")
            conn.close()
        with byte_server(behavior) as port:
            c = ServiceClient("127.0.0.1", port, timeout=10.0)
            with pytest.raises(ProtocolError) as err:
                c.request({"verb": "health"})
            assert err.value.code == "invalid-json"
            assert c.poisoned
            c.close()

    def test_eof_mid_frame_poisons(self):
        def behavior(conn):
            read_request(conn)
            conn.sendall(b'{"ok": true, "fin')  # torn: no newline
            conn.close()
        with byte_server(behavior) as port:
            c = ServiceClient("127.0.0.1", port, timeout=10.0)
            with pytest.raises(ConnectionError):
                c.request({"verb": "health"})
            assert c.poisoned
            c.close()

    def test_context_manager_closes(self):
        def behavior(conn):
            read_request(conn)
            conn.sendall(b'{"ok": true, "final": true, "verb": "health",'
                         b' "id": null, "result": {}}\n')
            conn.close()
        with byte_server(behavior) as port:
            with ServiceClient("127.0.0.1", port, timeout=10.0) as c:
                assert c.request({"verb": "health"})[-1]["ok"]
            with pytest.raises(OSError):
                c.sock.getpeername()  # socket really closed


class TestRequestId:

    def test_request_id_is_parsed_and_optional(self):
        req = parse_request({"verb": "probe", "graph": DWT8,
                             "strategy": "dwt-optimal", "budget": 64,
                             "request_id": "rc-1-0"})
        assert req.request_id == "rc-1-0"
        req = parse_request({"verb": "probe", "graph": DWT8,
                             "strategy": "dwt-optimal", "budget": 64})
        assert req.request_id is None

    def test_request_id_survives_the_health_fast_path(self):
        assert parse_request({"verb": "health",
                              "request_id": "h-1"}).request_id == "h-1"

    @pytest.mark.parametrize("bad", [17, "", "x" * 129, ["rid"], {}])
    def test_invalid_request_id_is_bad_request(self, bad):
        assert code_of({"verb": "probe", "graph": DWT8,
                        "strategy": "dwt-optimal", "budget": 64,
                        "request_id": bad}) == "bad-request"
