"""Socket and stdin front-end: protocol, errors, scrape, concurrent clients.

Each socket test runs a real
:class:`~repro.service.shard.server.ServiceServer` over one
:class:`~repro.service.session.AllocationSession` on an ephemeral port,
its loop on a thread of its own, and talks to it over a plain socket —
the same wire a ``repro serve --listen`` client sees.
"""

import json
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from repro.core.registry import make_algorithm
from repro.machines.tree import TreeMachine
from repro.service import AllocationSession, parse_exposition
from repro.service.shard.server import _LINE_LIMIT, ServiceServer, StdioServer
from repro.sim.frames import decode_journal

N = 64


def _session_backend(journal=None):
    machine = TreeMachine(N)
    return AllocationSession(
        machine, make_algorithm("greedy", machine, d=2.0), journal_path=journal
    )


@contextmanager
def _running(server):
    """Start ``server``, run its loop on a thread and yield its address;
    stop and close it on exit."""
    address = server.start()
    loop = threading.Thread(target=server.serve_forever, daemon=True)
    loop.start()
    try:
        yield address
    finally:
        server.stop()
        loop.join(timeout=10)
        assert not loop.is_alive()
        server.close()


def _connect(address, rcvbuf=None):
    conn = socket.socket()
    if rcvbuf is not None:  # before connect, so the window starts small
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    conn.settimeout(10)
    conn.connect(address)
    return conn


def _send_all(conn, lines):
    conn.sendall(b"".join(line + b"\n" for line in lines))


def _until_eof(conn):
    """Half-close ``conn``, then every reply line until the server closes."""
    conn.shutdown(socket.SHUT_WR)
    return [json.loads(raw) for raw in conn.makefile("rb")]


def _roundtrip(server, lines):
    """Send ``lines`` to a server, return every reply line."""
    with _running(server) as address, _connect(address) as conn:
        _send_all(conn, [line.encode() for line in lines])
        return _until_eof(conn)


def _serve(backend, lines, **kwargs):
    try:
        return _roundtrip(ServiceServer(backend, **kwargs), lines)
    finally:
        backend.close()


class TestEventStream:
    def test_decisions_match_oracle(self):
        records = [
            {"kind": "arrival", "time": 0.0, "id": 0, "size": 4},
            {"kind": "arrival", "time": 1.0, "id": 1, "size": N},
            {"kind": "departure", "time": 2.0, "id": 0},
        ]
        oracle = _session_backend()
        expected = [oracle.push(dict(r)).to_dict() for r in records]
        oracle.close()
        replies = _serve(
            _session_backend(), [json.dumps(r) for r in records]
        )
        assert replies == expected

    def test_blank_and_comment_lines_skipped(self):
        replies = _serve(
            _session_backend(),
            ["", "# comment",
             json.dumps({"kind": "arrival", "time": 0.0, "id": 0, "size": 1})],
        )
        assert len(replies) == 1 and replies[0]["task_id"] == 0

    def test_status_and_snapshot_ops(self):
        replies = _serve(
            _session_backend(),
            [json.dumps({"kind": "arrival", "time": 0.0, "id": 0, "size": 1}),
             json.dumps({"op": "status"}),
             json.dumps({"op": "snapshot"})],
        )
        assert replies[1]["events"] == 1
        assert replies[1]["active_tasks"] == 1
        assert replies[2]["kind"] == "repro-kernel-state"


class TestStructuredErrors:
    def test_unroutable_kind_names_the_op(self):
        # A fault event on a session without --faults is refused, and the
        # error names the event kind.
        replies = _serve(
            _session_backend(),
            [json.dumps({"kind": "failure", "time": 0.0, "node": 1})],
        )
        assert replies == [
            {"error": replies[0]["error"], "op": "failure", "line": 1}
        ]
        assert "fault-tolerant" in replies[0]["error"]

    def test_unknown_op_names_the_op_and_line(self):
        replies = _serve(
            _session_backend(),
            ["# leading comment", json.dumps({"op": "explode"})],
        )
        assert replies[0]["op"] == "explode"
        assert replies[0]["line"] == 2

    def test_invalid_json_reports_line(self):
        replies = _serve(_session_backend(), ["{not json"])
        assert replies[0]["op"] is None
        assert replies[0]["line"] == 1
        assert "invalid JSON" in replies[0]["error"]

    def test_single_session_backend_same_protocol(self):
        replies = _serve(
            _session_backend(),
            [json.dumps({"kind": "arrival", "time": 0.0, "id": 0, "size": 2}),
             json.dumps({"kind": "bogus", "time": 0.0})],
        )
        assert replies[0]["task_id"] == 0
        assert replies[1]["op"] == "bogus" and replies[1]["line"] == 2

    def test_save_is_refused_on_the_socket(self, tmp_path):
        target = tmp_path / "run.json"
        replies = _serve(
            _session_backend(),
            [json.dumps({"op": "save", "path": str(target)})],
        )
        assert replies[0]["op"] == "save" and "unknown op" in replies[0]["error"]
        assert not target.exists()

    def test_overlong_line_is_refused_and_the_server_stays_up(self):
        backend = _session_backend()

        def client(address, lines):
            with _connect(address) as conn:
                _send_all(conn, lines)
                return _until_eof(conn)

        arrival = json.dumps(
            {"kind": "arrival", "time": 0.0, "id": 0, "size": 1}
        ).encode()
        long_line = b'{"kind": "arrival", "pad": "' + b"x" * 200_000 + b'"}'
        with _running(ServiceServer(backend)) as address:
            refused = client(address, [b"# comment", long_line, arrival])
            served = client(address, [arrival])
        backend.close()
        assert refused == [
            {"error": "line longer than 65536 bytes", "op": None, "line": 2}
        ]
        assert served[0]["task_id"] == 0

    def test_deeply_nested_line_is_refused_and_the_server_stays_up(self):
        # Nesting deeper than the interpreter's stack makes json.loads
        # raise RecursionError; it must end that line, not the loop.
        backend = _session_backend()
        nested = b"[" * 30_000 + b"]" * 30_000
        arrival = {"kind": "arrival", "time": 0.0, "id": 0, "size": 1}
        with _running(ServiceServer(backend)) as address:
            with _connect(address) as first:
                _send_all(first, [nested, b'{"op": ' + nested + b"}"])
                refused = _until_eof(first)
            with _connect(address) as second:
                served = _roundtrip_line(second, second.makefile("rb"), arrival)
        backend.close()
        assert [(r["op"], r["line"]) for r in refused] == [(None, 1), (None, 2)]
        assert all(r["error"].startswith("invalid JSON") for r in refused)
        assert served["task_id"] == 0

    def test_refused_client_that_goes_quiet_is_closed(self):
        """After a refused line the server discards for at most a second,
        even if the client then neither sends nor closes."""
        backend = _session_backend()
        server = ServiceServer(backend)
        with _running(server) as address, _connect(address) as conn:
            conn.sendall(b"x" * (2 * _LINE_LIMIT))
            replies = conn.makefile("rb")
            assert json.loads(replies.readline())["op"] is None
            assert replies.readline() == b""  # half-closed by the server
            deadline = time.monotonic() + 10
            while server.connections and time.monotonic() < deadline:
                time.sleep(0.05)
            assert server.connections == 0
        backend.close()


class TestListenAddresses:
    def test_every_address_of_the_host_is_served_on_one_port(self, monkeypatch):
        real = socket.getaddrinfo

        def two_addresses(host, port, *args, **kwargs):
            assert host == "loopback"
            return [*real("127.0.0.1", port, *args, **kwargs),
                    *real("127.0.0.2", port, *args, **kwargs)]

        monkeypatch.setattr(socket, "getaddrinfo", two_addresses)
        backend = _session_backend()
        with _running(ServiceServer(backend, host="loopback")) as (host, port):
            monkeypatch.undo()
            for i, other in enumerate(["127.0.0.1", "127.0.0.2"]):
                with _connect((other, port)) as conn:
                    decision = _roundtrip_line(conn, conn.makefile("rb"), {
                        "kind": "arrival", "time": float(i), "id": i, "size": 1,
                    })
                assert decision["task_id"] == i
        backend.close()
        assert host == "127.0.0.1"


class TestStdio:
    def test_same_replies_as_the_socket(self):
        lines = [
            json.dumps({"kind": "arrival", "time": 0.0, "id": 0, "size": 4}),
            "{not json",
            json.dumps({"op": "status"}),
        ]
        socket_replies = _serve(_session_backend(), lines)
        session = _session_backend()
        stdio_replies = [
            json.loads(out)
            for out in StdioServer(session).serve_lines(
                ["# header\n"] + [line + "\n" for line in lines]
            )
        ]
        session.close()
        # Line numbers count the comment line on stdin.
        socket_replies[1]["line"] += 1
        assert stdio_replies == socket_replies

    def test_save_archives_the_session(self, tmp_path):
        target = tmp_path / "run.json"
        session = _session_backend(tmp_path / "s.journal")
        replies = list(StdioServer(session).serve_lines([
            json.dumps({"kind": "arrival", "time": 0.0, "id": 0, "size": 2}),
            json.dumps({"op": "save", "path": str(target)}),
        ]))
        session.close()
        assert json.loads(replies[1]) == {"saved": str(target)}
        assert target.exists()


class TestStdinLongLine:
    def test_overlong_line_is_refused_and_serving_goes_on(self, tmp_path):
        """Stdin holds lines to the socket's limit: a line four times over
        gets the socket's error for its line number, its bytes are dropped
        up to the newline, and the lines after it are served and numbered
        as usual.  Only the valid event reaches the journal."""
        long_line = (
            b'{"kind": "arrival", "time": 0.0, "id": 0, "size": 1, "pad": "'
            + b"x" * (4 * _LINE_LIMIT) + b'"}'
        )
        data = b"\n".join([
            long_line,
            json.dumps({"kind": "arrival", "time": 1.0, "id": 1, "size": 1}).encode(),
            b"{not json",
        ]) + b"\n"
        journal = tmp_path / "s.journal"
        session = _session_backend(journal)
        read_fd, write_fd = os.pipe()

        def feed():
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)

        writer = threading.Thread(target=feed)
        writer.start()
        with os.fdopen(read_fd, "rb") as stdin:
            replies = [json.loads(r) for r in StdioServer(session).serve_lines(stdin)]
        writer.join(timeout=10)
        assert not writer.is_alive()
        session.close()
        assert replies[0] == {
            "error": f"line longer than {_LINE_LIMIT} bytes", "op": None, "line": 1
        }
        assert replies[1]["task_id"] == 1 and replies[1]["node"] == 64
        assert replies[2]["line"] == 3 and "invalid JSON" in replies[2]["error"]
        assert len(replies) == 3
        journaled = decode_journal(journal.read_bytes())[1]
        assert [p["record"]["id"] for p in journaled.values()] == [1]


def _strict_json(line):
    """Parse a reply line as strict JSON: a bare NaN or Infinity fails."""
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(line, parse_constant=refuse)


#: Wire records with hostile numbers: each must get exactly one error reply.
HOSTILE_LINES = [
    '{"kind": "departure", "time": NaN, "id": 0}',
    '{"kind": "arrival", "time": Infinity, "size": 2}',
    '{"kind": "arrival", "time": 1e400, "size": 2}',
    '{"kind": "arrival", "time": 1' + "0" * 400 + ', "size": 2}',
    '{"kind": "arrival", "size": 1.7}',
    '{"kind": "arrival", "size": 2, "id": true}',
    '{"kind": "departure", "id": 0.5}',
    '{"kind": "arrival", "size": 2, "work": NaN}',
    '{"kind": "arrival", "size": 2, "id": ' + "9" * 5000 + "}",
]


class TestHostileNumbers:
    """Non-finite times, fractional or boolean ids and sizes, and numbers
    too long to parse are refused with one error record each; state and
    journal stay untouched, and the journal still resumes."""

    GOOD = [
        {"kind": "arrival", "time": 1.0, "id": 0, "size": 4},
        {"kind": "arrival", "time": 2.0, "id": 1, "size": 2, "work": 1.5},
    ]
    TAIL = [
        {"kind": "departure", "time": 3.0, "id": 0},
        {"kind": "arrival", "time": 4.0, "size": 8},
    ]

    @staticmethod
    def _journaled(path):
        machine = TreeMachine(N)
        return AllocationSession(
            machine, make_algorithm("greedy", machine, d=2.0),
            journal_path=path, fsync_policy="batch",
        )

    def test_each_hostile_line_gets_an_error_and_changes_nothing(self, tmp_path):
        journal = tmp_path / "s.journal"
        session = self._journaled(journal)
        server = StdioServer(session)
        lines = [json.dumps(r) for r in self.GOOD]
        assert len(list(server.serve_lines(lines))) == len(lines)
        session.flush()
        status, snapshot = session.status(), session.snapshot()
        journal_bytes = journal.read_bytes()

        for line in HOSTILE_LINES:
            replies = [_strict_json(out) for out in server.serve_lines([line])]
            assert len(replies) == 1 and "error" in replies[0], (line, replies)
            assert replies[0]["line"] == 1
        # An arrival that precedes the clock is still refused: no hostile
        # time moved it (a NaN clock would have let this one through).
        late = json.dumps({"kind": "arrival", "time": 0.5, "size": 2})
        assert "precedes" in _strict_json(next(server.serve_lines([late])))["error"]
        session.flush()
        assert session.status() == status
        assert session.snapshot() == snapshot
        assert journal.read_bytes() == journal_bytes

        tail = [json.dumps(r) for r in self.TAIL]
        replies = [_strict_json(out) for out in server.serve_lines(tail)]
        session.close()
        reference = _session_backend()
        expected = [reference.push(r).to_dict() for r in self.GOOD + self.TAIL]
        assert replies == expected[len(self.GOOD):]

        resumed = self._journaled(journal)
        assert resumed.num_events == len(self.GOOD + self.TAIL)
        assert resumed.snapshot() == reference.snapshot()
        assert resumed.status() == reference.status()
        resumed.close()


class TestQuietIntervalSync:
    def test_quiet_server_syncs_its_last_records(self, tmp_path):
        """Under ``interval:50`` the last records of a burst reach the
        file within the interval, though no later event arrives to sync
        them: a SIGKILL 200 ms after the burst loses none."""
        path = tmp_path / "s.journal"
        machine = TreeMachine(N)
        session = AllocationSession(
            machine, make_algorithm("greedy", machine, d=2.0),
            journal_path=path, fsync_policy="interval:50",
        )
        records = [
            {"kind": "arrival", "time": float(i), "id": i, "size": 2}
            for i in range(3)
        ]

        try:
            with _running(ServiceServer(session)) as address, _connect(address) as conn:
                _send_all(conn, [json.dumps(record).encode() for record in records])
                replies = conn.makefile("rb")
                for _record in records:
                    replies.readline()
                time.sleep(0.2)
                # The file as a kill of the server would leave it.
                data, pending = path.read_bytes(), session.journal_pending
        finally:
            session.close()
        journaled = [p["record"] for p in decode_journal(data)[1].values()]
        assert [(r["kind"], r["id"]) for r in journaled] == [
            ("arrival", 0), ("arrival", 1), ("arrival", 2)
        ]
        assert pending == 0


class TestMetrics:
    def test_metrics_op_returns_exposition(self):
        replies = _serve(
            _session_backend(),
            [json.dumps({"kind": "arrival", "time": 0.0, "id": 0, "size": 1}),
             json.dumps({"op": "metrics"})],
        )
        samples = parse_exposition(replies[1]["metrics"])
        by_name = {(s.name, s.labels): s.value for s in samples}
        assert by_name[("repro_events_total", ())] == 1.0
        assert by_name[("repro_active_tasks", ())] == 1.0
        assert ("repro_events_per_second", ()) in by_name

    @staticmethod
    def _scrape(server, request):
        with _connect(server.metrics_address) as conn:
            conn.sendall(request)
            return conn.makefile("rb").read().decode()

    def test_http_scrape(self):
        backend = _session_backend()
        server = ServiceServer(backend, metrics_port=0)
        with _running(server) as address, _connect(address) as conn:
            _send_all(conn, [json.dumps(
                {"kind": "arrival", "time": 0.0, "id": 0, "size": 1}
            ).encode()])
            conn.makefile("rb").readline()
            page = self._scrape(server, b"GET /metrics HTTP/1.0\r\n\r\n")
        backend.close()
        head, _, body = page.partition("\r\n\r\n")
        assert head.startswith("HTTP/1.0 200 OK")
        assert "text/plain" in head
        by_name = {s.name: s.value for s in parse_exposition(body)}
        assert by_name["repro_events_total"] == 1.0

    def test_scrape_rejects_non_get(self):
        backend = _session_backend()
        server = ServiceServer(backend, metrics_port=0)
        with _running(server):
            reply = self._scrape(server, b"POST /metrics HTTP/1.0\r\n\r\n")
        backend.close()
        assert reply.startswith("HTTP/1.0 405")


def _roundtrip_line(conn, replies, record):
    """Send one record on ``conn`` and read its one reply."""
    conn.sendall(json.dumps(record).encode() + b"\n")
    return json.loads(replies.readline())


class TestConcurrentClients:
    def test_interleaved_clients_share_one_history(self, tmp_path):
        backend = _session_backend(tmp_path / "s.journal")
        with _running(ServiceServer(backend)) as address, \
                _connect(address) as first, _connect(address) as second:
            # The two clients take turns, one record each, as the clock
            # (one per session) needs.
            clients = [(first, first.makefile("rb"), 0, []),
                       (second, second.makefile("rb"), 1000, [])]
            for i in range(20):
                for conn, replies, base, decisions in clients:
                    decisions.append(_roundtrip_line(conn, replies, {
                        "kind": "arrival", "time": float(i), "id": base + i, "size": 1,
                    }))
        status = backend.status()
        events = backend.events
        backend.close()
        a, b = clients[0][3], clients[1][3]
        assert status["events"] == 40 and status["active_tasks"] == 40
        # Every client got a decision for every one of its own records.
        assert [d["task_id"] for d in a] == list(range(20))
        assert [d["task_id"] for d in b] == list(range(1000, 1020))
        # One serialized history holding both clients' events.
        ids = [int(e.task.task_id) for e in events]
        assert sorted(ids) == list(range(20)) + list(range(1000, 1020))

    def test_connection_counter(self):
        backend = _session_backend()
        server = ServiceServer(backend)
        with _running(server) as address, _connect(address) as conn:
            _roundtrip_line(conn, conn.makefile("rb"),
                            {"kind": "arrival", "time": 0.0, "id": 0, "size": 1})
            during = server.connections
        backend.close()
        assert during == 1


def _until_still(count, limit):
    """Wait until ``count()`` reaches ``limit`` or stops growing."""
    last, still = -1, 0
    while still < 5:
        now = count()
        if now == limit:
            return
        last, still = now, still + 1 if now == last else 0
        time.sleep(0.05)


class TestSlowClients:
    """A client that reads none of its replies holds up neither the loop
    nor the other clients, and loses none of its own replies."""

    COUNT = 2000

    @staticmethod
    def _arrivals_and_snapshots(count):
        """Arrivals with a snapshot every 20th line: replies that outgrow
        any socket buffer long before the last line."""
        return [
            json.dumps({"op": "snapshot"} if i % 20 == 19 else
                       {"kind": "arrival", "time": float(i), "id": i, "size": 1}).encode()
            for i in range(count)
        ]

    def test_unread_replies_do_not_stall_other_clients(self):
        backend = _session_backend()
        lines = self._arrivals_and_snapshots(self.COUNT)
        arrivals = self.COUNT - self.COUNT // 20
        with _running(ServiceServer(backend)) as address, \
                _connect(address, rcvbuf=4096) as slow:
            sender = threading.Thread(target=_send_all, args=(slow, lines))
            sender.start()
            _until_still(lambda: backend.num_events, arrivals)
            # The loop stopped serving the slow client's lines ...
            assert backend.num_events < arrivals
            with _connect(address) as other:
                replies = other.makefile("rb")
                for _ in range(20):  # ... and serves the others meanwhile.
                    assert "events" in _roundtrip_line(other, replies, {"op": "status"})
            replies = slow.makefile("rb")
            got = [json.loads(replies.readline()) for _ in lines]
            sender.join(timeout=60)
            assert not sender.is_alive()
        backend.close()
        sent = [json.loads(line) for line in lines]
        assert [(r["kind"], r.get("task_id")) for r in got] == [
            (r.get("kind", "repro-kernel-state"), r.get("id")) for r in sent
        ]

    def test_a_client_gone_with_replies_unread(self, tmp_path):
        """The server serves on, and the journal holds exactly the records
        whose lines it served: a prefix of the gone client's stream, then
        the other client's records."""
        journal = tmp_path / "s.journal"
        backend = _session_backend(journal)
        lines = self._arrivals_and_snapshots(self.COUNT)
        arrivals = [r for r in map(json.loads, lines) if "kind" in r]
        late = [{"kind": "arrival", "time": 1e6 + i, "id": 10_000 + i, "size": 1}
                for i in range(3)]
        server = ServiceServer(backend)
        with _running(server) as address:
            with _connect(address, rcvbuf=4096) as gone:
                _send_all(gone, lines)
                _until_still(lambda: backend.num_events, len(arrivals))
                # Reset on close: the replies are left unread.
                gone.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            with _connect(address) as other:
                replies = other.makefile("rb")
                decisions = [_roundtrip_line(other, replies, r) for r in late]
                assert server.connections == 1
            events = backend.num_events
        backend.close()
        assert [d["task_id"] for d in decisions] == [r["id"] for r in late]
        journaled = [p["record"] for p in decode_journal(journal.read_bytes())[1].values()]
        served = len(journaled) - len(late)
        assert 0 < served < len(arrivals) and len(journaled) == events
        expected = arrivals[:served] + late
        assert [(r["kind"], r["id"]) for r in journaled] == [
            (r["kind"], r["id"]) for r in expected
        ]


def _fault_backend(journal=None):
    machine = TreeMachine(N)
    return AllocationSession(
        machine, make_algorithm("greedy", machine), fault_tolerant=True,
        journal_path=journal,
    )


#: A grow and a shrink: event records that also carry an ``"op"`` key.
_RESIZES = [
    {"kind": "arrival", "time": 0.0, "id": 0, "size": 4},
    {"kind": "resize", "time": 1.0, "op": "grow", "factor": 2},
    {"kind": "resize", "time": 2.0, "op": "shrink", "factor": 2},
    {"op": "status"},
]


def _journaled_kinds(journal):
    resumed = _fault_backend(journal)
    kinds = [getattr(e, "kind", None) for e in resumed.events]
    sizes = resumed.kernel.machine.num_pes, resumed.kernel.num_resizes
    resumed.close()
    return [getattr(k, "value", k) for k in kinds], sizes


class TestResizeRecords:
    """A record with a ``"kind"`` is an event even when it names an
    ``"op"`` — a resize is absorbed and journaled, not refused as an
    unknown control op."""

    def _check(self, replies, journal):
        grow, shrink, status = replies[1:]
        assert "error" not in grow and grow["kind"] == "resize"
        assert "error" not in shrink and shrink["kind"] == "resize"
        assert (status["grows"], status["shrinks"], status["num_pes"]) == (1, 1, N)
        kinds, sizes = _journaled_kinds(journal)
        assert kinds == ["arrival", "resize", "resize"]
        assert sizes == (N, 2)

    def test_socket_absorbs_grow_and_shrink(self, tmp_path):
        journal = tmp_path / "socket.journal"
        replies = _serve(
            _fault_backend(journal), [json.dumps(r) for r in _RESIZES]
        )
        self._check(replies, journal)

    def test_stdin_absorbs_grow_and_shrink(self, tmp_path):
        journal = tmp_path / "stdin.journal"
        backend = _fault_backend(journal)
        replies = [
            json.loads(out)
            for out in StdioServer(backend).serve_lines(
                [json.dumps(r) + "\n" for r in _RESIZES]
            )
        ]
        backend.close()
        self._check(replies, journal)

    def test_resize_error_names_the_kind(self):
        replies = _serve(
            _session_backend(),
            [json.dumps({"kind": "resize", "op": "grow", "factor": 2})],
        )
        assert replies[0]["op"] == "resize"
        assert "fault-tolerant" in replies[0]["error"]


class TestResumeGauges:
    def _gauges(self, backend):
        replies = list(StdioServer(backend).serve_lines([json.dumps({"op": "metrics"})]))
        by_name = {s.name: s.value for s in parse_exposition(json.loads(replies[0])["metrics"])}
        return (
            by_name["repro_resume_restored_events"],
            by_name["repro_resume_replayed_events"],
        )

    def test_zero_on_a_fresh_journal_then_restored_and_replayed(self, tmp_path):
        journal = tmp_path / "g.journal"

        def open_backend():
            machine = TreeMachine(N)
            return AllocationSession(
                machine, make_algorithm("greedy", machine), journal_path=journal,
                snapshot_interval=2, full_snapshot_interval=8,
            )

        backend = open_backend()
        assert self._gauges(backend) == (0, 0)
        for i in range(11):
            backend.submit(1, task_id=i, time=float(i))
        backend.close()
        resumed = open_backend()
        assert self._gauges(resumed) == (8, 3)
        resumed.close()


# -- The ``repro serve`` process: quiet stdin syncs, SIGTERM commits ---------------

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _serve_process(journal, *args):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--journal", str(journal), *args],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": SRC},
    )


def _churn_lines(count):
    """``count`` records at N=256: each task arrives, then departs."""
    lines = []
    for i in range(count // 2):
        lines.append(json.dumps(
            {"kind": "arrival", "time": float(2 * i), "id": i, "size": 1 << (i % 4)}
        ))
        lines.append(json.dumps({"kind": "departure", "time": float(2 * i + 1), "id": i}))
    return lines


def _resumed_events(journal):
    """Events a restart on ``journal`` resumes, as stderr and status report them."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--n", "256", "--journal", str(journal)],
        input=b'{"op":"status"}\n', capture_output=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    match = re.search(rb"resumed (\d+) event\(s\)", proc.stderr)
    status = json.loads(proc.stdout.splitlines()[0])
    assert match and int(match.group(1)) == status["events"], proc.stderr
    return status["events"]


class TestStdinQuietIntervalSync:
    def test_quiet_stdin_server_syncs_its_last_records(self, tmp_path):
        """The stdin server waits for input no longer than the sync it
        owes: 3 arrivals under ``interval:50`` and 300 ms of quiet leave
        all 3 in the file while the server still runs."""
        journal = tmp_path / "s.journal"
        proc = _serve_process(journal, "--n", "64", "--fsync", "interval:50")
        try:
            for i in range(3):
                proc.stdin.write(json.dumps(
                    {"kind": "arrival", "time": float(i), "id": i, "size": 2}
                ).encode() + b"\n")
                proc.stdin.flush()
                assert json.loads(proc.stdout.readline())["task_id"] == i
            time.sleep(0.3)
            journaled = decode_journal(journal.read_bytes())[1]
            assert [p["record"]["id"] for p in journaled.values()] == [0, 1, 2]
        finally:
            # Closes stdin, which ends the server, then reads and closes
            # its output pipes.
            proc.communicate(timeout=60)
        assert proc.returncode == 0


def _send_quietly(conn, data):
    """``sendall`` that ends quietly when the server closes first."""
    try:
        conn.sendall(data)
    except OSError:
        pass


def _complete_lines(replies):
    """The newline-terminated reply lines left, until the server closes."""
    lines = []
    try:
        for raw in replies:
            if raw.endswith(b"\n"):
                lines.append(json.loads(raw))
    except ConnectionResetError:  # it closed with our lines unread
        pass
    return lines


class TestSigterm:
    """SIGTERM (and SIGINT on the socket) stops ``repro serve`` through
    the close that commits the journal: under ``--fsync batch`` no
    answered record is lost."""

    COUNT = 1600

    def test_socket_server(self, tmp_path):
        journal = tmp_path / "s.journal"
        proc = _serve_process(
            journal, "--n", "256", "--fsync", "batch", "--listen", "127.0.0.1:0"
        )
        try:
            line = proc.stderr.readline().decode()
            host, port = re.search(r"listening on (\S+):(\d+)", line).groups()
            lines = _churn_lines(self.COUNT)
            with socket.create_connection((host, int(port)), timeout=60) as conn:
                replies = conn.makefile("rb")
                for start in range(0, len(lines), 100):
                    chunk = lines[start : start + 100]
                    conn.sendall("".join(line + "\n" for line in chunk).encode())
                    for _line in chunk:
                        assert "error" not in json.loads(replies.readline())
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.communicate()
        assert _resumed_events(journal) == self.COUNT

    def test_socket_server_on_sigint_mid_stream(self, tmp_path):
        """SIGINT while lines are still arriving: the server stops between
        two lines and exits 0, and every answered record resumes."""
        journal = tmp_path / "s.journal"
        proc = _serve_process(
            journal, "--n", "256", "--fsync", "batch", "--listen", "127.0.0.1:0"
        )
        try:
            line = proc.stderr.readline().decode()
            host, port = re.search(r"listening on (\S+):(\d+)", line).groups()
            data = "".join(line + "\n" for line in _churn_lines(self.COUNT)).encode()
            with socket.create_connection((host, int(port)), timeout=60) as conn:
                sender = threading.Thread(target=_send_quietly, args=(conn, data))
                sender.start()
                replies = conn.makefile("rb")
                answered = [json.loads(replies.readline()) for _ in range(self.COUNT // 4)]
                proc.send_signal(signal.SIGINT)
                answered += _complete_lines(replies)
                sender.join(timeout=60)
                assert not sender.is_alive()
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            stderr = proc.communicate()[1]
        assert all("error" not in reply for reply in answered)
        served = int(re.search(rb"session closed: (\d+) event", stderr).group(1))
        assert len(answered) <= served <= self.COUNT
        assert _resumed_events(journal) == served

    def test_stdin_server(self, tmp_path):
        journal = tmp_path / "s.journal"
        proc = _serve_process(journal, "--n", "256", "--fsync", "batch")
        try:
            for line in _churn_lines(self.COUNT):
                proc.stdin.write(line.encode() + b"\n")
                proc.stdin.flush()
                assert "error" not in json.loads(proc.stdout.readline())
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.communicate()
        assert _resumed_events(journal) == self.COUNT
