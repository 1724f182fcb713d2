"""Socket and stdin front-end: protocol, errors, scrape, concurrent clients.

Each socket test spins up a real
:class:`~repro.service.shard.server.ServiceServer` over one
:class:`~repro.service.session.AllocationSession` on an ephemeral port
inside ``asyncio.run`` and talks to it over a plain socket — the same
wire a ``repro serve --listen`` client sees.
"""

import asyncio
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro.core.registry import make_algorithm
from repro.machines.tree import TreeMachine
from repro.service import AllocationSession, parse_exposition
from repro.service.shard.server import ServiceServer, StdioServer
from repro.sim.frames import decode_journal

N = 64


def _session_backend(journal=None):
    machine = TreeMachine(N)
    return AllocationSession(
        machine, make_algorithm("greedy", machine, d=2.0), journal_path=journal
    )


async def _roundtrip(server, lines):
    """Send ``lines`` to a started server, return every reply line."""
    host, port = await server.start()
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for line in lines:
            writer.write(line.encode() + b"\n")
        await writer.drain()
        writer.write_eof()
        replies = []
        while True:
            raw = await asyncio.wait_for(reader.readline(), timeout=10)
            if not raw:
                return replies
            replies.append(json.loads(raw))
    finally:
        writer.close()
        await server.close()


def _serve(backend, lines, **kwargs):
    async def scenario():
        server = ServiceServer(backend, **kwargs)
        try:
            return await _roundtrip(server, lines)
        finally:
            backend.close()

    return asyncio.run(scenario())


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
        async def scenario():
            backend = _session_backend()
            server = ServiceServer(backend)
            host, port = await server.start()

            async def client(lines):
                reader, writer = await asyncio.open_connection(host, port)
                for line in lines:
                    writer.write(line + b"\n")
                await writer.drain()
                writer.write_eof()
                replies = []
                while raw := await asyncio.wait_for(reader.readline(), 10):
                    replies.append(json.loads(raw))
                writer.close()
                return replies

            arrival = json.dumps(
                {"kind": "arrival", "time": 0.0, "id": 0, "size": 1}
            ).encode()
            long_line = b'{"kind": "arrival", "pad": "' + b"x" * 200_000 + b'"}'
            refused = await client([b"# comment", long_line, arrival])
            served = await client([arrival])
            await server.close()
            backend.close()
            return refused, served

        refused, served = asyncio.run(scenario())
        assert refused == [
            {"error": "line longer than 65536 bytes", "op": None, "line": 2}
        ]
        assert served[0]["task_id"] == 0


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

        async def scenario():
            server = ServiceServer(session)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                for record in records:
                    writer.write(json.dumps(record).encode() + b"\n")
                await writer.drain()
                for _record in records:
                    await asyncio.wait_for(reader.readline(), timeout=10)
                await asyncio.sleep(0.2)
                # The file as a kill of the server would leave it.
                return path.read_bytes(), session.journal_pending
            finally:
                writer.close()
                await server.close()

        try:
            data, pending = asyncio.run(scenario())
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

    def test_http_scrape(self):
        async def scenario():
            backend = _session_backend()
            server = ServiceServer(backend, metrics_port=0)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                json.dumps(
                    {"kind": "arrival", "time": 0.0, "id": 0, "size": 1}
                ).encode() + b"\n"
            )
            await writer.drain()
            await asyncio.wait_for(reader.readline(), timeout=10)

            mhost, mport = server.metrics_address
            sreader, swriter = await asyncio.open_connection(mhost, mport)
            swriter.write(b"GET /metrics HTTP/1.0\r\n\r\n")
            await swriter.drain()
            payload = await asyncio.wait_for(sreader.read(), timeout=10)
            swriter.close()
            writer.close()
            await server.close()
            backend.close()
            return payload.decode()

        page = asyncio.run(scenario())
        head, _, body = page.partition("\r\n\r\n")
        assert head.startswith("HTTP/1.0 200 OK")
        assert "text/plain" in head
        by_name = {s.name: s.value for s in parse_exposition(body)}
        assert by_name["repro_events_total"] == 1.0

    def test_scrape_rejects_non_get(self):
        async def scenario():
            backend = _session_backend()
            server = ServiceServer(backend, metrics_port=0)
            await server.start()
            mhost, mport = server.metrics_address
            reader, writer = await asyncio.open_connection(mhost, mport)
            writer.write(b"POST /metrics HTTP/1.0\r\n\r\n")
            await writer.drain()
            reply = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            await server.close()
            backend.close()
            return reply.decode()

        assert asyncio.run(scenario()).startswith("HTTP/1.0 405")


class TestConcurrentClients:
    def test_interleaved_clients_share_one_history(self, tmp_path):
        async def scenario():
            backend = _session_backend(tmp_path / "s.journal")
            server = ServiceServer(backend)
            host, port = await server.start()

            async def client(base):
                reader, writer = await asyncio.open_connection(host, port)
                decisions = []
                for i in range(20):
                    writer.write(
                        json.dumps(
                            {"kind": "arrival", "time": float(i),
                             "id": base + i, "size": 1}
                        ).encode() + b"\n"
                    )
                    await writer.drain()
                    decisions.append(
                        json.loads(await asyncio.wait_for(
                            reader.readline(), timeout=10
                        ))
                    )
                writer.close()
                return decisions

            results = await asyncio.gather(client(0), client(1000))
            status = backend.status()
            events = backend.events
            await server.close()
            backend.close()
            return results, status, events

        (a, b), status, events = asyncio.run(scenario())
        assert status["events"] == 40 and status["active_tasks"] == 40
        # Every client got a decision for every one of its own records.
        assert [d["task_id"] for d in a] == list(range(20))
        assert [d["task_id"] for d in b] == list(range(1000, 1020))
        # One serialized history holding both clients' events.
        ids = [int(e.task.task_id) for e in events]
        assert sorted(ids) == list(range(20)) + list(range(1000, 1020))

    def test_connection_counter(self):
        async def scenario():
            backend = _session_backend()
            server = ServiceServer(backend)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                json.dumps(
                    {"kind": "arrival", "time": 0.0, "id": 0, "size": 1}
                ).encode() + b"\n"
            )
            await writer.drain()
            await asyncio.wait_for(reader.readline(), timeout=10)
            during = server.connections
            writer.close()
            await server.close()
            backend.close()
            return during

        assert asyncio.run(scenario()) == 1


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
            proc.stdin.close()
            assert proc.wait(timeout=60) == 0


class TestSigterm:
    """SIGTERM stops ``repro serve`` through the close that commits the
    journal: under ``--fsync batch`` no answered record is lost."""

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
            proc.wait()
        assert _resumed_events(journal) == self.COUNT

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
            proc.wait()
        assert _resumed_events(journal) == self.COUNT
