"""Socket and stdin front-end for the allocation service.

``repro serve`` runs one :class:`~repro.service.session.AllocationSession`
behind this server.  The wire protocol is the JSONL codec of
:mod:`repro.service.stream`: one event record in per line, one decision
(or typed admission outcome) line back, ``{"error": ..., "op": ...,
"line": N}`` for a bad line, and an ``{"overloaded": true, ...}`` record
plus a journal flush when the SLO backpressure watermark trips.  With
``--listen`` many clients may connect; every line is handled
synchronously on the event loop, so the global event order (and
therefore every decision, ``L_A``, ``L*``) is a single serializable
history — clients interleave at line granularity.  Without ``--listen``
:class:`StdioServer` serves stdin/stdout through the same line handler.
Under ``--fsync interval:<ms>`` the socket server also keeps one timer
that syncs records left pending once the interval is up, so a client
that goes quiet after a burst does not leave them in user space; the
stdin server waits for input no longer than that and syncs when the
wait runs out, on the same thread.

A second, optional listener (``--metrics-port``) answers any HTTP GET
with the Prometheus text exposition from :mod:`repro.service.metrics`:
live ``L_A`` / ``L*`` / ratio / event-rate / journal-lag gauges and the
process's current and peak resident memory, scrapable while the event
stream is live.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import time as _time
from typing import Any, Iterable, Iterator, Optional

from repro.errors import ReproError
from repro.service.metrics import process_memory, render_exposition, service_samples
from repro.service.session import AllocationSession
from repro.service.stream import admission_lines, decision_line, parse_event_record

__all__ = ["ServiceServer", "StdioServer"]

#: Longest client line the socket reader buffers (asyncio's default).  A
#: longer line gets an error reply and its connection is closed.
_LINE_LIMIT = 1 << 16


class ServiceServer:
    """One session, one event-stream listener, one optional scrape port."""

    def __init__(
        self,
        backend: AllocationSession,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics_port: Optional[int] = None,
    ) -> None:
        self.backend = backend
        self._host = host
        self._port = port
        self._metrics_port = metrics_port
        self._rate_mark: tuple[float, int] = (_time.monotonic(), 0)
        self._server: Optional[asyncio.base_events.Server] = None
        self._metrics_server: Optional[asyncio.base_events.Server] = None
        # The one timer that syncs what an interval policy left pending.
        self._sync_timer: Optional[asyncio.TimerHandle] = None
        self.connections = 0

    @property
    def _slo(self):
        return self.backend.slo_policy

    def _apply(self, record: dict[str, Any]) -> list[str]:
        """Absorb one event record, return its reply lines."""
        if self._slo is not None:
            return admission_lines(self.backend.offer(record))
        return [decision_line(self.backend.push(record))]

    def _control(self, op: str, obj: dict[str, Any]) -> Any:
        """The reply to one control op (the journal is already flushed)."""
        if op == "status":
            return self.backend.status()
        if op == "snapshot":
            return self.backend.snapshot()
        if op == "metrics":
            return {"metrics": self._metrics_page()}
        raise ValueError(f"unknown op {op!r}")

    def _metrics_page(self) -> str:
        # The event rate is the delta since the previous scrape.
        now = _time.monotonic()
        offers = self.backend.num_offers
        mark_time, mark_offers = self._rate_mark
        self._rate_mark = (now, offers)
        elapsed = now - mark_time
        status = self.backend.status()
        status["events_per_second"] = (
            (offers - mark_offers) / elapsed if elapsed > 0 else 0.0
        )
        status["resume_restored_events"] = self.backend.restored_events
        status["resume_replayed_events"] = self.backend.replayed_events
        status.update(process_memory())
        return render_exposition(service_samples(status))

    # -- Lifecycle -----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind both listeners; returns the event listener's (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_client, self._host, self._port, limit=_LINE_LIMIT
        )
        sock = self._server.sockets[0]
        addr = sock.getsockname()
        if self._metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_scrape, self._host, self._metrics_port
            )
        return str(addr[0]), int(addr[1])

    @property
    def metrics_address(self) -> Optional[tuple[str, int]]:
        if self._metrics_server is None:
            return None
        addr = self._metrics_server.sockets[0].getsockname()
        return str(addr[0]), int(addr[1])

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._sync_timer is not None:
            self._sync_timer.cancel()
            self._sync_timer = None
        for server in (self._server, self._metrics_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        self._server = self._metrics_server = None

    # -- Event-stream protocol -----------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        try:
            lineno = 0
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # the line overran _LINE_LIMIT
                    await self._refuse_long_line(reader, writer, lineno + 1)
                    break
                if not line:
                    break
                lineno += 1
                text = line.decode("utf-8", errors="replace").strip()
                if not text or text.startswith("#"):
                    continue
                for out in self._serve_line(text, lineno):
                    writer.write(out.encode("utf-8") + b"\n")
                if self._sync_timer is None:
                    self._sync_when_due()
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            pass  # server shutdown with the connection open
        finally:
            self.connections -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionResetError,
                    BrokenPipeError, OSError):
                pass

    def _sync_when_due(self) -> None:
        """Sync the records an ``interval:<ms>`` policy left pending once
        the interval since the last sync has passed, or arm the one timer
        that comes back then.  The journal syncs only when a record
        arrives, so without this a server gone quiet after a burst would
        keep its last records in user space until the next event."""
        self._sync_timer = None
        due = self.backend.journal_sync_due
        if due is None:
            return
        if due <= 0:
            self.backend.flush()
        else:
            self._sync_timer = asyncio.get_running_loop().call_later(
                due, self._sync_when_due
            )

    @staticmethod
    async def _refuse_long_line(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter, lineno: int
    ) -> None:
        writer.write(json.dumps(
            {"error": f"line longer than {_LINE_LIMIT} bytes", "op": None,
             "line": lineno}
        ).encode("utf-8") + b"\n")
        await writer.drain()
        # Half-close, then discard what the client is still sending (for at
        # most a second): closing with unread input would reset the
        # connection before the client reads the reply.
        writer.write_eof()
        try:
            await asyncio.wait_for(_discard(reader), timeout=1.0)
        except asyncio.TimeoutError:
            pass

    def _serve_line(self, text: str, lineno: int) -> list[str]:
        """Reply lines for one client line.  No lock is needed: every
        backend touch is synchronous, so the event loop serialises the
        per-line critical sections across connections by construction.

        A line with a ``"kind"`` is an event record, whatever else it
        carries (a resize names its ``"op"``); only a line without one is
        a control op."""
        try:
            obj = json.loads(text)
        except ValueError as exc:  # a JSONDecodeError, or an over-long int
            return [json.dumps(
                {"error": f"invalid JSON: {exc}", "op": None, "line": lineno}
            )]
        op = obj.get("op") if isinstance(obj, dict) else None
        kind = obj.get("kind") if isinstance(obj, dict) else None
        out: list[str] = []
        try:
            if kind is None and op is not None:
                # Control reads are commit points: flush first, so what
                # the client sees is never ahead of the journal.
                self.backend.flush()
                out.append(json.dumps(self._control(op, obj)))
            else:
                out.extend(self._apply(parse_event_record(obj)))
        except (ReproError, ValueError, KeyError, TypeError) as exc:
            return [json.dumps(
                {"error": str(exc), "op": kind if kind is not None else op,
                 "line": lineno}
            )]
        if self.backend.overloaded:  # only ever true in SLO mode
            out.append(json.dumps(
                {
                    "overloaded": True,
                    "journal_pending": self.backend.journal_pending,
                    "retry_after": self._slo.retry_after,
                }
            ))
            # The stall: make everything durable before reading on.
            self.backend.flush()
        return out

    # -- Metrics scrape protocol ---------------------------------------------

    async def _handle_scrape(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Minimal HTTP/1.0 responder: any GET gets the exposition page."""
        try:
            request = await reader.readline()
            while True:  # drain headers
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
            if not request.startswith(b"GET"):
                writer.write(b"HTTP/1.0 405 Method Not Allowed\r\n\r\n")
            else:
                body = self._metrics_page().encode("utf-8")
                writer.write(
                    b"HTTP/1.0 200 OK\r\n"
                    b"Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
                )
                writer.write(body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionResetError,
                    BrokenPipeError, OSError):
                pass


async def _discard(reader: asyncio.StreamReader) -> None:
    while await reader.read(_LINE_LIMIT):
        pass


class _Stopped(Exception):
    """:meth:`StdioServer.stop` while the server waits for input."""


class StdioServer(ServiceServer):
    """The same protocol over a line stream (stdin/stdout).

    Adds ``{"op": "save", "path": ...}``, which archives the session to a
    file.  It is local-only: on the socket it would let any client write
    files on the server's host.
    """

    def __init__(self, backend: AllocationSession, **kwargs: Any) -> None:
        super().__init__(backend, **kwargs)
        self._stopping = False
        self._waiting = False  # blocked on input, between lines

    def _control(self, op: str, obj: dict[str, Any]) -> Any:
        if op == "save":
            self.backend.save_run(obj["path"])
            return {"saved": str(obj["path"])}
        return super()._control(op, obj)

    def stop(self) -> None:
        """End :meth:`serve_lines`: at once while it waits for input,
        otherwise once the line being served is answered, so no session
        update is cut short.  Safe to call from a signal handler."""
        self._stopping = True
        if self._waiting:
            raise _Stopped

    def serve_lines(self, lines: Iterable[str]) -> Iterable[str]:
        """Reply lines for a stream of client lines, in order, until the
        stream ends or :meth:`stop` is called.  A stream with a file
        descriptor (stdin) is read through :meth:`_read_lines`."""
        try:
            fd = lines.fileno()  # type: ignore[attr-defined]
        except (AttributeError, OSError, ValueError):
            source = iter(lines)
        else:
            source = self._read_lines(fd)
        try:
            for lineno, line in enumerate(source, start=1):
                if self._stopping:
                    return
                text = line.strip()
                if text and not text.startswith("#"):
                    yield from self._serve_line(text, lineno)
        except _Stopped:
            return

    def _read_lines(self, fd: int) -> Iterator[str]:
        """The lines read from ``fd``.  While an ``interval:<ms>`` policy
        owes pending records a sync, input is awaited only until the sync
        is due, and the journal is flushed when that wait runs out — on
        this thread, so the journal has one user."""
        pending = bytearray()  # input after the last complete line
        while not self._stopping:
            self._waiting = True
            try:
                due = self.backend.journal_sync_due
                if due is not None and not select.select([fd], [], [], max(due, 0.0))[0]:
                    chunk = None
                else:
                    chunk = os.read(fd, _LINE_LIMIT)
            finally:
                self._waiting = False
            if chunk is None:
                self.backend.flush()
                continue
            if not chunk:
                break
            pending += chunk
            end = pending.rfind(b"\n", len(pending) - len(chunk))
            if end >= 0:
                lines = pending[:end].split(b"\n")
                del pending[: end + 1]
                for line in lines:
                    yield line.decode("utf-8", errors="replace")
        if pending:
            yield pending.decode("utf-8", errors="replace")
