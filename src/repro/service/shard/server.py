"""Socket and stdin front-end for the allocation service.

``repro serve`` runs one :class:`~repro.service.session.AllocationSession`
behind this server.  The wire protocol is the JSONL codec of
:mod:`repro.service.stream`: one event record in per line, one decision
(or typed admission outcome) line back, ``{"error": ..., "op": ...,
"line": N}`` for a bad line, and an ``{"overloaded": true, ...}`` record
plus a journal flush when the SLO backpressure watermark trips.  With
``--listen`` many clients may connect to one :mod:`selectors` loop on
one thread, which serves each line to the end before the next, so the
global event order (and therefore every decision, ``L_A``, ``L*``) is a
single serializable history — clients interleave at line granularity.
Without ``--listen`` :class:`StdioServer` serves stdin/stdout through the
same line handler, line splitter and wait for input.  Under ``--fsync
interval:<ms>`` that wait lasts no longer than the sync the policy owes,
and the journal syncs when it runs out, so a client that goes quiet after
a burst does not leave its last records in user space.

A second, optional listener (``--metrics-port``) on the same loop answers
an HTTP GET with the Prometheus text exposition from
:mod:`repro.service.metrics`: live ``L_A`` / ``L*`` / ratio / event-rate
/ journal-lag gauges and the process's current and peak resident memory.
"""

from __future__ import annotations

import json
import os
import selectors
import socket
import time as _time
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Iterable, Iterator, Optional

from repro.errors import ReproError
from repro.service.metrics import process_memory, render_exposition, service_samples
from repro.service.session import AllocationSession
from repro.service.stream import admission_lines, decision_line, parse_event_record

__all__ = ["ServiceServer", "StdioServer"]

#: Longest client line either transport takes, and the most unsent
#: output a connection may hold before the loop stops serving it.  A
#: longer line gets an error reply; the socket then closes its
#: connection, stdin discards the rest of the line and reads on.
_LINE_LIMIT = 1 << 16

_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE


@dataclass
class _Lines:
    """The line splitter of both transports: bytes in, lines out, ``None``
    standing for a line longer than ``_LINE_LIMIT``.  That line is
    reported as soon as the limit is passed, and its bytes are dropped up
    to the next newline, so a line without end costs no more memory than
    two reads."""

    pending: bytearray = field(default_factory=bytearray)  # after the last complete line
    skipping: bool = False  # inside a reported over-long line

    def feed(self, chunk: bytes) -> Iterator[Optional[str]]:
        """The lines ``chunk`` completes.  An empty chunk ends the input:
        it yields the last line if that has no newline."""
        pending = self.pending
        if not chunk:
            if pending:
                yield pending.decode("utf-8", "replace")
            return
        pending += chunk
        end = pending.rfind(b"\n", len(pending) - len(chunk))
        if end >= 0:
            lines = pending[:end].split(b"\n")
            del pending[: end + 1]
            if self.skipping:
                del lines[0]  # the end of the over-long line
                self.skipping = False
            for line in lines:
                yield None if len(line) > _LINE_LIMIT else line.decode("utf-8", "replace")
        if not self.skipping and len(pending) > _LINE_LIMIT:
            yield None
            self.skipping = True
        if self.skipping:
            pending.clear()


class _Gone(Exception):
    """A client's socket failed (reset, broken pipe, ...): the loop drops
    that connection.  Other errors, a journal write's among them, are not
    the client's and end the loop."""


_Handler = Callable[[Any, int], None]


@dataclass(eq=False)
class _Conn:
    """One accepted socket, the handler that serves it, its unsent output."""

    sock: socket.socket
    handler: _Handler
    out: bytearray = field(default_factory=bytearray)
    closing: bool = False  # close once ``out`` is sent
    counted: ClassVar[bool] = False  # in ServiceServer.connections

    def __call__(self, mask: int) -> None:
        self.handler(self, mask)

    def recv(self) -> bytes:
        try:
            return self.sock.recv(_LINE_LIMIT)
        except OSError as exc:
            raise _Gone from exc

    def send(self) -> None:
        """Send what the socket takes now of the unsent output."""
        if self.out:
            try:
                del self.out[: self.sock.send(self.out)]
            except BlockingIOError:
                pass
            except OSError as exc:
                raise _Gone from exc


@dataclass(eq=False)
class _Scrape(_Conn):
    """A metrics scrape and its HTTP request so far."""

    request: bytearray = field(default_factory=bytearray)


@dataclass(eq=False)
class _Client(_Conn):
    """An event-stream connection: its input split into lines, the lines
    read but not yet served, and whether it refused a line (it then only
    discards input)."""

    lines: _Lines = field(default_factory=_Lines)
    todo: Optional[Iterator[Optional[str]]] = None
    lineno: int = 0
    refused: bool = False
    counted: ClassVar[bool] = True


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
        self._sel: selectors.BaseSelector  # set by _open()
        self._wake: tuple[socket.socket, ...] = ()  # stop() writes to [1]
        self._stopping = False
        self._lingering: dict[_Conn, float] = {}  # refused: closes by then
        self.metrics_address: Optional[tuple[str, int]] = None
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

    def start(self) -> tuple[str, int]:
        """Bind both listeners; returns the event listener's (host, port)."""
        self._open(selectors.DefaultSelector())
        address = self._listen(self._port, _Client, self._on_client)
        if self._metrics_port is not None:
            self.metrics_address = self._listen(self._metrics_port, _Scrape, self._on_scrape)
        return address

    def _listen(self, port: int, kind: type[_Conn], handler: _Handler) -> tuple[str, int]:
        """Listen on every address of the host (``localhost`` may name
        ``::1`` and ``127.0.0.1``), all on the port the first bind got;
        returns the first address."""
        bound: list[tuple[str, int]] = []
        for family, *_, addr in dict.fromkeys(
            socket.getaddrinfo(self._host, port, type=socket.SOCK_STREAM)
        ):
            sock = socket.create_server((addr[0], port, *addr[2:]), family=family, backlog=100)
            sock.setblocking(False)
            self._sel.register(sock, _READ, lambda _, sock=sock: self._accept(sock, kind, handler))
            bound.append(sock.getsockname()[:2])
            port = bound[0][1]
        return str(bound[0][0]), int(bound[0][1])

    def serve_forever(self) -> None:
        """Serve every socket until :meth:`stop`."""
        for ready in iter(self._select, []):
            for key, mask in ready:
                key.data(mask)

    def _select(self) -> list[tuple[selectors.SelectorKey, int]]:
        """Wait for input; ``[]`` once :meth:`stop` is called.  The wait
        lasts no longer than the sync an ``interval:<ms>`` policy owes
        (the journal syncs only when a record arrives, so it syncs here
        when the wait runs out), nor than a refused connection's discard,
        which is then closed."""
        ready: list[tuple[selectors.SelectorKey, int]] = []
        while not (ready or self._stopping):
            timeout, now = self.backend.journal_sync_due, _time.monotonic()
            if timeout is not None and timeout <= 0:
                self.backend.flush()
                continue
            for conn, end in list(self._lingering.items()):
                if end <= now:
                    self._drop(conn)
                elif timeout is None or end - now < timeout:
                    timeout = end - now
            ready = self._sel.select(timeout)
        return [] if self._stopping else ready

    def stop(self) -> None:
        """End :meth:`serve_forever` (or :meth:`StdioServer.serve_lines`)
        once the line in hand is answered, at once while it waits, so no
        session update is cut short.  Safe to call from a signal handler
        or from another thread."""
        self._stopping = True
        if self._wake:
            try:
                self._wake[1].send(b"\0")
            except OSError:  # a wake-up is already pending, or closed
                pass

    def _open(self, sel: selectors.BaseSelector) -> None:
        """Wait through ``sel``, with a fresh wake-up pair for :meth:`stop`."""
        self._sel, self._wake = sel, socket.socketpair()
        for sock in self._wake:
            sock.setblocking(False)
        wake = self._wake[0]
        sel.register(wake, _READ, lambda mask: wake.recv(_LINE_LIMIT))

    def close(self) -> None:
        """Close every socket this server owns, connections included."""
        for key in list(self._sel.get_map().values()):
            key.fileobj.close()  # type: ignore[union-attr]
        self._sel.close()
        self._wake[1].close()
        self._wake = ()

    # -- Connections ---------------------------------------------------------

    def _accept(self, listener: socket.socket, kind: type[_Conn], handler: _Handler) -> None:
        try:
            sock, _ = listener.accept()
        except OSError:  # gone before it was accepted
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = kind(sock, handler)
        self.connections += conn.counted
        self._sel.register(sock, _READ, conn)

    def _drop(self, conn: _Conn) -> None:
        self._sel.unregister(conn.sock)
        conn.sock.close()
        self._lingering.pop(conn, None)
        self.connections -= conn.counted

    def _watch(self, conn: _Conn) -> None:
        """Close ``conn`` once it is done, or watch it for what it waits on
        next: writable while it holds unsent output, readable unless it is
        closing or that output is over ``_LINE_LIMIT``."""
        if conn.closing and not conn.out:
            return self._drop(conn)
        mask = _WRITE if conn.out else 0
        if not conn.closing and len(conn.out) <= _LINE_LIMIT:
            mask |= _READ
        self._sel.modify(conn.sock, mask, conn)

    # -- Event-stream protocol -----------------------------------------------

    def _on_client(self, conn: _Client, mask: int) -> None:
        try:
            if mask & _WRITE:
                conn.send()
            if mask & _READ:
                chunk = conn.recv()
                conn.closing = not chunk
                if not conn.refused:  # after a refusal, input is discarded
                    conn.todo = conn.lines.feed(chunk)
            if conn.todo is not None and len(conn.out) <= _LINE_LIMIT:
                self._serve(conn, conn.todo)
            if conn.refused and not conn.out and conn not in self._lingering:
                # Half-close, then discard what the client still sends
                # until it closes, or for at most a second: closing with
                # unread input would reset the connection before the
                # client reads the reply.
                try:
                    conn.sock.shutdown(socket.SHUT_WR)
                except OSError as exc:
                    raise _Gone from exc
                self._lingering[conn] = _time.monotonic() + 1.0
            self._watch(conn)
        except _Gone:
            self._drop(conn)

    def _serve(self, conn: _Client, todo: Iterator[Optional[str]]) -> None:
        """Serve ``conn``'s lines in order until none is left, the loop
        stops, a line is refused or the unsent replies pass
        ``_LINE_LIMIT``; the rest waits in ``todo`` until they drain.
        Each line's replies leave at once unless earlier ones still wait
        for the socket."""
        for line in todo:
            if self._stopping:
                return
            conn.lineno += 1
            blocked = bool(conn.out)
            for out in self._replies(line, conn.lineno):
                conn.out += out.encode("utf-8") + b"\n"
            if not blocked:
                conn.send()
            if line is None:
                conn.refused = True
                break
            if len(conn.out) > _LINE_LIMIT:
                return
        conn.todo = None

    def _replies(self, line: Optional[str], lineno: int) -> list[str]:
        """Reply lines for one line of the splitter (``None`` for one too
        long); blank and ``#`` comment lines get none."""
        if line is None:
            return [json.dumps({"error": f"line longer than {_LINE_LIMIT} bytes",
                                "op": None, "line": lineno})]
        text = line.strip()
        if not text or text.startswith("#"):
            return []
        return self._serve_line(text, lineno)

    def _serve_line(self, text: str, lineno: int) -> list[str]:
        """Reply lines for one client line.  No lock is needed: every
        backend touch happens on the one serving thread, which serves one
        line to the end before the next, whichever client sent it.

        A line with a ``"kind"`` is an event record, whatever else it
        carries (a resize names its ``"op"``); only a line without one is
        a control op."""
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:  # not JSON, an over-long int, or too deep
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

    def _on_scrape(self, conn: _Scrape, mask: int) -> None:
        """Minimal HTTP/1.0 responder: read the request up to its blank
        line, answer a GET with the exposition page and anything else
        with 405, then close."""
        try:
            if mask & _READ:
                chunk = conn.recv()
                request = conn.request
                request += chunk
                if (not chunk or b"\n\r\n" in request or b"\n\n" in request
                        or len(request) > _LINE_LIMIT):
                    if request.startswith(b"GET"):
                        body = self._metrics_page().encode("utf-8")
                        conn.out += (
                            b"HTTP/1.0 200 OK\r\n"
                            b"Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                            + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
                            + body
                        )
                    else:
                        conn.out += b"HTTP/1.0 405 Method Not Allowed\r\n\r\n"
                    conn.closing = True
            conn.send()
            self._watch(conn)
        except _Gone:
            self._drop(conn)


class StdioServer(ServiceServer):
    """The same protocol over a line stream (stdin/stdout).

    Adds ``{"op": "save", "path": ...}``, which archives the session to a
    file.  It is local-only: on the socket it would let any client write
    files on the server's host.
    """

    def _control(self, op: str, obj: dict[str, Any]) -> Any:
        if op == "save":
            self.backend.save_run(obj["path"])
            return {"saved": str(obj["path"])}
        return super()._control(op, obj)

    def serve_lines(self, lines: Iterable[str]) -> Iterable[str]:
        """Reply lines for a stream of client lines, in order, until the
        stream ends or :meth:`stop` is called.  A stream with a file
        descriptor (stdin) is read through :meth:`_read_lines`, which
        holds its lines to the socket's ``_LINE_LIMIT``."""
        source: Iterator[Optional[str]]
        try:
            fd = lines.fileno()  # type: ignore[attr-defined]
        except (AttributeError, OSError, ValueError):
            source = iter(lines)
        else:
            source = self._read_lines(fd)
        for lineno, line in enumerate(source, start=1):
            if self._stopping:
                return
            yield from self._replies(line, lineno)

    def _read_lines(self, fd: int) -> Iterator[Optional[str]]:
        """The lines read from ``fd``, split by :class:`_Lines`, until the
        input ends or :meth:`stop` wakes the wait.  The wait is the
        socket loop's, on this thread, so the journal has one user; a
        ``select`` selector, unlike epoll, also waits on a file."""
        self._open(selectors.SelectSelector())
        self._sel.register(fd, _READ)
        lines = _Lines()
        try:
            while self._select():
                chunk = os.read(fd, _LINE_LIMIT)
                yield from lines.feed(chunk)
                if not chunk:
                    return
        finally:
            self._sel.unregister(fd)
            self.close()
