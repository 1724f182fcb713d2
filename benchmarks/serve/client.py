"""Lean socket clients for the serving benchmark.

Every request line is encoded before the clock starts; the timed loops
only send bytes, split reply bytes on newlines and read the clock.

Reply framing.  The server answers each request line with exactly one
*primary* line (a decision, an SLO outcome or an error), optionally
followed by lines that ride on it: queued arrivals the request drained
(decision records ending ``"dequeued":true}``) and an ``overloaded``
notice.  Those riders belong to the request still outstanding, so a
request is complete when its primary line has arrived.
"""

from __future__ import annotations

import selectors
import socket
import time
from dataclasses import dataclass, field

_OVERLOADED = b'{"overloaded"'
_DRAINED_TAIL = b'"dequeued":true}'
_SLO = b'{"slo"'


def is_primary(line: bytes) -> bool:
    """Is this reply line the one answer to a request (not a rider)?"""
    if line.startswith(_OVERLOADED):
        return False
    return line.startswith(_SLO) or not line.endswith(_DRAINED_TAIL)


def connect(host: str, port: int) -> socket.socket:
    sock = socket.create_connection((host, port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


@dataclass
class ConnLog:
    """What one connection sent and received during one timed phase."""

    #: Indices (into the phase's record list) of the lines actually sent.
    sent: list[int] = field(default_factory=list)
    #: Every reply line, in arrival order, without its newline.
    replies: list[bytes] = field(default_factory=list)
    #: Per sent request: ns from send (or due time) to its primary reply.
    latency_ns: list[int] = field(default_factory=list)
    #: Per sent request (open loop only): when it was due and when sent.
    due_ns: list[int] = field(default_factory=list)
    send_ns: list[int] = field(default_factory=list)
    dropped: bool = False


class ClosedLoop:
    """One blocking connection: send a line, wait for its primary reply."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._buf = b""

    def _read_primary(self, replies: list[bytes]) -> bool:
        """Read until one primary line arrives; False on a closed socket."""
        while True:
            nl = self._buf.find(b"\n")
            while nl >= 0:
                line = self._buf[:nl]
                self._buf = self._buf[nl + 1:]
                replies.append(line)
                if is_primary(line):
                    # Riders of this request already buffered stay queued
                    # and are collected before the next primary.
                    return True
                nl = self._buf.find(b"\n")
            data = self.sock.recv(1 << 16)
            if not data:
                return False
            self._buf += data

    def request(self, line: bytes) -> tuple[bytes, list[bytes]]:
        """Send one line; return its primary reply and the rider lines
        that arrived before it (left over from the previous request)."""
        self.sock.sendall(line)
        lines: list[bytes] = []
        if not self._read_primary(lines):
            raise ConnectionError("server closed the connection")
        return lines[-1], lines[:-1]

    def run(self, lines: list[bytes], *, skip=None, log: ConnLog | None = None,
            start: int = 0, stop: int | None = None) -> ConnLog:
        """Send ``lines[start:stop]`` one at a time.

        ``skip(i)`` (optional) is asked before each send; a true answer
        leaves line ``i`` unsent.  It sees every reply received so far,
        which is how a client departs only tasks it knows were placed.
        """
        log = log or ConnLog()
        clock = time.monotonic_ns
        replies = log.replies
        sendall = self.sock.sendall
        for i in range(start, len(lines) if stop is None else stop):
            line = lines[i]
            if skip is not None and skip(i):
                continue
            t0 = clock()
            try:
                sendall(line)
                ok = self._read_primary(replies)
            except OSError:
                ok = False
            if not ok:
                log.dropped = True
                break
            log.latency_ns.append(clock() - t0)
            log.sent.append(i)
        return log


def open_loop(socks: list[socket.socket], lines: list[list[bytes]],
              rate: float, *, drain_timeout: float = 30.0) -> tuple[list[ConnLog], int]:
    """Send each connection's lines on a fixed schedule of ``rate`` lines/s.

    One thread multiplexes every connection with a ``select()`` loop
    (microsecond timeouts; epoll rounds to milliseconds).  It never
    spins: at real-time priority a spinning client could starve a server
    sharing its CPU.  Connection ``c``'s line ``j`` is due at
    ``start + (j + c / len(socks)) / rate``; its latency runs from that
    due time to its primary reply, so a stall charges every request
    queued behind it.  Returns the per-connection logs and the start
    time (monotonic ns).
    """
    k = len(socks)
    period = 1e9 / rate
    clock = time.monotonic_ns
    start = clock() + 20_000_000
    due = [[start + int((j + c / k) * period) for j in range(len(lines[c]))]
           for c in range(k)]
    logs = [ConnLog() for _ in range(k)]
    nxt = [0] * k          # next line to send, per connection
    got = [0] * k          # primary replies received, per connection
    out = [b""] * k        # unsent bytes, per connection
    inbuf = [b""] * k
    sel = selectors.SelectSelector()
    for c, sock in enumerate(socks):
        sock.setblocking(False)
        sel.register(sock, selectors.EVENT_READ, c)
    total = sum(len(x) for x in lines)
    received = 0
    last_send_done = None
    try:
        while received < total:
            now = clock()
            next_due = None
            for c in range(k):
                j = nxt[c]
                n = len(lines[c])
                while j < n and due[c][j] <= now:
                    out[c] += lines[c][j]
                    logs[c].due_ns.append(due[c][j])
                    logs[c].send_ns.append(now)
                    logs[c].sent.append(j)
                    j += 1
                nxt[c] = j
                if out[c]:
                    try:
                        sent = socks[c].send(out[c])
                        out[c] = out[c][sent:]
                    except BlockingIOError:
                        pass
                    except OSError:
                        logs[c].dropped = True
                        return logs, start
                if j < n and (next_due is None or due[c][j] < next_due):
                    next_due = due[c][j]
            if next_due is None:
                if last_send_done is None:
                    last_send_done = now
                elif now - last_send_done > drain_timeout * 1e9:
                    break
                timeout = 0.05
            else:
                timeout = max(0.0, (next_due - now) / 1e9)
            for key, _ in sel.select(timeout):
                c = key.data
                try:
                    data = socks[c].recv(1 << 16)
                except BlockingIOError:
                    continue
                except OSError:
                    data = b""
                if not data:
                    logs[c].dropped = True
                    return logs, start
                t = clock()
                buf = inbuf[c] + data
                parts = buf.split(b"\n")
                inbuf[c] = parts.pop()
                log = logs[c]
                for line in parts:
                    log.replies.append(line)
                    if is_primary(line):
                        log.latency_ns.append(t - due[c][got[c]])
                        got[c] += 1
                        received += 1
    finally:
        sel.close()
        for sock in socks:
            sock.setblocking(True)
    return logs, start
