#!/usr/bin/env python3
"""End-to-end serving benchmark for ``repro serve --listen``.

Usage (from the repository root)::

    python benchmarks/serve/run.py [--workload W] [--seed S] [--seconds T]
                                   [--trace [0|1]] [--repeat K] [--out FILE]

Boots ``python -m repro serve --listen 127.0.0.1:0`` from the checkout
this file lives in, drives it from this one process over at most two
connections, checks every reply against an in-process reference, and
prints each end-to-end metric by name and unit.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace`` each run is repeated against ``traced_server.py`` and
the last line carries the per-layer metrics instead.  ``--repeat K``
runs seeds ``S .. S+K-1`` and reports medians and quartiles.  The exit
code is 0 only when every referee check passes.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import client
import layers
import referee
import streams
from layers import percentile
from referee import ServerConfig

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".serve_bench"
#: Stream sizes in streams.py are written for runs of this many seconds.
BASE_SECONDS = 10

WORKLOADS = {
    "durable_churn": ServerConfig("greedy", "always"),
    "open_pair": ServerConfig("greedy", "interval:10"),
    "slo_flash": ServerConfig("twochoice", "batch", slo_target=3.0, slo_queue=64),
    "realloc_restart": ServerConfig("periodic", "interval:10", d=0.0625),
}

#: End-to-end metrics: name -> unit.  All are printed and recorded; only
#: GATED ones carry a bound in BENCHMARK.json and go in the JSON line (see
#: README.md, "Noise and bounds": on the reference host the time-based
#: ones drift by more than the largest bound from one run to the next).
E2E = {
    "throughput_eps": "ev/s",
    "reply_p50_ms": "ms",
    "reply_p99_ms": "ms",
    "setup_s": "s",
    "failed_frac": "ratio",
    "server_rss_mb": "MB",
    "server_cpu_ms_per_kev": "ms",
    "journal_bytes_per_event": "B",
}
GATED = ["setup_s", "server_rss_mb", "journal_bytes_per_event"]

FRESH_BOOTS = 3        # start-up samples of a fresh server (median)
PROBE_EVERY = 50       # traced pass: one probe line per this many timed requests
PROBE_LINES = 200      # ... or this many spread over an open-loop life's warm-up
STATUS = b'{"op":"status"}\n'


class BenchError(Exception):
    """The benchmark could not run (not a wrong reply)."""


# -- Server process -----------------------------------------------------------


class Server:
    """One ``repro serve --listen`` process (optionally the traced one)."""

    def __init__(self, cfg: ServerConfig, journal: Path, spans: Path | None = None,
                 boot_timeout: float = 150.0):
        cmd = [sys.executable]
        cmd += [str(HERE / "traced_server.py"), str(spans)] if spans else ["-m", "repro"]
        cmd += ["serve", "--listen", "127.0.0.1:0", "--metrics-port", "0",
                "--journal", str(journal), *cfg.flags()]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        t0 = time.monotonic()
        # Unbuffered: a buffered reader could swallow the second start-up
        # line and leave select() waiting on an empty pipe.
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                     bufsize=0)
        self.stderr: list[str] = []
        self.addr = self.metrics_addr = None
        try:
            while self.metrics_addr is None:
                line = self._stderr_line(t0 + boot_timeout)
                if line.startswith("listening on "):
                    self.setup_s = time.monotonic() - t0
                    self.addr = _hostport(line.split()[-1])
                elif line.startswith("metrics on "):
                    self.metrics_addr = _hostport(line.split("//")[-1].split("/")[0])
        except BaseException:
            self.kill()
            raise

    def _stderr_line(self, deadline: float) -> str:
        import selectors

        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stderr, selectors.EVENT_READ)
            if not sel.select(max(0.0, deadline - time.monotonic())):
                raise BenchError("server did not start in time")
        line = self.proc.stderr.readline().decode(errors="replace")
        if not line:
            self.proc.wait()
            raise BenchError("server exited during start-up:\n" + "".join(self.stderr))
        self.stderr.append(line)
        return line

    @property
    def pid(self) -> int:
        return self.proc.pid

    def cpu_ticks(self) -> int:
        """utime + stime so far, in clock ticks."""
        with open(f"/proc/{self.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return int(fields[11]) + int(fields[12])

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self, timeout: float = 120.0) -> None:
        """SIGINT (the server commits its journal and exits), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            rest = self.proc.communicate(timeout=timeout)[1]
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("server did not stop after SIGINT")
        self.stderr.append(rest.decode(errors="replace"))
        if self.proc.returncode != 0:
            raise BenchError(f"server exited {self.proc.returncode}:\n"
                             + "".join(self.stderr))

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def _hostport(text: str) -> tuple[str, int]:
    host, _, port = text.strip().rpartition(":")
    return host, int(port)


def scrape(addr: tuple[str, int]) -> tuple[float, bytes]:
    """One HTTP GET of the metrics page: (milliseconds, body)."""
    t0 = time.monotonic_ns()
    with socket.create_connection(addr) as sock:
        sock.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
        chunks = []
        while data := sock.recv(1 << 16):
            chunks.append(data)
    ms = (time.monotonic_ns() - t0) / 1e6
    return ms, b"".join(chunks).partition(b"\r\n\r\n")[2]


def fresh_boot_seconds(cfg: ServerConfig, run_dir: Path, count: int) -> list[float]:
    """Start-up times of ``count`` throw-away servers on fresh journals."""
    out = []
    for i in range(count):
        journal = run_dir / f"boot{i}.journal"
        server = Server(cfg, journal)
        server.stop()
        out.append(server.setup_s)
        journal.unlink()
    return out


def fsync_probe_us(directory: Path, count: int = 200) -> float:
    """Median microseconds of a 4 KiB append plus fsync in ``directory``."""
    path = directory / "fsync.probe"
    block = b"\0" * 4096
    times = []
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        for _ in range(count):
            t0 = time.perf_counter_ns()
            os.write(fd, block)
            os.fsync(fd)
            times.append(time.perf_counter_ns() - t0)
    finally:
        os.close(fd)
        path.unlink()
    return statistics.median(times) / 1e3


# -- One pass: every server life of one workload run -------------------------


@dataclass
class Pass:
    """What the client saw during one pass over a workload's stream."""

    #: Per server life: ``replies`` and ``sent`` (one list per request
    #: group: the warm-up, then each timed connection), ``journal``,
    #: ``fresh``, the timed ``window`` and, when traced, ``spans_path``.
    lives: list[dict] = field(default_factory=list)
    #: ns from send (closed loop) or due time (open loop) to each timed reply.
    latency_ns: list[int] = field(default_factory=list)
    lag_ns: list[int] = field(default_factory=list)
    measured_ns: int = 0
    measured_lines: list[bytes] = field(default_factory=list)
    cpu_ticks: int = 0
    setup_s: float = 0.0
    rss_mb: float = 0.0
    journal_bytes: int = 0
    dropped: int = 0
    scrape_ms: float = 0.0
    probe_rtt_ns: list[int] = field(default_factory=list)
    realtime: bool = False

    def replies(self) -> list[bytes]:
        return [line for life in self.lives for group in life["replies"]
                for line in group]

    def requests(self) -> int:
        return sum(len(group) for life in self.lives for group in life["sent"])


def _skipper(records: list[dict], log: client.ConnLog, rejected: set[int]):
    """``skip(i)`` for slo_flash: drop the departure of a rejected task.

    New reply lines are scanned for ``{"slo":"rejected"`` on every call,
    so the decision uses every reply received before the send.
    """
    dep = [r["id"] if r["kind"] == "departure" else -1 for r in records]
    seen = 0

    def skip(i: int) -> bool:
        nonlocal seen
        for line in log.replies[seen:]:
            rid = referee.rejected_id(line)
            if rid is not None:
                rejected.add(rid)
        seen = len(log.replies)
        return dep[i] >= 0 and dep[i] in rejected

    return skip


@contextmanager
def client_priority():
    """Drive the server at real-time priority, with cyclic GC off.

    On a two-CPU host a client that waits its turn behind the server (or
    behind a GC pass over its own heap) sends late and reads late, and
    that delay would be charged to the server.  ``SCHED_FIFO`` wakes the
    client the moment its timer or reply arrives; the client only ever
    blocks in ``recv``/``select``, so it cannot starve the server.
    Without the privilege the client runs at normal priority and the run
    records so.  Yields whether real-time scheduling is in effect.
    """
    gc.disable()
    try:
        os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(1))
        realtime = True
    except (AttributeError, OSError):
        realtime = False
    try:
        yield realtime
    finally:
        if realtime:
            os.sched_setscheduler(0, os.SCHED_OTHER, os.sched_param(0))
        gc.enable()


def _send(loop: client.ClosedLoop, records: list[dict], skip_for,
          probe: client.ConnLog | None = None, every: int = 0) -> client.ConnLog:
    """Send ``records`` in a closed loop.

    With a ``probe`` log, one malformed line follows every ``every``-th
    request: the server's cheapest replied path, timed while the server
    is in the same state as the traffic around it.  Rider lines of the
    request before a probe arrive ahead of the probe's reply and go back
    to ``records``' log.
    """
    log = client.ConnLog()
    skip = skip_for(records, log)
    lines = [streams.encode(r) for r in records]
    step = every if probe is not None else max(1, len(lines))
    for a in range(0, len(lines), step):
        loop.run(lines, skip=skip, log=log, start=a, stop=min(a + step, len(lines)))
        if probe is not None:
            t0 = time.monotonic_ns()
            _reply, riders = loop.request(b"probe %d\n" % a)
            probe.latency_ns.append(time.monotonic_ns() - t0)
            log.replies.extend(riders)
    return log


def run_pass(name: str, stream: streams.Stream, run_dir: Path, *, traced: bool,
             page_path: Path | None = None) -> Pass:
    """Serve ``stream`` once, one server process per life."""
    cfg = WORKLOADS[name]
    result = Pass()
    rejected: set[int] = set()
    fresh_starts: list[float] = []
    resumed_starts: list[float] = []
    probe = client.ConnLog() if traced else None

    def skip_for(records, log):
        return _skipper(records, log, rejected) if cfg.slo_target else None

    journal = None
    for k, plan in enumerate(stream.lives):
        if plan.fresh:
            journal = run_dir / f"{'traced' if traced else 'plain'}{k}.journal"
            rejected.clear()
        spans = run_dir / f"spans{k}.bin" if traced else None
        server = Server(cfg, journal, spans)
        (fresh_starts if plan.fresh else resumed_starts).append(server.setup_s)
        life = {"spans_path": spans, "journal": journal, "fresh": plan.fresh,
                "replies": [], "sent": []}
        socks = []
        try:
            socks = [client.connect(*server.addr) for _ in plan.conns]
            loop = client.ClosedLoop(socks[0])
            with client_priority() as result.realtime:
                # The traced pass probes the transport during the timed
                # phase, or during the warm-up when the timed phase is an
                # open loop that has no gaps for a probe.
                closed = len(plan.conns) == 1
                if plan.warmup:
                    log = _send(loop, plan.warmup, skip_for, None if closed else probe,
                                max(1, len(plan.warmup) // PROBE_LINES))
                    life["replies"].append(log.replies)
                    life["sent"].append([plan.warmup[i] for i in log.sent])
                    result.dropped += log.dropped
                cpu0 = server.cpu_ticks()
                t0 = time.monotonic_ns()
                if closed:
                    logs = [_send(loop, plan.conns[0], skip_for, probe, PROBE_EVERY)]
                    t1 = time.monotonic_ns()
                else:
                    logs, t0 = client.open_loop(
                        socks, [[streams.encode(r) for r in c] for c in plan.conns],
                        streams.OPEN_RATE)
                    t1 = max((due + lat for log in logs
                              for due, lat in zip(log.due_ns, log.latency_ns)),
                             default=t0)
                    life["sends"] = {referee.request_key(plan.conns[c][j]): ns
                                     for c, log in enumerate(logs)
                                     for j, ns in zip(log.sent, log.send_ns)}
                result.cpu_ticks += server.cpu_ticks() - cpu0
            life["window"] = (t0, t1)
            result.measured_ns += t1 - t0
            # The status reply is a commit point and trails every rider
            # line of the last timed request.
            logs[0].replies.extend(loop.request(STATUS)[1])
            for c, log in enumerate(logs):
                life["replies"].append(log.replies)
                life["sent"].append([plan.conns[c][i] for i in log.sent])
                result.latency_ns.extend(log.latency_ns)
                result.lag_ns.extend(b - a for a, b in zip(log.due_ns, log.send_ns))
                result.measured_lines.extend(log.replies)
                result.dropped += log.dropped
            result.scrape_ms, page = scrape(server.metrics_addr)
            if page_path is not None:
                page_path.write_bytes(page)
            result.rss_mb = max(result.rss_mb, server.peak_rss_mb())
        finally:
            for sock in socks:
                sock.close()
            server.stop()
        result.lives.append(life)
    if not traced and len(fresh_starts) < FRESH_BOOTS:
        fresh_starts += fresh_boot_seconds(cfg, run_dir, FRESH_BOOTS - len(fresh_starts))
    result.setup_s = statistics.median(fresh_starts) + sum(resumed_starts)
    result.journal_bytes = sum(life["journal"].stat().st_size
                               for life in result.lives if life["fresh"])
    result.probe_rtt_ns = probe.latency_ns if probe is not None else []
    return result


# -- Referee -------------------------------------------------------------------


def reference_lines(name: str, stream: streams.Stream, run_dir: Path) -> list[bytes]:
    """Every reply line a single-connection stream is owed, in order.

    One reference session per fresh server life, continued (not
    restarted) across resumed lives: a resumed server must answer as if
    it had never stopped.
    """
    cfg = WORKLOADS[name]
    slo = cfg.slo_target is not None
    journal = run_dir / "reference.journal" if slo else None
    out: list[bytes] = []
    ref = None
    try:
        for plan in stream.lives:
            if plan.fresh:
                if ref is not None:
                    ref.close()
                if journal is not None and journal.exists():
                    journal.unlink()
                ref = referee.Reference(cfg, journal)
                rejected: set[int] = set()
            for record in plan.warmup + plan.conns[0]:
                if slo and record["kind"] == "departure" and record["id"] in rejected:
                    continue
                lines = ref.reply(record)
                rid = referee.rejected_id(lines[0])
                if rid is not None:
                    rejected.add(rid)
                out.extend(line.encode() for line in lines)
    finally:
        if ref is not None:
            ref.close()
        if journal is not None and journal.exists():
            journal.unlink()
    return out


def mismatches(got: list[bytes], want: list[bytes]) -> int:
    """Reply lines that differ, plus lines missing or extra."""
    return sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))


def check_open(sent: list[list[dict]], replies: list[list[bytes]],
               served: tuple[list[dict], dict]) -> int:
    """Compare one server life's replies with its journal-order replay.

    ``sent`` and ``replies`` hold one list per request group (warm-up,
    then each connection).  ``served`` is :func:`referee.journal_replay`'s
    result: the records in the order the server journaled them and the
    reference reply of each, keyed by ``(kind, task id)``.
    """
    records, by_key = served
    keys = [referee.request_key(r) for group in sent for r in group]
    bad = 0
    if sorted(keys) != sorted(referee.request_key(r) for r in records):
        bad += 1
    for group_sent, group_replies in zip(sent, replies):
        primaries = [line for line in group_replies if client.is_primary(line)]
        bad += abs(len(primaries) - len(group_sent))
        for record, line in zip(group_sent, primaries):
            key = referee.request_key(record)
            if referee.primary_key(line) != key or by_key.get(key) != line:
                bad += 1
    return bad


def planted(replies: list[list[bytes]]) -> list[list[bytes]]:
    """A copy of the replies with one decision line altered."""
    out = [list(r) for r in replies]
    for group in out:
        for i in range(len(group) // 2, len(group)):
            if group[i].startswith(b'{"kind"'):
                group[i] = group[i].replace(b'"time":', b'"time":1', 1)
                return out
    raise BenchError("no decision line to tamper with")


def referee_verdict(name: str, result: Pass, want: list[bytes] | None) -> tuple[int, bool]:
    """(mismatched or missing replies, whether a planted mismatch went
    unnoticed).  ``want`` is the single-connection reference; without it
    every life is checked against its own journal."""
    if want is not None:
        got = result.replies()
        return mismatches(got, want), mismatches(planted([got])[0], want) == 0
    cfg = WORKLOADS[name]
    bad, vacuous = 0, False
    for k, life in enumerate(result.lives):
        served = referee.journal_replay(cfg, life["journal"])
        bad += check_open(life["sent"], life["replies"], served)
        if k == 0:
            vacuous = check_open(life["sent"], planted(life["replies"]), served) == 0
    return bad, vacuous


# -- Metrics -------------------------------------------------------------------


def outcome_counts(lines: list[bytes]) -> dict:
    """Reply lines by outcome, plus the reallocations and migrations the
    decisions report."""
    counts = dict(admitted=0, queued=0, rejected=0, cancelled=0, overloaded=0,
                  errors=0, reallocations=0, migrations=0)
    for line in lines:
        if line.startswith(b'{"overloaded"'):
            counts["overloaded"] += 1
        elif line.startswith(b'{"slo":"queued"'):
            counts["queued"] += 1
        elif line.startswith(b'{"slo":"rejected"'):
            counts["rejected"] += 1
        elif line.startswith(b'{"slo":"cancelled"'):
            counts["cancelled"] += 1
        elif line.startswith(b'{"error"'):
            counts["errors"] += 1
        elif line.startswith(b'{"kind":"arrival"'):
            counts["admitted"] += 1
        if b'"reallocated":true' in line:
            counts["reallocations"] += 1
            counts["migrations"] += json.loads(line).get("migrations", 0)
    return counts


def end_to_end(result: Pass, attempted: int, failed: int) -> tuple[dict, dict]:
    """End-to-end metrics over the timed phases, and diagnostics."""
    lat = sorted(result.latency_ns)
    ms_per_tick = 1000.0 / os.sysconf("SC_CLK_TCK")
    metrics = {
        "throughput_eps": len(lat) / (result.measured_ns / 1e9),
        "reply_p50_ms": percentile(lat, 0.50) / 1e6,
        "reply_p99_ms": percentile(lat, 0.99) / 1e6,
        "setup_s": result.setup_s,
        "failed_frac": failed / attempted,
        "server_rss_mb": result.rss_mb,
        "server_cpu_ms_per_kev": result.cpu_ticks * ms_per_tick / (len(lat) / 1000.0),
        "journal_bytes_per_event": result.journal_bytes / attempted,
    }
    diag = {
        "reply_p999_ms": percentile(lat, 0.999) / 1e6,
        "reply_samples": len(lat),
        "samples_beyond_p999": len(lat) - math.ceil(0.999 * len(lat)),
        "outcomes": outcome_counts(result.measured_lines),
        "client_realtime": result.realtime,
    }
    if result.lag_ns:
        diag["gen_lag_p99_ms"] = percentile(sorted(result.lag_ns), 0.99) / 1e6
    return metrics, diag


# -- One workload run ------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 run_dir: Path) -> dict:
    t_start = time.monotonic()
    stream = streams.BUILDERS[name](seed, seconds / BASE_SECONDS)
    single = all(len(plan.conns) == 1 for plan in stream.lives)
    want = reference_lines(name, stream, run_dir) if single else None
    out = {"workload": name, "seed": seed, "stream_sha256": stream.digest(),
           "params": stream.params}
    if want is not None:
        out["reference_sha256"] = referee.lines_digest(want)
    attempted = failed = 0
    correct = True
    timing = {"reference_s": time.monotonic() - t_start}
    for traced in [False, True] if trace else [False]:
        page = None if traced else WORK / f"metrics_{name}.prom"
        t_pass = time.monotonic()
        result = run_pass(name, stream, run_dir, traced=traced, page_path=page)
        timing["traced_pass_s" if traced else "pass_s"] = time.monotonic() - t_pass
        requests = result.requests()
        errors = outcome_counts(result.replies())["errors"]
        bad, vacuous = referee_verdict(name, result, want)
        fails = min(requests, errors + bad + result.dropped)
        attempted += requests
        failed += fails
        metrics, diag = end_to_end(result, requests, fails)
        diag["reply_sha256"] = referee.lines_digest(result.replies())
        if diag.get("gen_lag_p99_ms", 0.0) > 1.0:
            diag["invalid"] = "open-loop generator lagged more than 1 ms at p99"
            print(f"warning: {name} seed={seed}: {diag['invalid']}", file=sys.stderr)
        if vacuous:
            diag["referee_vacuous"] = True
        correct &= fails == 0 and not vacuous
        if not traced:
            out["metrics"], out["diagnostics"] = metrics, diag
            plain_cpu = metrics["server_cpu_ms_per_kev"]
        else:
            for life in result.lives:
                life["spans"] = _load_spans(life.pop("spans_path"))
            per, calls = layers.per_layer(
                result.lives,
                client_mean_ns=statistics.fmean(result.latency_ns),
                lag_mean_ns=statistics.fmean(result.lag_ns or [0]),
                probe_rtt_ns=result.probe_rtt_ns,
                replies=outcome_counts(result.measured_lines),
                journal_bytes=result.journal_bytes, scrape_ms=result.scrape_ms,
                overhead_frac=metrics["server_cpu_ms_per_kev"] / plain_cpu - 1.0)
            gaps = layers.coverage_gaps(name, calls)
            if gaps:
                correct = False
                out["coverage_gaps"] = gaps
            if per["trace.stage_sum_err"] > 0.10:
                out["stage_sum_exceeded"] = per["trace.stage_sum_err"]
            out["per_layer"], out["span_calls"] = per, calls
        for path in run_dir.iterdir():
            path.unlink()
    out["diagnostics"]["client_peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    timing["total_s"] = time.monotonic() - t_start
    out.update(correct=correct, attempted=attempted, failed=failed, timing=timing)
    return out


def _load_spans(path: Path) -> dict:
    import traced_server

    return traced_server.load(str(path))


# -- Reporting -----------------------------------------------------------------


def summarize(runs: list[dict], key: str, units: dict) -> dict:
    """Median, quartiles and spread ((q3 - q1) / median) of each metric
    over the repeats."""
    out = {}
    for metric, unit in units.items():
        values = [r[key][metric] for r in runs if key in r]
        if not values:
            continue
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
        out[metric] = {"value": med, "unit": unit, "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}
    return out


def print_human(run: dict) -> None:
    head = f"{run['workload']} seed={run['seed']}"
    for metric, unit in E2E.items():
        print(f"{head}  {metric:28s} {run['metrics'][metric]:14.6g} {unit}")
    diag = run["diagnostics"]
    print(f"{head}  reply_p999_ms {diag['reply_p999_ms']:.4g} ms "
          f"({diag['reply_samples']} samples, {diag['samples_beyond_p999']} beyond)")
    if "gen_lag_p99_ms" in diag:
        print(f"{head}  gen_lag_p99_ms {diag['gen_lag_p99_ms']:.4g} ms")
    print(f"{head}  outcomes {json.dumps(diag['outcomes'])}")
    for metric, unit in layers.PER_LAYER.items():
        if metric in run.get("per_layer", {}):
            print(f"{head}  {metric:28s} {run['per_layer'][metric]:14.6g} {unit}")
    for key in ("coverage_gaps", "stage_sum_exceeded"):
        if key in run:
            print(f"{head}  {key}: {run[key]}")
    print(f"{head}  correct={run['correct']} attempted={run['attempted']} "
          f"failed={run['failed']}", flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append",
                        help="run only this workload (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BASE_SECONDS,
                        help="measured seconds per run at the reference rates; "
                        "stream sizes scale with it (default: %(default)s)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="also run the traced server and "
                        "report per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1, metavar="K")
    parser.add_argument("--out", type=Path, help="write every result as JSON here")
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir()
    host = {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "fsync_probe_us": fsync_probe_us(run_dir)}
    runs = []
    try:
        for i in range(args.repeat):
            for name in names:
                run = run_workload(name, args.seed + i, args.seconds,
                                   bool(args.trace), run_dir)
                print_human(run)
                runs.append(run)
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    summary = {}
    for name in names:
        mine = [r for r in runs if r["workload"] == name]
        summary[name] = {"end_to_end": summarize(mine, "metrics", E2E),
                         "per_layer": summarize(mine, "per_layer", layers.PER_LAYER),
                         "stream_sha256": {r["seed"]: r["stream_sha256"] for r in mine}}
    if args.repeat > 1:
        for name in names:
            for metric, s in summary[name]["end_to_end"].items():
                print(f"{name}  {metric:28s} median {s['value']:.6g} "
                      f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                      f"{s['unit']}")
    if args.out:
        args.out.write_text(json.dumps({"host": host, "seconds": args.seconds,
                                        "trace": bool(args.trace), "summary": summary,
                                        "runs": runs}, indent=1) + "\n")

    correct = all(r["correct"] for r in runs)
    key = "per_layer" if args.trace else "end_to_end"
    units = layers.PER_LAYER if args.trace else {m: E2E[m] for m in GATED}
    metrics = {}
    for name in names:
        for metric in units:
            entry = summary[name][key][metric]
            label = metric if len(names) == 1 else f"{name}/{metric}"
            metrics[label] = {"value": entry["value"], "unit": entry["unit"]}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
