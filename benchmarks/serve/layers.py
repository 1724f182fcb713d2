"""Per-layer metrics from the traced server's spans.

A span's *self time* is its duration minus the time its child spans
cover; calls are synchronous, so children never overlap and the
coverage is the sum of their durations.  Only requests whose root span
(``ServiceServer._serve_line``) starts inside a timed window count, so
warm-up and the closing control lines stay out; the transport probe's
lines (text ``probe ...``) are set aside by their text.  Set-up spans
(request 0) feed the ``resume.*`` metrics.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict

#: Span name -> workloads on which the traced run must record calls to it.
#: Zero calls there means the wrapper sits on an import site the server
#: no longer uses, and the traced run fails.
COVERAGE = {
    "server": "*",
    "stream.decode": "*",
    "stream.encode": "*",
    "session.push": ("durable_churn", "open_pair", "realloc_restart"),
    "session.offer": ("slo_flash",),
    "session.absorb": "*",
    "session.flush": ("slo_flash",),
    "kernel.apply": "*",
    "kernel.snapshot": "*",
    "repack": ("realloc_restart",),
    "loads.rebuild": ("realloc_restart",),
    "loads.descent": ("durable_churn", "open_pair", "slo_flash"),
    "journal.record": "*",
    "fsync": "*",
    "resume.open": "*",
    "resume.replay": ("realloc_restart",),
}

#: name -> unit, in report order.
PER_LAYER = {
    "server.self_us": "us",
    "server.calls": "count",
    "server.queue_us": "us",
    "transport.rtt_us": "us",
    "trace.unattributed_frac": "ratio",
    "stream.decode_us": "us",
    "stream.encode_us": "us",
    "session.self_us": "us",
    "session.flush_calls": "count",
    "session.flush_ms": "ms",
    "slo.offer_self_us": "us",
    "slo.admitted": "count",
    "slo.queued": "count",
    "slo.rejected": "count",
    "slo.cancelled": "count",
    "slo.overload_notices": "count",
    "kernel.apply_us_p50": "us",
    "kernel.apply_us_p99": "us",
    "kernel.snapshot_calls": "count",
    "kernel.snapshot_ms": "ms",
    "repack.calls": "count",
    "repack.ms": "ms",
    "loads.rebuild_ms": "ms",
    "loads.descent_us": "us",
    "kernel.reallocations": "count",
    "kernel.migrations": "count",
    "journal.record_us": "us",
    "journal.bytes_per_record": "B",
    "fsync.calls_per_event": "ratio",
    "fsync.us": "us",
    "fsync.share": "ratio",
    "resume.open_ms": "ms",
    "resume.replay_ms": "ms",
    "resume.verify_ms": "ms",
    "resume.events": "count",
    "metrics.scrape_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.stage_sum_err": "ratio",
}


class Totals:
    """Per span name: calls, summed duration and summed self time (ns),
    plus each ``kernel.apply`` call's duration for its percentiles."""

    def __init__(self) -> None:
        self.calls = defaultdict(int)
        self.total = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.durations = defaultdict(list)

    def mean_us(self, name: str, field: str = "total") -> float:
        calls = self.calls[name]
        return getattr(self, field)[name] / calls / 1e3 if calls else 0.0


def percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def analyse(spans: dict, window: tuple[int, int]):
    """Fold one traced server's spans.

    Returns ``(measured, setup, everything, roots, probe_roots)``: totals
    over measured requests, over set-up, and over the whole life (for
    the coverage check), ``(line text, start, duration)`` of each
    measured root span, and the root durations of the transport probe's
    lines (text ``probe ...``).
    """
    names = spans["names"]
    name, start, end = spans["name"], spans["start"], spans["end"]
    parent, request = spans["parent"], spans["request"]
    texts = spans["texts"]
    n = len(name)
    child = [0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    server = names.index("server") if "server" in names else -1
    lo, hi = window
    measured_req, probe_roots, roots = set(), [], []
    for i in range(n):
        if name[i] != server:
            continue
        if texts[request[i]].startswith("probe"):
            probe_roots.append(end[i] - start[i])
        elif lo <= start[i] <= hi:
            measured_req.add(request[i])
            roots.append((texts[request[i]], start[i], end[i] - start[i]))
    measured, setup, everything = Totals(), Totals(), Totals()
    for i in range(n):
        label = names[name[i]]
        dur = end[i] - start[i]
        own = dur - child[i]
        req = request[i]
        targets = [everything]
        if req == 0:
            targets.append(setup)
        elif req in measured_req:
            targets.append(measured)
        for t in targets:
            t.calls[label] += 1
            t.total[label] += dur
            t.self_ns[label] += own
        if label == "kernel.apply" and req in measured_req:
            measured.durations[label].append(dur)
    return measured, setup, everything, roots, probe_roots


def per_layer(lives: list[dict], *, client_mean_ns: float, lag_mean_ns: float,
              probe_rtt_ns: list, replies: dict, journal_bytes: int,
              scrape_ms: float, overhead_frac: float) -> tuple[dict, dict]:
    """Per-layer metrics over every server life of one traced pass.

    ``lives`` holds, per server life, its loaded ``spans``, its measured
    ``window`` and, for open-loop lives, ``sends``: the client's send
    time of each request keyed by ``(kind, id)``.  Returns the metrics
    and the per-span call counts over all lives (for coverage).
    """
    m, setup_last, calls = Totals(), None, defaultdict(int)
    roots, probe_roots, open_roots = [], [], []
    for life in lives:
        meas, setup, everything, r, pr = analyse(life["spans"], life["window"])
        for key in meas.calls:
            m.calls[key] += meas.calls[key]
            m.total[key] += meas.total[key]
            m.self_ns[key] += meas.self_ns[key]
            m.durations[key].extend(meas.durations[key])
        for key, value in everything.calls.items():
            calls[key] += value
        setup_last = setup
        roots.extend(dur for _text, _start, dur in r)
        probe_roots.extend(pr)
        if "sends" in life:
            open_roots.extend((life["sends"], text, start) for text, start, _ in r)
    n_req = len(roots) or 1
    root_mean = sum(roots) / n_req
    rtt = [max(0, c - s) for c, s in zip(probe_rtt_ns, probe_roots)]
    transport = statistics.median(rtt) if rtt else 0.0
    # Open loop: a request waits for the server while it serves other
    # connections.  The wait runs from its send (plus the one-way trip,
    # half the probe's round trip) to the start of its own root span.
    wait = 0
    for sends, text, start in open_roots:
        record = json.loads(text)
        wait += max(0, start - sends[(record["kind"], record["id"])] - transport / 2)
    queue = wait / n_req
    apply_d = sorted(m.durations["kernel.apply"])
    out = {
        "server.self_us": m.self_ns["server"] / n_req / 1e3,
        "server.calls": m.calls["server"],
        "server.queue_us": queue / 1e3,
        "transport.rtt_us": transport / 1e3,
        "trace.unattributed_frac": 1.0 - root_mean / client_mean_ns,
        "stream.decode_us": m.mean_us("stream.decode"),
        "stream.encode_us": m.mean_us("stream.encode"),
        "session.self_us": (m.self_ns["session.push"]
                            + m.self_ns["session.absorb"]) / n_req / 1e3,
        "session.flush_calls": m.calls["session.flush"],
        "session.flush_ms": m.total["session.flush"] / 1e6,
        "slo.offer_self_us": m.mean_us("session.offer", "self_ns"),
        "slo.admitted": replies["admitted"],
        "slo.queued": replies["queued"],
        "slo.rejected": replies["rejected"],
        "slo.cancelled": replies["cancelled"],
        "slo.overload_notices": replies["overloaded"],
        "kernel.apply_us_p50": percentile(apply_d, 0.50) / 1e3,
        "kernel.apply_us_p99": percentile(apply_d, 0.99) / 1e3,
        "kernel.snapshot_calls": m.calls["kernel.snapshot"],
        "kernel.snapshot_ms": m.total["kernel.snapshot"] / 1e6,
        "repack.calls": m.calls["repack"],
        "repack.ms": m.total["repack"] / 1e6,
        "loads.rebuild_ms": m.total["loads.rebuild"] / 1e6,
        "loads.descent_us": m.mean_us("loads.descent"),
        "kernel.reallocations": replies["reallocations"],
        "kernel.migrations": replies["migrations"],
        "journal.record_us": m.mean_us("journal.record", "self_ns"),
        "journal.bytes_per_record": (journal_bytes / calls["journal.record"]
                                     if calls["journal.record"] else 0.0),
        "fsync.calls_per_event": m.calls["fsync"] / n_req,
        "fsync.us": m.mean_us("fsync"),
        "fsync.share": m.total["fsync"] / (sum(roots) or 1),
        "resume.open_ms": setup_last.total["resume.open"] / 1e6,
        "resume.replay_ms": setup_last.total["resume.replay"] / 1e6,
        "resume.verify_ms": setup_last.total["kernel.snapshot"] / 1e6,
        "resume.events": setup_last.calls["resume.replay"],
        "metrics.scrape_ms": scrape_ms,
        "trace.overhead_frac": overhead_frac,
        "trace.stage_sum_err":
            abs(lag_mean_ns + queue + root_mean + transport - client_mean_ns)
            / client_mean_ns,
    }
    return out, dict(calls)


def coverage_gaps(workload: str, calls: dict) -> list[str]:
    """Declared spans that recorded no call on this workload."""
    return [name for name, where in COVERAGE.items()
            if (where == "*" or workload in where) and not calls.get(name)]
