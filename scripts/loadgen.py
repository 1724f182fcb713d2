#!/usr/bin/env python
"""Socket load generator for ``repro serve --listen``.

Drives N concurrent clients against a running allocation service (one
session behind ``repro serve --listen``), measures per-operation
latency, and writes a JSONL artifact: one line per client with its
latency percentiles, then one aggregate line.

Each client plays its own churn-style arrival/departure stream with a
disjoint task-id range (client ``c`` uses ids ``c*10**7 + i``), so any
number of clients can share one backend without id collisions.  Two
load modes:

* ``closed`` (default) — send one record, await its reply, repeat: the
  latency of each operation includes the full round trip, and offered
  load self-adjusts to service capacity.
* ``open`` — send at a fixed per-client rate (``--rate`` records/sec)
  regardless of replies; a reader task matches replies by order (the
  protocol answers strictly in order per connection), so latencies show
  queueing delay building up when the service saturates.

Error replies (``{"error": ...}``) and overload notices
(``{"overloaded": true, ...}``) are counted, not fatal — backpressure is
part of what this tool is for measuring.

Usage:
    python scripts/loadgen.py --addr 127.0.0.1:7341 \
        --clients 8 --events 500 --mode closed --out loadgen.jsonl
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from typing import Any, Optional

import numpy as np


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted latency list."""
    if not sorted_values:
        return float("nan")
    rank = min(len(sorted_values) - 1, int(q / 100.0 * len(sorted_values)))
    return sorted_values[rank]


def client_stream(client: int, events: int, num_pes: int, seed: int):
    """Arrival/departure records for one client (disjoint id range)."""
    rng = np.random.default_rng(seed * 1000003 + client)
    # The seed folds into the id base so runs with different seeds against
    # the same (stateful) server never collide on task ids.
    base = (seed * 997 + client) * 10**7
    max_log = max(0, (num_pes.bit_length() - 1) - 2)
    active: list[int] = []
    t = 0.0
    next_id = 0
    for _ in range(events):
        t += float(rng.random()) * 1e-3
        if active and (rng.random() < 0.5 or len(active) > 64):
            tid = active.pop(int(rng.integers(len(active))))
            yield {"kind": "departure", "id": tid}
        else:
            tid = base + next_id
            next_id += 1
            active.append(tid)
            yield {
                "kind": "arrival",
                "id": tid,
                "size": 1 << int(rng.integers(0, max_log + 1)),
                "work": round(float(rng.random()) * 2 + 0.5, 4),
            }


def classify(line: bytes) -> str:
    """decision | admission | error | overloaded (one reply line)."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError:
        return "error"
    if not isinstance(obj, dict):
        return "error"
    if "error" in obj:
        return "error"
    if obj.get("overloaded"):
        return "overloaded"
    return "decision"


async def run_client(
    client: int, args: argparse.Namespace
) -> dict[str, Any]:
    host, _, port = args.addr.rpartition(":")
    reader, writer = await asyncio.open_connection(host, int(port))
    latencies: list[float] = []
    counts = {"decision": 0, "error": 0, "overloaded": 0}
    records = list(client_stream(client, args.events, args.n, args.seed))
    start = time.perf_counter()

    async def read_reply() -> Optional[str]:
        # Overload notices ride after a decision on the same request —
        # absorb them here so the next reply still pairs with its request.
        line = await reader.readline()
        if not line:
            return None
        kind = classify(line)
        counts[kind] += 1
        return kind

    if args.mode == "closed":
        for record in records:
            sent = time.perf_counter()
            writer.write(json.dumps(record).encode() + b"\n")
            await writer.drain()
            kind = await read_reply()
            if kind is None:
                break
            latencies.append(time.perf_counter() - sent)
            if kind == "overloaded" or (
                counts["overloaded"] and await absorb_pending(reader, counts)
            ):
                await asyncio.sleep(args.backoff)
    else:  # open loop
        send_times: asyncio.Queue[float] = asyncio.Queue()

        async def reader_task() -> None:
            while True:
                kind = await read_reply()
                if kind is None:
                    return
                if kind == "overloaded":
                    continue  # paired with the previous decision
                latencies.append(time.perf_counter() - await send_times.get())

        task = asyncio.create_task(reader_task())
        interval = 1.0 / args.rate if args.rate > 0 else 0.0
        next_send = time.perf_counter()
        for record in records:
            now = time.perf_counter()
            if interval and now < next_send:
                await asyncio.sleep(next_send - now)
            next_send += interval
            await send_times.put(time.perf_counter())
            writer.write(json.dumps(record).encode() + b"\n")
            await writer.drain()
        # Let in-flight replies land, then stop reading.
        deadline = time.perf_counter() + args.drain_timeout
        while not send_times.empty() and time.perf_counter() < deadline:
            await asyncio.sleep(0.01)
        task.cancel()
    elapsed = time.perf_counter() - start
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError, OSError):
        pass
    latencies.sort()
    return {
        "client": client,
        "mode": args.mode,
        "events_sent": len(records),
        "replies": sum(counts.values()),
        "decisions": counts["decision"],
        "errors": counts["error"],
        "overload_notices": counts["overloaded"],
        "elapsed_s": round(elapsed, 6),
        "throughput_eps": round(len(latencies) / elapsed, 1) if elapsed else 0,
        "latency_ms": {
            "p50": round(percentile(latencies, 50) * 1e3, 3),
            "p90": round(percentile(latencies, 90) * 1e3, 3),
            "p99": round(percentile(latencies, 99) * 1e3, 3),
            "max": round(latencies[-1] * 1e3, 3) if latencies else None,
        },
    }


async def absorb_pending(reader, counts) -> bool:
    """Non-blocking sweep for an overload notice trailing a decision."""
    try:
        line = await asyncio.wait_for(reader.readline(), timeout=0.001)
    except asyncio.TimeoutError:
        return False
    if line:
        counts[classify(line)] += 1
    return True


async def main_async(args: argparse.Namespace) -> int:
    results = await asyncio.gather(
        *(run_client(c, args) for c in range(args.clients)),
        return_exceptions=True,
    )
    ok = [r for r in results if isinstance(r, dict)]
    failed = [r for r in results if not isinstance(r, dict)]
    all_lat: list[float] = []
    out_lines = []
    for r in ok:
        out_lines.append(json.dumps(r))
    total_events = sum(r["decisions"] for r in ok)
    elapsed = max((r["elapsed_s"] for r in ok), default=0.0)
    # Aggregate percentiles from per-client p50s would be wrong; reuse
    # the per-client latency medians only for the summary spread and
    # recompute throughput from totals.
    summary = {
        "aggregate": True,
        "clients": args.clients,
        "failed_clients": len(failed),
        "mode": args.mode,
        "decisions": total_events,
        "errors": sum(r["errors"] for r in ok),
        "overload_notices": sum(r["overload_notices"] for r in ok),
        "wall_s": round(elapsed, 6),
        "throughput_eps": round(total_events / elapsed, 1) if elapsed else 0,
        "p99_ms_worst_client": max(
            (r["latency_ms"]["p99"] for r in ok), default=None
        ),
    }
    out_lines.append(json.dumps(summary))
    text = "\n".join(out_lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    for exc in failed:
        print(f"client failed: {exc!r}", file=sys.stderr)
    del all_lat
    return 1 if failed else 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--addr", required=True, help="HOST:PORT of repro serve --listen")
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--events", type=int, default=200, help="records per client")
    parser.add_argument("--mode", choices=("closed", "open"), default="closed")
    parser.add_argument("--rate", type=float, default=200.0,
                        help="per-client records/sec in open mode")
    parser.add_argument("--n", type=int, default=256,
                        help="machine size the server was started with "
                        "(bounds generated task sizes)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--backoff", type=float, default=0.05,
                        help="closed-loop pause after an overload notice")
    parser.add_argument("--drain-timeout", type=float, default=5.0)
    parser.add_argument("--out", help="JSONL artifact path")
    args = parser.parse_args(argv)
    return asyncio.run(main_async(args))


if __name__ == "__main__":
    raise SystemExit(main())
