#!/usr/bin/env python
"""Performance-regression harness around the perf benchmark suites.

Runs the kernel micro-benchmarks (``bench_perf_kernels.py``) and the
ingest-throughput suite (``bench_throughput.py``) via pytest-benchmark,
distills the JSON into a compact per-kernel snapshot
(``benchmarks/snapshots/BENCH_<date>_N<k>.json``), and compares it against
the most recent previous snapshot taken at the same machine size.  A
kernel whose mean time grew by more than ``--tolerance`` (fractional,
default 0.25) fails the gate and the script exits 1 — wire it into CI or
run it by hand before merging perf-sensitive changes.

Benchmarks whose name contains ``journal`` are fsync/I-O bound, so
their variance tracks the storage stack of the machine, not the code
under test.  They skip the mean-time gate and are instead held to a
*looser* events/sec-only gate (4x the base tolerance): storage jitter
passes, halving the durable ingest rate does not.  They are recorded in
the snapshot (including the events/sec extra info) as the throughput
record.

Usage:
    python scripts/bench_snapshot.py                 # full N (4096)
    python scripts/bench_snapshot.py --bench-n 256   # fast smoke
    python scripts/bench_snapshot.py --check-only    # compare, don't save
    python scripts/bench_snapshot.py --tolerance 0.5
    python scripts/bench_snapshot.py --out art.json  # also write artifact

Snapshots are plain JSON and meant to be committed: the history of
``benchmarks/snapshots/`` is the project's performance record.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT_DIR = REPO_ROOT / "benchmarks" / "snapshots"
BENCH_FILES = [
    REPO_ROOT / "benchmarks" / "bench_perf_kernels.py",
    REPO_ROOT / "benchmarks" / "bench_throughput.py",
    REPO_ROOT / "benchmarks" / "bench_journal.py",
]

#: Substrings marking a benchmark as I/O-bound: no mean-time gate, and
#: the events/sec gate widens by JOURNAL_RATE_SLACK.
GATE_EXEMPT_MARKERS = ("journal",)

#: Multiplier on --tolerance for the I/O-bound events/sec gate.
JOURNAL_RATE_SLACK = 4.0


def run_benchmarks(bench_n: int | None) -> dict:
    """Run the kernel benchmarks, returning pytest-benchmark's raw JSON."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    if bench_n is not None:
        env["REPRO_BENCH_N"] = str(bench_n)
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        raw_path = Path(tmp.name)
    try:
        cmd = [
            sys.executable,
            "-m",
            "pytest",
            *[str(f) for f in BENCH_FILES],
            "--benchmark-only",
            "-q",
            f"--benchmark-json={raw_path}",
        ]
        proc = subprocess.run(cmd, cwd=REPO_ROOT, env=env)
        if proc.returncode != 0:
            raise SystemExit(f"benchmark run failed (pytest exit {proc.returncode})")
        return json.loads(raw_path.read_text())
    finally:
        raw_path.unlink(missing_ok=True)


def distill(raw: dict, bench_n: int) -> dict:
    """Reduce pytest-benchmark output to a stable, diff-friendly snapshot."""
    kernels = {}
    for bench in raw.get("benchmarks", []):
        stats = bench["stats"]
        entry = {
            "mean_s": stats["mean"],
            "median_s": stats["median"],
            "min_s": stats["min"],
            "stddev_s": stats["stddev"],
            "rounds": stats["rounds"],
        }
        rate = bench.get("extra_info", {}).get("events_per_sec")
        if rate is not None:
            entry["events_per_sec"] = rate
        kernels[bench["name"]] = entry
    return {
        "schema": 1,
        "date": datetime.date.today().isoformat(),
        "bench_n": bench_n,
        "python": platform.python_version(),
        "machine": platform.machine(),
        # Record the host's core count so the numbers are interpretable.
        "cpu_count": os.cpu_count(),
        "kernels": dict(sorted(kernels.items())),
    }


def latest_snapshot(
    bench_n: int | None = None, exclude: Path | None = None
) -> Path | None:
    """Most recent snapshot, optionally restricted to one machine size."""
    if not SNAPSHOT_DIR.is_dir():
        return None
    candidates = []
    for path in sorted(SNAPSHOT_DIR.glob("BENCH_*.json")):
        if path == exclude:
            continue
        if bench_n is not None:
            try:
                if json.loads(path.read_text()).get("bench_n") != bench_n:
                    continue
            except (OSError, json.JSONDecodeError):
                continue
        candidates.append(path)
    return candidates[-1] if candidates else None


def gate_exempt(name: str) -> bool:
    return any(marker in name for marker in GATE_EXEMPT_MARKERS)


def compare(previous: dict, current: dict, tolerance: float) -> list[str]:
    """Return regression messages for kernels slower than ``tolerance``.

    Two axes are gated with the same relative tolerance: per-call mean
    time (must not grow past ``1 + tolerance``) and, where both snapshots
    record it, ``events_per_sec`` throughput (must not fall below
    ``prev / (1 + tolerance)``).  The throughput gate catches regressions
    the mean-time gate can miss when a benchmark's event count changes.
    """
    problems = []
    if previous.get("bench_n") != current.get("bench_n"):
        print(
            f"note: previous snapshot used N={previous.get('bench_n')}, "
            f"current uses N={current.get('bench_n')}; skipping the gate."
        )
        return problems
    prev_kernels = previous.get("kernels", {})
    for name, cur in current["kernels"].items():
        prev = prev_kernels.get(name)
        if prev is None:
            print(f"  new kernel (no baseline): {name}")
            continue
        ratio = cur["mean_s"] / prev["mean_s"] if prev["mean_s"] else float("inf")
        if gate_exempt(name):
            marker = "I/O-bound (rate gate only)"
        elif ratio > 1 + tolerance:
            marker = "REGRESSION"
        else:
            marker = "ok"
        print(
            f"  {name}: {prev['mean_s'] * 1e6:.2f}us -> "
            f"{cur['mean_s'] * 1e6:.2f}us  ({ratio:.2f}x)  {marker}"
        )
        if marker == "REGRESSION":
            problems.append(
                f"{name} slowed {ratio:.2f}x "
                f"(tolerance {1 + tolerance:.2f}x)"
            )
        prev_rate, cur_rate = prev.get("events_per_sec"), cur.get("events_per_sec")
        rate_tolerance = (
            tolerance * JOURNAL_RATE_SLACK if gate_exempt(name) else tolerance
        )
        if (
            prev_rate
            and cur_rate is not None
            and cur_rate < prev_rate / (1 + rate_tolerance)
        ):
            print(
                f"  {name}: {prev_rate} ev/s -> {cur_rate} ev/s  "
                f"THROUGHPUT REGRESSION"
            )
            problems.append(
                f"{name} throughput fell {prev_rate} -> {cur_rate} ev/s "
                f"(tolerance {1 + rate_tolerance:.2f}x)"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bench-n",
        type=int,
        default=None,
        help="machine size for the kernels (sets REPRO_BENCH_N; default 4096)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional mean-time growth per kernel (default 0.25)",
    )
    parser.add_argument(
        "--check-only",
        action="store_true",
        help="compare against the latest snapshot without writing a new one",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="also write the distilled snapshot to this path (CI artifact)",
    )
    args = parser.parse_args(argv)

    raw = run_benchmarks(args.bench_n)
    effective_n = args.bench_n if args.bench_n is not None else int(
        os.environ.get("REPRO_BENCH_N", "4096")
    )
    snapshot = distill(raw, effective_n)

    baseline_path = latest_snapshot(bench_n=effective_n)
    problems: list[str] = []
    if baseline_path is not None:
        print(f"comparing against {baseline_path.relative_to(REPO_ROOT)}:")
        baseline = json.loads(baseline_path.read_text())
        problems = compare(baseline, snapshot, args.tolerance)
    else:
        print(f"no previous N={effective_n} snapshot; this run becomes the baseline.")

    if not args.check_only:
        SNAPSHOT_DIR.mkdir(parents=True, exist_ok=True)
        out = SNAPSHOT_DIR / f"BENCH_{snapshot['date']}_N{effective_n}.json"
        serial = 2
        while out.exists():
            # Same-day rerun: never clobber a committed baseline.  The
            # ``_r<k>`` suffix sorts after the bare name, so
            # latest_snapshot() still picks the newest file.
            out = (
                SNAPSHOT_DIR
                / f"BENCH_{snapshot['date']}_N{effective_n}_r{serial}.json"
            )
            serial += 1
        out.write_text(json.dumps(snapshot, indent=2) + "\n")
        print(f"wrote {out.relative_to(REPO_ROOT)}")

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(snapshot, indent=2) + "\n")
        print(f"wrote {args.out}")

    if problems:
        print("performance gate FAILED:")
        for p in problems:
            print(f"  - {p}")
        return 1
    print("performance gate passed.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
