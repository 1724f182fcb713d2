"""JSONL workload traces: persist and replay task sequences.

Real evaluation traces from 1996-era machines are unavailable (see
DESIGN.md); this gives experiments a durable, diffable stand-in.  One JSON
object per line:

    {"id": 0, "size": 4, "arrival": 0.0, "departure": 7.5, "work": 1.0}

``departure`` may be the string ``"inf"`` (or be omitted) for tasks that
never leave.  Lines starting with ``#`` are comments.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Union

from repro.errors import TraceFormatError
from repro.tasks.sequence import TaskSequence
from repro.tasks.task import Task
from repro.types import TaskId

__all__ = ["write_trace", "read_trace", "trace_line"]


def trace_line(task: Task) -> str:
    """Serialise one task as a JSON line."""
    record = {
        "id": int(task.task_id),
        "size": task.size,
        "arrival": task.arrival,
        "departure": "inf" if math.isinf(task.departure) else task.departure,
        "work": task.work,
    }
    return json.dumps(record, separators=(",", ":"))


def write_trace(path: Union[str, Path], sequence: TaskSequence) -> None:
    """Write every task of the sequence to a JSONL trace file."""
    path = Path(path)
    tasks = sorted(sequence.tasks.values(), key=lambda t: (t.arrival, t.task_id))
    lines = ["# repro task trace v1"]
    lines += [trace_line(t) for t in tasks]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_line(line: str, lineno: int) -> Task:
    try:
        record = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON and an int past Python's digit
        # limit; RecursionError, nesting too deep to parse.
        raise TraceFormatError(f"line {lineno}: invalid JSON ({exc})") from exc
    if not isinstance(record, dict):
        raise TraceFormatError(f"line {lineno}: expected an object")
    try:
        tid = TaskId(int(record["id"]))
        size = int(record["size"])
        arrival = float(record["arrival"])
        dep_raw = record.get("departure", "inf")
        departure = math.inf if dep_raw in ("inf", None) else float(dep_raw)
        work = float(record.get("work", 1.0))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise TraceFormatError(f"line {lineno}: missing/invalid field ({exc})") from exc
    try:
        return Task(tid, size, arrival, departure, work)
    except Exception as exc:
        raise TraceFormatError(f"line {lineno}: {exc}") from exc


def read_trace(path: Union[str, Path]) -> TaskSequence:
    """Load a JSONL trace file into a validated :class:`TaskSequence`."""
    path = Path(path)
    tasks: list[Task] = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tasks.append(_parse_line(stripped, lineno))
    return TaskSequence.from_tasks(tasks)
