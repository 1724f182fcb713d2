"""Run archives: persist a complete run and re-audit it anywhere.

A reproduction artifact is more convincing when the *evidence* can be
shipped, not just the code: this module writes a run — the task sequence
plus the full placement history — to a single JSON file, and loads it back
for independent re-verification with :func:`repro.sim.audit.audit_run`.

Workflow::

    sim = Simulator(machine, algorithm)
    for ev in sigma: sim.step(ev)
    save_run("run.json", machine, sigma, sim)          # archive

    machine2, sigma2, intervals = load_run("run.json")  # anywhere, later
    audit_run(machine2, sigma2, intervals).raise_if_failed()

The file format is versioned JSON: machine descriptor, task table, event
order, and per-task ``(start, end, node)`` segments.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Mapping, Sequence, Union

from repro.errors import TraceFormatError
from repro.machines.base import PartitionableMachine
from repro.machines.factory import machine_descriptor, machine_from_descriptor
from repro.sim.engine import RunResult, Simulator
from repro.tasks.sequence import TaskSequence
from repro.tasks.task import Task
from repro.types import NodeId, TaskId

__all__ = ["save_run", "load_run", "load_run_events", "machine_from_descriptor"]

_FORMAT_VERSION = 1


def _encode_number(x: float):
    return "inf" if math.isinf(x) else x


def _decode_number(x) -> float:
    return math.inf if x == "inf" else float(x)


def save_run(
    path: Union[str, Path],
    machine: PartitionableMachine,
    sequence: TaskSequence,
    simulator: Simulator,
    *,
    metadata: Mapping | None = None,
    result: RunResult | None = None,
    events: Sequence[Mapping[str, Any]] | None = None,
    fault_plan=None,
) -> None:
    """Archive one completed run (machine + sequence + placement history).

    ``simulator`` is the driver that ran it: its history supplies the
    placement segments (a session replays the events it reads back from
    its journal through a fresh simulator to archive).  Pass the :class:`RunResult` to embed its compact
    summary (no load series — ``to_dict()`` default) under
    ``"result_summary"``; the full series can always be recomputed from the
    archived segments.  ``events`` embeds the raw wire-format event log of
    a streaming run (see :mod:`repro.service.stream`) so the exact online
    history — not just the reconstructed task table — ships with the
    evidence; read it back with :func:`load_run_events`.  ``fault_plan``
    overrides the plan discovered on the simulator (sessions track faults
    outside the driver).
    """
    intervals = simulator.placement_intervals()
    payload = {
        "format_version": _FORMAT_VERSION,
        "machine": machine_descriptor(machine),
        "algorithm": simulator.algorithm.name,
        "metadata": dict(metadata or {}),
        "tasks": [
            {
                "id": int(t.task_id),
                "size": t.size,
                "arrival": t.arrival,
                "departure": _encode_number(t.departure),
                "work": t.work,
            }
            for t in sorted(sequence.tasks.values(), key=lambda t: int(t.task_id))
        ],
        "segments": {
            str(int(tid)): [
                [start, _encode_number(end), int(node)] for start, end, node in segs
            ]
            for tid, segs in intervals.items()
        },
        "max_load": simulator.metrics.max_load,
    }
    # A fault-injected run archives its plan too, so the evidence file
    # records *why* tasks moved off failed subtrees.
    plan = fault_plan if fault_plan is not None else getattr(simulator, "plan", None)
    if plan is not None and not plan.is_empty:
        payload["faults"] = plan.to_dict()
    if events is not None:
        payload["events"] = [dict(record) for record in events]
    if result is not None:
        payload["result_summary"] = result.to_dict()
    Path(path).write_text(json.dumps(payload, indent=1), encoding="utf-8")


def _read_payload(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise TraceFormatError(f"{path}: cannot read run archive: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        if exc.pos >= len(text.rstrip()):
            raise TraceFormatError(
                f"{path}: truncated run archive — the JSON document ends "
                f"mid-value at offset {exc.pos} (was the writing process "
                "interrupted?)"
            ) from exc
        raise TraceFormatError(f"{path}: invalid run archive: {exc}") from exc
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise TraceFormatError(
            f"{path}: unsupported archive version {version!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    return payload


def load_run(
    path: Union[str, Path],
) -> tuple[PartitionableMachine, TaskSequence, dict[TaskId, list[tuple[float, float, NodeId]]]]:
    """Load an archived run: (machine, sequence, placement intervals).

    Every failure mode names the offending file: corrupt JSON, a truncated
    write (the common crash artifact — detected as JSON that ends
    mid-document), an unsupported version, or missing/garbled fields all
    raise :class:`~repro.errors.TraceFormatError` with ``path`` in the
    message, so a broken archive in a batch is identifiable at a glance.
    """
    path = Path(path)
    payload = _read_payload(path)
    try:
        machine = machine_from_descriptor(payload["machine"])
        tasks = [
            Task(
                TaskId(int(rec["id"])),
                int(rec["size"]),
                float(rec["arrival"]),
                _decode_number(rec["departure"]),
                float(rec.get("work", 1.0)),
            )
            for rec in payload["tasks"]
        ]
        sequence = TaskSequence.from_tasks(tasks)
        intervals: dict[TaskId, list[tuple[float, float, NodeId]]] = {}
        for tid_str, segs in payload["segments"].items():
            intervals[TaskId(int(tid_str))] = [
                (float(start), _decode_number(end), int(node))
                for start, end, node in segs
            ]
    except TraceFormatError as exc:
        raise TraceFormatError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(
            f"{path}: malformed run archive ({type(exc).__name__}: {exc})"
        ) from exc
    return machine, sequence, intervals


def load_run_events(path: Union[str, Path]) -> list[dict[str, Any]]:
    """The embedded wire-format event log of an archived streaming run.

    Returns ``[]`` for archives written without ``events=`` (batch runs) —
    the task table and segments are still available via :func:`load_run`.
    """
    path = Path(path)
    payload = _read_payload(path)
    events = payload.get("events", [])
    if not isinstance(events, list) or not all(
        isinstance(rec, dict) for rec in events
    ):
        raise TraceFormatError(f"{path}: malformed embedded event log")
    return [dict(rec) for rec in events]
