"""JSONL wire format for streaming allocation sessions.

One event per line, one decision per line back — the format consumed by
``repro simulate --stream`` and ``repro serve`` and produced by
``repro emit``.  Event records::

    {"kind": "arrival", "size": 4}                  # id/time/work optional
    {"kind": "arrival", "size": 2, "id": 7, "time": 3.0, "work": 2.5}
    {"kind": "departure", "id": 7}                  # time optional
    {"kind": "failure", "node": 2, "time": 6.0}     # fault-tolerant sessions
    {"kind": "repair",  "node": 2}
    {"kind": "kill",    "id": 3}
    {"kind": "resize",  "op": "grow", "factor": 2}  # online machine resize

Omitted times auto-advance the session clock; omitted arrival ids are
assigned by the session.  Blank lines and ``#`` comments are ignored, so
hand-written event files stay readable.  Responses are
:meth:`repro.kernel.Decision.to_dict` records, one JSON object per line.
"""

from __future__ import annotations

import json
import math
from typing import IO, Any, Iterable, Iterator, Mapping

from repro.errors import TraceFormatError
from repro.kernel.decision import Decision
from repro.tasks.sequence import TaskSequence

__all__ = [
    "EVENT_KINDS",
    "parse_event_record",
    "iter_event_records",
    "admission_lines",
    "decision_line",
    "sequence_records",
    "records_from_events",
]

#: Every event kind the wire format knows, in canonical tie order.
EVENT_KINDS = ("departure", "arrival", "failure", "repair", "kill", "resize")

_REQUIRED: dict[str, tuple[str, ...]] = {
    "arrival": ("size",),
    "departure": ("id",),
    "failure": ("node",),
    "repair": ("node",),
    "kill": ("id",),
    "resize": ("op",),
}


def parse_event_record(source: Any) -> dict[str, Any]:
    """Validate one JSONL event record (a line or an already-parsed dict).

    Raises :class:`~repro.errors.TraceFormatError` naming the defect:
    unparseable JSON, a non-object line, an unknown ``kind``, or a missing
    required field — streaming clients get a precise rejection instead of
    a deep stack trace.
    """
    if isinstance(source, (str, bytes)):
        try:
            record = json.loads(source)
        except ValueError as exc:  # a JSONDecodeError, or an over-long int
            raise TraceFormatError(f"invalid event JSON: {exc}") from exc
    else:
        record = source
    if not isinstance(record, Mapping):
        raise TraceFormatError(
            f"event record must be a JSON object, got {type(record).__name__}"
        )
    kind = record.get("kind")
    if kind not in _REQUIRED:
        raise TraceFormatError(
            f"unknown event kind {kind!r}; expected one of {sorted(_REQUIRED)}"
        )
    for field in _REQUIRED[kind]:
        if field not in record:
            raise TraceFormatError(f"{kind} event is missing {field!r}")
    return dict(record)


def iter_event_records(stream: IO[str]) -> Iterator[dict[str, Any]]:
    """Yield validated event records from a JSONL stream.

    Blank lines and lines starting with ``#`` are skipped; a malformed
    line raises :class:`~repro.errors.TraceFormatError` with its line
    number so the offending input is findable.
    """
    for lineno, line in enumerate(stream, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            yield parse_event_record(text)
        except TraceFormatError as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from exc


def decision_line(decision: Decision) -> str:
    """One compact JSON line for one kernel decision."""
    return json.dumps(decision.to_dict(), separators=(",", ":"))


def admission_lines(outcome: Any) -> list[str]:
    """Wire lines for one typed admission outcome (SLO sessions).

    An :class:`~repro.service.slo.Admit` yields its decision line plus one
    ``"dequeued": true``-tagged line per queued arrival the event drained;
    ``Queue`` / ``Reject`` / ``Cancel`` yield one ``"slo"``-tagged record
    each (plus drained lines for a cancel that unblocked the queue), so a
    streaming client always sees exactly what happened to its record.
    """
    verdict = getattr(outcome, "verdict", None)
    lines: list[str] = []
    if verdict == "admit":
        lines.append(decision_line(outcome.decision))
    elif verdict == "queue":
        lines.append(json.dumps(
            {"slo": "queued", "id": outcome.task_id,
             "position": outcome.position, "queued": outcome.queued},
            separators=(",", ":"),
        ))
    elif verdict == "reject":
        lines.append(json.dumps(
            {"slo": "rejected", "id": outcome.task_id,
             "reason": outcome.reason, "retry_after": outcome.retry_after},
            separators=(",", ":"),
        ))
    elif verdict == "cancel":
        lines.append(json.dumps(
            {"slo": "cancelled", "id": outcome.task_id,
             "dequeued": outcome.dequeued},
            separators=(",", ":"),
        ))
    else:
        raise TraceFormatError(
            f"not an admission outcome: {type(outcome).__name__}"
        )
    for decision in getattr(outcome, "drained", ()):
        payload = decision.to_dict()
        payload["dequeued"] = True
        lines.append(json.dumps(payload, separators=(",", ":")))
    return lines


def sequence_records(sequence: TaskSequence) -> Iterator[dict[str, Any]]:
    """Convert a batch :class:`TaskSequence` into streaming event records.

    Powers ``repro emit``: any synthetic workload or scenario becomes a
    JSONL stream that ``repro simulate --stream`` (or any other consumer)
    can replay event-by-event.  Departures at ``inf`` (never-departing
    tasks) are omitted — the online model simply never sees them leave.
    """
    for event in sequence:
        if event.kind.value == "arrival":
            task = event.task
            record: dict[str, Any] = {
                "kind": "arrival",
                "time": float(event.time),
                "id": int(task.task_id),
                "size": int(task.size),
            }
            if task.work != 1.0:
                record["work"] = float(task.work)
            yield record
        else:
            if math.isinf(float(event.time)):
                continue
            yield {
                "kind": "departure",
                "time": float(event.time),
                "id": int(event.task_id),
            }


def records_from_events(events: Iterable[Any]) -> list[dict[str, Any]]:
    """Wire records for a mixed task/fault event list (archive embedding)."""
    out: list[dict[str, Any]] = []
    for event in events:
        kind = event.kind.value if hasattr(event.kind, "value") else event.kind
        record: dict[str, Any] = {"kind": kind, "time": float(event.time)}
        if kind == "arrival":
            record["id"] = int(event.task.task_id)
            record["size"] = int(event.task.size)
            if event.task.work != 1.0:
                record["work"] = float(event.task.work)
        elif kind in ("departure", "kill"):
            record["id"] = int(event.task_id)
        elif kind == "resize":
            record["op"] = str(event.op)
            record["factor"] = int(event.factor)
        else:
            record["node"] = int(event.node)
        out.append(record)
    return out
