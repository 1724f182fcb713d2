"""Prometheus-style text exposition for the allocation service.

The paper's figures of merit are live gauges: the running max PE load
``L_A``, the omniscient bound ``L*`` and their ratio.  This module turns
a session's ``status()`` dict into the `text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ every
scraper speaks, and parses it back, so the format itself is testable by
round trip (no Prometheus client library is needed or used).

Conventions: every metric is prefixed ``repro_`` but the standard
``process_resident_memory_bytes``; counters end in ``_total``; booleans
are 0/1 gauges.  ``NaN``/``+Inf`` render in Prometheus spelling (a fresh
session's competitive ratio is genuinely undefined or unbounded).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.errors import TraceFormatError

__all__ = [
    "Sample",
    "parse_exposition",
    "process_memory",
    "render_exposition",
    "service_samples",
]


@dataclass(frozen=True)
class Sample:
    """One exposition line: ``name{labels} value``."""

    name: str
    value: float
    labels: tuple[tuple[str, str], ...] = ()

    def key(self) -> tuple[str, tuple[tuple[str, str], ...]]:
        return (self.name, self.labels)


#: metric name -> (type, help) for everything :func:`service_samples` emits.
_METRICS: dict[str, tuple[str, str]] = {
    "repro_events_total": ("counter", "Events absorbed by the service"),
    "repro_now": ("gauge", "Session clock (event time)"),
    "repro_active_tasks": ("gauge", "Tasks currently allocated"),
    "repro_active_size": ("gauge", "Active PE volume (sum of task sizes)"),
    "repro_max_load": ("gauge", "Running max PE load L_A"),
    "repro_current_max_load": ("gauge", "Instantaneous max PE load"),
    "repro_optimal_load": ("gauge", "Running omniscient bound L*"),
    "repro_competitive_ratio": ("gauge", "L_A / L*"),
    "repro_journal_pending": ("gauge", "Journal records awaiting fsync"),
    "repro_queued_tasks": ("gauge", "Arrivals waiting in the admission queue"),
    "repro_rejected_total": ("counter", "Arrivals rejected by admission control"),
    "repro_slo_violations_total": ("counter", "Placements past the load target"),
    "repro_overloaded": ("gauge", "Backpressure engaged (bool)"),
    "repro_events_per_second": ("gauge", "Event rate since the last scrape"),
    "repro_resume_restored_events": (
        "gauge", "Events the last resume restored from the state sidecar"
    ),
    "repro_resume_replayed_events": (
        "gauge", "Events the last resume replayed from the journal"
    ),
    "process_resident_memory_bytes": ("gauge", "Resident memory size in bytes"),
    "repro_process_peak_resident_memory_bytes": (
        "gauge", "Peak resident memory size in bytes"
    ),
}

#: status() key -> metric name.
_STATUS_KEYS: tuple[tuple[str, str], ...] = (
    ("events", "repro_events_total"),
    ("now", "repro_now"),
    ("active_tasks", "repro_active_tasks"),
    ("active_size", "repro_active_size"),
    ("max_load", "repro_max_load"),
    ("current_max_load", "repro_current_max_load"),
    ("optimal_load", "repro_optimal_load"),
    ("competitive_ratio", "repro_competitive_ratio"),
    ("journal_pending", "repro_journal_pending"),
    ("queued_tasks", "repro_queued_tasks"),
    ("rejected_total", "repro_rejected_total"),
    ("slo_violations", "repro_slo_violations_total"),
    ("events_per_second", "repro_events_per_second"),
    ("resume_restored_events", "repro_resume_restored_events"),
    ("resume_replayed_events", "repro_resume_replayed_events"),
    ("resident_memory_bytes", "process_resident_memory_bytes"),
    ("peak_resident_memory_bytes", "repro_process_peak_resident_memory_bytes"),
)


def process_memory(status_path: str = "/proc/self/status") -> dict[str, int]:
    """This process's resident memory in bytes, as status keys:
    ``resident_memory_bytes`` (``VmRSS``) and ``peak_resident_memory_bytes``
    (``VmHWM``) from ``status_path``.  Where that file does not exist, the
    peak comes from :func:`resource.getrusage` and the current size is
    left out."""
    try:
        with open(status_path) as fh:
            fields = dict(line.split(":", 1) for line in fh if ":" in line)
    except OSError:
        try:
            import resource
        except ImportError:  # no getrusage on this platform
            return {}
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is in bytes on macOS, in KiB elsewhere.
        return {
            "peak_resident_memory_bytes": peak if sys.platform == "darwin" else peak * 1024
        }
    out: dict[str, int] = {}
    for field, key in (
        ("VmRSS", "resident_memory_bytes"), ("VmHWM", "peak_resident_memory_bytes")
    ):
        if field in fields:
            out[key] = int(fields[field].split()[0]) * 1024  # "123 kB"
    return out


def service_samples(status: Mapping[str, Any]) -> list[Sample]:
    """Samples for one :meth:`AllocationSession.status` dict.

    Keys the status does not carry (``events_per_second``, the
    ``resume_*`` counts and the :func:`process_memory` sizes outside a
    scrape) are simply absent from the output — scrapers treat missing
    series as "not exported".
    """
    samples: list[Sample] = []
    for key, name in _STATUS_KEYS:
        if key in status:
            samples.append(Sample(name, float(status[key])))
    slo = status.get("slo")
    if isinstance(slo, Mapping) and "overloaded" in slo:
        samples.append(
            Sample("repro_overloaded", 1.0 if slo["overloaded"] else 0.0)
        )
    return samples


def _render_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def render_exposition(samples: Iterable[Sample]) -> str:
    """The Prometheus text page: HELP/TYPE headers, then sample lines.

    Samples are grouped by metric name in first-appearance order (the
    format requires all series of one metric to be contiguous).
    """
    by_name: dict[str, list[Sample]] = {}
    for sample in samples:
        by_name.setdefault(sample.name, []).append(sample)
    lines: list[str] = []
    for name, group in by_name.items():
        mtype, help_text = _METRICS.get(name, ("gauge", name))
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {mtype}")
        for sample in group:
            if sample.labels:
                body = ",".join(
                    f'{k}="{_escape_label(v)}"' for k, v in sample.labels
                )
                lines.append(f"{name}{{{body}}} {_render_value(sample.value)}")
            else:
                lines.append(f"{name} {_render_value(sample.value)}")
    return "\n".join(lines) + "\n"


def _parse_labels(body: str) -> tuple[tuple[str, str], ...]:
    labels: list[tuple[str, str]] = []
    i = 0
    while i < len(body):
        eq = body.index("=", i)
        key = body[i:eq].strip()
        if body[eq + 1] != '"':
            raise TraceFormatError(f"unquoted label value in {body!r}")
        j = eq + 2
        value: list[str] = []
        while body[j] != '"':
            if body[j] == "\\":
                j += 1
                value.append(
                    {"n": "\n", "\\": "\\", '"': '"'}.get(body[j], body[j])
                )
            else:
                value.append(body[j])
            j += 1
        labels.append((key, "".join(value)))
        i = j + 1
        if i < len(body) and body[i] == ",":
            i += 1
    return tuple(labels)


def parse_exposition(text: str) -> list[Sample]:
    """Inverse of :func:`render_exposition` (comments skipped).

    Raises :class:`~repro.errors.TraceFormatError` on a malformed line,
    so the round-trip test fails loudly rather than dropping series.
    """
    samples: list[Sample] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            if "{" in stripped:
                name, rest = stripped.split("{", 1)
                body, value_part = rest.rsplit("}", 1)
                labels = _parse_labels(body)
            else:
                name, value_part = stripped.split(None, 1)
                labels = ()
            value = float(value_part.strip().split()[0])
        except (ValueError, IndexError) as exc:
            raise TraceFormatError(
                f"exposition line {lineno} is malformed: {stripped!r}"
            ) from exc
        samples.append(Sample(name.strip(), value, labels))
    return samples
