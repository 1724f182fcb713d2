"""Online allocation service: streaming sessions over the shared kernel.

The batch simulators replay a finished trace; this package serves the
*online* problem the paper actually poses — tasks "arrive at unpredictable
times" — as a long-lived, durably journaled service:

* :class:`~repro.service.session.AllocationSession` — one interactive
  session: push arrivals/departures (and faults), read the running
  ``L_A``/``L*``/competitive ratio at any instant, resume bit-identically
  from its journal after a crash;
* :mod:`~repro.service.slo` — per-task SLOs: the admission controller,
  typed ``Admit | Queue | Reject | Cancel`` outcomes, and the
  backpressure watermarks (see ``docs/SLO.md``);
* :mod:`~repro.service.stream` — the JSONL wire format consumed by
  ``repro simulate --stream`` and ``repro serve``;
* :mod:`~repro.service.shard.server` — the socket/stdin front-end that
  ``repro serve`` runs one session behind;
* :mod:`~repro.service.metrics` — Prometheus text exposition for the
  live ``L_A``/``L*``/ratio/event-rate gauges (``--metrics-port``).
"""

from repro.service.metrics import (
    Sample,
    parse_exposition,
    render_exposition,
    service_samples,
)
from repro.service.session import AllocationSession
from repro.service.slo import (
    Admit,
    AdmissionController,
    AdmissionOutcome,
    Cancel,
    Queue,
    Reject,
    SLOPolicy,
)
from repro.service.stream import (
    EVENT_KINDS,
    admission_lines,
    decision_line,
    iter_event_records,
    parse_event_record,
    records_from_events,
    sequence_records,
)

__all__ = [
    "Admit",
    "AdmissionController",
    "AdmissionOutcome",
    "AllocationSession",
    "Cancel",
    "EVENT_KINDS",
    "Queue",
    "Reject",
    "SLOPolicy",
    "Sample",
    "admission_lines",
    "decision_line",
    "iter_event_records",
    "parse_event_record",
    "parse_exposition",
    "records_from_events",
    "render_exposition",
    "sequence_records",
    "service_samples",
]
