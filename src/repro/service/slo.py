"""Per-task SLOs for the online service: admission control + backpressure.

Section 2 of the paper ties user-visible *slowdown* under round-robin
time-sharing to the maximum PE load inside a task's submachine
(:mod:`repro.sim.slowdown` makes that executable).  So a slowdown target
is a **load target**: a submachine whose max PE load exceeds
``floor(slowdown_target)`` is in violation, and an arrival whose best
placement would push it there should not be admitted at all.

This module provides the policy and bookkeeping that
:class:`~repro.service.session.AllocationSession` uses to enforce that:

* :class:`SLOPolicy` — the immutable contract: slowdown target (mapped to
  an integer load target via
  :func:`~repro.sim.slowdown.load_target_for_slowdown`), the bounded
  admission-queue capacity, the deterministic ``retry_after`` hint, and
  the journal-lag watermarks that drive backpressure;
* :class:`Admit` / :class:`Queue` / :class:`Reject` / :class:`Cancel` —
  the typed admission outcomes returned by
  :meth:`~repro.service.session.AllocationSession.offer`;
* :class:`AdmissionController` — the FIFO admission queue plus the
  counters surfaced through ``status()``.

Every admission decision is journaled by the session (``"slo"``-marked
records), so a resumed session replays the *same* queue contents,
counters, and decisions bit-identically — the controller itself never
consults a clock or an RNG.

See ``docs/SLO.md`` for the admission model and the two-choice bound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Union

from repro.errors import SimulationError
from repro.kernel.decision import Decision
from repro.sim.slowdown import load_target_for_slowdown

__all__ = [
    "Admit",
    "AdmissionController",
    "AdmissionOutcome",
    "Cancel",
    "Queue",
    "Reject",
    "SLOPolicy",
]


@dataclass(frozen=True)
class SLOPolicy:
    """The service-level contract one session enforces.

    Parameters
    ----------
    slowdown_target:
        Worst tolerated round-robin slowdown (>= 1).  Translated once to
        the integer ``load_target`` — the max PE load an admitted task's
        submachine may reach.
    queue_capacity:
        Bounded FIFO admission queue: arrivals that cannot be admitted
        wait here (up to this many) until capacity frees; beyond it they
        are rejected.
    retry_after:
        Deterministic client hint attached to :class:`Reject` outcomes
        and ``"overloaded"`` wire records.
    high_watermark / low_watermark:
        Journal fsync lag (pending record count) at which the session
        reports :attr:`~repro.service.session.AllocationSession.overloaded`
        — with hysteresis: overload engages at the high mark and clears
        only at the low mark.
    high_watermark_bytes / low_watermark_bytes:
        The same watermarks on pending journal *bytes* (either trips the
        high mark; both must clear for the low mark).
    """

    slowdown_target: float
    queue_capacity: int = 64
    retry_after: float = 1.0
    high_watermark: int = 1024
    low_watermark: int = 128
    high_watermark_bytes: int = 1 << 20
    low_watermark_bytes: int = 1 << 17

    def __post_init__(self) -> None:
        if not self.slowdown_target >= 1.0:
            raise SimulationError(
                f"slowdown_target must be >= 1 (a dedicated submachine has "
                f"load 1), got {self.slowdown_target!r}"
            )
        if self.queue_capacity < 0:
            raise SimulationError(
                f"queue_capacity must be >= 0, got {self.queue_capacity}"
            )
        if self.retry_after <= 0:
            raise SimulationError(
                f"retry_after must be positive, got {self.retry_after}"
            )
        if not 0 < self.low_watermark <= self.high_watermark:
            raise SimulationError(
                f"watermarks must satisfy 0 < low <= high, got "
                f"low={self.low_watermark} high={self.high_watermark}"
            )
        if not 0 < self.low_watermark_bytes <= self.high_watermark_bytes:
            raise SimulationError(
                f"byte watermarks must satisfy 0 < low <= high, got "
                f"low={self.low_watermark_bytes} "
                f"high={self.high_watermark_bytes}"
            )

    @property
    def load_target(self) -> int:
        """The integer max-PE-load bound the slowdown target implies."""
        return load_target_for_slowdown(self.slowdown_target)

    def to_dict(self) -> dict[str, Any]:
        return {
            "slowdown_target": self.slowdown_target,
            "load_target": self.load_target,
            "queue_capacity": self.queue_capacity,
            "retry_after": self.retry_after,
            "high_watermark": self.high_watermark,
            "low_watermark": self.low_watermark,
            "high_watermark_bytes": self.high_watermark_bytes,
            "low_watermark_bytes": self.low_watermark_bytes,
        }


@dataclass(frozen=True)
class Admit:
    """The event was applied; ``decision`` is the kernel's placement.

    ``drained`` carries the decisions for any queued arrivals this event
    unblocked (admitted strictly FIFO, at this event's timestamp).
    """

    record: Mapping[str, Any]
    decision: Decision
    drained: tuple[Decision, ...] = ()

    verdict = "admit"


@dataclass(frozen=True)
class Queue:
    """The arrival waits in the FIFO admission queue."""

    record: Mapping[str, Any]
    task_id: int
    position: int
    queued: int

    verdict = "queue"


@dataclass(frozen=True)
class Reject:
    """The arrival was turned away (queue full); retry after the hint."""

    record: Mapping[str, Any]
    task_id: int
    reason: str
    retry_after: float

    verdict = "reject"


@dataclass(frozen=True)
class Cancel:
    """A departure/kill for a task that never reached the kernel.

    ``dequeued`` is True when the task was waiting in the admission queue
    (a client cancel); False when it had already been rejected — the
    record is absorbed as a no-op either way, so replaying a recorded
    stream through an SLO session never trips on a task the gate dropped.
    """

    record: Mapping[str, Any]
    task_id: int
    dequeued: bool
    drained: tuple[Decision, ...] = ()

    verdict = "cancel"


AdmissionOutcome = Union[Admit, Queue, Reject, Cancel]


@dataclass
class AdmissionController:
    """FIFO admission queue + the counters ``status()`` surfaces.

    Pure bookkeeping: the *session* decides (it owns the kernel loads and
    the journal); the controller only holds deterministic state so that
    journal replay can reconstruct it mechanically.
    """

    policy: SLOPolicy
    _queue: "deque[dict[str, Any]]" = field(default_factory=deque)
    _pending_ids: set[int] = field(default_factory=set)
    _dropped_ids: set[int] = field(default_factory=set)
    admitted_total: int = 0
    drained_total: int = 0
    queued_total: int = 0
    rejected_total: int = 0
    canceled_total: int = 0
    slo_violations: int = 0

    @property
    def load_target(self) -> int:
        return self.policy.load_target

    @property
    def queued(self) -> int:
        return len(self._queue)

    @property
    def queue_empty(self) -> bool:
        return not self._queue

    @property
    def queue_full(self) -> bool:
        return len(self._queue) >= self.policy.queue_capacity

    def head(self) -> Optional[dict[str, Any]]:
        return self._queue[0] if self._queue else None

    def is_pending(self, task_id: int) -> bool:
        """Is ``task_id`` waiting in the admission queue?"""
        return int(task_id) in self._pending_ids

    def was_dropped(self, task_id: int) -> bool:
        """Was ``task_id`` rejected or canceled before reaching the kernel?"""
        return int(task_id) in self._dropped_ids

    def enqueue(self, record: dict[str, Any]) -> int:
        position = len(self._queue)
        self._queue.append(dict(record))
        self._pending_ids.add(int(record["id"]))
        self.queued_total += 1
        return position

    def pop(self) -> dict[str, Any]:
        record = self._queue.popleft()
        self._pending_ids.discard(int(record["id"]))
        return record

    def cancel(self, task_id: int) -> bool:
        """Remove ``task_id`` from the queue; True if it was waiting."""
        tid = int(task_id)
        if tid not in self._pending_ids:
            self._dropped_ids.add(tid)
            return False
        for i, record in enumerate(self._queue):
            if int(record["id"]) == tid:
                del self._queue[i]
                break
        self._pending_ids.discard(tid)
        self._dropped_ids.add(tid)
        self.canceled_total += 1
        return True

    def reject(self, task_id: int) -> None:
        self._dropped_ids.add(int(task_id))
        self.rejected_total += 1

    def revive(self, task_id: int) -> None:
        """Forget a drop: the client retried the id with a fresh arrival."""
        self._dropped_ids.discard(int(task_id))

    def queue_snapshot(self) -> tuple[dict[str, Any], ...]:
        """The queued arrival records, FIFO order (copies)."""
        return tuple(dict(r) for r in self._queue)

    def state(self) -> dict[str, Any]:
        """JSON-safe image of the queue, the dropped ids and the counters
        (the pending ids are the queued ones)."""
        return {
            "queue": [dict(r) for r in self._queue],
            "dropped": sorted(self._dropped_ids),
            **self.counters(),
        }

    def load_state(self, state: Mapping[str, Any]) -> None:
        """Adopt a :meth:`state` image (same policy assumed)."""
        counters = {key: int(state[key]) for key in self.counters()}
        queue = deque(dict(r) for r in state["queue"])
        pending = {int(r["id"]) for r in queue}
        dropped = {int(t) for t in state["dropped"]}
        self._queue, self._pending_ids, self._dropped_ids = queue, pending, dropped
        for key, value in counters.items():
            setattr(self, key, value)

    def counters(self) -> dict[str, int]:
        return {
            "admitted_total": self.admitted_total,
            "drained_total": self.drained_total,
            "queued_total": self.queued_total,
            "rejected_total": self.rejected_total,
            "canceled_total": self.canceled_total,
            "slo_violations": self.slo_violations,
        }
