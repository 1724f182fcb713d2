"""Per-event decision records emitted by the allocation kernel.

Every event the :class:`~repro.kernel.core.AllocationKernel` absorbs
produces one :class:`Decision`: what happened, where the task landed, and
the post-event figures of merit (current max load, active volume, the
running optimal load ``L*`` and hence the instantaneous competitive
ratio).  The streaming service layer serialises these to JSONL, one line
per event, so an online client can watch the paper's quantities evolve in
real time.

A decision is also the unit of history: the kernel keeps only live
state, and a driver that wants residence segments or the max-load series
folds them from the decision stream (:mod:`repro.sim.history`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["Decision", "BatchDecision"]


@dataclass(frozen=True, slots=True)
class Decision:
    """The kernel's answer to one event (post-event state included)."""

    #: ``"arrival" | "departure" | "failure" | "repair" | "kill" | "resize"``.
    kind: str
    time: float
    #: Max PE load immediately after the event — the running ``L_A``.
    max_load: int
    #: Active PE volume (sum of active task sizes) after the event.
    active_size: int
    #: Running ``L* = ceil(peak active volume / N)`` — the paper's
    #: omniscient benchmark, computed online from the peak seen so far.
    optimal_load: int
    task_id: Optional[int] = None
    #: Node the task occupies after the event (arrivals only).
    node: Optional[int] = None
    #: True when the event triggered an accepted d-budget reallocation.
    reallocated: bool = False
    #: Tasks actually moved by the reallocation or salvage, if any.
    migrations: int = 0
    #: True when a fault event triggered a salvage repack.
    salvaged: bool = False
    #: True for metered no-ops (e.g. the scheduled departure of a task
    #: that was already killed).
    noop: bool = False
    #: ``(task_id, new_node)`` for every task the event re-placed: those a
    #: reallocation or salvage moved, every active task at a resize.  Not
    #: in :meth:`to_dict`: history folds read it, wire replies omit it.
    moves: tuple[tuple[int, int], ...] = ()

    @property
    def competitive_ratio(self) -> float:
        """``max_load / optimal_load`` so far (0 on an empty run)."""
        if self.optimal_load == 0:
            return 0.0 if self.max_load == 0 else math.inf
        return self.max_load / self.optimal_load

    def to_dict(self) -> dict[str, Any]:
        """Compact JSON-safe record (falsy optional fields omitted)."""
        ratio = self.competitive_ratio
        out: dict[str, Any] = {
            "kind": self.kind,
            "time": float(self.time),
            "max_load": self.max_load,
            "active_size": self.active_size,
            "optimal_load": self.optimal_load,
            "competitive_ratio": "inf" if math.isinf(ratio) else round(ratio, 6),
        }
        if self.task_id is not None:
            out["task_id"] = self.task_id
        if self.node is not None:
            out["node"] = self.node
        if self.reallocated:
            out["reallocated"] = True
        if self.migrations:
            out["migrations"] = self.migrations
        if self.salvaged:
            out["salvaged"] = True
        if self.noop:
            out["noop"] = True
        return out


@dataclass(frozen=True, slots=True)
class BatchDecision:
    """Summary of one :meth:`AllocationKernel.apply_batch` call.

    The per-event :class:`Decision` records are retained in event order —
    the batch path is an amortisation of the per-event path, not a
    different algorithm, so every individual answer is still available.
    The aggregate fields save callers a pass over the batch.
    """

    #: Per-event decisions, in the order the events were applied.
    decisions: tuple[Decision, ...]
    arrivals: int
    departures: int
    faults: int
    noops: int
    #: Accepted d-budget reallocations triggered inside the batch.
    reallocations: int
    #: Tasks moved by reallocations and salvages inside the batch.
    migrations: int
    salvages: int
    #: Highest max PE load observed after any event in the batch.
    peak_max_load: int
    #: Max PE load after the final event (post-batch state).
    max_load: int
    active_size: int
    optimal_load: int

    @classmethod
    def summarize(
        cls,
        decisions: tuple[Decision, ...],
        *,
        max_load: int,
        active_size: int,
        optimal_load: int,
    ) -> "BatchDecision":
        arrivals = departures = faults = noops = 0
        reallocations = migrations = salvages = 0
        for d in decisions:
            if d.kind == "arrival":
                arrivals += 1
            elif d.kind == "departure":
                departures += 1
            else:
                faults += 1
            if d.noop:
                noops += 1
            if d.reallocated:
                reallocations += 1
            if d.salvaged:
                salvages += 1
            migrations += d.migrations
        return cls(
            decisions=decisions,
            arrivals=arrivals,
            departures=departures,
            faults=faults,
            noops=noops,
            reallocations=reallocations,
            migrations=migrations,
            salvages=salvages,
            peak_max_load=max((d.max_load for d in decisions), default=max_load),
            max_load=max_load,
            active_size=active_size,
            optimal_load=optimal_load,
        )

    @property
    def count(self) -> int:
        return len(self.decisions)

    @property
    def competitive_ratio(self) -> float:
        """``peak max load / optimal_load`` within the batch so far."""
        if self.optimal_load == 0:
            return 0.0 if self.peak_max_load == 0 else math.inf
        return self.peak_max_load / self.optimal_load

    def to_dict(self) -> dict[str, Any]:
        """Compact JSON-safe summary (per-event decisions not included)."""
        ratio = self.competitive_ratio
        return {
            "kind": "batch",
            "count": self.count,
            "arrivals": self.arrivals,
            "departures": self.departures,
            "faults": self.faults,
            "noops": self.noops,
            "reallocations": self.reallocations,
            "migrations": self.migrations,
            "salvages": self.salvages,
            "peak_max_load": self.peak_max_load,
            "max_load": self.max_load,
            "active_size": self.active_size,
            "optimal_load": self.optimal_load,
            "competitive_ratio": "inf" if math.isinf(ratio) else round(ratio, 6),
        }
