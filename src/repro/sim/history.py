"""Run history folded from kernel decisions.

The :class:`~repro.kernel.AllocationKernel` keeps live state only, so the
drivers that need history — slowdown, audit, archives, steady-state
averages — fold it from the :class:`~repro.kernel.decision.Decision`
stream: an arrival's node, a departure's or kill's time, and the
``moves`` a reallocation, salvage or resize made::

    history = RunHistory()
    for event in sigma:
        history.record(kernel.apply(event))
    history.placement_intervals()   # (start, end, node) per task
    history.series                  # max load after every event
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.sim.metrics import LoadTimeSeries
from repro.types import NodeId, TaskId

if TYPE_CHECKING:
    from repro.kernel.decision import Decision

__all__ = ["RunHistory"]


class RunHistory:
    """Placement history and max-load series of one run."""

    def __init__(self) -> None:
        self.series = LoadTimeSeries()
        # Every (start_time, node) a task ever held, in order.
        self._placements: dict[TaskId, list[tuple[float, NodeId]]] = {}
        self._ends: dict[TaskId, float] = {}

    def record(self, decision: Decision) -> Decision:
        """Fold one decision in and return it (``record(kernel.apply(e))``)."""
        time = decision.time
        self.series.record(time, decision.max_load)
        if decision.kind == "arrival":
            self._placements[decision.task_id] = [(time, decision.node)]
        elif decision.kind in ("departure", "kill") and not decision.noop:
            self._ends[decision.task_id] = time
        for task_id, node in decision.moves:
            self._placements[task_id].append((time, node))
        return decision

    def extend(self, decisions: Iterable[Decision]) -> None:
        for decision in decisions:
            self.record(decision)

    def placement_intervals(self) -> dict[TaskId, list[tuple[float, float, NodeId]]]:
        """Exact (start, end, node) residence segments for every task seen.

        ``end`` is the task's departure time (``inf`` if it never departed)
        or the instant a reallocation moved it.  This is the input the
        slowdown model integrates over — it reflects what actually ran,
        including mid-life migrations.
        """
        intervals: dict[TaskId, list[tuple[float, float, NodeId]]] = {}
        for tid, changes in self._placements.items():
            end_of_life = self._ends.get(tid, float("inf"))
            segments = []
            for i, (start, node) in enumerate(changes):
                end = changes[i + 1][0] if i + 1 < len(changes) else end_of_life
                if end > start:
                    segments.append((start, end, node))
            intervals[tid] = segments
        return intervals
