"""Work-driven ("closed-loop") simulation: departures happen when work ends.

The main :class:`~repro.sim.engine.Simulator` replays a *trace*: departure
times are part of the input, which is the right model for the paper's
load analysis.  To compare *response times* across operating models (the
paper's time-shared service vs the related work's exclusive queueing),
departures must instead be computed from the service each task actually
receives: a task on a crowded PE takes longer, departs later, and crowds
others longer — feedback a trace cannot express.

:func:`simulate_shared_closed_loop` runs that feedback loop for the
paper's model: arrivals are placed immediately by any
:class:`~repro.core.base.AllocationAlgorithm`; every active task advances
at the fluid round-robin rate ``1 / max-load-of-its-span``; a task departs
the moment its ``work`` completes.  The integration is exact: rates are
piecewise constant between events, and the next departure time under
current rates is known in closed form.

Placement state is owned by the shared
:class:`~repro.kernel.AllocationKernel` — the same validation, d-budget
enforcement and migration pricing as the trace-driven simulator — so this
driver only decides *when* events happen, never *whether they are legal*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.base import AllocationAlgorithm
from repro.errors import SimulationError
from repro.kernel import AllocationKernel
from repro.machines.base import PartitionableMachine
from repro.tasks.events import Arrival, Departure
from repro.tasks.task import Task
from repro.types import TaskId

__all__ = ["ClosedLoopResult", "TaskOutcome", "simulate_shared_closed_loop"]


@dataclass(frozen=True)
class TaskOutcome:
    """Service record of one task in a work-driven run."""

    task_id: TaskId
    work: float
    arrival: float
    start: float          # == arrival for the shared model (immediate service)
    completion: float
    response_time: float  # completion - arrival
    slowdown: float       # response_time / work


@dataclass
class ClosedLoopResult:
    """All task outcomes plus machine-level aggregates."""

    outcomes: dict[TaskId, TaskOutcome]
    makespan: float
    max_load: int
    #: Time-integral of busy PEs / (N * makespan).
    utilization: float

    @property
    def mean_response(self) -> float:
        if not self.outcomes:
            return 0.0
        return sum(o.response_time for o in self.outcomes.values()) / len(self.outcomes)

    @property
    def max_response(self) -> float:
        return max((o.response_time for o in self.outcomes.values()), default=0.0)

    @property
    def mean_slowdown(self) -> float:
        if not self.outcomes:
            return 0.0
        return sum(o.slowdown for o in self.outcomes.values()) / len(self.outcomes)

    @property
    def worst_slowdown(self) -> float:
        return max((o.slowdown for o in self.outcomes.values()), default=0.0)

    def percentile_response(self, q: float) -> float:
        if not self.outcomes:
            return 0.0
        return float(
            np.percentile([o.response_time for o in self.outcomes.values()], q)
        )


def simulate_shared_closed_loop(
    machine: PartitionableMachine,
    algorithm: AllocationAlgorithm,
    arrivals: Sequence[Task],
) -> ClosedLoopResult:
    """Run the paper's shared model with endogenous departures.

    ``arrivals`` supply id, size, arrival time and ``work``; their
    ``departure`` fields are ignored (departure is what we compute).  The
    algorithm is driven through its normal hooks; reallocations offered via
    ``maybe_reallocate`` are applied by the kernel (spans change
    mid-flight, and the integration accounts for it exactly).
    """
    if algorithm.machine is not machine:
        raise SimulationError("algorithm was built for a different machine instance")
    n = machine.num_pes
    pending = sorted(arrivals, key=lambda t: (t.arrival, t.task_id))
    for t in pending:
        if t.work <= 0:
            raise SimulationError(f"task {t.task_id} has non-positive work")

    kernel = AllocationKernel(machine, algorithm)
    remaining: dict[TaskId, float] = {}
    outcomes: dict[TaskId, TaskOutcome] = {}

    now = 0.0
    busy_integral = 0.0
    next_arrival_idx = 0

    def rate_of(tid: TaskId) -> float:
        # Max leaf load over the task's span — O(log N) via the tracker.
        return 1.0 / float(kernel.submachine_load(kernel._placements[tid]))

    def advance(dt: float) -> None:
        nonlocal busy_integral
        if dt <= 0:
            return
        for tid in remaining:
            remaining[tid] -= dt * rate_of(tid)
        busy_integral += dt * float((kernel.leaf_loads(copy=False) > 0).sum())

    guard = 0
    while next_arrival_idx < len(pending) or remaining:
        guard += 1
        if guard > 10 * len(pending) + 10_000:
            raise SimulationError("closed-loop simulation failed to converge")
        # Earliest completion under current (constant) rates.
        dt_completion = math.inf
        completing: TaskId | None = None
        for tid, rem in remaining.items():
            dt = rem / rate_of(tid)
            if dt < dt_completion:
                dt_completion = dt
                completing = tid
        dt_arrival = math.inf
        if next_arrival_idx < len(pending):
            dt_arrival = pending[next_arrival_idx].arrival - now
        if dt_arrival == math.inf and dt_completion == math.inf:
            break  # nothing active, nothing pending

        if dt_completion <= dt_arrival:
            advance(dt_completion)
            now += dt_completion
            assert completing is not None
            task = kernel._tasks[completing]
            del remaining[completing]
            kernel.apply(Departure(now, completing))
            outcomes[completing] = TaskOutcome(
                task_id=completing,
                work=task.work,
                arrival=task.arrival,
                start=task.arrival,
                completion=now,
                response_time=now - task.arrival,
                slowdown=(now - task.arrival) / task.work,
            )
        else:
            advance(dt_arrival)
            now += dt_arrival
            task = pending[next_arrival_idx]
            next_arrival_idx += 1
            kernel.apply(Arrival(now, task))
            remaining[task.task_id] = task.work

    makespan = now
    utilization = 0.0 if makespan <= 0 else busy_integral / (n * makespan)
    return ClosedLoopResult(
        outcomes=outcomes,
        makespan=makespan,
        max_load=kernel.metrics.max_load,
        utilization=utilization,
    )
