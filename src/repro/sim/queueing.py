"""Exclusive-use queueing allocation — the related-work comparator.

The scheduling literature the paper contrasts itself with ([13, 14, 18]:
Feldmann/Sgall/Teng, Shmoys/Wein/Williamson) assumes "each task has the
exclusive use of its assigned processors and that the tasks can be delayed
for arbitrarily long periods of time before they are serviced".  This
module implements that operating model on the same machine so experiments
can compare the two regimes on the same workload:

* a task runs only when a fully vacant submachine of its size exists
  (within one :class:`~repro.machines.copies.BuddyCopy` — load never
  exceeds 1);
* otherwise it waits in a queue.  Two policies:

  - ``fcfs``      — strict first-come-first-served: nobody starts while an
    earlier arrival waits (no starvation, poor utilisation);
  - ``backfill``  — aggressive backfilling: any queued task that fits may
    start (better utilisation, the queue head can starve behind a stream
    of small tasks — the classic trade-off).

Because a waiting task gets dedicated PEs once started, it runs at full
speed for exactly ``work`` time; its *response time* is waiting + work.
The paper's model instead starts everyone immediately and dilutes speed —
:func:`~repro.sim.closedloop.simulate_shared_closed_loop` computes those
response times, and experiment A6 puts the two side by side.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Sequence

from repro.errors import SimulationError
from repro.kernel import AllocationKernel
from repro.machines.base import PartitionableMachine
from repro.machines.copies import BuddyCopy
from repro.sim.closedloop import ClosedLoopResult, TaskOutcome
from repro.tasks.events import Departure
from repro.tasks.task import Task
from repro.types import NodeId, TaskId

__all__ = ["simulate_exclusive_queueing"]


def simulate_exclusive_queueing(
    machine: PartitionableMachine,
    arrivals: Sequence[Task],
    *,
    policy: str = "fcfs",
    allocator=None,
) -> ClosedLoopResult:
    """Run the exclusive-use queueing model to completion.

    Returns the same :class:`~repro.sim.closedloop.ClosedLoopResult` shape
    as the shared model, so the two regimes tabulate side by side.
    ``max_load`` is always 1 (or 0) by construction.

    ``allocator`` may be any object with ``can_host(size)``,
    ``allocate(size) -> handle`` and ``free(handle)`` — by default the
    machine's aligned buddy allocator
    (:class:`~repro.machines.copies.BuddyCopy`); pass a
    :class:`~repro.machines.subcube.SubcubeAllocator` to study recognition
    strategies (ablation A8).
    """
    if policy not in ("fcfs", "backfill"):
        raise SimulationError(f"unknown queueing policy {policy!r}")
    for t in arrivals:
        machine.validate_task_size(t.size)
        if t.work <= 0:
            raise SimulationError(f"task {t.task_id} has non-positive work")

    pending = sorted(arrivals, key=lambda t: (t.arrival, t.task_id))
    task_by_id = {t.task_id: t for t in pending}
    copy = allocator if allocator is not None else BuddyCopy(machine.hierarchy)
    # On the default buddy path, handles are hierarchy nodes, so occupancy
    # is tracked by the shared kernel in external-placement mode (same
    # alignment validation as every other driver).  A custom allocator may
    # return opaque handles the kernel cannot interpret, so it is trusted
    # to do its own bookkeeping.
    kernel = None if allocator is not None else AllocationKernel(machine)
    queue: deque[Task] = deque()
    running: dict[TaskId, tuple[float, int]] = {}  # tid -> (finish time, node)
    outcomes: dict[TaskId, TaskOutcome] = {}
    start_times: dict[TaskId, float] = {}

    now = 0.0
    busy_integral = 0.0
    busy_pes = 0
    next_idx = 0
    any_started = False

    def try_start(task: Task) -> bool:
        nonlocal busy_pes, any_started
        if not copy.can_host(task.size):
            return False
        node = copy.allocate(task.size)
        if kernel is not None:
            kernel.apply_placed(now, task, NodeId(int(node)))
        running[task.task_id] = (now + task.work, node)
        start_times[task.task_id] = now
        busy_pes += task.size
        any_started = True
        return True

    def drain_queue() -> None:
        if policy == "fcfs":
            while queue and try_start(queue[0]):
                queue.popleft()
        else:  # backfill: start anything that fits, preserving queue order
            still_waiting: deque[Task] = deque()
            while queue:
                task = queue.popleft()
                if not try_start(task):
                    still_waiting.append(task)
            queue.extend(still_waiting)

    guard = 0
    while next_idx < len(pending) or running or queue:
        guard += 1
        if guard > 4 * len(pending) + 10_000:
            raise SimulationError(
                "queueing simulation failed to converge (task larger than "
                "the machine, or a starved queue head?)"
            )
        next_finish = min((f for f, _n in running.values()), default=math.inf)
        next_arrival = (
            pending[next_idx].arrival if next_idx < len(pending) else math.inf
        )
        if next_finish == math.inf and next_arrival == math.inf:
            # Only queued tasks remain and nothing is running: they must be
            # admissible now or never.
            drain_queue()
            if queue and not running:
                raise SimulationError(
                    f"queued task(s) {[t.task_id for t in queue]} can never run"
                )
            continue
        t_next = min(next_finish, next_arrival)
        busy_integral += (t_next - now) * busy_pes
        now = t_next

        if next_finish <= next_arrival:
            finished = [tid for tid, (f, _n) in running.items() if f <= now]
            for tid in finished:
                _f, node = running.pop(tid)
                copy.free(node)
                if kernel is not None:
                    kernel.apply(Departure(now, tid))
                task = task_by_id[tid]
                busy_pes -= task.size
                outcomes[tid] = TaskOutcome(
                    task_id=tid,
                    work=task.work,
                    arrival=task.arrival,
                    start=start_times[tid],
                    completion=now,
                    response_time=now - task.arrival,
                    slowdown=(now - task.arrival) / task.work,
                )
            drain_queue()
        else:
            task = pending[next_idx]
            next_idx += 1
            queue.append(task)
            drain_queue()

    makespan = now
    utilization = 0.0 if makespan <= 0 else busy_integral / (machine.num_pes * makespan)
    if kernel is not None and kernel.metrics.max_load > 1:
        raise SimulationError(
            "exclusive-use run exceeded load 1 — the allocator double-booked "
            "a submachine"
        )
    return ClosedLoopResult(
        outcomes=outcomes,
        makespan=makespan,
        max_load=1 if any_started else 0,
        utilization=utilization,
    )
