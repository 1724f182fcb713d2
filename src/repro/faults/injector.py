"""The fault-aware simulator: fault events merged into the event loop.

:class:`FaultAwareSimulator` extends the production
:class:`~repro.sim.engine.Simulator` with three fault event types
(:class:`~repro.faults.plan.PEFailure`, :class:`~repro.faults.plan.PERepair`,
:class:`~repro.faults.plan.TaskKill`).  All fault semantics live in the
shared :class:`~repro.kernel.AllocationKernel` — constructing it with a
:class:`~repro.machines.degraded.DegradedView` enables the fault event
paths — so this class only wraps the algorithm for fault tolerance,
validates the plan, and merges the fault events into the run loop.  The
validation discipline is unchanged: every placement is additionally
checked against the degraded view, so an algorithm (or salvage) bug that
lands a task on dead PEs is a hard
:class:`~repro.errors.PlacementError`, not a silent result.

Semantics, in the order things happen at a failure event:

1. the set of *orphans* (active tasks overlapping the failing subtree) is
   recorded;
2. the view degrades; the wrapped algorithm's :meth:`on_fault` runs a
   salvage repack (A_R on surviving capacity) and the kernel applies the
   remapping, charging the cost model and metering it in
   :class:`~repro.sim.metrics.FaultStats` — *not* in the regular
   reallocation stats, because salvage is charged to the fault (the
   external-perturbation framing of Bender et al.), and the ``d``-budget
   arrival counter resets exactly as after a planned repack;
3. degradation gauges update: ``L*_deg``, overshoot, survivor minimum.

A killed task's scheduled departure becomes a metered no-op, and with an
empty plan the simulator is behaviourally identical to the plain
:class:`~repro.sim.engine.Simulator`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.base import AllocationAlgorithm
from repro.faults.plan import FaultPlan, merge_events
from repro.faults.salvage import FaultTolerantAlgorithm
from repro.kernel import AllocationKernel
from repro.machines.base import PartitionableMachine
from repro.machines.degraded import DegradedView
from repro.sim.engine import RunResult, Simulator
from repro.sim.realloc_cost import MigrationCostModel
from repro.tasks.sequence import TaskSequence

__all__ = ["FaultAwareSimulator", "run_traced_with_faults"]


class FaultAwareSimulator(Simulator):
    """Drives one algorithm over one sequence *and* one fault plan."""

    def __init__(
        self,
        machine: PartitionableMachine,
        algorithm: AllocationAlgorithm,
        plan: FaultPlan,
        cost_model: Optional[MigrationCostModel] = None,
        *,
        repack_on_repair: bool = True,
    ):
        plan.validate_for(machine.num_pes)
        if isinstance(algorithm, FaultTolerantAlgorithm):
            wrapper = algorithm
        else:
            wrapper = FaultTolerantAlgorithm(
                machine, algorithm, machine.degraded_view()
            )
        # Stashed for the _build_kernel hook, which super().__init__ calls.
        self._pending_view: DegradedView = wrapper.view
        self._pending_repack_on_repair = repack_on_repair
        super().__init__(machine, wrapper, cost_model)
        self.plan = plan
        self.view = wrapper.view
        self.repack_on_repair = repack_on_repair

    def _build_kernel(
        self,
        machine: PartitionableMachine,
        algorithm: AllocationAlgorithm,
        cost_model: Optional[MigrationCostModel],
    ) -> AllocationKernel:
        return AllocationKernel(
            machine,
            algorithm,
            cost_model,
            view=self._pending_view,
            repack_on_repair=self._pending_repack_on_repair,
        )

    # -- Public API ---------------------------------------------------------

    def run(self, sequence: TaskSequence) -> RunResult:
        """Drive the merged task + fault event stream to completion."""
        for event in merge_events(sequence, self.plan):
            self.step(event)
        return self._result(sequence)


def run_traced_with_faults(
    machine: PartitionableMachine,
    algorithm: AllocationAlgorithm,
    sequence: TaskSequence,
    plan: FaultPlan,
    cost_model: Optional[MigrationCostModel] = None,
    *,
    repack_on_repair: bool = True,
):
    """Fault-injected analogue of :func:`repro.sim.runner.run_traced`.

    Returns ``(RunResult, placement_intervals)`` — the inputs the audit
    referees consume.
    """
    sim = FaultAwareSimulator(
        machine,
        algorithm,
        plan,
        cost_model,
        repack_on_repair=repack_on_repair,
    )
    result = sim.run(sequence)
    return result, sim.placement_intervals()
