"""The batch discrete-event simulator — a thin driver over the kernel.

The :class:`Simulator` drives one algorithm over one
:class:`~repro.tasks.sequence.TaskSequence` (already ordered, with
same-time departures before arrivals).  All allocation state — placement
validation, the d-budget gate, the
:class:`~repro.machines.loads.LoadTracker` and metrics — lives in the
shared :class:`~repro.kernel.AllocationKernel`; the simulator adds the
batch loop, the observer hooks, the :class:`RunResult` bundle and the
run's :class:`~repro.sim.history.RunHistory`, folded from decisions.
Streaming sessions (:mod:`repro.service`) and the fault injector drive the
very same kernel, so every operating mode enforces the same validation
discipline:

1. the algorithm's placement must root a submachine of exactly the task's
   size;
2. a reallocation is accepted only when the cumulative arrival volume
   since the last one has reached ``d * N`` (``d = 0`` always may;
   ``d = inf`` never may); accepted remaps are diffed against current
   placements and migrations priced by the cost model;
3. metrics are recorded after every event, so the reported peak is exact.

The kernel deliberately re-derives loads itself rather than trusting any
algorithm-internal tracker: an algorithm bug (e.g. overlapping copies or a
dropped task) surfaces as a hard :class:`~repro.errors.SimulationError`
instead of silently flattering the results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.base import AllocationAlgorithm
from repro.kernel import AllocationKernel
from repro.machines.base import PartitionableMachine
from repro.sim.history import RunHistory
from repro.sim.metrics import LoadTimeSeries, MetricsCollector
from repro.sim.realloc_cost import MigrationCostModel
from repro.tasks.sequence import TaskSequence
from repro.tasks.task import Task
from repro.types import NodeId, TaskId

__all__ = ["Simulator", "RunResult"]


@dataclass
class RunResult:
    """Outcome of one algorithm on one sequence on one machine."""

    algorithm_name: str
    machine_description: dict
    metrics: MetricsCollector
    optimal_load: int
    #: Final task -> node placements (empty if all tasks departed).
    final_placements: dict[TaskId, NodeId] = field(default_factory=dict)
    #: Max load after every event (empty for a session, which keeps none).
    series: LoadTimeSeries = field(default_factory=LoadTimeSeries)

    @property
    def max_load(self) -> int:
        """``L_A(sigma)`` — the paper's figure of merit."""
        return self.metrics.max_load

    @property
    def competitive_ratio(self) -> float:
        """``L_A(sigma) / L*`` (inf if L* = 0 but load was incurred)."""
        if self.optimal_load == 0:
            return 0.0 if self.max_load == 0 else float("inf")
        return self.max_load / self.optimal_load

    def to_dict(self, include_series: bool = False) -> dict:
        """JSON-serialisable summary (for result archives and reports).

        The per-event load series is O(events) and dominates the payload
        for long runs, so it is omitted unless ``include_series=True``.
        """
        realloc = self.metrics.realloc
        payload = {
            "algorithm": self.algorithm_name,
            "machine": dict(self.machine_description),
            "max_load": self.max_load,
            "optimal_load": self.optimal_load,
            "competitive_ratio": self.competitive_ratio,
            "events": self.metrics.events_processed,
            "reallocations": realloc.num_reallocations,
            "migrations": realloc.num_migrations,
            "traffic_pe_hops": realloc.traffic_pe_hops,
            "checkpoint_bytes": realloc.checkpoint_bytes,
            "fairness_at_peak": self.metrics.fairness_at_peak(),
        }
        if self.metrics.faults.any_faults:
            payload["faults"] = self.metrics.faults.to_dict()
        if include_series:
            times, loads = self.series.as_arrays()
            payload["load_series"] = {
                "times": [float(t) for t in times],
                "max_loads": [int(v) for v in loads],
            }
        return payload


class Simulator:
    """Drives one algorithm over one sequence with validation and metering."""

    def __init__(
        self,
        machine: PartitionableMachine,
        algorithm: AllocationAlgorithm,
        cost_model: Optional[MigrationCostModel] = None,
        *,
        collect_leaf_snapshots: bool = True,
    ):
        self.kernel = self._build_kernel(
            machine, algorithm, cost_model, collect_leaf_snapshots
        )
        self.history = RunHistory()
        self._observers: list = []

    def _build_kernel(
        self,
        machine: PartitionableMachine,
        algorithm: AllocationAlgorithm,
        cost_model: Optional[MigrationCostModel],
        collect_leaf_snapshots: bool,
    ) -> AllocationKernel:
        """Subclass hook: the fault injector builds a fault-capable kernel."""
        return AllocationKernel(
            machine,
            algorithm,
            cost_model,
            collect_leaf_snapshots=collect_leaf_snapshots,
        )

    # -- Kernel state, re-exported for drivers, tests and observers ----------

    @property
    def machine(self) -> PartitionableMachine:
        return self.kernel.machine

    @property
    def algorithm(self) -> AllocationAlgorithm:
        algorithm = self.kernel.algorithm
        assert algorithm is not None  # batch simulators always drive one
        return algorithm

    @property
    def cost_model(self) -> MigrationCostModel:
        return self.kernel.cost_model

    @property
    def collect_leaf_snapshots(self) -> bool:
        return self.kernel.collect_leaf_snapshots

    @property
    def metrics(self) -> MetricsCollector:
        return self.kernel.metrics

    @property
    def _placements(self) -> dict[TaskId, NodeId]:
        return self.kernel._placements

    # -- Public API ------------------------------------------------------------

    def add_observer(self, callback) -> None:
        """Register ``callback(simulator, event)`` to run after every event.

        Observers see the post-event state (placements, loads, metrics
        already updated) — the hook the streaming-metrics examples use
        instead of re-implementing the event loop.
        """
        self._observers.append(callback)

    def step(self, event) -> None:
        """Process one event and record metrics and history."""
        self.history.record(self.kernel.apply(event))
        for callback in self._observers:
            callback(self, event)

    def run(self, sequence: TaskSequence) -> RunResult:
        """Drive the whole sequence and return the result bundle."""
        for event in sequence:
            self.step(event)
        return self._result(sequence)

    def run_batched(self, sequence: TaskSequence, batch_size: int = 256) -> RunResult:
        """Drive the sequence in ``batch_size`` chunks via ``apply_batch``.

        Bit-identical results to :meth:`run` (the kernel guarantees it),
        but the per-event metering is amortised and the kernel runs whole
        batches columnar where it can — the fast path for large offline
        sweeps.  Observer hooks are per-event by nature and are not
        invoked; use :meth:`run` when observers are attached.
        """
        if self._observers:
            raise ValueError(
                "run_batched() does not deliver per-event observer "
                "callbacks; use run() with observers attached"
            )
        events = list(sequence)
        for start in range(0, len(events), batch_size):
            batch = self.kernel.apply_batch(events[start : start + batch_size])
            self.history.extend(batch.decisions)
        return self._result(sequence)

    def _result(self, sequence: TaskSequence) -> RunResult:
        return RunResult(
            algorithm_name=self.algorithm.name,
            machine_description=self.machine.describe(),
            metrics=self.metrics,
            optimal_load=sequence.optimal_load(self.machine.num_pes),
            final_placements=dict(self._placements),
            series=self.history.series,
        )

    # -- State inspection (used by the adversary and by tests) ---------------------

    @property
    def current_max_load(self) -> int:
        return self.kernel.current_max_load

    @property
    def active_tasks(self) -> dict[TaskId, Task]:
        return self.kernel.active_tasks

    @property
    def placements(self) -> dict[TaskId, NodeId]:
        return self.kernel.placements

    def leaf_loads(self) -> np.ndarray:
        return self.kernel.leaf_loads()

    def submachine_load(self, node: NodeId) -> int:
        return self.kernel.submachine_load(node)

    def active_size(self) -> int:
        return self.kernel.active_size()

    def placement_intervals(self) -> dict[TaskId, list[tuple[float, float, NodeId]]]:
        """Exact (start, end, node) residence segments for every task seen.

        ``end`` is the task's departure time (``inf`` if it never departed)
        or the instant a reallocation moved it.  This is the input the
        slowdown model integrates over — it reflects what actually ran,
        including mid-life migrations.
        """
        return self.history.placement_intervals()

    def check_consistency(self) -> None:
        """Cross-check tracker vs. placements (test helper)."""
        self.kernel.check_consistency()
