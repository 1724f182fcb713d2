"""Drive churn scenarios through the production kernel and meter them.

:func:`run_scenario` is the one driver for the full event alphabet —
arrivals, departures, failures, repairs, kills, *and* resizes — wrapping
the chosen registry algorithm in
:class:`~repro.faults.salvage.FaultTolerantAlgorithm` (the only wrapper
with both ``on_fault`` and ``on_resize``) and stepping the merged stream
through one :class:`~repro.kernel.AllocationKernel`.

Steady-state metrics: a churn run has no single ``L*`` — the machine size
changes — so :class:`SteadyStateMetrics` reports *time-averaged* figures:
the time-averaged max load, the time-averaged degraded benchmark
``L*_deg(t) = ceil(active_volume(t) / N_surviving(t))`` integrated
analytically from the scenario itself, their ratio, and salvage traffic
normalised by churn events (how many PE-hops of repack traffic each unit
of churn forces — the trade the paper prices for reallocation, extended
to external perturbations).

:func:`churn_sweep` fans scenarios over a churn-rate axis for the
``bench_e9_churn`` experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence as TypingSequence, Tuple

from repro.core.registry import make_algorithm
from repro.faults.plan import PEFailure, PERepair, TaskKill
from repro.faults.salvage import FaultTolerantAlgorithm
from repro.kernel import AllocationKernel
from repro.machines.hierarchy import Hierarchy
from repro.machines.tree import TreeMachine
from repro.scenarios.churn import ChurnProcess
from repro.scenarios.elastic import MachineResize, Scenario
from repro.sim.history import RunHistory
from repro.sim.metrics import LoadTimeSeries, MetricsCollector
from repro.sim.parallel import parallel_map
from repro.sim.realloc_cost import MigrationCostModel
from repro.tasks.events import Arrival, Departure
from repro.types import NodeId, TaskId, ceil_div

__all__ = [
    "SteadyStateMetrics",
    "ScenarioRunResult",
    "run_scenario",
    "churn_sweep",
    "degraded_lstar_series",
]


def degraded_lstar_series(scenario: Scenario) -> List[Tuple[float, int]]:
    """The step function ``L*_deg(t)`` implied by the scenario itself.

    Walks the merged event stream tracking active volume (kills end a
    task early; its scheduled departure is then a no-op) and surviving
    capacity (failures, repairs, resizes), and emits ``(time, lstar)``
    after every event.  Independent of any algorithm or engine — this is
    the *analytic* benchmark the steady-state ratio is measured against.
    """
    active: Dict[TaskId, int] = {}
    killed: set[TaskId] = set()
    volume = 0
    num_pes = scenario.num_pes
    failed_pes = 0
    h = Hierarchy(num_pes)
    out: List[Tuple[float, int]] = []
    for event in scenario.merged_events():
        if isinstance(event, Arrival):
            active[event.task.task_id] = event.task.size
            volume += event.task.size
        elif isinstance(event, Departure):
            if event.task_id in killed:
                killed.discard(event.task_id)
            else:
                volume -= active.pop(event.task_id)
        elif isinstance(event, TaskKill):
            if event.task_id in active:
                volume -= active.pop(event.task_id)
                killed.add(event.task_id)
        elif isinstance(event, PEFailure):
            failed_pes += h.subtree_size(event.node)
        elif isinstance(event, PERepair):
            failed_pes -= h.subtree_size(event.node)
        elif isinstance(event, MachineResize):
            num_pes = event.applied_to(num_pes)
            h = Hierarchy(num_pes)
        surviving = max(1, num_pes - failed_pes)
        out.append((float(event.time), ceil_div(volume, surviving)))
    return out


def _time_average(series: List[Tuple[float, float]]) -> float:
    """Time-weighted average of a right-continuous step function."""
    if len(series) < 2:
        return float(series[0][1]) if series else 0.0
    total = 0.0
    span = series[-1][0] - series[0][0]
    if span <= 0:
        return float(max(v for _, v in series))
    for (t0, v0), (t1, _v1) in zip(series, series[1:]):
        total += v0 * (t1 - t0)
    return total / span


@dataclass(frozen=True)
class SteadyStateMetrics:
    """Time-averaged figures of merit for one churn run."""

    #: Time-weighted average of the engine's max PE load.
    time_avg_max_load: float
    #: Time-weighted average of the analytic ``L*_deg(t)`` benchmark.
    time_avg_lstar: float
    #: ``time_avg_max_load / time_avg_lstar`` (0 when the benchmark is 0).
    load_ratio: float
    #: Fault + resize events over the run.
    churn_events: int
    #: Churn events per unit time (0 for an instantaneous run).
    churn_rate: float
    #: Salvage traffic (PE-hops) per churn event (0 when churn is 0).
    salvage_traffic_per_churn: float

    def to_dict(self) -> dict:
        return {
            "time_avg_max_load": self.time_avg_max_load,
            "time_avg_lstar": self.time_avg_lstar,
            "load_ratio": self.load_ratio,
            "churn_events": self.churn_events,
            "churn_rate": self.churn_rate,
            "salvage_traffic_per_churn": self.salvage_traffic_per_churn,
        }


@dataclass
class ScenarioRunResult:
    """Outcome of one algorithm on one churn scenario."""

    algorithm_name: str
    scenario: Scenario
    metrics: MetricsCollector
    steady: SteadyStateMetrics
    final_num_pes: int
    num_resizes: int
    final_placements: Dict[TaskId, NodeId]
    intervals: Dict[TaskId, List[Tuple[float, float, NodeId]]]
    #: Max load after every event.
    series: LoadTimeSeries

    @property
    def max_load(self) -> int:
        return self.metrics.max_load

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm_name,
            "scenario": self.scenario.describe(),
            "max_load": self.max_load,
            "final_num_pes": self.final_num_pes,
            "num_resizes": self.num_resizes,
            "steady": self.steady.to_dict(),
            "faults": self.metrics.faults.to_dict(),
        }


def steady_state_metrics(
    scenario: Scenario, metrics: MetricsCollector, series: LoadTimeSeries
) -> SteadyStateMetrics:
    """Derive the steady-state summary from a finished run's metrics."""
    time_avg_load = series.time_average()
    lstar_series = [
        (t, float(v)) for t, v in degraded_lstar_series(scenario)
    ]
    time_avg_lstar = _time_average(lstar_series)
    churn = scenario.num_churn_events
    times = [t for t, _ in lstar_series]
    span = (times[-1] - times[0]) if len(times) >= 2 else 0.0
    return SteadyStateMetrics(
        time_avg_max_load=time_avg_load,
        time_avg_lstar=time_avg_lstar,
        load_ratio=(
            time_avg_load / time_avg_lstar if time_avg_lstar > 0 else 0.0
        ),
        churn_events=churn,
        churn_rate=churn / span if span > 0 else 0.0,
        salvage_traffic_per_churn=(
            metrics.faults.salvage_traffic_pe_hops / churn if churn else 0.0
        ),
    )


def run_scenario(
    scenario: Scenario,
    algorithm: str = "greedy",
    *,
    d: float = 2.0,
    seed: int = 0,
    cost_model: Optional[MigrationCostModel] = None,
    validate: bool = True,
) -> ScenarioRunResult:
    """Run one registry algorithm over one churn scenario.

    The algorithm is built on the scenario's *initial* machine, wrapped
    for fault tolerance, and driven event by event through the kernel
    (resizes swap the kernel's machine online).  ``validate=True`` runs
    :meth:`Scenario.validate` first so an inadmissible hand-built
    scenario fails fast with a named epoch instead of mid-run.
    """
    if validate:
        scenario.validate()
    machine = TreeMachine(scenario.num_pes)
    view = machine.degraded_view()
    inner = make_algorithm(algorithm, machine, d=d, seed=seed)
    wrapper = FaultTolerantAlgorithm(machine, inner, view)
    kernel = AllocationKernel(machine, wrapper, cost_model, view=view)
    history = RunHistory()
    for event in scenario.merged_events():
        history.record(kernel.apply(event))
    kernel.check_consistency()
    return ScenarioRunResult(
        algorithm_name=wrapper.name,
        scenario=scenario,
        metrics=kernel.metrics,
        steady=steady_state_metrics(scenario, kernel.metrics, history.series),
        final_num_pes=kernel.machine.num_pes,
        num_resizes=kernel.num_resizes,
        final_placements=kernel.placements,
        intervals=history.placement_intervals(),
        series=history.series,
    )


def _sweep_point(
    process_payload: dict, algorithm: str, d: float, seed: int
) -> dict:
    """Worker for :func:`churn_sweep` (module-level, picklable)."""
    process = ChurnProcess.from_dict(process_payload)
    result = run_scenario(process.build(), algorithm, d=d, seed=seed)
    row = result.to_dict()
    row["pe_mttf"] = (
        "inf" if math.isinf(process.pe_mttf) else float(process.pe_mttf)
    )
    row["kill_rate"] = process.kill_rate
    row["storm_rate"] = process.storm_rate
    return row


def churn_sweep(
    processes: TypingSequence[ChurnProcess],
    algorithm: str = "greedy",
    *,
    d: float = 2.0,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> List[dict]:
    """Run one algorithm over a family of churn processes (one row each).

    Fans out over worker processes like the rest of the library
    (``jobs=-1`` = all cores); each row is a :meth:`ScenarioRunResult.to_dict`
    with the generating rates attached — the ``bench_e9_churn`` table.
    """
    return parallel_map(
        _sweep_point,
        [(p.to_dict(), algorithm, d, seed) for p in processes],
        jobs=jobs,
    )
