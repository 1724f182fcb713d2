"""Unit tests for the shared AllocationKernel.

The kernel is the single owner of allocation state; these tests pin its
load-bearing contracts: (1) ``snapshot()``/``restore()`` round-trips
exactly, on every topology, including mid-run under an active fault plan;
(2) the state machine rejects malformed snapshots loudly instead of
restoring garbage; (3) that state is live state only, and the running
peak it keeps is the peak of its decisions on every path.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.registry import make_algorithm
from repro.errors import CheckpointError, SimulationError
from repro.kernel import (
    KERNEL_STATE_KIND,
    KERNEL_STATE_VERSION,
    AllocationKernel,
)
from repro.machines.butterfly import Butterfly
from repro.machines.fattree import FatTree
from repro.machines.hypercube import Hypercube
from repro.machines.mesh import Mesh2D
from repro.machines.tree import TreeMachine
from repro.tasks.events import Arrival, Departure
from repro.tasks.task import Task
from repro.types import NodeId, TaskId
from repro.workloads.generators import poisson_sequence

TOPOLOGIES = {
    "tree": TreeMachine,
    "hypercube": Hypercube,
    "hypercube-gray": lambda n: Hypercube(n, layout="gray"),
    "mesh": Mesh2D,
    "butterfly": Butterfly,
    "fattree": lambda n: FatTree(n, fatness=2.0),
}


def _digest(state) -> str:
    return hashlib.sha256(
        json.dumps(state, sort_keys=True, default=repr).encode()
    ).hexdigest()


def _drive(machine, events):
    kernel = AllocationKernel(machine, make_algorithm("greedy", machine))
    for event in events:
        kernel.apply(event)
    return kernel


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_round_trip_every_topology(self, topology):
        machine = TOPOLOGIES[topology](16)
        rng = np.random.default_rng(7)
        events = list(poisson_sequence(16, 40, rng))
        kernel = _drive(machine, events[: len(events) // 2])
        snap = kernel.snapshot()

        fresh = AllocationKernel(TOPOLOGIES[topology](16))
        fresh.restore(snap)
        assert _digest(fresh.snapshot()) == _digest(snap)
        assert fresh.placements == kernel.placements
        assert fresh.current_max_load == kernel.current_max_load
        assert fresh.optimal_load == kernel.optimal_load
        assert (fresh.leaf_loads() == kernel.leaf_loads()).all()
        assert fresh.metrics.max_load == kernel.metrics.max_load
        fresh.check_consistency()

    def test_snapshot_is_json_serialisable(self):
        machine = TreeMachine(8)
        kernel = _drive(
            machine,
            [Arrival(0.0, Task(TaskId(0), 2, 0.0)),
             Arrival(1.0, Task(TaskId(1), 4, 1.0))],
        )
        snap = kernel.snapshot()
        assert snap["kind"] == KERNEL_STATE_KIND
        assert snap["version"] == KERNEL_STATE_VERSION
        assert json.loads(json.dumps(snap)) == snap

    def test_restored_kernel_keeps_stepping(self):
        machine = TreeMachine(8)
        kernel = _drive(
            machine,
            [Arrival(0.0, Task(TaskId(0), 2, 0.0)),
             Arrival(1.0, Task(TaskId(1), 2, 1.0))],
        )
        fresh = AllocationKernel(TreeMachine(8))
        fresh.restore(kernel.snapshot())
        decision = fresh.apply(Departure(2.0, TaskId(0)))
        assert decision.task_id == TaskId(0)
        assert TaskId(0) not in fresh.placements
        fresh.check_consistency()

    def test_round_trip_mid_run_under_faults(self):
        from repro.faults.injector import FaultAwareSimulator
        from repro.faults.plan import generate_fault_plan, merge_events
        from repro.machines.degraded import DegradedView

        machine = TreeMachine(16)
        rng = np.random.default_rng(11)
        sequence = poisson_sequence(16, 60, rng, utilization=0.6)
        plan = generate_fault_plan(16, sequence, np.random.default_rng(5))
        assert not plan.is_empty
        sim = FaultAwareSimulator(
            machine, make_algorithm("greedy", machine), plan
        )
        merged = list(merge_events(sequence, plan))
        cut = len(merged) // 2
        for event in merged[:cut]:
            sim.step(event)
        snap = sim.kernel.snapshot()

        machine2 = TreeMachine(16)
        fresh = AllocationKernel(machine2, view=DegradedView(machine2))
        fresh.restore(snap)
        assert _digest(fresh.snapshot()) == _digest(snap)
        assert fresh.view.failed_nodes == sim.kernel.view.failed_nodes
        assert fresh.metrics.faults.num_failures == snap["metrics"]["faults"]["num_failures"]
        fresh.check_consistency()


class TestRestoreRejections:
    def _snap(self):
        machine = TreeMachine(8)
        return _drive(
            machine, [Arrival(0.0, Task(TaskId(0), 2, 0.0))]
        ).snapshot()

    def test_wrong_kind_and_version(self):
        kernel = AllocationKernel(TreeMachine(8))
        bad = dict(self._snap())
        bad["kind"] = "something-else"
        with pytest.raises(CheckpointError):
            kernel.restore(bad)
        for version in (99, KERNEL_STATE_VERSION - 1):
            bad = dict(self._snap())
            bad["version"] = version
            with pytest.raises(CheckpointError):
                kernel.restore(bad)

    def test_wrong_machine(self):
        kernel = AllocationKernel(TreeMachine(16))
        with pytest.raises(CheckpointError):
            kernel.restore(self._snap())

    def test_placement_of_unknown_task(self):
        bad = dict(self._snap())
        bad["placements"] = dict(bad["placements"], **{"99": 1})
        kernel = AllocationKernel(TreeMachine(8))
        with pytest.raises(CheckpointError):
            kernel.restore(bad)

    def test_failed_nodes_need_a_view(self):
        bad = dict(self._snap())
        bad["failed_nodes"] = [4]
        kernel = AllocationKernel(TreeMachine(8))
        with pytest.raises(CheckpointError):
            kernel.restore(bad)


class TestKernelStateMachine:
    def test_external_placement_mode(self):
        machine = TreeMachine(8)
        kernel = AllocationKernel(machine)
        decision = kernel.apply_placed(
            0.0, Task(TaskId(0), 2, 0.0), NodeId(4)
        )
        assert decision.node == NodeId(4)
        assert kernel.current_max_load == 1
        kernel.apply(Departure(1.0, TaskId(0)))
        assert kernel.current_max_load == 0

    def test_fault_event_without_view_is_rejected(self):
        from repro.faults.plan import PEFailure

        machine = TreeMachine(8)
        kernel = AllocationKernel(machine, make_algorithm("greedy", machine))
        with pytest.raises(SimulationError, match="unknown event type"):
            kernel.apply(PEFailure(0.0, NodeId(4)))

    def test_duplicate_arrival_message_is_stable(self):
        machine = TreeMachine(8)
        kernel = AllocationKernel(machine, make_algorithm("greedy", machine))
        kernel.apply(Arrival(0.0, Task(TaskId(0), 1, 0.0)))
        with pytest.raises(SimulationError, match="duplicate arrival of task 0"):
            kernel.apply(Arrival(1.0, Task(TaskId(0), 1, 1.0)))


def _window_stream(count, live=64, n=4096):
    """``count`` events of churn that never holds more than ``live`` tasks:
    arrival ``i`` at ``2i``, departure of task ``i - live`` at ``2i + 1``."""
    events = []
    i = 0
    while len(events) < count:
        events.append(Arrival(2.0 * i, Task(TaskId(i), 1 << (i % 5), 2.0 * i)))
        if i >= live and len(events) < count:
            events.append(Departure(2.0 * i + 1, TaskId(i - live)))
        i += 1
    return events


class TestLiveState:
    def test_snapshot_size_follows_the_active_set_not_uptime(self):
        """Greedy at N=4096 with <= 64 live tasks: the snapshot (tasks,
        placements, scalars and the 4096-entry peak vector) stays under
        32 KB however many events went by."""
        machine = TreeMachine(4096)
        kernel = AllocationKernel(machine, make_algorithm("greedy", machine))
        events = _window_stream(20_000)
        sizes = {}
        for start in range(0, len(events), 250):
            kernel.apply_batch(events[start : start + 250])
            if kernel.metrics.events_processed in (2_000, 20_000):
                sizes[kernel.metrics.events_processed] = len(
                    json.dumps(kernel.snapshot())
                )
        assert kernel.num_active() <= 64
        assert set(sizes) == {2_000, 20_000}
        assert all(size < 32 * 1024 for size in sizes.values()), sizes


class TestRunningPeak:
    """``metrics.max_load`` is a running scalar, not a scan of history."""

    @staticmethod
    def _events():
        return list(poisson_sequence(64, 150, np.random.default_rng(4)))

    @pytest.mark.parametrize("path", ["apply", "loop"])
    def test_peak_is_the_max_decision_load(self, path):
        events = self._events()
        machine = TreeMachine(64)
        reference = AllocationKernel(machine, make_algorithm("greedy", machine))
        expected = [reference.apply(e) for e in events]
        machine = TreeMachine(64)
        kernel = AllocationKernel(machine, make_algorithm("greedy", machine))
        decisions = []
        for start in range(0, len(events), 16):
            part = events[start : start + 16]
            if path == "apply":
                decisions.extend(kernel.apply(e) for e in part)
            else:
                decisions.extend(kernel.apply_batch(part).decisions)
        assert decisions == expected
        assert kernel.metrics.max_load == max(d.max_load for d in decisions)
        assert np.array_equal(
            kernel.metrics.peak_snapshot, reference.metrics.peak_snapshot
        )
        assert kernel.metrics.peak_snapshot_time == reference.metrics.peak_snapshot_time

    def test_peak_survives_a_journal_resume(self, tmp_path):
        from repro.service import AllocationSession, sequence_records

        records = list(sequence_records(poisson_sequence(
            64, 150, np.random.default_rng(4)
        )))

        def session(journal):
            machine = TreeMachine(64)
            return AllocationSession(
                machine, make_algorithm("greedy", machine),
                journal_path=journal, snapshot_interval=8,
                full_snapshot_interval=32,
            )

        live = session(tmp_path / "s.journal")
        decisions = [live.push(r) for r in records]
        live.close()
        resumed = session(tmp_path / "s.journal")
        assert resumed.num_events == len(records)
        metrics = resumed.kernel.metrics
        assert metrics.max_load == max(d.max_load for d in decisions)
        assert np.array_equal(metrics.peak_snapshot, live.kernel.metrics.peak_snapshot)
        assert metrics.peak_snapshot_time == live.kernel.metrics.peak_snapshot_time
