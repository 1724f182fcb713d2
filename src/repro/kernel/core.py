"""The incremental allocation kernel — one state machine for every driver.

:class:`AllocationKernel` owns the authoritative allocation state that the
batch :class:`~repro.sim.engine.Simulator`, the fault-aware simulator, the
work-driven simulators and the streaming service layer all used to
duplicate: placement validation, the d-budget reallocation gate, the
:class:`~repro.machines.loads.LoadTracker`, incremental metrics deltas and
the full placement history.  Drivers feed events in with :meth:`apply` (or
:meth:`apply_placed` when the placement was decided externally) and get a
:class:`~repro.kernel.decision.Decision` back; they never touch the load
state directly, so the validation discipline of the original simulator —
every placement re-derived and checked, every budget violation a hard
error — holds identically for every operating mode.

The kernel is pure with respect to the outside world: it performs no I/O,
holds no clock, and spawns no callbacks.  Its complete state round-trips
through :meth:`snapshot` / :meth:`restore` as a versioned JSON-safe dict.
That dict is O(history), not O(active tasks): ``placement_log`` and
``departure_times`` keep every task ever seen, departed ones included,
and every migration appends to ``placement_log``.  So journals never
store it; a streaming session checkpoints the sha256 of its canonical
encoding instead (``docs/ARCHITECTURE.md``, "Checkpoint digests").

Fault events (failures, repairs, kills) are dispatched by their ``kind``
string rather than by class, so the kernel never imports
:mod:`repro.faults` — the dependency points one way, drivers down to
kernel.

Restoring a snapshot rebuilds *kernel* state only.  Algorithm objects keep
private incremental state (load trackers, copy sets); per the
:class:`~repro.core.base.AllocationAlgorithm` contract they are
deterministic functions of the event history, so a resuming driver
replays the journaled events through a fresh algorithm and verifies the
kernel snapshot digest at each checkpoint (see
:mod:`repro.service.session`).
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Optional, Protocol, Sequence, Union, cast

import numpy as np

from repro.core.base import AllocationAlgorithm, Reallocation
from repro.errors import (
    BatchError,
    CheckpointError,
    PlacementError,
    ReallocationError,
    ReproError,
    SalvageError,
    SimulationError,
)
from repro.kernel.columnar import ColumnarEngine, resolve_backend
from repro.kernel.decision import BatchDecision, Decision
from repro.machines.base import PartitionableMachine
from repro.machines.degraded import DegradedView
from repro.machines.factory import machine_descriptor, machine_from_descriptor
from repro.machines.hierarchy import grown_node
from repro.sim.metrics import MetricsCollector
from repro.sim.realloc_cost import MigrationCostModel
from repro.tasks.events import EventKind
from repro.tasks.task import Task
from repro.types import NodeId, TaskId, Time

__all__ = ["AllocationKernel", "KERNEL_STATE_KIND", "KERNEL_STATE_VERSION"]

#: Identity of the snapshot format; :meth:`AllocationKernel.restore`
#: refuses anything else rather than guessing.
KERNEL_STATE_KIND = "repro-kernel-state"
#: Version 2 adds online-resize provenance (``num_resizes`` and the
#: ``initial_machine`` the kernel was constructed on); version-1 snapshots
#: are still restorable (they simply predate resizes).
KERNEL_STATE_VERSION = 2
_RESTORABLE_VERSIONS = (1, 2)


class _SalvageCapable(Protocol):
    """What the kernel needs from a fault-tolerant algorithm wrapper."""

    def on_fault(self) -> Optional[Reallocation]: ...

    def kill(self, task: Task) -> None: ...


class _ResizeCapable(Protocol):
    """What the kernel needs from an algorithm that survives resizes."""

    def on_resize(
        self, machine: PartitionableMachine, view: DegradedView
    ) -> Optional[Reallocation]: ...


def _encode_time(x: float) -> Union[str, float]:
    return "inf" if math.isinf(x) else float(x)


def _decode_time(x: Any) -> float:
    return math.inf if x == "inf" else float(x)


class AllocationKernel:
    """Incremental, side-effect-free allocation state machine.

    Parameters
    ----------
    machine:
        The partitionable machine whose hierarchy placements must align to.
    algorithm:
        The allocation algorithm to drive, or ``None`` for
        *external-placement mode*: the caller decides placements and feeds
        them in with :meth:`apply_placed` (the exclusive-queueing driver).
    cost_model:
        Prices migrations; defaults to :class:`MigrationCostModel`.
    collect_leaf_snapshots:
        When False, skip the O(N)-per-event leaf snapshot (max-load
        accounting stays exact) — essential for very large machines.
    view:
        A :class:`~repro.machines.degraded.DegradedView` enables fault
        events; with ``view=None`` a fault event is an unknown-event error,
        exactly as in the fault-unaware simulator.
    repack_on_repair:
        Whether a repair event triggers a salvage repack onto the
        recovered capacity.
    batch_backend:
        Execution strategy for :meth:`apply_batch`: ``"python"`` (the
        per-event loop, always), ``"numpy"`` (the columnar
        structure-of-arrays engine in :mod:`repro.kernel.columnar`) or
        ``"numba"`` (columnar with a JIT-compiled run kernel; requires
        the optional numba package).  Non-python backends are
        bit-identical to the per-event loop and fall back to it
        transparently for batches they cannot vectorise (fault events,
        algorithms without the ``columnar_state`` capability).
    """

    def __init__(
        self,
        machine: PartitionableMachine,
        algorithm: Optional[AllocationAlgorithm] = None,
        cost_model: Optional[MigrationCostModel] = None,
        *,
        collect_leaf_snapshots: bool = True,
        view: Optional[DegradedView] = None,
        repack_on_repair: bool = True,
        batch_backend: str = "python",
    ) -> None:
        if algorithm is not None and algorithm.machine is not machine:
            raise SimulationError(
                "algorithm was constructed for a different machine instance"
            )
        self.machine = machine
        self.algorithm = algorithm
        self.cost_model = cost_model or MigrationCostModel()
        self.collect_leaf_snapshots = collect_leaf_snapshots
        self.view = view
        self.repack_on_repair = repack_on_repair
        self.batch_backend = resolve_backend(batch_backend)
        self._columnar: Optional[ColumnarEngine] = (
            ColumnarEngine(self, self.batch_backend)
            if self.batch_backend != "python"
            else None
        )
        self._loads = machine.new_load_tracker()
        self._placements: dict[TaskId, NodeId] = {}
        self._tasks: dict[TaskId, Task] = {}
        self._arrived_since_realloc = 0
        self.metrics = MetricsCollector()
        # Full placement history: every (start_time, node) a task ever held,
        # in order — fuels the exact slowdown integration.
        self._placement_log: dict[TaskId, list[tuple[float, NodeId]]] = {}
        self._departure_times: dict[TaskId, float] = {}
        self._killed: set[TaskId] = set()
        # Online L* tracking: the peak active volume seen so far gives
        # ceil(peak/N) — readable at any instant by streaming clients.
        self._active_size = 0
        self._peak_active_size = 0
        # Name recorded by a restored snapshot when this kernel itself has
        # no algorithm — keeps snapshot() -> restore() -> snapshot() exact.
        self._restored_algorithm_name: Optional[str] = None
        # Online-resize provenance: the machine this kernel was constructed
        # on (resizes replace self.machine) and how many resizes it absorbed.
        self._initial_machine = machine_descriptor(machine)
        self._num_resizes = 0
        if view is not None:
            self.metrics.faults.min_surviving_pes = machine.num_pes

    # -- Event dispatch ------------------------------------------------------

    @staticmethod
    def _event_kind(event: object) -> Optional[str]:
        kind = getattr(event, "kind", None)
        if isinstance(kind, EventKind):
            return kind.value
        if isinstance(kind, str):
            return kind
        return None

    def _dispatch(self, event: Any) -> Decision:
        """Mutate state for one event; metering is the caller's job.

        Dispatches on the event's ``kind``: arrivals and departures always;
        failures/repairs/kills only when a degraded ``view`` was supplied
        (otherwise they are unknown events, as in the plain simulator).
        """
        kind = self._event_kind(event)
        if kind == "arrival":
            return self._apply_arrival(event)
        if kind == "departure":
            return self._apply_departure(event)
        if kind in ("failure", "repair", "kill") and self.view is not None:
            return self._apply_fault(event, kind)
        if kind == "resize" and self.view is not None:
            return self._apply_resize(event)
        raise SimulationError(f"unknown event type {type(event)!r}")

    def apply(self, event: Any) -> Decision:
        """Absorb one event, update all state, return the decision record."""
        decision = self._dispatch(event)
        self._observe(event.time)
        if self.view is not None:
            self._update_degradation_gauges()
        return decision

    def apply_batch(self, events: Sequence[Any]) -> BatchDecision:
        """Absorb a sequence of events with amortised per-event overhead.

        Bit-identical to calling :meth:`apply` once per event — same
        decisions, same metrics, same snapshots — but the per-event
        metering is batched: the max-load series is buffered and appended
        once, and the O(N) peak-snapshot scan runs only at events that
        strictly raise the peak (the per-event path pays it every event).
        Event *semantics* are untouched; each event still runs the full
        dispatch, validation, and d-budget discipline.

        If an event fails, the kernel state equals the per-event path
        after the preceding events (their metrics are flushed in the
        ``finally`` below) and a :class:`~repro.errors.BatchError`
        carrying the applied prefix is raised.

        With a non-python ``batch_backend`` the batch is first offered to
        the columnar engine (:mod:`repro.kernel.columnar`), which either
        absorbs it whole — same decisions, metrics, snapshots and error
        semantics, bit for bit — or declines without side effects, in
        which case the loop below runs as always.
        """
        if self._columnar is not None:
            summary = self._columnar.try_apply_batch(events)
            if summary is not None:
                return summary
        decisions: list[Decision] = []
        times: list[Time] = []
        max_loads: list[int] = []
        collect = self.collect_leaf_snapshots
        view = self.view
        snap = self.metrics.peak_snapshot
        # The captured snapshot's max equals the max load at capture time
        # (the peak snapshot *is* the leaf-load vector), so a scalar
        # suffices to decide "strictly above every peak so far".
        snap_peak = int(snap.max()) if snap is not None else None
        new_snap: Optional[np.ndarray] = None
        new_snap_time: Optional[Time] = None
        try:
            for event in events:
                decision = self._dispatch(event)
                # Re-read the tracker each event: a resize in the batch
                # replaces ``self._loads`` with a resized instance.
                tracker = self._loads
                max_load = tracker.max_load
                times.append(event.time)
                max_loads.append(max_load)
                if collect and (snap_peak is None or max_load > snap_peak):
                    new_snap = tracker.leaf_loads()  # already a fresh copy
                    new_snap_time = event.time
                    snap_peak = max_load
                if view is not None:
                    self._update_degradation_gauges()
                decisions.append(decision)
        except ReproError as exc:
            raise BatchError(
                f"batch event {len(decisions)} failed: {exc}",
                applied=len(decisions),
                decisions=decisions,
            ) from exc
        finally:
            # Flush the applied prefix so kernel state always equals the
            # per-event path, success or failure.
            m = self.metrics
            m.events_processed += len(times)
            m.series.record_many(times, max_loads)
            if new_snap is not None:
                m.peak_snapshot = new_snap
                m.peak_snapshot_time = new_snap_time
        return BatchDecision.summarize(
            tuple(decisions),
            max_load=self._loads.max_load,
            active_size=self._active_size,
            optimal_load=self.optimal_load,
        )

    def apply_placed(self, time: Time, task: Task, node: NodeId) -> Decision:
        """Admit ``task`` at an externally-decided ``node`` (no algorithm).

        The placement is validated with the same discipline as an
        algorithm's answer; used by drivers that own the placement policy
        (e.g. the exclusive-queueing comparator's buddy allocator).
        """
        if task.task_id in self._placements:
            raise SimulationError(f"duplicate arrival of task {task.task_id}")
        self._validate_node_for(task, node)
        self._admit(time, task, node)
        self._observe(time)
        if self.view is not None:
            self._update_degradation_gauges()
        return self._decision("arrival", time, task_id=int(task.task_id), node=int(node))

    # -- Validation ----------------------------------------------------------

    @property
    def _actor(self) -> str:
        return self.algorithm.name if self.algorithm is not None else "external placement"

    def _validate_node_for(self, task: Task, node: NodeId) -> None:
        h = self.machine.hierarchy
        if not h.is_valid_node(node):
            raise PlacementError(
                f"{self._actor} placed task {task.task_id} at "
                f"invalid node {node}"
            )
        if h.subtree_size(node) != task.size:
            raise PlacementError(
                f"{self._actor} placed a size-{task.size} task at a "
                f"{h.subtree_size(node)}-PE submachine (node {node})"
            )
        if self.view is not None:
            self.view.validate_placement(node, task_id=task.task_id)

    # -- Arrival / departure -------------------------------------------------

    def _admit(self, time: Time, task: Task, node: NodeId) -> None:
        self._loads.place(node, task.size)
        self._placements[task.task_id] = node
        self._tasks[task.task_id] = task
        self._placement_log[task.task_id] = [(float(time), node)]
        self._active_size += task.size
        if self._active_size > self._peak_active_size:
            self._peak_active_size = self._active_size
        self._arrived_since_realloc += task.size

    def _apply_arrival(self, event: Any) -> Decision:
        task: Task = event.task
        if task.task_id in self._placements:
            raise SimulationError(f"duplicate arrival of task {task.task_id}")
        if self.algorithm is None:
            raise SimulationError(
                "kernel has no algorithm; use apply_placed() to admit "
                "externally-placed tasks"
            )
        placement = self.algorithm.on_arrival(task)
        if placement.task_id != task.task_id:
            raise PlacementError(
                f"{self.algorithm.name} answered arrival of {task.task_id} "
                f"with a placement for {placement.task_id}"
            )
        self._validate_node_for(task, placement.node)
        self._admit(event.time, task, placement.node)
        reallocated, moved = self._offer_reallocation(event.time)
        return self._decision(
            "arrival",
            event.time,
            task_id=int(task.task_id),
            node=int(self._placements[task.task_id]),
            reallocated=reallocated,
            migrations=moved,
        )

    def _apply_departure(self, event: Any) -> Decision:
        if event.task_id in self._killed:
            # The task already died at its kill time; its scheduled
            # departure is a no-op (still metered, so series stay aligned
            # with the merged event stream).
            self._killed.discard(event.task_id)
            return self._decision(
                "departure", event.time, task_id=int(event.task_id), noop=True
            )
        node = self._placements.pop(event.task_id, None)
        task = self._tasks.pop(event.task_id, None)
        if node is None or task is None:
            raise SimulationError(f"departure of unknown task {event.task_id}")
        if self.algorithm is not None:
            self.algorithm.on_departure(task)
        self._loads.remove(node, task.size)
        self._departure_times[event.task_id] = float(event.time)
        self._active_size -= task.size
        return self._decision("departure", event.time, task_id=int(event.task_id))

    # -- Reallocation --------------------------------------------------------

    def _offer_reallocation(self, now: float) -> tuple[bool, int]:
        assert self.algorithm is not None
        realloc = self.algorithm.maybe_reallocate(self._arrived_since_realloc)
        if realloc is None:
            return False, 0
        d = self.algorithm.reallocation_parameter
        if self.view is None:
            budget = d * self.machine.num_pes
            if self._arrived_since_realloc < budget:
                raise ReallocationError(
                    f"{self.algorithm.name} attempted a reallocation after only "
                    f"{self._arrived_since_realloc} PE-arrivals; its budget is "
                    f"d*N = {budget}"
                )
        else:
            # Same contract, with the budget measured against *surviving*
            # capacity: d * N_surviving (identical to d * N with no failures).
            budget = d * max(1, self.view.surviving_pes)
            if self._arrived_since_realloc < budget:
                raise ReallocationError(
                    f"{self.algorithm.name} attempted a reallocation after only "
                    f"{self._arrived_since_realloc} PE-arrivals; its degraded "
                    f"budget is d*N_surviving = {budget}"
                )
        moved = self._apply_reallocation(realloc, now)
        self._arrived_since_realloc = 0
        return True, moved

    def _apply_reallocation(self, realloc: Reallocation, now: float) -> int:
        mapping = dict(realloc.mapping)
        if set(mapping) != set(self._placements):
            missing = set(self._placements) - set(mapping)
            extra = set(mapping) - set(self._placements)
            raise ReallocationError(
                f"reallocation must remap exactly the active tasks; "
                f"missing={sorted(missing)!r} extra={sorted(extra)!r}"
            )
        self.metrics.realloc.record_reallocation()
        moves: list[tuple[NodeId, NodeId, int]] = []
        for tid, new_node in mapping.items():
            task = self._tasks[tid]
            self._validate_node_for(task, new_node)
            old_node = self._placements[tid]
            if new_node == old_node:
                self.metrics.realloc.record_stationary()
                continue
            charge = self.cost_model.charge(self.machine, task.size, old_node, new_node)
            self.metrics.realloc.record_move(
                task.size, charge.distance, charge.bytes_moved
            )
            moves.append((old_node, new_node, task.size))
            self._placements[tid] = new_node
            self._placement_log[tid].append((now, new_node))
        self._commit_moves(moves)
        return len(moves)

    # -- Fault events --------------------------------------------------------

    def _apply_fault(self, event: Any, kind: str) -> Decision:
        view = self.view
        assert view is not None
        if self.algorithm is None:
            raise SimulationError(
                "fault events require a fault-tolerant algorithm"
            )
        stats = self.metrics.faults
        if kind == "failure":
            h = self.machine.hierarchy
            orphans = {
                tid
                for tid, node in self._placements.items()
                if h.contains(event.node, node) or h.contains(node, event.node)
            }
            view.fail(event.node)
            stats.record_failure(
                len(orphans), sum(self._tasks[t].size for t in orphans)
            )
            salvaged, moved = self._salvage_after_fault(event.time, orphans)
            return self._decision(
                "failure",
                event.time,
                node=int(event.node),
                salvaged=salvaged,
                migrations=moved,
            )
        if kind == "repair":
            view.repair(event.node)
            stats.num_repairs += 1
            salvaged, moved = False, 0
            if self.repack_on_repair:
                salvaged, moved = self._salvage_after_fault(event.time, set())
            return self._decision(
                "repair",
                event.time,
                node=int(event.node),
                salvaged=salvaged,
                migrations=moved,
            )
        return self._apply_kill(event)

    def _apply_kill(self, event: Any) -> Decision:
        node = self._placements.pop(event.task_id, None)
        task = self._tasks.pop(event.task_id, None)
        if node is None or task is None:
            # The task is not active at kill time: a no-op by contract.
            return self._decision(
                "kill", event.time, task_id=int(event.task_id), noop=True
            )
        cast(_SalvageCapable, self.algorithm).kill(task)
        self._loads.remove(node, task.size)
        self._departure_times[event.task_id] = float(event.time)
        self._active_size -= task.size
        self._killed.add(event.task_id)
        self.metrics.faults.num_kills += 1
        return self._decision("kill", event.time, task_id=int(event.task_id))

    def _salvage_after_fault(
        self, now: float, orphans: set[TaskId]
    ) -> tuple[bool, int]:
        realloc = cast(_SalvageCapable, self.algorithm).on_fault()
        moved = 0
        if realloc is not None:
            moved = self._apply_salvage(dict(realloc.mapping), now, orphans)
        # A salvage leaves the machine optimally repacked, so the planned
        # d-budget clock restarts — the fault paid for the repack, the
        # algorithm's budget did not.
        self._arrived_since_realloc = 0
        return realloc is not None, moved

    def _apply_salvage(
        self, mapping: dict[TaskId, NodeId], now: float, orphans: set[TaskId]
    ) -> int:
        if set(mapping) != set(self._placements):
            missing = set(self._placements) - set(mapping)
            extra = set(mapping) - set(self._placements)
            raise SalvageError(
                f"salvage must remap exactly the active tasks; "
                f"missing={sorted(missing)!r} extra={sorted(extra)!r}"
            )
        stats = self.metrics.faults
        stats.num_salvage_repacks += 1
        moves: list[tuple[NodeId, NodeId, int]] = []
        for tid, new_node in mapping.items():
            task = self._tasks[tid]
            self._validate_node_for(task, new_node)
            old_node = self._placements[tid]
            if new_node == old_node:
                continue
            charge = self.cost_model.charge(
                self.machine, task.size, old_node, new_node
            )
            stats.record_salvage_move(
                task.size, charge.distance, charge.seconds, orphan=tid in orphans
            )
            moves.append((old_node, new_node, task.size))
            self._placements[tid] = new_node
            self._placement_log[tid].append((now, new_node))
        self._commit_moves(moves)
        return len(moves)

    # -- Online resize -------------------------------------------------------

    def _apply_resize(self, event: Any) -> Decision:
        """Grow or shrink the machine online, repacking the active tasks.

        A ``grow`` doubles (or ``factor``-folds) the tree: the old machine
        becomes the leftmost level-``log2(factor)`` subtree of the new one,
        so every placement keeps its physical PEs and is merely renumbered
        (:func:`~repro.machines.hierarchy.grown_node`) before the algorithm
        is offered a free repack onto the new capacity.  A ``shrink``
        retains the leftmost ``1/factor`` of the PEs and *requires* a
        repack into that prefix; it is refused while the machine is
        degraded (repair first) or while any active task exceeds the new
        machine.  Repack migrations are metered as salvage traffic — like
        a fault, the resize paid for the repack, so the d-budget clock
        restarts.  Residence segments never straddle a resize: every
        active task gets a placement-log entry at the resize instant,
        which is what lets the verify referees audit each constant-N
        epoch independently.
        """
        view = self.view
        assert view is not None
        if self.algorithm is None:
            raise SimulationError("resize events require an algorithm")
        if not hasattr(self.algorithm, "on_resize"):
            raise SimulationError(
                f"{self.algorithm.name} does not support online resize "
                "(no on_resize hook)"
            )
        op = getattr(event, "op", None)
        factor = int(getattr(event, "factor", 0))
        if op not in ("grow", "shrink") or factor < 2 or factor & (factor - 1):
            raise SimulationError(
                f"malformed resize event: op={op!r} factor={factor!r}"
            )
        grow = op == "grow"
        old_machine = self.machine
        old_n = old_machine.num_pes
        if grow:
            new_n = old_n * factor
        else:
            new_n = old_n // factor
            if new_n < 1:
                raise SimulationError(
                    f"cannot shrink a {old_n}-PE machine by {factor}"
                )
            if view.is_degraded:
                raise SimulationError(
                    "cannot shrink a degraded machine; repair outstanding "
                    f"failures first (failed: {list(view.failed_nodes)})"
                )
            oversized = sorted(
                int(tid) for tid, t in self._tasks.items() if t.size > new_n
            )
            if oversized:
                raise SimulationError(
                    f"cannot shrink to {new_n} PEs: active task(s) "
                    f"{oversized} exceed the new machine"
                )
        now = float(event.time)
        new_machine = old_machine.resized(new_n)
        new_view = view.resized(new_machine, factor=factor, grow=grow)
        if grow:
            # Pure renumbering: same physical PEs, new heap indices.
            self._placements = {
                tid: grown_node(node, factor)
                for tid, node in self._placements.items()
            }
        old_placements_old_ids = (
            None if grow else dict(self._placements)
        )
        self.machine = new_machine
        self.view = new_view
        if self._columnar is not None:
            # The columnar engine caches the hierarchy's level geometry at
            # construction; rebind it to the new tree.
            self._columnar = ColumnarEngine(self, self.batch_backend)
        realloc = cast(_ResizeCapable, self.algorithm).on_resize(
            new_machine, new_view
        )
        if realloc is None and not grow and self._placements:
            raise SalvageError(
                f"{self.algorithm.name} returned no repack for a shrink "
                "with active tasks; old placements are invalid on the "
                "smaller machine"
            )
        mapping = (
            dict(self._placements) if realloc is None else dict(realloc.mapping)
        )
        if set(mapping) != set(self._placements):
            missing = set(self._placements) - set(mapping)
            extra = set(mapping) - set(self._placements)
            raise SalvageError(
                f"resize repack must remap exactly the active tasks; "
                f"missing={sorted(missing)!r} extra={sorted(extra)!r}"
            )
        stats = self.metrics.faults
        moved = 0
        old_h = old_machine.hierarchy
        new_h = new_machine.hierarchy
        for tid, new_node in mapping.items():
            task = self._tasks[tid]
            self._validate_node_for(task, new_node)
            if grow:
                prev = self._placements[tid]  # renumbered: same PEs
                if new_node != prev:
                    charge = self.cost_model.charge(
                        new_machine, task.size, prev, new_node
                    )
                    stats.record_salvage_move(
                        task.size, charge.distance, charge.seconds, orphan=False
                    )
                    moved += 1
            else:
                assert old_placements_old_ids is not None
                prev_old = old_placements_old_ids[tid]
                lo_new = new_h.leaf_span(new_node)[0]
                if old_h.leaf_span(prev_old)[0] != lo_new:
                    # Price the move in old-machine coordinates, where both
                    # the source and the (prefix) destination PEs exist.
                    dst_old = old_h.enclosing_node(lo_new, task.size)
                    charge = self.cost_model.charge(
                        old_machine, task.size, prev_old, dst_old
                    )
                    stats.record_salvage_move(
                        task.size, charge.distance, charge.seconds, orphan=False
                    )
                    moved += 1
            self._placements[tid] = new_node
            self._placement_log[tid].append((now, new_node))
        if realloc is not None:
            stats.num_salvage_repacks += 1
        if grow:
            stats.num_grows += 1
        else:
            stats.num_shrinks += 1
        self._loads = self._loads.resized(
            new_h,
            (
                (node, self._tasks[tid].size)
                for tid, node in self._placements.items()
            ),
        )
        # The resize paid for the repack; the d-budget clock restarts.
        self._arrived_since_realloc = 0
        self._num_resizes += 1
        return self._decision(
            "resize",
            event.time,
            salvaged=realloc is not None,
            migrations=moved,
        )

    def _commit_moves(self, moves: list[tuple[NodeId, NodeId, int]]) -> None:
        """Apply validated placement moves to the load tracker.

        A handful of moves is cheapest incrementally (each remove/place is
        O(height)); a repack that relocates most of the machine is cheaper
        as one vectorised :meth:`LoadTracker.rebuild_from` over the final
        placements.  Both paths leave the tracker answering identically —
        the crossover only trades time.
        """
        h = self.machine.hierarchy
        if len(moves) * 2 * (h.height + 1) < h.num_leaves:
            tracker = self._loads
            for old_node, new_node, size in moves:
                tracker.remove(old_node, size)
                tracker.place(new_node, size)
        elif moves:
            self._loads.rebuild_from(
                (node, self._tasks[tid].size)
                for tid, node in self._placements.items()
            )

    # -- Metering ------------------------------------------------------------

    def _observe(self, time: Time) -> None:
        # copy=False: the collector only reads the vector (and copies it
        # itself at a new peak), so the read-only view avoids an O(N)
        # defensive copy on every event.
        self.metrics.observe(
            time,
            self._loads.max_load,
            self._loads.leaf_loads(copy=False) if self.collect_leaf_snapshots else None,
        )

    def _update_degradation_gauges(self) -> None:
        view = self.view
        assert view is not None
        stats = self.metrics.faults
        lstar_deg = view.degraded_optimal_load(self._active_size)
        stats.peak_degraded_lstar = max(stats.peak_degraded_lstar, lstar_deg)
        stats.load_overshoot_vs_degraded = max(
            stats.load_overshoot_vs_degraded, self._loads.max_load - lstar_deg
        )
        stats.min_surviving_pes = min(
            stats.min_surviving_pes, view.surviving_pes
        )

    def _decision(
        self,
        kind: str,
        time: Time,
        *,
        task_id: Optional[int] = None,
        node: Optional[int] = None,
        reallocated: bool = False,
        migrations: int = 0,
        salvaged: bool = False,
        noop: bool = False,
    ) -> Decision:
        return Decision(
            kind=kind,
            time=float(time),
            max_load=self._loads.max_load,
            active_size=self._active_size,
            optimal_load=self.optimal_load,
            task_id=task_id,
            node=node,
            reallocated=reallocated,
            migrations=migrations,
            salvaged=salvaged,
            noop=noop,
        )

    # -- State inspection ----------------------------------------------------

    @property
    def current_max_load(self) -> int:
        return self._loads.max_load

    @property
    def active_tasks(self) -> dict[TaskId, Task]:
        return dict(self._tasks)

    @property
    def placements(self) -> dict[TaskId, NodeId]:
        return dict(self._placements)

    @property
    def peak_active_size(self) -> int:
        """Largest active PE volume seen so far (``s(sigma)`` online)."""
        return self._peak_active_size

    @property
    def num_resizes(self) -> int:
        """How many online grow/shrink events this kernel has absorbed."""
        return self._num_resizes

    @property
    def optimal_load(self) -> int:
        """Running ``L* = ceil(peak active volume / N)``."""
        return -(-self._peak_active_size // self.machine.num_pes)

    @property
    def competitive_ratio(self) -> float:
        """``L_A / L*`` over the events absorbed so far."""
        lstar = self.optimal_load
        peak = self.metrics.max_load
        if lstar == 0:
            return 0.0 if peak == 0 else math.inf
        return peak / lstar

    def leaf_loads(self, *, copy: bool = True) -> np.ndarray:
        """Per-PE loads; ``copy=False`` returns a read-only view valid
        only until the next event (see :meth:`LoadTracker.leaf_loads`)."""
        return self._loads.leaf_loads(copy=copy)

    def submachine_load(self, node: NodeId) -> int:
        return self._loads.submachine_load(node)

    def min_submachine_load(self, size: int) -> int:
        """Smallest max-PE-load over the aligned ``size``-PE submachines.

        O(log N) via the tracker's min-of-max descent.  This is the
        admission-control primitive: an arrival of ``size`` PEs is
        admissible under a load target ``T`` iff this value is ``< T``
        (its best placement lands at ``min + 1 <= T``).
        """
        return self._loads.leftmost_min_submachine(int(size))[1]

    def active_size(self) -> int:
        return self._active_size

    def num_active(self) -> int:
        """Count of currently-placed tasks (O(1); journal delta riders)."""
        return len(self._placements)

    def placement_intervals(self) -> dict[TaskId, list[tuple[float, float, NodeId]]]:
        """Exact (start, end, node) residence segments for every task seen.

        ``end`` is the task's departure time (``inf`` if it never departed)
        or the instant a reallocation moved it.  This is the input the
        slowdown model integrates over — it reflects what actually ran,
        including mid-life migrations.
        """
        intervals: dict[TaskId, list[tuple[float, float, NodeId]]] = {}
        for tid, changes in self._placement_log.items():
            end_of_life = self._departure_times.get(tid, float("inf"))
            segments = []
            for i, (start, node) in enumerate(changes):
                end = changes[i + 1][0] if i + 1 < len(changes) else end_of_life
                if end > start:
                    segments.append((start, end, node))
            intervals[tid] = segments
        return intervals

    def check_consistency(self) -> None:
        """Cross-check tracker vs. placements (test helper)."""
        self._loads.check_invariants()
        expected = np.zeros(self.machine.num_pes, dtype=np.int64)
        h = self.machine.hierarchy
        for _tid, node in self._placements.items():
            lo, hi = h.leaf_span(node)
            expected[lo:hi] += 1
        if not np.array_equal(expected, self._loads.leaf_loads(copy=False)):
            raise SimulationError("leaf loads disagree with placements")

    # -- Snapshot / restore --------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Versioned, JSON-serialisable image of the complete kernel state.

        Everything the kernel is authoritative for is included; algorithm
        internals are not (see the module docstring for the replay-based
        resume contract).  ``restore`` on a kernel built for the same
        machine reproduces this state bit-identically.
        """
        return {
            "kind": KERNEL_STATE_KIND,
            "version": KERNEL_STATE_VERSION,
            "machine": machine_descriptor(self.machine),
            "initial_machine": dict(self._initial_machine),
            "num_resizes": int(self._num_resizes),
            "algorithm": (
                self._restored_algorithm_name
                if self.algorithm is None
                else self.algorithm.name
            ),
            "tasks": [
                {
                    "id": int(tid),
                    "size": t.size,
                    "arrival": float(t.arrival),
                    "departure": _encode_time(t.departure),
                    "work": float(t.work),
                }
                for tid, t in sorted(self._tasks.items(), key=lambda kv: int(kv[0]))
            ],
            "placements": {
                str(int(tid)): int(node)
                for tid, node in sorted(self._placements.items(), key=lambda kv: int(kv[0]))
            },
            "placement_log": {
                str(int(tid)): [[float(t), int(n)] for t, n in log]
                for tid, log in sorted(self._placement_log.items(), key=lambda kv: int(kv[0]))
            },
            "departure_times": {
                str(int(tid)): float(t)
                for tid, t in sorted(self._departure_times.items(), key=lambda kv: int(kv[0]))
            },
            "killed": sorted(int(t) for t in self._killed),
            "failed_nodes": (
                None
                if self.view is None
                else [int(n) for n in self.view.failed_nodes]
            ),
            "arrived_since_realloc": int(self._arrived_since_realloc),
            "active_size": int(self._active_size),
            "peak_active_size": int(self._peak_active_size),
            "metrics": self.metrics.to_state(),
        }

    def restore(self, state: Mapping[str, Any]) -> None:
        """Load a :meth:`snapshot` into this kernel, replacing its state.

        The kernel must have been constructed for the same machine (and
        with a degraded view iff the snapshot recorded failed nodes);
        anything else is a :class:`~repro.errors.CheckpointError` — a
        snapshot restored onto the wrong machine would corrupt silently.
        One exception: an external-placement kernel (no algorithm) whose
        construction machine matches the snapshot's *initial* machine may
        restore a post-resize snapshot — the kernel adopts the snapshot's
        current machine, exactly as replaying the resize events would.
        Version-1 snapshots (pre-resize builds) restore unchanged.
        """
        version = state.get("version")
        if (
            state.get("kind") != KERNEL_STATE_KIND
            or version not in _RESTORABLE_VERSIONS
        ):
            raise CheckpointError(
                f"not a kernel snapshot: kind={state.get('kind')!r} "
                f"version={state.get('version')!r} (this build expects "
                f"{KERNEL_STATE_KIND!r} v{KERNEL_STATE_VERSION})"
            )
        here = machine_descriptor(self.machine)
        snap_machine = dict(state.get("machine", {}))
        num_resizes = int(state.get("num_resizes", 0))
        initial_machine = dict(state.get("initial_machine") or snap_machine)
        adopt_machine = False
        if snap_machine != here:
            if (
                self.algorithm is None
                and num_resizes > 0
                and initial_machine == self._initial_machine
            ):
                adopt_machine = True
            else:
                raise CheckpointError(
                    f"kernel snapshot was taken on {state.get('machine')!r}; "
                    f"this kernel runs on {here!r}"
                )
        try:
            tasks: dict[TaskId, Task] = {}
            for rec in state["tasks"]:
                t = Task(
                    TaskId(int(rec["id"])),
                    int(rec["size"]),
                    float(rec["arrival"]),
                    _decode_time(rec["departure"]),
                    float(rec.get("work", 1.0)),
                )
                tasks[t.task_id] = t
            placements = {
                TaskId(int(tid)): NodeId(int(node))
                for tid, node in state["placements"].items()
            }
            placement_log = {
                TaskId(int(tid)): [(float(t), NodeId(int(n))) for t, n in log]
                for tid, log in state["placement_log"].items()
            }
            departure_times = {
                TaskId(int(tid)): float(t)
                for tid, t in state["departure_times"].items()
            }
            killed = {TaskId(int(t)) for t in state.get("killed", [])}
            if not set(placements) <= set(tasks):
                raise CheckpointError(
                    "kernel snapshot places tasks it does not list: "
                    f"{sorted(int(t) for t in set(placements) - set(tasks))!r}"
                )
            failed_nodes = state.get("failed_nodes")
            metrics = MetricsCollector.from_state(state["metrics"])
            arrived = int(state["arrived_since_realloc"])
            active = int(state["active_size"])
            peak_active = int(state["peak_active_size"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed kernel snapshot ({type(exc).__name__}: {exc})"
            ) from exc
        if failed_nodes and self.view is None:
            raise CheckpointError(
                "kernel snapshot records failed nodes but this kernel has "
                "no degraded view"
            )
        # Parse succeeded — now (and only now) replace the live state.
        if adopt_machine:
            machine = machine_from_descriptor(snap_machine)
            self.machine = machine
            self._loads = machine.new_load_tracker()
            if self.view is not None:
                self.view = DegradedView(machine)
            if self._columnar is not None:
                self._columnar = ColumnarEngine(self, self.batch_backend)
        if self.algorithm is None:
            self._restored_algorithm_name = state.get("algorithm")
        if self.view is not None:
            for node in list(self.view.failed_nodes):
                self.view.repair(node)
            for node in failed_nodes or []:
                self.view.fail(NodeId(int(node)))
        self._tasks = tasks
        self._placements = placements
        self._loads.rebuild_from(
            (node, tasks[tid].size) for tid, node in placements.items()
        )
        self._placement_log = placement_log
        self._departure_times = departure_times
        self._killed = killed
        self._arrived_since_realloc = arrived
        self._active_size = active
        self._peak_active_size = peak_active
        self._num_resizes = num_resizes
        self.metrics = metrics
