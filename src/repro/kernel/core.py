"""The incremental allocation kernel — one state machine for every driver.

:class:`AllocationKernel` owns the authoritative allocation state that the
batch :class:`~repro.sim.engine.Simulator`, the fault-aware simulator, the
work-driven simulators and the streaming service layer all used to
duplicate: placement validation, the d-budget reallocation gate, the
:class:`~repro.machines.loads.LoadTracker` and incremental metrics deltas.
Drivers feed events in with :meth:`apply` (or
:meth:`apply_placed` when the placement was decided externally) and get a
:class:`~repro.kernel.decision.Decision` back; they never touch the load
state directly, so the validation discipline of the original simulator —
every placement re-derived and checked, every budget violation a hard
error — holds identically for every operating mode.

The kernel is pure with respect to the outside world: it performs no I/O,
holds no clock, and spawns no callbacks.  Its complete state round-trips
through :meth:`snapshot` / :meth:`restore` as a versioned JSON-safe dict
of live state only — active tasks and placements, the killed and failed
sets, counters, scalar metrics and the O(N) peak leaf vector — so its
size follows the active set, not the uptime.  History is the drivers':
each :class:`Decision` carries the moves it made, and
:class:`~repro.sim.history.RunHistory` folds decisions into residence
segments and the max-load series.  A streaming session checkpoints the
snapshot's sha256 (``docs/ARCHITECTURE.md``, "Checkpoint digests").

Fault events (failures, repairs, kills) are dispatched by their ``kind``
string rather than by class, so the kernel never imports
:mod:`repro.faults` — the dependency points one way, drivers down to
kernel.

The kernel's :class:`~repro.machines.loads.LoadTracker` is the only one
a session keeps: an algorithm that decides from loads reads this tracker,
bound through :meth:`~repro.core.base.AllocationAlgorithm.bind_loads` at
construction and again whenever the kernel replaces it.  The kernel is
its only writer.

Restoring a snapshot rebuilds *kernel* state only.  Algorithm objects keep
private incremental state (copy sets, RNG position) that round-trips
separately through
:meth:`~repro.core.base.AllocationAlgorithm.state` /
:meth:`~repro.core.base.AllocationAlgorithm.load_state`; a resuming
session restores both from its state sidecar and replays only the
journal tail (see :mod:`repro.service.session`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Mapping, Optional, Protocol, Sequence, Union, cast

from repro.core.base import AllocationAlgorithm, Reallocation, reorder
from repro.errors import (
    BatchError,
    CheckpointError,
    PlacementError,
    ReallocationError,
    ReproError,
    SalvageError,
    SimulationError,
)
from repro.kernel.decision import BatchDecision, Decision
from repro.machines.base import PartitionableMachine
from repro.machines.degraded import DegradedView
from repro.machines.factory import machine_descriptor, machine_from_descriptor
from repro.machines.hierarchy import grown_node
from repro.machines.loads import LoadTracker
from repro.sim.metrics import MetricsCollector
from repro.sim.realloc_cost import MigrationCostModel
from repro.tasks.events import EventKind
from repro.tasks.task import Task
from repro.types import NodeId, TaskId, Time

if TYPE_CHECKING:
    import numpy as np

__all__ = ["AllocationKernel", "KERNEL_STATE_KIND", "KERNEL_STATE_VERSION"]

#: ``(task_id, new_node)`` pairs: the re-placements one event made.
_Moves = tuple[tuple[TaskId, NodeId], ...]

#: Identity of the snapshot format; :meth:`AllocationKernel.restore`
#: refuses anything else rather than guessing.
KERNEL_STATE_KIND = "repro-kernel-state"
#: Version 3 is live state only (version 2 also kept the placement log,
#: departure times and max-load series).  Only v3 restores; session
#: journals pin it in their fingerprint, since their digests hash it.
KERNEL_STATE_VERSION = 3


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
    view:
        A :class:`~repro.machines.degraded.DegradedView` enables fault
        events; with ``view=None`` a fault event is an unknown-event error,
        exactly as in the fault-unaware simulator.
    repack_on_repair:
        Whether a repair event triggers a salvage repack onto the
        recovered capacity.
    """

    def __init__(
        self,
        machine: PartitionableMachine,
        algorithm: Optional[AllocationAlgorithm] = None,
        cost_model: Optional[MigrationCostModel] = None,
        *,
        view: Optional[DegradedView] = None,
        repack_on_repair: bool = True,
    ) -> None:
        if algorithm is not None and algorithm.machine is not machine:
            raise SimulationError(
                "algorithm was constructed for a different machine instance"
            )
        self.machine = machine
        self.algorithm = algorithm
        self.cost_model = cost_model or MigrationCostModel()
        self.view = view
        self.repack_on_repair = repack_on_repair
        self._bind_loads(machine.new_load_tracker())
        self._placements: dict[TaskId, NodeId] = {}
        self._tasks: dict[TaskId, Task] = {}
        self._arrived_since_realloc = 0
        self.metrics = MetricsCollector()
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

    def _bind_loads(self, loads: LoadTracker) -> None:
        """Make ``loads`` the kernel's tracker and the one its algorithm
        reads (see :meth:`AllocationAlgorithm.bind_loads`)."""
        self._loads = loads
        if self.algorithm is not None:
            self.algorithm.bind_loads(loads)

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
        """Absorb a sequence of events; the same as one :meth:`apply` each.

        Same decisions, metrics and snapshots as calling :meth:`apply`
        once per event.  If an event fails, the kernel state is the one
        the preceding events left and a :class:`~repro.errors.BatchError`
        carrying the applied prefix is raised.
        """
        decisions: list[Decision] = []
        try:
            for event in events:
                decisions.append(self.apply(event))
        except ReproError as exc:
            raise BatchError(
                f"batch event {len(decisions)} failed: {exc}",
                applied=len(decisions),
                decisions=decisions,
            ) from exc
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
        self._admit(task, node)
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

    def _admit(self, task: Task, node: NodeId) -> None:
        self._loads.place(node, task.size)
        self._placements[task.task_id] = node
        self._tasks[task.task_id] = task
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
        self._admit(task, placement.node)
        reallocated, moves = self._offer_reallocation()
        return self._decision(
            "arrival",
            event.time,
            task_id=int(task.task_id),
            node=int(self._placements[task.task_id]),
            reallocated=reallocated,
            moves=moves,
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
        self._active_size -= task.size
        return self._decision("departure", event.time, task_id=int(event.task_id))

    # -- Reallocation --------------------------------------------------------

    def _offer_reallocation(self) -> tuple[bool, _Moves]:
        assert self.algorithm is not None
        realloc = self.algorithm.maybe_reallocate(self._arrived_since_realloc)
        if realloc is None:
            return False, ()
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
        moves = self._apply_reallocation(realloc)
        self._arrived_since_realloc = 0
        return True, moves

    def _check_remap(
        self, mapping: Mapping[TaskId, NodeId], error: type[ReproError], what: str
    ) -> None:
        if set(mapping) != set(self._placements):
            missing = set(self._placements) - set(mapping)
            extra = set(mapping) - set(self._placements)
            raise error(
                f"{what} must remap exactly the active tasks; "
                f"missing={sorted(missing)!r} extra={sorted(extra)!r}"
            )

    def _apply_reallocation(self, realloc: Reallocation) -> _Moves:
        import numpy as np

        mapping = dict(realloc.mapping)
        self._check_remap(mapping, ReallocationError, "reallocation")
        stats = self.metrics.realloc
        stats.record_reallocation()
        # Bulk form of the per-task validate/charge loop: gather the remap
        # as arrays, check and price every move at once, then write the
        # moved tasks back.  Any failed check reruns the per-task
        # validation so the error is the one (and the text) it raises.
        tids = list(mapping)
        placements, tasks = self._placements, self._tasks
        count = len(tids)
        try:
            new = np.fromiter(mapping.values(), dtype=np.int64, count=count)
        except OverflowError:  # beyond int64 is no node; let the loop say so
            new = np.zeros(count, dtype=np.int64)
        old = np.fromiter((placements[t] for t in tids), dtype=np.int64, count=count)
        sizes = np.fromiter((tasks[t].size for t in tids), dtype=np.int64, count=count)
        if not self.machine.hierarchy.roots_of_size(new, sizes).all():
            for tid, node in mapping.items():
                self._validate_node_for(tasks[tid], node)
        if self.view is not None:
            for tid, node in mapping.items():
                self.view.validate_placement(node, task_id=tid)
        moved = np.flatnonzero(new != old)
        stats.record_stationary(count - len(moved))
        src, dst, moved_sizes = old[moved], new[moved], sizes[moved]
        distances = self.machine.migration_distances(src, dst)
        stats.record_moves(
            moved_sizes, distances, self.cost_model.bytes_moved(moved_sizes, distances)
        )
        moves = tuple((tids[i], mapping[tids[i]]) for i in moved.tolist())
        placements.update(moves)
        self._commit_moves(list(zip(src.tolist(), dst.tolist(), moved_sizes.tolist())))
        return moves

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
            salvaged, moves = self._salvage_after_fault(orphans)
            return self._decision(
                "failure",
                event.time,
                node=int(event.node),
                salvaged=salvaged,
                moves=moves,
            )
        if kind == "repair":
            view.repair(event.node)
            stats.num_repairs += 1
            salvaged, moves = False, ()
            if self.repack_on_repair:
                salvaged, moves = self._salvage_after_fault(set())
            return self._decision(
                "repair",
                event.time,
                node=int(event.node),
                salvaged=salvaged,
                moves=moves,
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
        self._active_size -= task.size
        self._killed.add(event.task_id)
        self.metrics.faults.num_kills += 1
        return self._decision("kill", event.time, task_id=int(event.task_id))

    def _salvage_after_fault(self, orphans: set[TaskId]) -> tuple[bool, _Moves]:
        realloc = cast(_SalvageCapable, self.algorithm).on_fault()
        moves: _Moves = ()
        if realloc is not None:
            moves = self._apply_salvage(dict(realloc.mapping), orphans)
        # A salvage leaves the machine optimally repacked, so the planned
        # d-budget clock restarts — the fault paid for the repack, the
        # algorithm's budget did not.
        self._arrived_since_realloc = 0
        return realloc is not None, moves

    def _apply_salvage(
        self, mapping: dict[TaskId, NodeId], orphans: set[TaskId]
    ) -> _Moves:
        self._check_remap(mapping, SalvageError, "salvage")
        stats = self.metrics.faults
        stats.num_salvage_repacks += 1
        spans: list[tuple[NodeId, NodeId, int]] = []
        moves: list[tuple[TaskId, NodeId]] = []
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
            spans.append((old_node, new_node, task.size))
            moves.append((tid, new_node))
            self._placements[tid] = new_node
        self._commit_moves(spans)
        return tuple(moves)

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
        restarts.  Residence segments never straddle a resize: the
        decision's ``moves`` re-place every active task at the resize
        instant, which is what lets the verify referees audit each
        constant-N epoch independently.
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
        self._check_remap(mapping, SalvageError, "resize repack")
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
        if realloc is not None:
            stats.num_salvage_repacks += 1
        if grow:
            stats.num_grows += 1
        else:
            stats.num_shrinks += 1
        self._bind_loads(self._loads.resized(
            new_h,
            (
                (node, self._tasks[tid].size)
                for tid, node in self._placements.items()
            ),
        ))
        # The resize paid for the repack; the d-budget clock restarts.
        self._arrived_since_realloc = 0
        self._num_resizes += 1
        return self._decision(
            "resize",
            event.time,
            salvaged=realloc is not None,
            migrations=moved,
            moves=tuple(mapping.items()),
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
        # The per-PE vector at the peak can change only when the max load
        # strictly rises (at most L_A + 1 times a run), so it is taken
        # then, and taken fresh: the tracker builds nothing for it.
        metrics = self.metrics
        if metrics.observe(self._loads.max_load):
            metrics.peak_leaves = self._loads.fresh_leaf_loads()
            metrics.peak_snapshot_time = time

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
        migrations: Optional[int] = None,
        salvaged: bool = False,
        noop: bool = False,
        moves: _Moves = (),
    ) -> Decision:
        """``migrations`` defaults to ``len(moves)``; a resize, whose
        ``moves`` re-place every active task, counts only real moves."""
        return Decision(
            kind=kind,
            time=float(time),
            max_load=self._loads.max_load,
            active_size=self._active_size,
            optimal_load=self.optimal_load,
            task_id=task_id,
            node=node,
            reallocated=reallocated,
            migrations=len(moves) if migrations is None else migrations,
            salvaged=salvaged,
            noop=noop,
            moves=moves,
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

    def task_order(self) -> list[int]:
        """Active task ids in insertion order.  The snapshot lists tasks
        sorted; :meth:`restore` takes this back as ``order`` so the
        restored dicts iterate exactly as the live ones did."""
        return [int(tid) for tid in self._placements]

    def check_consistency(self) -> None:
        """Cross-check tracker vs. placements (test helper)."""
        import numpy as np

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

        Everything the kernel is authoritative for is included, and all of
        it is live state: O(active tasks + N), whatever the uptime.
        Algorithm internals are not (see the module docstring for the
        replay-based resume contract).  ``restore`` on a kernel built for
        the same machine reproduces this state bit-identically.
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

    def restore(
        self, state: Mapping[str, Any], *, order: Optional[Sequence[int]] = None
    ) -> None:
        """Load a :meth:`snapshot` into this kernel, replacing its state.

        The kernel must have been constructed for the same machine (and
        with a degraded view iff the snapshot recorded failed nodes);
        anything else is a :class:`~repro.errors.CheckpointError` — a
        snapshot restored onto the wrong machine would corrupt silently.
        One exception: a kernel whose construction machine matches the
        snapshot's *initial* machine may restore a post-resize snapshot —
        the kernel adopts the snapshot's current machine (and a fresh
        view of it), exactly as replaying the resize events would; an
        algorithm driving the kernel must then be restored onto
        ``kernel.machine`` as well.  ``order`` is a :meth:`task_order`
        saved with the snapshot.  Snapshots of other versions are refused.
        """
        if (
            state.get("kind") != KERNEL_STATE_KIND
            or state.get("version") != KERNEL_STATE_VERSION
        ):
            raise CheckpointError(
                f"not a kernel snapshot: kind={state.get('kind')!r} "
                f"version={state.get('version')!r} (this build expects "
                f"{KERNEL_STATE_KIND!r} v{KERNEL_STATE_VERSION})"
            )
        here = machine_descriptor(self.machine)
        snap_machine = dict(state.get("machine", {}))
        num_resizes = int(state.get("num_resizes", 0))
        initial_machine = dict(state.get("initial_machine", {}))
        adopt_machine = False
        if snap_machine != here:
            if num_resizes > 0 and initial_machine == self._initial_machine:
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
            killed = {TaskId(int(t)) for t in state.get("killed", [])}
            if not set(placements) <= set(tasks):
                raise CheckpointError(
                    "kernel snapshot places tasks it does not list: "
                    f"{sorted(int(t) for t in set(placements) - set(tasks))!r}"
                )
            if order is not None:
                placements = reorder(order, placements)
                tasks = {tid: tasks[tid] for tid in placements} | tasks
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
            self._bind_loads(machine.new_load_tracker())
            if self.view is not None:
                self.view = DegradedView(machine)
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
        self._killed = killed
        self._arrived_since_realloc = arrived
        self._active_size = active
        self._peak_active_size = peak_active
        self._num_resizes = num_resizes
        self.metrics = metrics
