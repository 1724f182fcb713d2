"""Online allocation sessions: the paper's model as a long-lived service.

An :class:`AllocationSession` wraps one
:class:`~repro.kernel.AllocationKernel` behind an interactive API:
arrivals and departures (and, for fault-tolerant sessions, failures,
repairs and kills) are *pushed* one at a time, and the paper's running
quantities — ``L_A`` so far, the online ``L* = ceil(peak active
volume / N)``, and their ratio — are readable at any instant.  This is
the operating mode the paper actually describes (tasks "arrive at
unpredictable times"); the batch simulator is the offline replay of the
same kernel.

Durability: give the session a journal path and every absorbed event is
appended — fsync'd — to a :class:`~repro.sim.checkpoint.CheckpointJournal`
before the decision is returned.  At each full checkpoint the journal
gets a 64-character ``state_sha256``: the sha256 of the complete kernel
snapshot (history included), never the snapshot itself, whose size grows
with every placement and migration ever made.  If the process dies,
constructing a session with the same configuration and journal path
*resumes* it: the journaled events are replayed through a fresh kernel
and algorithm (the :class:`~repro.core.base.AllocationAlgorithm`
contract guarantees algorithms are deterministic functions of the event
history), and the replayed kernel state is digested and compared at
every checkpoint — a mismatch (different code, different config,
corrupted journal) is a hard :class:`~repro.errors.CheckpointError`,
never a silently different run.  Journals from older builds, which
embed the full snapshot instead, are checked by digesting both sides.
The resumed session then continues to the same final metrics the
uninterrupted run would have produced.

SLO mode (``slo=SLOPolicy(...)``): every wire record goes through
:meth:`AllocationSession.offer`, which gates arrivals against the
slowdown-derived load target (:mod:`repro.service.slo`) and returns a
typed ``Admit | Queue | Reject | Cancel`` outcome instead of a bare
decision.  Inadmissible arrivals wait in a bounded FIFO queue that is
drained — strictly in order — the moment capacity frees (departures,
kills, repairs, resizes); a full queue rejects.  Queue and reject
decisions are journaled alongside absorbed events (``"slo"``-marked
records in a single contiguous index space), so a resumed session
reconstructs the exact queue contents, counters, and admission decisions
— replay never re-decides, it re-applies.  Backpressure: the journal's
fsync lag is compared against the policy's watermarks and surfaced as
:attr:`overloaded` (with hysteresis), which ``repro serve`` translates
into ``"overloaded"`` wire records and a read stall.  See ``docs/SLO.md``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Union

from repro.core.base import AllocationAlgorithm
from repro.errors import BatchError, CheckpointError, ReproError, SimulationError
from repro.kernel import AllocationKernel, BatchDecision, Decision
from repro.machines.base import PartitionableMachine
from repro.machines.factory import machine_descriptor
from repro.service.slo import (
    Admit,
    AdmissionController,
    AdmissionOutcome,
    Cancel,
    Queue,
    Reject,
    SLOPolicy,
)
from repro.sim.checkpoint import CheckpointJournal
from repro.sim.engine import RunResult
from repro.sim.frames import encode_wire_columns
from repro.sim.realloc_cost import MigrationCostModel
from repro.tasks.events import Arrival, Departure
from repro.tasks.sequence import TaskSequence
from repro.tasks.task import Task
from repro.types import NodeId, TaskId

__all__ = ["AllocationSession"]


def _state_digest(state: Mapping[str, Any]) -> str:
    """sha256 of a kernel snapshot's compact JSON encoding.

    :meth:`~repro.kernel.AllocationKernel.snapshot` emits every dict in a
    fixed order, so the encoding is canonical without ``sort_keys``.  A
    snapshot is a tree, so the encoder's cycle check is skipped (~20% of
    its time on history-heavy states).
    """
    return hashlib.sha256(
        json.dumps(state, separators=(",", ":"), check_circular=False).encode()
    ).hexdigest()


class AllocationSession:
    """One tenant's interactive allocation service on one machine.

    Parameters
    ----------
    machine, algorithm, cost_model:
        As for the batch :class:`~repro.sim.engine.Simulator`.
    fault_tolerant:
        Wrap the algorithm for salvage and enable failure/repair/kill
        events (otherwise a fault event is rejected).
    journal_path:
        Append-only durability journal.  If the file already exists, the
        session **resumes** from it (see the module docstring); the
        journal fingerprint pins machine, algorithm and ``d``, so resuming
        with a different configuration is refused.
    snapshot_interval:
        Checkpoint interval in events (0 disables checkpoints; resume
        still replays).  v1 journals embed the kernel-state digest every
        this many events; v2 journals embed an O(1) delta rider here and
        the digest every ``full_snapshot_interval`` events (default 16x).
    fsync_policy:
        Journal durability mode (``always`` | ``batch`` |
        ``interval:<ms>``, see :class:`~repro.sim.checkpoint.
        CheckpointJournal`).  ``always`` keeps the original per-event
        durability; ``batch`` group-commits — :meth:`push_batch` syncs
        once per batch and per-event pushes buffer until :meth:`flush`
        (or a control read, or close) — so a crash loses at most the
        records since the last commit: one uncommitted batch.
    batch_backend:
        Execution strategy for :meth:`push_batch`'s kernel ingest
        (``python`` | ``numpy`` | ``numba``, see
        :class:`~repro.kernel.core.AllocationKernel`).  Decisions and
        journals are bit-identical across backends, so the backend is a
        per-process tuning knob — it is deliberately *not* part of the
        journal fingerprint, and a journal written under one backend
        resumes cleanly under another.
    slo:
        An :class:`~repro.service.slo.SLOPolicy` switches the session
        into SLO mode: :meth:`push` / :meth:`push_batch` (and the public
        mutators) route through the admission controller via
        :meth:`offer` and return typed admission outcomes.  The policy's
        load target and queue capacity join the journal fingerprint —
        an SLO journal only resumes under the same contract.
    """

    def __init__(
        self,
        machine: PartitionableMachine,
        algorithm: AllocationAlgorithm,
        cost_model: Optional[MigrationCostModel] = None,
        *,
        fault_tolerant: bool = False,
        journal_path: Union[str, Path, None] = None,
        snapshot_interval: int = 64,
        collect_leaf_snapshots: bool = True,
        repack_on_repair: bool = True,
        fsync_policy: str = "always",
        journal_format: str = "v2",
        full_snapshot_interval: Optional[int] = None,
        batch_backend: str = "python",
        slo: Optional[SLOPolicy] = None,
    ) -> None:
        self.machine = machine
        self._fault_tolerant = fault_tolerant
        if fault_tolerant:
            from repro.faults.salvage import FaultTolerantAlgorithm

            if isinstance(algorithm, FaultTolerantAlgorithm):
                wrapper = algorithm
            else:
                wrapper = FaultTolerantAlgorithm(
                    machine, algorithm, machine.degraded_view()
                )
            self.algorithm: AllocationAlgorithm = wrapper
            view = wrapper.view
        else:
            self.algorithm = algorithm
            view = None
        self.kernel = AllocationKernel(
            machine,
            self.algorithm,
            cost_model,
            collect_leaf_snapshots=collect_leaf_snapshots,
            view=view,
            repack_on_repair=repack_on_repair,
            batch_backend=batch_backend,
        )
        self._slo: Optional[AdmissionController] = (
            AdmissionController(slo) if slo is not None else None
        )
        self._events: list[Any] = []
        self._now = 0.0
        self._next_task_id = 0
        self._offered = 0
        self._journal_seq = 0
        self._overloaded = False
        self._snapshot_interval = max(0, int(snapshot_interval))
        # v2 journals split the single interval in two: cheap O(1) delta
        # records every ``snapshot_interval`` events and the full-state
        # digest only every ``full_snapshot_interval`` (default 16x).  v1
        # journals embed the digest at every interval.
        if full_snapshot_interval is None:
            full_snapshot_interval = 16 * self._snapshot_interval
        self._full_snapshot_interval = max(0, int(full_snapshot_interval))
        self._journal: Optional[CheckpointJournal] = None
        if journal_path is not None:
            resuming = Path(journal_path).exists()
            self._journal = CheckpointJournal(
                journal_path,
                fingerprint=self._fingerprint(),
                fsync_policy=fsync_policy,
                format=journal_format,
            )
            if resuming:
                self._replay_journal()

    def _fingerprint(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "kind": "allocation-session",
            "machine": machine_descriptor(self.machine),
            "algorithm": self.algorithm.name,
            "d": repr(self.algorithm.reallocation_parameter),
            "fault_tolerant": self._fault_tolerant,
        }
        if self._slo is not None:
            # Only the fields that shape admission decisions pin the
            # journal; watermarks/retry hints are serving knobs and may
            # change across a resume.
            out["slo"] = {
                "load_target": self._slo.load_target,
                "queue_capacity": self._slo.policy.queue_capacity,
            }
        return out

    # -- Event intake --------------------------------------------------------

    def _clock(self, time: Optional[float]) -> float:
        if time is None:
            return self._now + 1.0 if self._offered else 0.0
        t = float(time)
        if t < self._now:
            raise SimulationError(
                f"event time {t} precedes the session clock ({self._now})"
            )
        return t

    def submit(
        self,
        size: int,
        *,
        time: Optional[float] = None,
        task_id: Optional[int] = None,
        work: float = 1.0,
    ) -> Union[Decision, AdmissionOutcome]:
        """Admit one task arrival; returns the placement decision.

        In SLO mode the arrival goes through :meth:`offer` and the typed
        admission outcome is returned instead.
        """
        if self._slo is not None:
            record: dict[str, Any] = {
                "kind": "arrival", "size": int(size), "work": float(work)
            }
            if time is not None:
                record["time"] = time
            if task_id is not None:
                record["id"] = task_id
            return self.offer(record)
        return self._submit_event(size, time=time, task_id=task_id, work=work)

    def _submit_event(
        self,
        size: int,
        *,
        time: Optional[float] = None,
        task_id: Optional[int] = None,
        work: float = 1.0,
    ) -> Decision:
        t = self._clock(time)
        tid = self._next_task_id if task_id is None else int(task_id)
        task = Task(TaskId(tid), int(size), t, work=float(work))
        return self._absorb(
            Arrival(t, task),
            {"kind": "arrival", "time": t, "id": tid, "size": int(size),
             "work": float(work)},
        )

    def depart(
        self, task_id: int, *, time: Optional[float] = None
    ) -> Union[Decision, AdmissionOutcome]:
        """Retire one active task (via :meth:`offer` in SLO mode)."""
        if self._slo is not None:
            record: dict[str, Any] = {"kind": "departure", "id": int(task_id)}
            if time is not None:
                record["time"] = time
            return self.offer(record)
        return self._depart_event(task_id, time=time)

    def _depart_event(
        self, task_id: int, *, time: Optional[float] = None
    ) -> Decision:
        t = self._clock(time)
        return self._absorb(
            Departure(t, TaskId(int(task_id))),
            {"kind": "departure", "time": t, "id": int(task_id)},
        )

    def fail(
        self, node: int, *, time: Optional[float] = None
    ) -> Union[Decision, AdmissionOutcome]:
        """Fail the aligned subtree at ``node`` (fault-tolerant sessions)."""
        if self._slo is not None:
            return self.offer(self._timed({"kind": "failure", "node": int(node)}, time))
        return self._fault_event("failure", node=int(node), time=time)

    def repair(
        self, node: int, *, time: Optional[float] = None
    ) -> Union[Decision, AdmissionOutcome]:
        """Repair a previously-failed subtree (fault-tolerant sessions)."""
        if self._slo is not None:
            return self.offer(self._timed({"kind": "repair", "node": int(node)}, time))
        return self._fault_event("repair", node=int(node), time=time)

    def kill(
        self, task_id: int, *, time: Optional[float] = None
    ) -> Union[Decision, AdmissionOutcome]:
        """Kill one task in place (fault-tolerant sessions)."""
        if self._slo is not None:
            return self.offer(self._timed({"kind": "kill", "id": int(task_id)}, time))
        return self._fault_event("kill", task_id=int(task_id), time=time)

    @staticmethod
    def _timed(record: dict[str, Any], time: Optional[float]) -> dict[str, Any]:
        if time is not None:
            record["time"] = time
        return record

    def grow(
        self, factor: int = 2, *, time: Optional[float] = None
    ) -> Union[Decision, AdmissionOutcome]:
        """Grow the machine online by ``factor`` (fault-tolerant sessions)."""
        return self.resize("grow", factor, time=time)

    def shrink(
        self, factor: int = 2, *, time: Optional[float] = None
    ) -> Union[Decision, AdmissionOutcome]:
        """Shrink the machine online by ``factor`` (fault-tolerant sessions)."""
        return self.resize("shrink", factor, time=time)

    def resize(
        self, op: str, factor: int = 2, *, time: Optional[float] = None
    ) -> Union[Decision, AdmissionOutcome]:
        """Resize the machine in place while tasks stay resident.

        ``grow`` renumbers every placement into a ``factor``-times larger
        machine (zero migrations); ``shrink`` repacks the survivors into
        the leftmost ``1/factor`` of the PEs and refuses if any active
        task would no longer fit.  Resizes need a fault-tolerant session
        (the kernel routes them through the degraded view) and are
        journaled like any other event, so a resumed session replays the
        same machine-size trajectory.
        """
        if self._slo is not None:
            return self.offer(self._timed(
                {"kind": "resize", "op": str(op), "factor": int(factor)}, time
            ))
        return self._resize_event(op, factor, time=time)

    def _resize_event(
        self, op: str, factor: int = 2, *, time: Optional[float] = None
    ) -> Decision:
        if not self._fault_tolerant:
            raise SimulationError(
                "resize events need a fault-tolerant session "
                "(AllocationSession(..., fault_tolerant=True))"
            )
        from repro.scenarios.elastic import MachineResize

        t = self._clock(time)
        event = MachineResize(t, str(op), int(factor))
        return self._absorb(
            event,
            {"kind": "resize", "time": t, "op": event.op,
             "factor": event.factor},
        )

    def _fault_event(
        self,
        kind: str,
        *,
        node: Optional[int] = None,
        task_id: Optional[int] = None,
        time: Optional[float] = None,
    ) -> Decision:
        if not self._fault_tolerant:
            raise SimulationError(
                f"{kind} events need a fault-tolerant session "
                "(AllocationSession(..., fault_tolerant=True))"
            )
        from repro.faults.plan import PEFailure, PERepair, TaskKill

        t = self._clock(time)
        if kind == "failure":
            assert node is not None
            event: Any = PEFailure(t, NodeId(node))
            record: dict[str, Any] = {"kind": kind, "time": t, "node": node}
        elif kind == "repair":
            assert node is not None
            event = PERepair(t, NodeId(node))
            record = {"kind": kind, "time": t, "node": node}
        else:
            assert task_id is not None
            event = TaskKill(t, TaskId(task_id))
            record = {"kind": kind, "time": t, "id": task_id}
        return self._absorb(event, record)

    def push(self, record: Mapping[str, Any]) -> Union[Decision, AdmissionOutcome]:
        """Absorb one wire-format event record (see :mod:`.stream`).

        SLO sessions route through :meth:`offer` and return the typed
        admission outcome; plain sessions return the kernel decision.
        """
        if self._slo is not None:
            return self.offer(record)
        return self._apply_record(record)

    def _apply_record(self, record: Mapping[str, Any]) -> Decision:
        """Ungated record dispatch — the pre-SLO :meth:`push` semantics."""
        kind = record.get("kind")
        if kind == "arrival":
            return self._submit_event(
                int(record["size"]),
                time=record.get("time"),
                task_id=record.get("id"),
                work=float(record.get("work", 1.0)),
            )
        if kind == "departure":
            return self._depart_event(int(record["id"]), time=record.get("time"))
        if kind == "kill":
            return self._fault_event(
                "kill", task_id=int(record["id"]), time=record.get("time")
            )
        if kind in ("failure", "repair"):
            return self._fault_event(
                kind, node=int(record["node"]), time=record.get("time")
            )
        if kind == "resize":
            return self._resize_event(
                str(record["op"]),
                int(record.get("factor", 2)),
                time=record.get("time"),
            )
        raise SimulationError(f"unknown event record kind {kind!r}")

    # -- SLO admission -------------------------------------------------------

    def offer(self, record: Mapping[str, Any]) -> AdmissionOutcome:
        """Absorb one wire record through the admission controller.

        Arrivals are evaluated against the post-placement load they would
        induce: admissible ones (and everything when SLO mode is off) are
        applied and returned as :class:`~repro.service.slo.Admit`;
        inadmissible ones wait in the FIFO queue
        (:class:`~repro.service.slo.Queue`) or, when it is full, are
        turned away (:class:`~repro.service.slo.Reject`).  Non-arrival
        events always apply, then drain the queue in FIFO order for as
        long as its head became admissible — the drained decisions ride
        on the returned outcome.  Departures/kills of tasks the gate is
        still holding (or already dropped) resolve as
        :class:`~repro.service.slo.Cancel` without touching the kernel.

        Every decision is journaled, so a resumed session reproduces the
        same outcomes bit-identically.
        """
        ctrl = self._slo
        if ctrl is None:
            decision = self._apply_record(record)
            return Admit(record=dict(record), decision=decision)
        kind = record.get("kind")
        if kind == "arrival":
            return self._offer_arrival(record)
        if kind in ("departure", "kill"):
            tid = int(record["id"])
            active = TaskId(tid) in self.kernel.placements
            if not active and (ctrl.is_pending(tid) or ctrl.was_dropped(tid)):
                return self._cancel(str(kind), record, tid)
        decision = self._apply_record(record)
        drained = self._drain()
        return Admit(record=dict(record), decision=decision, drained=drained)

    def _admissible(self, size: int) -> bool:
        assert self._slo is not None
        try:
            return (
                self.kernel.min_submachine_load(size) + 1
                <= self._slo.load_target
            )
        except ReproError:
            # e.g. a queued task larger than the machine after a shrink:
            # it stays queued until a grow makes it placeable again.
            return False

    def _offer_arrival(self, record: Mapping[str, Any]) -> AdmissionOutcome:
        ctrl = self._slo
        assert ctrl is not None
        size = int(record["size"])
        self.machine.validate_task_size(size)
        t = self._clock(record.get("time"))
        rid = record.get("id")
        tid = self._next_task_id if rid is None else int(rid)
        if ctrl.is_pending(tid) or TaskId(tid) in self.kernel.placements:
            raise SimulationError(f"task {tid} is already active or queued")
        ctrl.revive(tid)  # a retry of a rejected/canceled id is a fresh task
        work = float(record.get("work", 1.0))
        norm: dict[str, Any] = {
            "kind": "arrival", "time": t, "id": tid, "size": size, "work": work,
        }
        if ctrl.queue_empty and self._admissible(size):
            decision = self._absorb(Arrival(t, Task(TaskId(tid), size, t, work=work)), norm)
            ctrl.admitted_total += 1
            self._note_violation(decision)
            drained = self._drain()
            return Admit(record=norm, decision=decision, drained=drained)
        # FIFO discipline: while anything waits, newcomers wait behind it.
        self._now = t
        self._next_task_id = max(self._next_task_id, tid + 1)
        self._offered += 1
        if ctrl.queue_full:
            ctrl.reject(tid)
            self._journal_slo(dict(norm, slo="reject"))
            return Reject(
                record=norm,
                task_id=tid,
                reason=(
                    f"admission queue full "
                    f"({ctrl.policy.queue_capacity} waiting)"
                ),
                retry_after=ctrl.policy.retry_after,
            )
        position = ctrl.enqueue(norm)
        self._journal_slo(dict(norm, slo="queue"))
        return Queue(
            record=norm, task_id=tid, position=position, queued=ctrl.queued
        )

    def _cancel(
        self, kind: str, record: Mapping[str, Any], tid: int
    ) -> Cancel:
        """A departure/kill for a task the gate held back: no kernel event."""
        ctrl = self._slo
        assert ctrl is not None
        t = self._clock(record.get("time"))
        self._now = t
        self._offered += 1
        dequeued = ctrl.cancel(tid)
        self._journal_slo(
            {"kind": kind, "time": t, "id": tid, "slo": "cancel"}
        )
        # Removing the (possibly blocking) head can expose an admissible
        # successor — same drain discipline as a capacity-freeing event.
        drained = self._drain() if dequeued else ()
        return Cancel(
            record=dict(record), task_id=tid, dequeued=dequeued,
            drained=drained,
        )

    def _drain(self) -> tuple[Decision, ...]:
        """Admit queued arrivals FIFO while the head fits the load target."""
        ctrl = self._slo
        assert ctrl is not None
        decisions: list[Decision] = []
        while True:
            head = ctrl.head()
            if head is None or not self._admissible(int(head["size"])):
                break
            norm = dict(ctrl.pop())
            norm["time"] = self._now  # admitted when capacity freed, not offered
            task = Task(
                TaskId(int(norm["id"])), int(norm["size"]), self._now,
                work=float(norm.get("work", 1.0)),
            )
            decision = self._absorb(
                Arrival(self._now, task), dict(norm, slo="dequeue")
            )
            ctrl.admitted_total += 1
            ctrl.drained_total += 1
            self._note_violation(decision)
            decisions.append(decision)
        return tuple(decisions)

    def _note_violation(self, decision: Decision) -> None:
        """Meter a placement that landed past the load target.

        Impossible for target-aware algorithms behind the admission gate
        (greedy places at the minimum; gated two-choice probes admissible
        submachines only), but an SLO session can wrap any allocator —
        the counter is how an oblivious one shows up on the dashboard.
        """
        ctrl = self._slo
        assert ctrl is not None
        if decision.node is not None:
            if self.kernel.submachine_load(decision.node) > ctrl.load_target:
                ctrl.slo_violations += 1

    def _journal_slo(self, record: dict[str, Any]) -> None:
        """Journal a non-absorbed admission decision (queue/reject/cancel)."""
        if self._journal is None:
            return
        self._journal.record(self._journal_seq, {"record": record})
        self._journal_seq += 1

    def offer_batch(
        self, records: Sequence[Mapping[str, Any]]
    ) -> list[AdmissionOutcome]:
        """Offer a batch of records; one typed outcome per record.

        Admission is inherently per-event (each decision depends on the
        loads the previous one left), so SLO batches take the per-event
        path; the journal still group-commits under the ``batch`` /
        ``interval`` fsync policies, which is where batch throughput
        lives.  A record that raises leaves the preceding records fully
        applied, exactly like the per-event path.
        """
        return [self.offer(record) for record in records]

    def push_batch(
        self, records: Sequence[Mapping[str, Any]]
    ) -> Union[BatchDecision, list[AdmissionOutcome]]:
        """Absorb a batch of wire-format records in one amortised call.

        Bit-identical to :meth:`push`-ing each record — same decisions,
        metrics, journal records, and clock/task-id assignment — but the
        kernel meters the batch in one pass
        (:meth:`AllocationKernel.apply_batch`) and the journal absorbs it
        as one group commit (:meth:`CheckpointJournal.record_many`: one
        write, one ``fsync``).  A crash mid-call therefore loses at most
        this one batch; once ``push_batch`` returns under the ``always``
        or ``batch`` policy the batch is durable.

        If a record is invalid or an event fails in the kernel, every
        preceding event is fully applied and journaled (exactly as the
        per-event path would leave it) and a
        :class:`~repro.errors.BatchError` carrying the applied prefix is
        raised.

        SLO sessions delegate to :meth:`offer_batch` (admission gating is
        per-event) and return its outcome list.
        """
        if self._slo is not None:
            return self.offer_batch(records)
        fast = self._push_batch_fast(records)
        if fast is not None:
            return fast
        pairs: list[tuple[Any, dict[str, Any]]] = []
        now = self._now
        count = self._offered
        next_id = self._next_task_id
        build_error: Optional[Exception] = None
        for record in records:
            try:
                kind = record.get("kind")
                t = record.get("time")
                if t is None:
                    t = now + 1.0 if count else 0.0
                else:
                    t = float(t)
                    if t < now:
                        raise SimulationError(
                            f"event time {t} precedes the session clock ({now})"
                        )
                if kind == "arrival":
                    rid = record.get("id")
                    tid = next_id if rid is None else int(rid)
                    work = float(record.get("work", 1.0))
                    event: Any = Arrival(
                        t, Task(TaskId(tid), int(record["size"]), t, work=work)
                    )
                    norm: dict[str, Any] = {
                        "kind": "arrival", "time": t, "id": tid,
                        "size": int(record["size"]), "work": work,
                    }
                    next_id = max(next_id, tid + 1)
                elif kind == "departure":
                    event = Departure(t, TaskId(int(record["id"])))
                    norm = {"kind": "departure", "time": t,
                            "id": int(record["id"])}
                elif kind in ("failure", "repair", "kill"):
                    if not self._fault_tolerant:
                        raise SimulationError(
                            f"{kind} events need a fault-tolerant session "
                            "(AllocationSession(..., fault_tolerant=True))"
                        )
                    from repro.faults.plan import PEFailure, PERepair, TaskKill

                    if kind == "failure":
                        event = PEFailure(t, NodeId(int(record["node"])))
                        norm = {"kind": kind, "time": t,
                                "node": int(record["node"])}
                    elif kind == "repair":
                        event = PERepair(t, NodeId(int(record["node"])))
                        norm = {"kind": kind, "time": t,
                                "node": int(record["node"])}
                    else:
                        event = TaskKill(t, TaskId(int(record["id"])))
                        norm = {"kind": kind, "time": t,
                                "id": int(record["id"])}
                elif kind == "resize":
                    if not self._fault_tolerant:
                        raise SimulationError(
                            "resize events need a fault-tolerant session "
                            "(AllocationSession(..., fault_tolerant=True))"
                        )
                    from repro.scenarios.elastic import MachineResize

                    event = MachineResize(
                        t, str(record["op"]), int(record.get("factor", 2))
                    )
                    norm = {"kind": "resize", "time": t, "op": event.op,
                            "factor": event.factor}
                else:
                    raise SimulationError(
                        f"unknown event record kind {kind!r}"
                    )
            except (ReproError, KeyError, TypeError, ValueError) as exc:
                # Bad record: apply + journal the records before it, just
                # as the per-event path would have, then report.
                build_error = exc
                break
            pairs.append((event, norm))
            now = t
            count += 1
        try:
            batch = self.kernel.apply_batch([e for e, _ in pairs])
        except BatchError as exc:
            self._commit_batch(pairs[: exc.applied])
            raise
        self._commit_batch(pairs)
        if build_error is not None:
            raise BatchError(
                f"batch record {len(pairs)} is invalid: {build_error}",
                applied=len(pairs),
                decisions=list(batch.decisions),
            ) from build_error
        return batch

    def _push_batch_fast(
        self, records: Sequence[Mapping[str, Any]]
    ) -> Optional[BatchDecision]:
        """Columnar wire-batch ingest: the journal fast path.

        One pass builds the kernel events *and* the packed column arrays
        the v2 journal frames directly — no normalised per-record dicts
        on the hot path.  The whole batch lands in the journal as a
        single :meth:`~repro.sim.checkpoint.CheckpointJournal.
        record_batch_blob` frame, which a resume decodes to exactly the
        dicts the general path would have journaled (bit-identical
        replay).

        Returns ``None`` *before any state change* whenever a record
        falls outside the hot schema — fault/resize kinds, implicit
        times or ids, clock regressions, malformed fields — or the
        journal is v1; the caller then redoes the batch on the general
        path, reproducing the exact error text and prefix semantics.
        A mid-batch kernel failure commits and journals the applied
        prefix (as the general path would) and re-raises.
        """
        journal = self._journal
        if journal is not None and journal.format != "v2":
            return None
        n = len(records)
        if n == 0:
            return None
        now = self._now
        events: list[Any] = []
        kinds = bytearray(n)
        times: list[float] = []
        ids: list[int] = []
        sizes: list[int] = []
        works: list[float] = []
        try:
            for i, record in enumerate(records):
                kind = record["kind"]
                t = record["time"]
                if type(t) is not float:
                    t = float(t)
                if t < now:
                    return None
                tid = record["id"]
                if type(tid) is not int:
                    tid = int(tid)
                if kind == "arrival":
                    size = record["size"]
                    if type(size) is not int:
                        size = int(size)
                    work = record.get("work", 1.0)
                    if type(work) is not float:
                        work = float(work)
                    events.append(
                        Arrival(t, Task(TaskId(tid), size, t, work=work))
                    )
                    sizes.append(size)
                    works.append(work)
                elif kind == "departure":
                    kinds[i] = 1
                    events.append(Departure(t, TaskId(tid)))
                    sizes.append(0)
                    works.append(0.0)
                else:
                    return None
                times.append(t)
                ids.append(tid)
                now = t
        except (ReproError, KeyError, TypeError, ValueError):
            return None

        def commit(m: int) -> None:
            if m == 0:
                return
            base = len(self._events)
            self._events.extend(events[:m])
            self._now = times[m - 1]
            self._offered += m
            nid = self._next_task_id
            for j in range(m):
                if kinds[j] == 0 and ids[j] >= nid:
                    nid = ids[j] + 1
            self._next_task_id = nid
            if journal is None:
                return
            blob = encode_wire_columns(
                kinds[:m], times[:m], ids[:m], sizes[:m], works[:m]
            )
            rider = self._batch_rider(base, m)
            seq = self._journal_seq
            extras = [] if rider is None else [(seq + m - 1, rider)]
            journal.record_batch_blob(seq, m, blob, extras)
            self._journal_seq = seq + m

        try:
            batch = self.kernel.apply_batch(events)
        except BatchError as exc:
            commit(exc.applied)
            raise
        commit(n)
        return batch

    def _commit_batch(self, pairs: list[tuple[Any, dict[str, Any]]]) -> None:
        """Advance session state and journal one applied batch."""
        if not pairs:
            return
        base = len(self._events)
        for event, record in pairs:
            self._events.append(event)
            self._now = float(event.time)
            self._offered += 1
            tid = record.get("id")
            if record["kind"] == "arrival" and tid is not None:
                self._next_task_id = max(self._next_task_id, int(tid) + 1)
        if self._journal is None:
            return
        payloads: list[tuple[int, dict[str, Any]]] = [
            (self._journal_seq + i, {"record": record})
            for i, (_, record) in enumerate(pairs)
        ]
        # Mid-batch kernel states no longer exist, so the digest (or
        # delta) that per-event journaling would have embedded at the
        # interval boundary rides on the batch's last record instead
        # (resume verifies them wherever they appear).
        rider = self._batch_rider(base, len(pairs))
        if rider is not None:
            payloads[-1][1].update(rider)
        self._journal.record_many(payloads)
        self._journal_seq += len(payloads)

    def flush(self) -> None:
        """Make buffered journal records durable (group-commit boundary).

        A no-op without a journal or when nothing is pending; under the
        ``always`` policy there is never anything to flush.
        """
        if self._journal is not None:
            self._journal.commit()

    def _absorb(
        self, event: Any, record: dict[str, Any], *, journal: bool = True
    ) -> Decision:
        decision = self.kernel.apply(event)
        # Only a successfully applied event advances the session.
        self._events.append(event)
        self._now = float(event.time)
        if record.get("slo") != "dequeue":
            # Drained arrivals were already counted when first offered.
            self._offered += 1
        tid = record.get("id")
        if record["kind"] == "arrival" and tid is not None:
            self._next_task_id = max(self._next_task_id, int(tid) + 1)
        if journal and self._journal is not None:
            payload: dict[str, Any] = {"record": record}
            rider = self._batch_rider(len(self._events) - 1, 1)
            if rider is not None:
                payload.update(rider)
            self._journal.record(self._journal_seq, payload)
            self._journal_seq += 1
        return decision

    def _delta_state(self) -> dict[str, Any]:
        """O(1) digest of the session/kernel scalars, journaled between
        full-state digests (v2 ``delta`` riders) and re-verified on resume.

        Deliberately cheap: counters and running loads only, no per-task
        state — a divergence in any replayed event perturbs at least one
        of these, so deltas catch configuration/build drift between the
        full checkpoints without building a kernel snapshot.
        """
        k = self.kernel
        return {
            "events": len(self._events),
            "now": self._now,
            "offered": self._offered,
            "next_id": self._next_task_id,
            "tasks": k.num_active(),
            "active": k.active_size(),
            "peak_active": k.peak_active_size,
            "max_load": k.current_max_load,
            "peak_load": k.metrics.max_load,
        }

    def _checkpoint_rider(self) -> dict[str, Any]:
        """The full checkpoint: a digest of the complete kernel state.

        The snapshot covers every task's placement history, so it grows
        with every migration; its 64-character digest does not.
        """
        return {"state_sha256": _state_digest(self.kernel.snapshot())}

    def _batch_rider(self, base: int, count: int) -> Optional[dict[str, Any]]:
        """Checkpoint/delta payload extras riding a batch's last record.

        ``base`` is ``len(self._events)`` before the batch; a rider is due
        when the batch crosses an interval boundary (for ``count == 1``
        this is exactly the ``len % interval == 0`` schedule).  v1
        journals embed the full checkpoint every ``snapshot_interval``,
        while v2 journals embed a cheap :meth:`_delta_state` there and
        reserve full checkpoints for ``full_snapshot_interval`` crossings.
        """
        if self._journal is None or count <= 0:
            return None
        end = base + count
        if self._journal.format == "v2":
            full = self._full_snapshot_interval
            if full and end // full > base // full:
                return self._checkpoint_rider()
            interval = self._snapshot_interval
            if interval and end // interval > base // interval:
                return {"delta": self._delta_state()}
            return None
        interval = self._snapshot_interval
        if interval and end // interval > base // interval:
            return self._checkpoint_rider()
        return None

    # -- Resume --------------------------------------------------------------

    def _payload_record(self, payload: Any, index: int) -> dict[str, Any]:
        try:
            return dict(payload["record"])
        except (TypeError, KeyError) as exc:
            raise CheckpointError(
                f"session journal {self._journal.path}: malformed record "
                f"at event {index}"
            ) from exc

    def _replay_journal(self) -> None:
        assert self._journal is not None
        completed = self._journal.completed()
        total = len(completed)
        for index in range(total):
            if index not in completed:
                raise CheckpointError(
                    f"session journal {self._journal.path} has a gap at "
                    f"event {index}"
                )
        for index in range(total):
            payload = completed[index]
            self.push_replay(self._payload_record(payload, index))
            expected = payload.get("state_sha256")
            legacy = payload.get("snapshot")
            if expected is None and legacy is not None:
                # Older builds embedded the snapshot itself.
                expected = _state_digest(legacy)
            if (
                expected is not None
                and _state_digest(self.kernel.snapshot()) != expected
            ):
                raise CheckpointError(
                    f"session journal {self._journal.path}: replayed state "
                    f"diverges from the snapshot digest embedded at event "
                    f"{index} — the journal was written by a different "
                    "configuration or build"
                )
            delta = payload.get("delta")
            if delta is not None and self._delta_state() != delta:
                raise CheckpointError(
                    f"session journal {self._journal.path}: replayed state "
                    f"diverges from the delta embedded at event {index} "
                    "— the journal was written by a different "
                    "configuration or build"
                )
        self._journal_seq = total

    def push_replay(self, record: Mapping[str, Any]) -> Optional[Decision]:
        """Absorb a journaled record without re-journaling it.

        ``"slo"``-marked records re-apply the journaled admission
        decision mechanically — enqueue, reject, cancel, or admit the
        queue head — rather than re-deciding, so a resumed SLO session
        reconstructs the exact queue and counters of the crashed one.
        """
        kind = record.get("kind")
        mark = record.get("slo")
        if mark is not None:
            return self._replay_slo(str(mark), record)
        if kind == "arrival":
            t = self._clock(record.get("time"))
            tid = int(record["id"])
            task = Task(
                TaskId(tid), int(record["size"]), t,
                work=float(record.get("work", 1.0)),
            )
            decision = self._absorb(
                Arrival(t, task), dict(record), journal=False
            )
            if self._slo is not None:
                self._slo.revive(tid)
                self._slo.admitted_total += 1
                self._note_violation(decision)
            return decision
        if kind in ("departure", "kill", "failure", "repair", "resize"):
            # Rebuild through the normal constructors, minus journaling.
            journal, self._journal = self._journal, None
            try:
                return self._apply_record(record)
            finally:
                self._journal = journal
        raise CheckpointError(f"journaled record has unknown kind {kind!r}")

    def _replay_slo(
        self, mark: str, record: Mapping[str, Any]
    ) -> Optional[Decision]:
        ctrl = self._slo
        if ctrl is None:
            raise CheckpointError(
                "journal contains SLO admission records but the session "
                "was opened without an SLO policy"
            )
        t = float(record["time"])
        if mark == "dequeue":
            head = ctrl.head()
            if head is None or int(head["id"]) != int(record["id"]):
                raise CheckpointError(
                    f"journaled dequeue of task {record['id']} does not "
                    f"match the replayed queue head "
                    f"({None if head is None else head['id']})"
                )
            norm = dict(ctrl.pop())
            norm["time"] = t
            task = Task(
                TaskId(int(norm["id"])), int(norm["size"]), t,
                work=float(norm.get("work", 1.0)),
            )
            decision = self._absorb(
                Arrival(t, task), dict(norm, slo="dequeue"), journal=False
            )
            ctrl.admitted_total += 1
            ctrl.drained_total += 1
            self._note_violation(decision)
            return decision
        self._now = t
        self._offered += 1
        if mark == "queue":
            norm = {k: v for k, v in record.items() if k != "slo"}
            ctrl.revive(int(record["id"]))
            ctrl.enqueue(norm)
            self._next_task_id = max(self._next_task_id, int(record["id"]) + 1)
            return None
        if mark == "reject":
            ctrl.reject(int(record["id"]))
            self._next_task_id = max(self._next_task_id, int(record["id"]) + 1)
            return None
        if mark == "cancel":
            ctrl.cancel(int(record["id"]))
            return None
        raise CheckpointError(f"journaled record has unknown slo mark {mark!r}")

    # -- Live metrics --------------------------------------------------------

    @property
    def now(self) -> float:
        """The session clock: time of the last absorbed event."""
        return self._now

    @property
    def num_events(self) -> int:
        return len(self._events)

    @property
    def num_offers(self) -> int:
        """Wire records consumed so far — absorbed, queued, rejected, or
        canceled (but not queue drains, which re-admit an already-counted
        record).  This is the resume cursor for a record feed: after a
        crash, continue from ``records[session.num_offers:]``.  Equal to
        :attr:`num_events` outside SLO mode."""
        return self._offered

    @property
    def events(self) -> tuple[Any, ...]:
        """Every event absorbed so far, in order (task and fault events)."""
        return tuple(self._events)

    @property
    def max_load(self) -> int:
        """``L_A`` so far — the peak max PE load over the session."""
        return self.kernel.metrics.max_load

    @property
    def current_max_load(self) -> int:
        return self.kernel.current_max_load

    @property
    def optimal_load(self) -> int:
        """Running ``L* = ceil(peak active volume / N)``."""
        return self.kernel.optimal_load

    @property
    def competitive_ratio(self) -> float:
        return self.kernel.competitive_ratio

    @property
    def active_tasks(self) -> dict[TaskId, Task]:
        return self.kernel.active_tasks

    @property
    def placements(self) -> dict[TaskId, NodeId]:
        return self.kernel.placements

    @property
    def slo_policy(self) -> Optional[SLOPolicy]:
        """The active SLO contract (None outside SLO mode)."""
        return None if self._slo is None else self._slo.policy

    def admission_queue(self) -> tuple[dict[str, Any], ...]:
        """Arrivals waiting in the admission queue, FIFO order (empty
        outside SLO mode)."""
        return () if self._slo is None else self._slo.queue_snapshot()

    @property
    def journal_pending(self) -> int:
        """Journal records written but not yet fsync'd (0 without one)."""
        return 0 if self._journal is None else self._journal.pending

    @property
    def overloaded(self) -> bool:
        """Is the journal's fsync lag past the backpressure watermarks?

        Hysteresis: trips when pending records/bytes reach the policy's
        high watermark, clears only once both fall to the low watermark
        (a :meth:`flush` clears it immediately).  Always False outside
        SLO mode or without a journal.
        """
        if self._slo is None or self._journal is None:
            return False
        policy = self._slo.policy
        pending = self._journal.pending
        pending_bytes = self._journal.pending_bytes
        if self._overloaded:
            if (
                pending <= policy.low_watermark
                and pending_bytes <= policy.low_watermark_bytes
            ):
                self._overloaded = False
        elif (
            pending >= policy.high_watermark
            or pending_bytes >= policy.high_watermark_bytes
        ):
            self._overloaded = True
        return self._overloaded

    def status(self) -> dict[str, Any]:
        """One JSON-safe dashboard line for this session.

        The ``journal_pending`` / ``queued_tasks`` / ``rejected_total`` /
        ``slo_violations`` counters are always present (zero outside SLO
        mode / without a journal) so status consumers keep one schema;
        SLO sessions add an ``slo`` sub-object with the full contract and
        counters.  Schema: ``docs/ARCHITECTURE.md``.
        """
        out: dict[str, Any] = {
            "events": self.num_events,
            "now": self._now,
            "active_tasks": len(self.kernel.active_tasks),
            "active_size": self.kernel.active_size(),
            "max_load": self.max_load,
            "current_max_load": self.current_max_load,
            "optimal_load": self.optimal_load,
            "competitive_ratio": (
                float("inf")
                if self.optimal_load == 0 and self.max_load > 0
                else (0.0 if self.optimal_load == 0
                      else self.max_load / self.optimal_load)
            ),
            "reallocations": self.kernel.metrics.realloc.num_reallocations,
            "migrations": self.kernel.metrics.realloc.num_migrations,
            "journal_pending": (
                0 if self._journal is None else self._journal.pending
            ),
            "queued_tasks": 0 if self._slo is None else self._slo.queued,
            "rejected_total": (
                0 if self._slo is None else self._slo.rejected_total
            ),
            "slo_violations": (
                0 if self._slo is None else self._slo.slo_violations
            ),
        }
        if self._fault_tolerant:
            faults = self.kernel.metrics.faults
            out["failures"] = faults.num_failures
            out["kills"] = faults.num_kills
            out["min_surviving_pes"] = faults.min_surviving_pes
            out["num_pes"] = self.kernel.machine.num_pes
            out["grows"] = faults.num_grows
            out["shrinks"] = faults.num_shrinks
        if self._slo is not None:
            ctrl = self._slo
            out["slo"] = {
                "slowdown_target": ctrl.policy.slowdown_target,
                "load_target": ctrl.load_target,
                "queue_capacity": ctrl.policy.queue_capacity,
                "overloaded": self.overloaded,
                **ctrl.counters(),
            }
        return out

    def snapshot(self) -> dict[str, Any]:
        """The kernel's versioned state snapshot (JSON-serialisable)."""
        return self.kernel.snapshot()

    # -- Batch interop -------------------------------------------------------

    def sequence(self) -> TaskSequence:
        """The task sequence observed so far, reconstructed from the log.

        Tasks still active (or killed without a scheduled departure) keep
        ``departure = inf`` — exactly the information an offline replay or
        audit of this session would have.
        """
        tasks: dict[TaskId, Task] = {}
        departures: dict[TaskId, float] = {}
        for event in self._events:
            if isinstance(event, Arrival):
                tasks[event.task.task_id] = event.task
            elif isinstance(event, Departure):
                departures[event.task_id] = float(event.time)
        out = [
            t.with_departure(departures[tid]) if tid in departures else t
            for tid, t in tasks.items()
        ]
        return TaskSequence.from_tasks(out)

    def fault_plan(self):
        """The fault events absorbed so far, as a
        :class:`~repro.faults.plan.FaultPlan` (None when fault handling is
        off)."""
        if not self._fault_tolerant:
            return None
        from repro.faults.plan import FaultPlan

        fault_events = tuple(
            e
            for e in self._events
            if not isinstance(e, (Arrival, Departure))
            and getattr(e, "kind", None) != "resize"
        )
        return FaultPlan(fault_events)

    def resizes(self) -> tuple[Any, ...]:
        """The online resize events absorbed so far, in order."""
        return tuple(
            e for e in self._events if getattr(e, "kind", None) == "resize"
        )

    def result(self) -> RunResult:
        """A :class:`RunResult` for the session so far.

        ``optimal_load`` is the *online* ``L*`` from the peak active
        volume — for a finished session it equals the offline value the
        batch simulator would report for :meth:`sequence`.
        """
        return RunResult(
            algorithm_name=self.algorithm.name,
            machine_description=self.machine.describe(),
            metrics=self.kernel.metrics,
            optimal_load=self.kernel.optimal_load,
            final_placements=self.kernel.placements,
        )

    def save_run(self, path: Union[str, Path], *, metadata: Optional[Mapping] = None) -> None:
        """Archive the session for independent re-audit (see
        :mod:`repro.sim.archive`), with the raw event log embedded."""
        from repro.service.stream import records_from_events
        from repro.sim.archive import save_run

        plan = self.fault_plan()
        save_run(
            path,
            self.machine,
            self.sequence(),
            self.kernel,
            metadata=dict(metadata or {}),
            result=self.result(),
            events=records_from_events(self._events),
            fault_plan=None if plan is None or plan.is_empty else plan,
        )

    # -- Lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    def __enter__(self) -> "AllocationSession":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
