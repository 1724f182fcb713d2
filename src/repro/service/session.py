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
gets a 64-character ``state_sha256``: the sha256 of the kernel snapshot,
which holds live state only (O(active tasks + N)).  At the same point the
session writes a state sidecar beside the journal
(:mod:`repro.service.resume`): those snapshot bytes, the algorithm's
:meth:`~repro.core.base.AllocationAlgorithm.state`, the SLO controller
and the session cursor.  If the process dies, constructing a session with
the same configuration and journal path *resumes* it: the session
restores the sidecar if it verifies against the journal (else starts from
a fresh kernel and algorithm, with a :class:`~repro.service.resume.
SidecarWarning`) and replays the journaled records after it; either way
the replayed kernel state is checked against every delta rider and state
digest it passes — a mismatch (different code, different config,
corrupted journal) is a hard :class:`~repro.errors.CheckpointError`,
never a silently different run.  The journal fingerprint pins the
kernel-state version the digests hash, so a journal from a build with a
different snapshot format is refused on open, untouched.  The resumed
session then continues to the same final metrics the uninterrupted run
would have produced.

History: a session keeps no placement history, load series or event
log — only an event counter (:attr:`AllocationSession.num_events`) —
so its memory is O(active tasks + N) however long it runs.  The journal
is its only event history: :attr:`~AllocationSession.events`,
:meth:`~AllocationSession.sequence`, :meth:`~AllocationSession.fault_plan`,
:meth:`~AllocationSession.resizes` and :meth:`~AllocationSession.save_run`
hand buffered records to the OS and decode the journal in order, and
raise :class:`~repro.errors.SimulationError` on a session without one.
A resume is one streaming pass over the journal file, one frame in
memory at a time: the records before the sidecar's index are decoded
(not applied) and dropped, the journal bytes are hashed as they stream
past, and the tail replays.

Ingest: every record — pushed alone or in a batch, drained from the
admission queue, or replayed from the journal — takes one path.
:meth:`AllocationSession._event` decodes it (the one place a wire record
becomes a kernel event, and where hostile numbers are refused), SLO
sessions admit it, and :meth:`AllocationSession._absorb` applies it,
moves the session cursor (clock, offer count, next implicit task id) and
journals it.  A lone event is journaled with ``CheckpointJournal.record``,
which buffers under ``fsync=batch``; a batch is one ``record_many`` group
commit, durable on return.

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

import copy
import hashlib
import math
import warnings
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence, Union

from repro.core.base import AllocationAlgorithm
from repro.errors import BatchError, CheckpointError, ReproError, SimulationError
from repro.kernel import KERNEL_STATE_VERSION, AllocationKernel, BatchDecision, Decision
from repro.machines.base import PartitionableMachine
from repro.machines.factory import machine_descriptor
from repro.service.resume import (
    SidecarWarning,
    encode_sidecar,
    past_the_journal,
    read_sidecar,
    rider_digest,
    sidecar_index,
    sidecar_path,
    state_json,
    write_sidecar,
)
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
from repro.sim.engine import RunResult, Simulator
from repro.sim.realloc_cost import MigrationCostModel
from repro.tasks.events import Arrival, Departure
from repro.tasks.sequence import TaskSequence
from repro.tasks.task import Task
from repro.types import NodeId, TaskId

__all__ = ["AllocationSession"]

#: Record kinds that need a fault-tolerant session.
_FAULT_KINDS = ("failure", "repair", "kill", "resize")
#: Every record kind a session absorbs.
_RECORD_KINDS = ("arrival", "departure") + _FAULT_KINDS
#: Admission marks of journaled records the kernel never absorbed.
_HELD_MARKS = ("queue", "reject", "cancel")
#: What a failed sidecar restore may raise.
_RESTORE_ERRORS = (
    ReproError, OSError, ArithmeticError, AttributeError, IndexError,
    KeyError, TypeError, ValueError,
)


_INF = math.inf


def _finite(value: Any, field: str) -> float:
    """A time or work field as a finite float; bools, NaN, infinities and
    ints too large for a float are refused rather than coerced."""
    if not isinstance(value, bool):
        try:
            out = float(value)
        except OverflowError:
            out = math.inf
        if math.isfinite(out):
            return out
    raise SimulationError(f"event {field} must be a finite number, got {value!r}")


def _integral(value: Any, field: str) -> int:
    """An id, size, node or factor field as an int.  Integral floats
    (``3.0``) are accepted; bools and fractions (``true``, ``1.7``) are
    refused rather than truncated."""
    if isinstance(value, bool) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise SimulationError(f"event {field} must be an integer, got {value!r}")
    return int(value)


def _event_time(time: Any, now: float, offered: int) -> float:
    """A record's event time: ``time`` itself, which must be finite and may
    not precede the clock ``now``, or — when absent — 0.0 for a session's
    first record and ``now + 1`` after that."""
    if time is None:
        return now + 1.0 if offered else 0.0
    t = _finite(time, "time")
    if t < now:
        raise SimulationError(
            f"event time {t} precedes the session clock ({now})"
        )
    return t


#: The session cursor: (clock, offers, next implicit task id).
Cursor = tuple[float, int, int]
#: What :meth:`AllocationSession._event` makes of one record.
Decoded = tuple[Any, dict[str, Any], Cursor]


def _advance(cursor: Cursor, record: Mapping[str, Any]) -> Cursor:
    """The session cursor after one normalised record.

    The cursor is ``(clock, offers, next implicit task id)``.  The clock
    moves to the record's time; every record but a queue drain (counted
    when it was first offered) is one more offer; an arrival moves the
    next implicit id past its own.
    """
    now, offered, next_id = cursor
    if record.get("slo") != "dequeue":
        offered += 1
    if record["kind"] == "arrival" and record["id"] >= next_id:
        next_id = record["id"] + 1
    return record["time"], offered, next_id


def _sequence_of(events: Iterable[Any]) -> TaskSequence:
    """The task sequence of an event history: every arrival, with its
    departure time when the history holds one."""
    tasks: dict[TaskId, Task] = {}
    departures: dict[TaskId, float] = {}
    for event in events:
        if isinstance(event, Arrival):
            tasks[event.task.task_id] = event.task
        elif isinstance(event, Departure):
            departures[event.task_id] = float(event.time)
    return TaskSequence.from_tasks(
        t.with_departure(departures[tid]) if tid in departures else t
        for tid, t in tasks.items()
    )


def _fault_plan_of(events: Iterable[Any]):
    """The failures, repairs and kills of an event history."""
    from repro.faults.plan import FaultPlan

    return FaultPlan(tuple(
        e
        for e in events
        if not isinstance(e, (Arrival, Departure))
        and getattr(e, "kind", None) != "resize"
    ))


def _state_digest(state: Mapping[str, Any]) -> str:
    """sha256 of a kernel snapshot's canonical encoding (:func:`~repro.
    service.resume.state_json`): the checkpoint digest."""
    return hashlib.sha256(state_json(state)).hexdigest()


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
        with a different configuration is refused.  The state sidecar is
        ``journal_path`` plus ``.state``; a new journal unlinks any stale
        one.  The algorithm must implement
        :meth:`~repro.core.base.AllocationAlgorithm.state` (every
        registered one does); otherwise this raises
        :class:`~repro.errors.CheckpointError`.
    snapshot_interval:
        Checkpoint interval in events (0 disables checkpoints; resume
        still replays).  The journal embeds an O(1) delta rider every
        this many events and the kernel-state digest every
        ``full_snapshot_interval`` events (default 16x).
    fsync_policy:
        Journal durability mode (``always`` | ``batch`` |
        ``interval:<ms>``, see :class:`~repro.sim.checkpoint.
        CheckpointJournal`).  ``always`` keeps the original per-event
        durability; ``batch`` group-commits — :meth:`push_batch` syncs
        once per batch and per-event pushes buffer until :meth:`flush`
        (or a control read, or close) — so a crash loses at most the
        records since the last commit: one uncommitted batch.
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
        full_snapshot_interval: Optional[int] = None,
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
        else:
            self.algorithm = algorithm
        # The algorithm as constructed, before any event or resume replay:
        # save_run() replays the event log through a copy of it, and a
        # resume whose sidecar fails to load starts over from one.  Both
        # share the session's machine (the kernel checks the identity).
        self._pristine = copy.deepcopy(self.algorithm, {id(machine): machine})
        self._kernel_options: dict[str, Any] = {
            "cost_model": cost_model,
            "collect_leaf_snapshots": collect_leaf_snapshots,
            "repack_on_repair": repack_on_repair,
        }
        self.kernel = self._new_kernel()
        self._slo: Optional[AdmissionController] = (
            AdmissionController(slo) if slo is not None else None
        )
        self._num_events = 0
        # (clock, offers, next implicit task id): moved only by _advance.
        self._cursor: Cursor = (0.0, 0, 0)
        self._journal_seq = 0
        self._overloaded = False
        self._snapshot_interval = max(0, int(snapshot_interval))
        # Two checkpoint intervals: cheap O(1) delta records every
        # ``snapshot_interval`` events and the full-state digest only
        # every ``full_snapshot_interval`` (default 16x).
        if full_snapshot_interval is None:
            full_snapshot_interval = 16 * self._snapshot_interval
        self._full_snapshot_interval = max(0, int(full_snapshot_interval))
        self._journal: Optional[CheckpointJournal] = None
        self._sidecar: Optional[Path] = None
        # (events restored from the sidecar, events replayed) at resume.
        self._resumed: tuple[int, int] = (0, 0)
        if journal_path is not None:
            self.algorithm.state()  # CheckpointError unless restorable
            resuming = Path(journal_path).exists()
            self._journal = CheckpointJournal(
                journal_path,
                fingerprint=self._fingerprint(),
                fsync_policy=fsync_policy,
            )
            self._sidecar = sidecar_path(journal_path)
            if resuming:
                self._replay_journal()
            else:
                self._sidecar.unlink(missing_ok=True)

    def _fingerprint(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "kind": "allocation-session",
            "machine": machine_descriptor(self.machine),
            "algorithm": self.algorithm.name,
            "d": repr(self.algorithm.reallocation_parameter),
            "fault_tolerant": self._fault_tolerant,
            # The checkpoint digests hash this snapshot format.
            "kernel_state": KERNEL_STATE_VERSION,
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

    def _event(
        self, record: Mapping[str, Any], cursor: Optional[Cursor] = None
    ) -> Decoded:
        """Wire record -> ``(kernel event, normalised record, cursor after)``.

        The one place a record becomes an event.  ``cursor`` is the
        session cursor the record is read against — the session's own by
        default, the running one inside a batch — and the third item is
        the cursor the record leaves behind (:func:`_advance`), which
        :meth:`_absorb` adopts once the event is applied.  Raises on an
        invalid record without touching any state: non-finite times and
        works, and ids or sizes that are bools or fractions, are refused
        rather than coerced.

        Fields that are already exact (float time, int id and size, the
        common case on every path) skip the checks through ``type() is``
        tests.
        """
        cursor = cursor or self._cursor
        now, offered, next_id = cursor
        kind = record.get("kind")
        t = record.get("time")
        if type(t) is not float or not now <= t < _INF:
            t = _event_time(t, now, offered)
        if kind == "arrival":
            tid = record.get("id")
            if tid is None:
                tid = next_id
            elif type(tid) is not int:
                tid = _integral(tid, "id")
            size = record["size"]
            if type(size) is not int:
                size = _integral(size, "size")
            work = record.get("work", 1.0)
            if type(work) is not float or not -_INF < work < _INF:
                work = _finite(work, "work")
            event: Any = Arrival(t, Task(tid, size, t, work=work))
            norm: dict[str, Any] = {
                "kind": "arrival", "time": t, "id": tid, "size": size,
                "work": work,
            }
        elif kind == "departure":
            tid = record["id"]
            if type(tid) is not int:
                tid = _integral(tid, "id")
            event = Departure(t, tid)
            norm = {"kind": "departure", "time": t, "id": tid}
        elif kind not in _FAULT_KINDS:
            raise SimulationError(f"unknown event record kind {kind!r}")
        elif not self._fault_tolerant:
            raise SimulationError(
                f"{kind} events need a fault-tolerant session "
                "(AllocationSession(..., fault_tolerant=True))"
            )
        else:
            # Fault and resize event types load lazily: a plain session
            # never imports the fault and scenario packages.
            from repro.faults.plan import PEFailure, PERepair, TaskKill
            from repro.scenarios.elastic import MachineResize

            if kind == "kill":
                tid = _integral(record["id"], "id")
                event = TaskKill(t, TaskId(tid))
                norm = {"kind": "kill", "time": t, "id": tid}
            elif kind == "resize":
                factor = _integral(record.get("factor", 2), "factor")
                event = MachineResize(t, str(record["op"]), factor)
                norm = {
                    "kind": "resize", "time": t, "op": event.op,
                    "factor": event.factor,
                }
            else:
                node = _integral(record["node"], "node")
                if kind == "failure":
                    event = PEFailure(t, NodeId(node))
                    norm = {"kind": "failure", "time": t, "node": node}
                else:
                    event = PERepair(t, NodeId(node))
                    norm = {"kind": "repair", "time": t, "node": node}
        return event, norm, _advance(cursor, norm)

    @staticmethod
    def _timed(record: dict[str, Any], time: Optional[float]) -> dict[str, Any]:
        if time is not None:
            record["time"] = time
        return record

    def submit(
        self,
        size: int,
        *,
        time: Optional[float] = None,
        task_id: Optional[int] = None,
        work: float = 1.0,
    ) -> Union[Decision, AdmissionOutcome]:
        """Admit one task arrival; returns the placement decision.

        Like every mutator below, this builds one wire record and
        :meth:`push`-es it, so in SLO mode the typed admission outcome
        is returned instead.
        """
        record: dict[str, Any] = {
            "kind": "arrival", "size": int(size), "work": float(work)
        }
        if task_id is not None:
            record["id"] = task_id
        return self.push(self._timed(record, time))

    def depart(
        self, task_id: int, *, time: Optional[float] = None
    ) -> Union[Decision, AdmissionOutcome]:
        """Retire one active task."""
        return self.push(self._timed({"kind": "departure", "id": int(task_id)}, time))

    def fail(
        self, node: int, *, time: Optional[float] = None
    ) -> Union[Decision, AdmissionOutcome]:
        """Fail the aligned subtree at ``node`` (fault-tolerant sessions)."""
        return self.push(self._timed({"kind": "failure", "node": int(node)}, time))

    def repair(
        self, node: int, *, time: Optional[float] = None
    ) -> Union[Decision, AdmissionOutcome]:
        """Repair a previously-failed subtree (fault-tolerant sessions)."""
        return self.push(self._timed({"kind": "repair", "node": int(node)}, time))

    def kill(
        self, task_id: int, *, time: Optional[float] = None
    ) -> Union[Decision, AdmissionOutcome]:
        """Kill one task in place (fault-tolerant sessions)."""
        return self.push(self._timed({"kind": "kill", "id": int(task_id)}, time))

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
        return self.push(self._timed(
            {"kind": "resize", "op": str(op), "factor": int(factor)}, time
        ))

    def push(self, record: Mapping[str, Any]) -> Union[Decision, AdmissionOutcome]:
        """Absorb one wire-format event record (see :mod:`.stream`).

        SLO sessions route through :meth:`offer` and return the typed
        admission outcome; plain sessions return the kernel decision.
        """
        if self._slo is not None:
            return self.offer(record)
        return self._absorb(self._event(record))

    def push_batch(
        self, records: Sequence[Mapping[str, Any]]
    ) -> Union[BatchDecision, list[AdmissionOutcome]]:
        """Absorb a batch of wire-format records in one amortised call.

        Bit-identical to :meth:`push`-ing each record — same decisions,
        metrics, clock/task-id assignment and journaled records — but the
        kernel meters the batch in one pass
        (:meth:`AllocationKernel.apply_batch`) and the journal absorbs it
        as one group commit (:meth:`CheckpointJournal.record_many`: one
        write, one ``fsync``, the records as one batch frame).  A crash
        mid-call therefore loses at most this one batch; once
        ``push_batch`` returns under the ``always`` or ``batch`` policy
        the batch is durable.

        If a record is invalid or an event fails in the kernel, every
        preceding event is fully applied and journaled (exactly as the
        per-event path would leave it) and a
        :class:`~repro.errors.BatchError` carrying the applied prefix is
        raised.

        SLO sessions :meth:`offer` record by record — each admission
        decision depends on the loads the previous one left — and return
        one typed outcome per record; only the ``batch`` / ``interval``
        fsync policies group their journal commits.  A record that raises
        leaves the preceding records fully applied, exactly like the
        per-event path.
        """
        if self._slo is not None:
            return [self.offer(record) for record in records]
        decoded: list[Decoded] = []
        decode, append = self._event, decoded.append
        cursor = self._cursor
        error: Optional[Exception] = None
        for record in records:
            try:
                item = decode(record, cursor)
            except (ReproError, KeyError, TypeError, ValueError) as exc:
                # Bad record: the records before it still apply.
                error = exc
                break
            append(item)
            cursor = item[2]
        batch = self._absorb(decoded)
        if error is not None:
            raise BatchError(
                f"batch record {len(decoded)} is invalid: {error}",
                applied=len(decoded),
                decisions=list(batch.decisions),
            ) from error
        return batch

    def flush(self) -> None:
        """Make buffered journal records durable (group-commit boundary).

        A no-op without a journal or when nothing is pending; under the
        ``always`` policy there is never anything to flush.
        """
        if self._journal is not None:
            self._journal.commit()

    def _absorb(
        self, decoded: Union[Decoded, list[Decoded]], *, journal: bool = True
    ) -> Any:
        """The commit step every absorbed record takes: apply, advance the
        cursor, journal.

        ``decoded`` holds :meth:`_event` results.  A list is a batch: the
        kernel applies it with :meth:`~repro.kernel.AllocationKernel.
        apply_batch`, the journal group-commits it with
        :meth:`~repro.sim.checkpoint.CheckpointJournal.record_many`, and a
        :class:`~repro.kernel.BatchDecision` comes back.  A single result
        is one event — a push, a queue drain, a replayed record: the
        kernel :meth:`~repro.kernel.AllocationKernel.apply`-s it,
        :meth:`~repro.sim.checkpoint.CheckpointJournal.record` journals it
        (buffered under ``fsync=batch`` until the next commit point), and
        its :class:`~repro.kernel.Decision` comes back.

        Only applied events advance the session: when the kernel rejects
        a batch part-way, the applied prefix is committed and journaled
        before the :class:`~repro.errors.BatchError` propagates.  The
        session adopts the cursor of the last committed record, and a
        checkpoint rider (:meth:`_batch_rider`) rides that record; at a
        full checkpoint the state sidecar follows the journal write.  An
        arrival in an SLO session is an admission, metered here
        (:meth:`_admitted`) so that the state at every journal index
        includes it.  ``journal=False`` (replay) skips the journal write.
        """
        committed: list[Decoded]
        error: Optional[BatchError] = None
        result: Any = None
        if isinstance(decoded, list):
            committed = decoded
            try:
                result = self.kernel.apply_batch([item[0] for item in decoded])
            except BatchError as exc:
                error = exc
                committed = decoded[: exc.applied]
        else:
            committed = [decoded]
            result = self.kernel.apply(decoded[0])
            if self._slo is not None and decoded[1]["kind"] == "arrival":
                self._admitted(decoded[1], result)
        if committed:
            base = self._num_events
            self._num_events = base + len(committed)
            self._cursor = committed[-1][2]
            sink = self._journal if journal else None
            if sink is not None:
                payloads = [{"record": item[1]} for item in committed]
                rider, kernel_json = self._batch_rider(base, len(payloads))
                if rider is not None:
                    payloads[-1].update(rider)
                seq = self._journal_seq
                if isinstance(decoded, list):
                    sink.record_many(enumerate(payloads, seq))
                else:
                    sink.record(seq, payloads[0])
                self._journal_seq = seq + len(payloads)
                if kernel_json is not None:
                    self._save_state(kernel_json)
        if error is not None:
            raise error
        return result

    def _delta_state(self) -> dict[str, Any]:
        """O(1) digest of the session/kernel scalars, journaled between
        full-state digests (``delta`` riders) and re-verified on resume.

        Deliberately cheap: counters and running loads only, no per-task
        state — a divergence in any replayed event perturbs at least one
        of these, so deltas catch configuration/build drift between the
        full checkpoints without building a kernel snapshot.
        """
        k = self.kernel
        now, offered, next_id = self._cursor
        return {
            "events": self._num_events,
            "now": now,
            "offered": offered,
            "next_id": next_id,
            "tasks": k.num_active(),
            "active": k.active_size(),
            "peak_active": k.peak_active_size,
            "max_load": k.current_max_load,
            "peak_load": k.metrics.max_load,
        }

    def _batch_rider(
        self, base: int, count: int
    ) -> tuple[Optional[dict[str, Any]], Optional[bytes]]:
        """Checkpoint/delta payload extras riding a commit's last record.

        ``base`` is the event count (:attr:`num_events`) before the commit
        of ``count`` events; a rider is due when the commit crosses an interval
        boundary (for ``count == 1`` this is exactly the
        ``len % interval == 0`` schedule): the full checkpoint — the
        ``state_sha256`` of the kernel snapshot, O(active tasks + N) — at
        ``full_snapshot_interval`` crossings, a cheap :meth:`_delta_state`
        at the ``snapshot_interval`` ones between.  Mid-batch kernel
        states no longer exist, so a batch's rider rides its last record
        (resume verifies riders wherever they appear).  The second item
        is the snapshot's JSON at a full checkpoint, for the sidecar.
        """
        if self._journal is None or count <= 0:
            return None, None
        end = base + count
        full = self._full_snapshot_interval
        if full and end // full > base // full:
            kernel_json = state_json(self.kernel.snapshot())
            return {"state_sha256": hashlib.sha256(kernel_json).hexdigest()}, kernel_json
        interval = self._snapshot_interval
        if interval and end // interval > base // interval:
            return {"delta": self._delta_state()}, None
        return None, None

    def _save_state(self, kernel_json: bytes) -> None:
        """Write the state sidecar for the journal index just committed.

        The journal's buffered records go to the OS first, so the sidecar
        never pins bytes that a kill of this process could still lose.
        Best effort: the sidecar only saves resume time, so a failed
        write warns and leaves the previous sidecar in place.
        """
        assert self._journal is not None and self._sidecar is not None
        self._journal.flush()
        length, content = self._journal.content_digest()
        fields = {
            "fingerprint": self._journal.fingerprint_digest,
            "journal_bytes": length,
            "journal_sha256": content,
            "index": self._journal_seq,
            "events": self._num_events,
            "cursor": list(self._cursor),
            "order": self.kernel.task_order(),
            "algorithm": self.algorithm.state(),
            "slo": None if self._slo is None else self._slo.state(),
        }
        try:
            write_sidecar(self._sidecar, encode_sidecar(fields, kernel_json))
        except (OSError, TypeError, ValueError) as exc:
            warnings.warn(
                f"session state {self._sidecar} not written ({exc})",
                SidecarWarning,
                stacklevel=2,
            )

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
            decision = self._absorb(self._event(record))
            return Admit(record=dict(record), decision=decision)
        kind = record.get("kind")
        if kind == "arrival":
            return self._offer_arrival(record)
        if kind in ("departure", "kill"):
            tid = _integral(record["id"], "id")
            active = TaskId(tid) in self.kernel.placements
            if not active and (ctrl.is_pending(tid) or ctrl.was_dropped(tid)):
                return self._cancel(kind, record, tid)
        decision = self._absorb(self._event(record))
        return Admit(record=dict(record), decision=decision, drained=self._drain())

    def _admissible(self, size: int) -> bool:
        assert self._slo is not None
        try:
            return (
                self.kernel.min_submachine_load(size) + 1
                <= self._slo.load_target
            )
        except ReproError:
            # e.g. a task queued before a shrink made it too large: it
            # stays queued until a grow makes it placeable again.
            return False

    def _offer_arrival(self, record: Mapping[str, Any]) -> AdmissionOutcome:
        ctrl = self._slo
        assert ctrl is not None
        decoded = self._event(record)
        norm = decoded[1]
        tid, size = norm["id"], norm["size"]
        # The machine as it is now: a grow or shrink replaced it.
        self.kernel.machine.validate_task_size(size)
        if ctrl.is_pending(tid) or TaskId(tid) in self.kernel.placements:
            raise SimulationError(f"task {tid} is already active or queued")
        ctrl.revive(tid)  # a retry of a rejected/canceled id is a fresh task
        if ctrl.queue_empty and self._admissible(size):
            decision = self._absorb(decoded)
            return Admit(record=norm, decision=decision, drained=self._drain())
        # FIFO discipline: while anything waits, newcomers wait behind it.
        self._cursor = decoded[2]
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
        """A departure/kill for a task the gate held back: no kernel event,
        so a kill needs no fault-tolerant session here."""
        ctrl = self._slo
        assert ctrl is not None
        now, offered, _next_id = self._cursor
        norm = {
            "kind": kind, "time": _event_time(record.get("time"), now, offered),
            "id": tid, "slo": "cancel",
        }
        self._cursor = _advance(self._cursor, norm)
        dequeued = ctrl.cancel(tid)
        self._journal_slo(norm)
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
            if head is None or not self._admissible(head["size"]):
                break
            decisions.append(self._dequeue(self._cursor[0]))
        return tuple(decisions)

    def _dequeue(self, time: float, *, journal: bool = True) -> Decision:
        """Admit the queue head at ``time`` — when capacity freed, not when
        it was offered.  ``journal=False`` (replay) skips the journal
        write, as in :meth:`_absorb`."""
        ctrl = self._slo
        assert ctrl is not None
        event, norm, _cursor = self._event(dict(ctrl.pop(), time=time))
        # Not a new offer: the cursor counted it when it was queued.
        norm["slo"] = "dequeue"
        return self._absorb(
            (event, norm, _advance(self._cursor, norm)), journal=journal
        )

    def _admitted(self, record: Mapping[str, Any], decision: Decision) -> None:
        """Meter one arrival the kernel just absorbed in an SLO session:
        a fresh admission (live or replayed) or a queue drain."""
        ctrl = self._slo
        assert ctrl is not None
        ctrl.revive(record["id"])  # a replayed retry of a dropped id
        ctrl.admitted_total += 1
        if record.get("slo") == "dequeue":
            ctrl.drained_total += 1
        self._note_violation(decision)

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

    # -- Resume --------------------------------------------------------------

    def _payload_record(self, payload: Any, index: int) -> dict[str, Any]:
        """The record of one journal payload (decoded afresh, so no copy)."""
        try:
            record = payload["record"]
        except (TypeError, KeyError):
            record = None
        if type(record) is not dict:
            raise CheckpointError(
                f"session journal {self._journal.path}: malformed record "
                f"at event {index}"
            )
        return record

    def _replay_journal(self) -> None:
        """Resume: one streaming pass over the journal that restores the
        sidecar where it verifies and replays the records after it —
        all of them without one — checking every rider on the way.  A
        sidecar that fails to restore costs a second pass, from record 0."""
        assert self._journal is not None and self._sidecar is not None
        image: Optional[dict[str, Any]] = None
        if self._sidecar.exists():
            try:
                image = read_sidecar(self._sidecar)
                sidecar_index(image, self._journal.fingerprint_digest)
            except _RESTORE_ERRORS as exc:
                self._ignore_sidecar(exc)
                image = None
        if image is not None and not self._replay(image):
            self._start_over()
            image = None
        if image is None:
            self._replay(None)

    def _ignore_sidecar(self, exc: Exception) -> None:
        assert self._journal is not None and self._sidecar is not None
        warnings.warn(
            f"session state {self._sidecar} ignored ({exc}); replaying the "
            f"whole journal {self._journal.path}",
            SidecarWarning,
            stacklevel=4,
        )
        self._sidecar.unlink(missing_ok=True)

    def _replay(self, image: Optional[Mapping[str, Any]]) -> bool:
        """One pass over the journal (:meth:`CheckpointJournal.records`).

        With a sidecar ``image`` covering ``index`` records, the records
        before it are decoded through :meth:`_event` and :func:`_advance`
        but not applied, then dropped; at the record just before it the
        sidecar is restored (:meth:`_restore`).  Every later record goes
        through :meth:`push_replay` with its riders checked.  Returns
        False, the sidecar warned about and unlinked, when the restore
        fails: the session must then start over.
        """
        assert self._journal is not None
        stop = 0 if image is None else image["index"]
        cursor: Cursor = (0.0, 0, 0)
        events = count = 0
        records = self._journal.records()
        try:
            for index, payload in records:
                if index != count:
                    raise CheckpointError(
                        f"session journal {self._journal.path} has a gap at "
                        f"event {count}"
                    )
                count += 1
                if count > stop:
                    self._replay_record(payload, index)
                    continue
                try:
                    record = self._payload_record(payload, index)
                    if record.get("slo") not in _HELD_MARKS:
                        self._event(record, cursor)
                        events += 1
                    cursor = _advance(cursor, record)
                    if count == stop:
                        self._restore(image, payload, cursor, events)
                except _RESTORE_ERRORS as exc:
                    self._ignore_sidecar(exc)
                    return False
        finally:
            records.close()
        if count < stop:
            self._ignore_sidecar(past_the_journal(stop, count))
            return False
        self._journal_seq = count
        self._resumed = (events, self._num_events - events)
        return True

    def _replay_record(self, payload: Any, index: int) -> None:
        """Re-apply one journaled record and check the riders it carries."""
        assert self._journal is not None
        self.push_replay(self._payload_record(payload, index))
        expected = payload.get("state_sha256")
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

    def _restore(
        self, image: Mapping[str, Any], payload: Any, cursor: Cursor, events: int
    ) -> None:
        """Adopt the state sidecar at journal record ``index - 1``
        (``payload``), reached with ``cursor`` after ``events`` events.

        The sidecar is trusted only if its hash holds, it names this
        journal's fingerprint and pins the journal bytes read so far, the
        record carries a state digest rider, the records before it lead
        to the saved cursor and event count, the kernel restored from it
        hashes to that digest (:mod:`repro.service.resume`), and the
        restored algorithm's :meth:`state` is the saved one.  Anything
        else raises, and the caller ignores the sidecar.
        """
        assert self._journal is not None
        index = image["index"]
        size, content = self._journal.content_digest()
        expected = rider_digest(
            image, lambda length: content if length == size else None, payload
        )
        if list(cursor) != image["cursor"] or events != image["events"]:
            raise CheckpointError(
                f"records before journal index {index} do not lead to the "
                "saved session cursor"
            )
        self._num_events, self._cursor = events, cursor
        self.kernel.restore(image["kernel"], order=image["order"])
        if _state_digest(self.kernel.snapshot()) != expected:
            raise CheckpointError(
                f"restored kernel state does not match the digest at "
                f"journal record {index - 1}"
            )
        if self._fault_tolerant:
            # A resize replaced the kernel's machine and view.
            self.algorithm.machine = self.kernel.machine
            self.algorithm.view = self.kernel.view
        self.algorithm.load_state(
            image["algorithm"], self.kernel.active_tasks, self.kernel.placements
        )
        if state_json(self.algorithm.state()) != state_json(image["algorithm"]):
            raise CheckpointError("algorithm state does not round-trip")
        if (self._slo is None) != (image["slo"] is None):
            raise CheckpointError("SLO state does not match the session's mode")
        if self._slo is not None:
            self._slo.load_state(image["slo"])

    def _new_kernel(self) -> AllocationKernel:
        """A fresh kernel driving :attr:`algorithm` (through the fault
        wrapper's degraded view in a fault-tolerant session)."""
        view = getattr(self.algorithm, "view", None) if self._fault_tolerant else None
        return AllocationKernel(
            self.machine, self.algorithm, view=view, **self._kernel_options
        )

    def _start_over(self) -> None:
        """Put the session back as constructed (a sidecar failed to load)."""
        self.algorithm = copy.deepcopy(self._pristine, {id(self.machine): self.machine})
        self.kernel = self._new_kernel()
        if self._slo is not None:
            self._slo = AdmissionController(self._slo.policy)
        self._num_events, self._cursor = 0, (0.0, 0, 0)

    def push_replay(self, record: Mapping[str, Any]) -> Optional[Decision]:
        """Absorb a journaled record without re-journaling it.

        ``"slo"``-marked records re-apply the journaled admission
        decision mechanically — enqueue, reject, cancel, or admit the
        queue head — rather than re-deciding, so a resumed SLO session
        reconstructs the exact queue and counters of the crashed one.
        """
        mark = record.get("slo")
        if mark is not None:
            return self._replay_slo(str(mark), record)
        kind = record.get("kind")
        if kind not in _RECORD_KINDS:
            raise CheckpointError(f"journaled record has unknown kind {kind!r}")
        return self._absorb(self._event(record), journal=False)

    def _replay_slo(
        self, mark: str, record: Mapping[str, Any]
    ) -> Optional[Decision]:
        """Re-apply one journaled admission decision.  Journaled records
        are already normalised, so the queue, reject and cancel marks move
        the cursor over the record as written."""
        ctrl = self._slo
        if ctrl is None:
            raise CheckpointError(
                "journal contains SLO admission records but the session "
                "was opened without an SLO policy"
            )
        if mark == "dequeue":
            head = ctrl.head()
            if head is None or head["id"] != record["id"]:
                raise CheckpointError(
                    f"journaled dequeue of task {record['id']} does not "
                    f"match the replayed queue head "
                    f"({None if head is None else head['id']})"
                )
            return self._dequeue(record["time"], journal=False)
        if mark not in ("queue", "reject", "cancel"):
            raise CheckpointError(f"journaled record has unknown slo mark {mark!r}")
        self._cursor = _advance(self._cursor, record)
        if mark == "queue":
            ctrl.revive(record["id"])
            ctrl.enqueue({k: v for k, v in record.items() if k != "slo"})
        elif mark == "reject":
            ctrl.reject(record["id"])
        else:
            ctrl.cancel(record["id"])
        return None

    # -- Live metrics --------------------------------------------------------

    @property
    def now(self) -> float:
        """The session clock: time of the last absorbed event."""
        return self._cursor[0]

    @property
    def num_events(self) -> int:
        """Events absorbed so far (a counter: the events themselves are
        read back from the journal, see :attr:`events`)."""
        return self._num_events

    @property
    def restored_events(self) -> int:
        """Events the last resume restored from the state sidecar (0 on a
        fresh journal, or when the sidecar was missing or ignored)."""
        return self._resumed[0]

    @property
    def replayed_events(self) -> int:
        """Events the last resume replayed from the journal."""
        return self._resumed[1]

    @property
    def num_offers(self) -> int:
        """Wire records consumed so far — absorbed, queued, rejected, or
        canceled (but not queue drains, which re-admit an already-counted
        record).  This is the resume cursor for a record feed: after a
        crash, continue from ``records[session.num_offers:]``.  Equal to
        :attr:`num_events` outside SLO mode."""
        return self._cursor[1]

    @property
    def events(self) -> tuple[Any, ...]:
        """Every event absorbed so far, in order (task and fault events),
        decoded from the journal (:meth:`_history`)."""
        return tuple(self._history())

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
            "now": self.now,
            "active_tasks": len(self.kernel.active_tasks),
            "active_size": self.kernel.active_size(),
            "max_load": self.max_load,
            "current_max_load": self.current_max_load,
            "optimal_load": self.optimal_load,
            "competitive_ratio": self.competitive_ratio,
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

    def _history(self) -> Iterator[Any]:
        """The absorbed events, in order, decoded from the journal — the
        session's only event history.

        Buffered records are handed to the OS first, then the journal is
        read one frame at a time; queue, reject and cancel marks are
        skipped (the kernel never absorbed them), queue drains kept.
        Raises :class:`~repro.errors.SimulationError` without a journal.
        """
        if self._journal is None:
            raise SimulationError(
                "session history is read from its journal, and this session "
                "has none open: construct it with journal_path=..."
            )
        cursor: Cursor = (0.0, 0, 0)
        for index, payload in self._journal.records():
            record = self._payload_record(payload, index)
            if record.get("slo") not in _HELD_MARKS:
                yield self._event(record, cursor)[0]
            cursor = _advance(cursor, record)

    def sequence(self) -> TaskSequence:
        """The task sequence observed so far, reconstructed from the
        journal (:meth:`_history`).

        Tasks still active (or killed without a scheduled departure) keep
        ``departure = inf`` — exactly the information an offline replay or
        audit of this session would have.
        """
        return _sequence_of(self._history())

    def fault_plan(self):
        """The fault events absorbed so far, as a
        :class:`~repro.faults.plan.FaultPlan` (None when fault handling is
        off), read from the journal."""
        if not self._fault_tolerant:
            return None
        return _fault_plan_of(self._history())

    def resizes(self) -> tuple[Any, ...]:
        """The online resize events absorbed so far, in order, read from
        the journal."""
        return tuple(
            e for e in self._history() if getattr(e, "kind", None) == "resize"
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
        :mod:`repro.sim.archive`), with the raw event log embedded.  The
        events are read from the journal (:meth:`_history`, so a session
        without one raises); the segments come from replaying them
        through a copy of the algorithm as constructed, as journal resume
        replays it."""
        from repro.service.stream import records_from_events
        from repro.sim.archive import save_run

        events = self.events
        algorithm = copy.deepcopy(self._pristine)
        if self._fault_tolerant:
            from repro.faults.injector import FaultAwareSimulator
            from repro.faults.plan import FaultPlan

            replay: Simulator = FaultAwareSimulator(
                algorithm.machine, algorithm, FaultPlan(), self.kernel.cost_model,
                collect_leaf_snapshots=False, repack_on_repair=self.kernel.repack_on_repair,
            )
        else:
            replay = Simulator(
                algorithm.machine, algorithm, self.kernel.cost_model, collect_leaf_snapshots=False
            )
        for event in events:
            replay.step(event)
        plan = _fault_plan_of(events) if self._fault_tolerant else None
        save_run(
            path,
            self.machine,
            _sequence_of(events),
            replay,
            metadata=dict(metadata or {}),
            result=self.result(),
            events=records_from_events(events),
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
