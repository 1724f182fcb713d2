"""Columnar (structure-of-arrays) batch engine for the kernel hot path.

:meth:`AllocationKernel.apply_batch` historically dispatched one Python
event at a time — full per-event generality, but ~30µs of interpreter
work per event at N = 4096, which made the kernel (not fsync) the
throughput ceiling of the streaming service.  This module is the batch
fast path the kernel offers every batch of at least
``_COLUMNAR_MIN_BATCH`` events: it answers every greedy placement
question from vectorized reductions over a *private* per-PE load vector,
and syncs the kernel's :class:`LoadTracker` — the only one; the
algorithm reads it too — once per batch with
:meth:`LoadTracker.apply_spans`.

The contract is strict bit-identity with the per-event path — same
:class:`Decision` stream, same metrics, same peak snapshot, same
error text and prefix semantics on a mid-batch failure — so the per-event
:meth:`~repro.kernel.core.AllocationKernel.apply` remains the
differential oracle (``repro.verify`` checks chunked ``apply_batch``
against it on every fuzzed sequence).

Why it is fast
--------------

* **Zero tracker calls per event.**  At batch start the engine copies
  the per-PE load vector once; every placement query is an argmin over
  :func:`~repro.machines.loads.level_max` of that array (the load of a
  size-``s`` submachine is the max PE load within it), every mutation is
  a span add, and the running max-load scalar is maintained
  arithmetically (an arrival can only raise the max to its own new span
  load; a departure can only lower it if its span attained it).  The
  kernel's heap tracker sees one coalesced
  :meth:`~repro.machines.loads.LoadTracker.apply_spans` call per batch
  instead of one O(log N) walk per event.
* **Deferred everything else.**  The metrics are folded in once;
  :class:`Decision` objects are assembled in bulk from a compact args
  list.  The peak leaf snapshot is a copy of the private vector at each
  strict peak increase, which happens at most ``L_A + 1`` times a run.

The engine keeps no geometry of its own: it reads the level layout off
``kernel.machine`` each batch, so a resize or a restore that swaps the
machine needs nothing from it.

Fault batches, algorithms without the ``columnar_state`` capability flag,
external-placement kernels and unknown event types all fall back
transparently to the per-event loop (``try_apply_batch`` returns
``None`` before touching any state).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.core.base import AllocationAlgorithm
from repro.errors import BatchError, ReproError, SimulationError
from repro.kernel.decision import BatchDecision, Decision
from repro.machines.loads import level_max
from repro.tasks.events import Arrival, Departure

if TYPE_CHECKING:
    from repro.kernel.core import AllocationKernel

__all__ = ["ColumnarEngine"]

#: Shortest batch the kernel offers the engine.  Below it the fixed NumPy
#: call overhead per batch outweighs the per-event work saved at small N.
#: Greedy churn on a 2-vCPU Xeon host, engine speed over the per-event
#: loop: 0.9x at 5-6 events, ~1.0x at 7, 1.1x at 8 and 2.4x at 256 for
#: N = 64; 1.2x at 1 event up to 2.6x at 256 for N = 4096.
_COLUMNAR_MIN_BATCH = 8


class ColumnarEngine:
    """Structure-of-arrays batch executor bound to one kernel.

    Constructed once by :class:`~repro.kernel.core.AllocationKernel`;
    :meth:`try_apply_batch` either absorbs the whole batch (returning the
    summary) or returns ``None`` *before any state change*, in which case
    the kernel falls back to the per-event loop.
    """

    def __init__(self, kernel: "AllocationKernel") -> None:
        self.kernel = kernel

    def try_apply_batch(self, events: Sequence[Any]) -> Optional[BatchDecision]:
        """Run the batch columnar if eligible; ``None`` means fall back.

        Eligibility (checked before any mutation): an algorithm with the
        ``columnar_state`` capability flag and the never-reallocating
        default ``maybe_reallocate``, no degraded view (fault batches take
        the per-event path), and a batch of plain
        :class:`Arrival`/:class:`Departure` events.
        """
        k = self.kernel
        alg = k.algorithm
        if alg is None or k.view is not None:
            return None
        if not getattr(alg, "columnar_state", False):
            return None
        if type(alg).maybe_reallocate is not AllocationAlgorithm.maybe_reallocate:
            return None
        evs = list(events)
        for e in evs:
            t = type(e)
            if t is not Arrival and t is not Departure:
                return None
        return self._run(evs)

    def _run(self, evs: list[Any]) -> BatchDecision:
        k = self.kernel
        tracker = k._loads
        placements = k._placements
        metrics = k.metrics
        machine = k.machine
        num_pes = machine.num_pes
        height = machine.hierarchy.height
        #: size -> heap index of the leftmost node of that size's level.
        node_base = {1 << (height - level): 1 << level for level in range(height + 1)}
        tasks = k._tasks
        killed = k._killed
        active = k._active_size
        peak = k._peak_active_size
        arrived = k._arrived_since_realloc
        # The peak rule of ``MetricsCollector.observe``: a per-PE snapshot
        # on the run's first event and at each strict rise of the max load.
        snap_peak = metrics.max_load if metrics.peak_snapshot is not None else None
        snap = snap_time = None

        # The batch's working state: per-PE loads and the running max.
        # Every mutation below is mirrored into ``deltas`` and replayed
        # onto the heap tracker in one bulk call at the end.
        L = tracker.leaf_loads(copy=True)
        ml = tracker.max_load

        #: Positional Decision() args per applied event (bulk-built later).
        d_args: list[tuple[Any, ...]] = []
        #: node -> [size, net delta]; synced onto the tracker once.
        deltas: dict[int, list[int]] = {}
        err: Optional[ReproError] = None

        try:
            for e in evs:
                if type(e) is Arrival:
                    task = e.task
                    tid = task.task_id
                    if tid in placements:
                        raise SimulationError(
                            f"duplicate arrival of task {tid}"
                        )
                    size = task.size
                    if size not in node_base:
                        machine.validate_task_size(size)
                    # The paper's A_G rule: the leftmost submachine of
                    # minimum load (``argmin`` returns the first minimum).
                    lv = L if size == 1 else level_max(L, size)
                    j = int(lv.argmin())
                    nv = int(lv[j]) + 1
                    lo = j * size
                    L[lo : lo + size] += 1
                    node = node_base[size] + j
                    if nv > ml:
                        ml = nv
                    placements[tid] = node
                    tasks[tid] = task
                    active += size
                    if active > peak:
                        peak = active
                    arrived += size
                    sd = deltas.get(node)
                    if sd is None:
                        deltas[node] = [size, 1]
                    else:
                        sd[1] += 1
                    args: tuple[Any, ...] = (
                        "arrival", float(e.time), ml, active,
                        -(-peak // num_pes), int(tid), int(node),
                    )
                elif killed and e.task_id in killed:
                    # The task already died at its kill time; its scheduled
                    # departure is a metered no-op.
                    killed.discard(e.task_id)
                    args = (
                        "departure", float(e.time), ml, active,
                        -(-peak // num_pes), int(e.task_id), None, False, 0,
                        False, True,
                    )
                else:
                    tid = e.task_id
                    node = placements.pop(tid, None)
                    task = tasks.pop(tid, None)
                    if node is None or task is None:
                        raise SimulationError(f"departure of unknown task {tid}")
                    size = task.size
                    level = node.bit_length() - 1
                    span = num_pes >> level
                    lo = (node - (1 << level)) * span
                    seg = L[lo : lo + span]
                    sm = int(seg.max())
                    seg -= 1
                    if sm >= ml:
                        # The departed span attained the max; it may drop.
                        ml = int(L.max())
                    active -= size
                    sd = deltas.get(node)
                    if sd is None:
                        deltas[node] = [size, -1]
                    else:
                        sd[1] -= 1
                    args = (
                        "departure", float(e.time), ml, active,
                        -(-peak // num_pes), int(tid),
                    )
                if snap_peak is None or ml > snap_peak:
                    snap_peak = ml
                    snap = L.copy()
                    snap_time = args[1]
                d_args.append(args)
        except ReproError as exc:
            err = exc
        finally:
            # Mirror the per-event path's ``finally``: whatever prefix was
            # applied is fully committed — scalars written back, the heap
            # tracker synced in one bulk call, the metrics folded in once.
            k._active_size = active
            k._peak_active_size = peak
            k._arrived_since_realloc = arrived
            items = [
                (node, sd[0], sd[1]) for node, sd in deltas.items() if sd[1]
            ]
            if items:
                tracker.apply_spans(items)
            metrics.observe_batch(
                len(d_args), max((a[2] for a in d_args), default=0), snap, snap_time
            )
        decisions = [Decision(*a) for a in d_args]
        if err is not None:
            raise BatchError(
                f"batch event {len(decisions)} failed: {err}",
                applied=len(decisions),
                decisions=decisions,
            ) from err
        return BatchDecision.summarize(
            tuple(decisions),
            max_load=k._loads.max_load,
            active_size=k._active_size,
            optimal_load=k.optimal_load,
        )

