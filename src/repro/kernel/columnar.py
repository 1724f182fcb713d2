"""Columnar (structure-of-arrays) batch engine for the kernel hot path.

:meth:`AllocationKernel.apply_batch` historically dispatched one Python
event at a time — full per-event generality, but ~30µs of interpreter
work per event at N = 4096, which made the kernel (not fsync) the
throughput ceiling of the streaming service.  This module is the batch
fast path the kernel offers every batch of at least
``_COLUMNAR_MIN_BATCH`` events: it decodes a batch into flat arrays,
answers every greedy placement question from vectorized reductions over
a *private* per-PE load vector,
vectorises whole runs of same-size arrivals with one waterfill
computation, and syncs the kernel's :class:`LoadTracker` — the only one;
the algorithm reads it too — once per batch with
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
  the per-PE load vector once; every placement query is a reshape-max +
  argmin over that array (the load of a size-``s`` submachine is the max
  PE load within it, so the level view *is* ``leaf.reshape(-1, s)``),
  every mutation is a span add, and the running max-load scalar is
  maintained arithmetically (an arrival can only raise the max to its
  own new span load; a departure can only lower it if its span attained
  it).  The kernel's heap tracker sees one coalesced
  :meth:`~repro.machines.loads.LoadTracker.apply_spans` call per batch
  instead of one O(log N) walk per event.
* **Run vectorisation.**  Sequential leftmost-min placement of ``m``
  same-size arrivals (no interleaved events) equals taking the ``m``
  lexicographically smallest ``(load, column)`` slots of the level — a
  waterfill.  One threshold search + ``np.lexsort`` replaces ``m``
  argmin rounds, and the prefix property (the first ``p`` picks of the
  sorted slots equal the ``p``-pick process) keeps mid-batch failure
  semantics exact.
* **Deferred everything else.**  The metrics are folded in once; the
  peak leaf snapshot is materialised once at the end by un-applying
  the span updates that followed the last strict peak increase;
  :class:`Decision` objects are assembled in bulk from a compact args
  list.

Fault batches, algorithms without the ``columnar_state`` capability flag,
external-placement kernels and unknown event types all fall back
transparently to the per-event loop (``try_apply_batch`` returns
``None`` before touching any state).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Sequence

import numpy as np

from repro.core.base import AllocationAlgorithm
from repro.errors import BatchError, ReproError, SimulationError
from repro.kernel.decision import BatchDecision, Decision
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

#: Minimum length of a same-size arrival run worth the vectorized
#: waterfill (below this, per-event argmin is cheaper than the fixed
#: NumPy call overhead of the waterfill).
RUN_MIN = 8


def _level_max(leaf: np.ndarray, size: int) -> np.ndarray:
    """Loads of every ``size``-PE submachine from the per-PE load vector.

    For wide submachines ``reshape(-1, size).max(axis=1)`` is one tight
    reduction; for narrow ones it degenerates into thousands of tiny
    per-row reductions (30µs+ at size 4, N 4096), so below 64 PEs a
    pairwise-maximum halving tree — log2(size) whole-array ufunc calls,
    O(N) total element work — is an order of magnitude faster.
    """
    if size == 1:
        return leaf
    if size >= 64:
        return leaf.reshape(-1, size).max(axis=1)
    lv = leaf
    while size > 1:
        lv = np.maximum(lv[0::2], lv[1::2])
        size >>= 1
    return lv


def _waterfill_pick(levels: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns and pre-placement loads of ``m`` sequential leftmost-min picks.

    ``levels[j]`` is the current load of the ``j``-th submachine of the
    run's size.  Placing ``m`` equal-size tasks one at a time, each on the
    leftmost minimum-load submachine, selects exactly the ``m``
    lexicographically smallest ``(value, column)`` slots from the infinite
    slot set ``{(levels[j] + t, j) : t >= 0}`` — and in exactly that lex
    order, because at every step the leftmost current minimum *is* the
    smallest remaining slot.  Returns ``(cols, vals)`` in placement
    order: the ``k``-th arrival lands in column ``cols[k]``, whose load
    was ``vals[k]`` just before (and ``vals[k] + 1`` right after).

    Implementation: binary-search the waterline ``v`` (smallest value at
    which the slots at or below it number >= m), take every slot strictly
    below ``v``, fill the remainder with the leftmost columns eligible at
    ``v``, and lexsort.
    """
    lo = int(levels.min())
    hi = lo + m - 1  # m stacked picks on the min column reach lo + m - 1
    while lo < hi:
        mid = (lo + hi) >> 1
        if int(np.maximum(mid - levels + 1, 0).sum()) >= m:
            hi = mid
        else:
            lo = mid + 1
    v = lo
    below = np.maximum(v - levels, 0)
    nz = np.flatnonzero(below)
    if nz.size:
        b = below[nz]
        cols_below = np.repeat(nz, b)
        csum = np.cumsum(b)
        offs = np.arange(int(csum[-1]), dtype=np.int64) - np.repeat(csum - b, b)
        vals_below = np.repeat(levels[nz], b) + offs
    else:
        cols_below = np.empty(0, dtype=np.int64)
        vals_below = np.empty(0, dtype=np.int64)
    r = m - int(vals_below.size)
    cols_at = np.flatnonzero(levels <= v)[:r]
    vals = np.concatenate((vals_below, np.full(r, v, dtype=np.int64)))
    cols = np.concatenate((cols_below, cols_at))
    order = np.lexsort((cols, vals))
    return cols[order], vals[order]


class ColumnarEngine:
    """Structure-of-arrays batch executor bound to one kernel.

    Constructed by :class:`~repro.kernel.core.AllocationKernel` and
    rebuilt whenever the kernel's machine changes; :meth:`try_apply_batch`
    either absorbs the whole batch (returning the summary) or returns
    ``None`` *before any state change*, in which case the kernel falls
    back to the per-event loop.
    """

    def __init__(self, kernel: "AllocationKernel") -> None:
        self.kernel = kernel
        h = kernel.machine.hierarchy
        self._valid_sizes = frozenset(1 << x for x in range(h.height + 1))
        #: size -> heap index of the leftmost node of that size's level.
        self._node_base = {
            1 << (h.height - level): 1 << level for level in range(h.height + 1)
        }

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
        n = len(evs)
        placements = k._placements
        valid_sizes = self._valid_sizes

        # -- Decode pass: sizes, and which arrivals are "runnable" -------
        # (vectorizable as part of a same-size run: admissible size, not a
        # duplicate of an existing placement nor of any earlier batch
        # event — anything else goes through the exact singleton path so
        # error ordering and messages stay bit-identical).
        sizes = [0] * n
        runnable = [False] * n
        seen: set[Any] = set()
        for i in range(n):
            e = evs[i]
            if type(e) is Arrival:
                task = e.task
                tid = task.task_id
                size = task.size
                sizes[i] = size
                runnable[i] = (
                    size in valid_sizes
                    and tid not in placements
                    and tid not in seen
                )
                seen.add(tid)
            else:
                seen.add(e.task_id)
        run_len = [0] * n
        for i in range(n - 1, -1, -1):
            if not runnable[i]:
                run_len[i] = 0
            elif i + 1 < n and runnable[i + 1] and sizes[i + 1] == sizes[i]:
                run_len[i] = run_len[i + 1] + 1
            else:
                run_len[i] = 1

        # The batch answers every query from the private leaf vector, so
        # the tracker's min-of-max descent structure would only add upkeep
        # to the end-of-batch span sync — drop it and let it rebuild
        # lazily when a per-event descent needs it again.
        if tracker._minagg is not None:
            tracker._minagg = None

        metrics = k.metrics
        machine = k.machine
        num_pes = machine.num_pes
        node_base = self._node_base
        tasks = k._tasks
        killed = k._killed
        active = k._active_size
        peak = k._peak_active_size
        arrived = k._arrived_since_realloc
        collect = k.collect_leaf_snapshots
        snap_peak = metrics.max_load if metrics.peak_snapshot is not None else None
        snap_idx = -1
        pick = _waterfill_pick

        # The batch's working state: per-PE loads and the running max.
        # Every mutation below is mirrored into ``deltas`` and replayed
        # onto the heap tracker in one bulk call at the end.
        L = tracker.leaf_loads(copy=True)
        ml = tracker.max_load

        #: Positional Decision() args per applied event (bulk-built later).
        d_args: list[tuple[Any, ...]] = []
        #: Per-event leaf-span ops, for the deferred peak-snapshot replay.
        ops: list[tuple[int, int, int]] = []
        #: node -> [size, net delta]; synced onto the tracker once.
        deltas: dict[int, list[int]] = {}
        err: Optional[ReproError] = None

        try:
            i = 0
            while i < n:
                e = evs[i]
                if type(e) is Arrival:
                    rl = run_len[i]
                    if rl >= RUN_MIN:
                        # ---- vectorized same-size arrival run ----------
                        size = sizes[i]
                        base = node_base[size]
                        lv = _level_max(L, size)
                        cols, vals = pick(lv, rl)
                        cols_l = cols.tolist()
                        vals_l = vals.tolist()
                        counts = np.bincount(cols)
                        for c in np.flatnonzero(counts):
                            lo = int(c) * size
                            L[lo : lo + size] += int(counts[c])
                        for k2 in range(rl):
                            e2 = evs[i + k2]
                            task = e2.task
                            tid = task.task_id
                            col = cols_l[k2]
                            node = base + col
                            placements[tid] = node
                            tasks[tid] = task
                            t = e2.time
                            active += size
                            if active > peak:
                                peak = active
                            arrived += size
                            sd = deltas.get(node)
                            if sd is None:
                                deltas[node] = [size, 1]
                            else:
                                sd[1] += 1
                            nv = vals_l[k2] + 1
                            if nv > ml:
                                ml = nv
                            if collect:
                                lo = col * size
                                ops.append((lo, lo + size, 1))
                                if snap_peak is None or ml > snap_peak:
                                    snap_idx = len(d_args)
                                    snap_peak = ml
                            opt = -(-peak // num_pes)
                            d_args.append(
                                ("arrival", float(t), ml, active, opt,
                                 int(tid), int(node))
                            )
                        i += rl
                        continue
                    # ---- singleton arrival (exact per-event semantics) -
                    task = e.task
                    tid = task.task_id
                    if tid in placements:
                        raise SimulationError(
                            f"duplicate arrival of task {tid}"
                        )
                    size = task.size
                    if size not in valid_sizes:
                        machine.validate_task_size(size)
                    if size == 1:
                        j = int(L.argmin())
                        nv = int(L[j]) + 1
                        L[j] = nv
                        lo = j
                        hi = j + 1
                    else:
                        lv = _level_max(L, size)
                        j = int(lv.argmin())
                        nv = int(lv[j]) + 1
                        lo = j * size
                        hi = lo + size
                        L[lo:hi] += 1
                    node = node_base[size] + j
                    if nv > ml:
                        ml = nv
                    placements[tid] = node
                    tasks[tid] = task
                    t = e.time
                    active += size
                    if active > peak:
                        peak = active
                    arrived += size
                    sd = deltas.get(node)
                    if sd is None:
                        deltas[node] = [size, 1]
                    else:
                        sd[1] += 1
                    if collect:
                        ops.append((lo, hi, 1))
                        if snap_peak is None or ml > snap_peak:
                            snap_idx = len(d_args)
                            snap_peak = ml
                    opt = -(-peak // num_pes)
                    d_args.append(
                        ("arrival", float(t), ml, active, opt,
                         int(tid), int(node))
                    )
                    i += 1
                    continue
                # ---- departure -------------------------------------------
                tid = e.task_id
                t = e.time
                if killed and tid in killed:
                    # The task already died at its kill time; its scheduled
                    # departure is a metered no-op.
                    killed.discard(tid)
                    if collect:
                        ops.append((0, 0, 0))
                        if snap_peak is None or ml > snap_peak:
                            snap_idx = len(d_args)
                            snap_peak = ml
                    opt = -(-peak // num_pes)
                    d_args.append(
                        ("departure", float(t), ml, active, opt,
                         int(tid), None, False, 0, False, True)
                    )
                    i += 1
                    continue
                node = placements.pop(tid, None)
                task = tasks.pop(tid, None)
                if node is None or task is None:
                    raise SimulationError(f"departure of unknown task {tid}")
                size = task.size
                level = node.bit_length() - 1
                span = num_pes >> level
                lo = (node - (1 << level)) * span
                hi = lo + span
                seg = L[lo:hi]
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
                if collect:
                    ops.append((lo, hi, -1))
                    if snap_peak is None or ml > snap_peak:
                        snap_idx = len(d_args)
                        snap_peak = ml
                opt = -(-peak // num_pes)
                d_args.append(
                    ("departure", float(t), ml, active, opt, int(tid))
                )
                i += 1
        except ReproError as exc:
            err = exc
        finally:
            # Mirror the per-event path's ``finally``: whatever prefix was
            # applied is fully committed — scalars written back, the heap
            # tracker synced in one bulk call, the metrics folded in
            # once, and the peak snapshot materialised by un-applying the
            # span ops that followed the last strict peak increase.
            k._active_size = active
            k._peak_active_size = peak
            k._arrived_since_realloc = arrived
            items = [
                (node, sd[0], sd[1]) for node, sd in deltas.items() if sd[1]
            ]
            if items:
                tracker.apply_spans(items)
            arr = None
            if snap_idx >= 0:
                arr = L.copy()
                for j2 in range(len(ops) - 1, snap_idx, -1):
                    lo, hi, d = ops[j2]
                    if d:
                        arr[lo:hi] -= d
            metrics.observe_batch(
                len(d_args), max((a[2] for a in d_args), default=0), arr,
                d_args[snap_idx][1] if arr is not None else None,
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

