"""Process-parallel execution of independent experiment cells.

Every harness in this library ultimately runs a bag of *independent*
cells — sweep grid points, experiment drivers, (machine, sequence) run
pairs — each of which is CPU-bound pure Python/NumPy.  This module is the
one place that fans such bags out over worker processes, with three hard
guarantees:

1. **Bit-identical results.**  Randomness is never drawn in the
   coordinating process after the fan-out decision: each cell receives its
   own ``numpy.random.SeedSequence`` spawned *before* dispatch (exactly the
   streams the serial path would use), and results are collected in
   submission order.  A 4-worker run therefore produces byte-for-byte the
   same values as ``jobs=1`` — verified by
   ``tests/sim/test_parallel.py::test_parallel_sweep_is_bit_identical``.
2. **Graceful degradation.**  ``jobs in (None, 0, 1)`` runs serially in
   the calling process with no executor, no pickling, and no behavioural
   difference; ``jobs=-1`` uses every core.
3. **Fault containment.**  A per-cell ``timeout`` (enforced by SIGALRM in
   the worker, so a wedged cell cannot hang the sweep) and a crashed
   worker (``BrokenProcessPool`` — e.g. SIGKILL, OOM) fail *cells*, not
   the run: affected cells are retried in fresh pools for up to
   ``retries`` extra rounds with exponential backoff, and only cells
   still unfinished after the last round raise
   :class:`~repro.errors.CellExecutionError` (listing exactly which).
   Any other exception is a genuine bug in the cell and propagates
   immediately.  An optional :class:`~repro.sim.checkpoint.CellJournal`
   makes completed cells durable, so even a dead *coordinator* resumes
   without recomputation — and still bit-identically, because the journal
   can only replay results the serial path would have produced.

Retries are **round-based** deliberately: when a pool breaks, the executor
cannot attribute the crash to one payload (every in-flight future fails
together), so per-cell attempt counters would flakily exhaust innocent
cells' budgets.  Instead each round re-runs every unfinished cell, and the
budget counts rounds.

Workers are plain ``ProcessPoolExecutor`` processes, so the callable and
its arguments must be picklable: module-level functions, machines, task
sequences and :class:`~repro.sim.engine.RunResult` bundles all are —
lambdas and closures are not (use a top-level function or
``functools.partial`` over one).
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from repro.errors import CellExecutionError, CellTimeoutError

__all__ = [
    "resolve_jobs",
    "parallel_map",
    "run_seeded_cells",
    "reject_reserved_params",
    "RESERVED_CELL_PARAMS",
]

#: Keyword names the seeded-cell engine injects into every cell call.  A
#: caller-supplied parameter of the same name would silently shadow the
#: injected value (or blow up with an opaque ``TypeError`` deep inside a
#: worker process), so they are rejected up front with a clear message —
#: the same contract :class:`repro.analysis.sweeps.Sweep` enforces on its
#: grid axes.
RESERVED_CELL_PARAMS: tuple[str, ...] = ("rng",)


def reject_reserved_params(params: Mapping[str, Any], *, where: str) -> None:
    """Raise a clean ``ValueError`` if ``params`` shadows an injected kwarg."""
    for key in RESERVED_CELL_PARAMS:
        if key in params:
            raise ValueError(
                f"parameter {key!r} is reserved: {where} injects the per-cell "
                f"generator as the keyword {key!r}, so a caller-supplied value "
                "of that name would silently shadow it — rename the parameter"
            )


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a user-facing ``jobs`` value to a worker count.

    ``None``, ``0`` and ``1`` mean serial; ``-1`` means one worker per
    available core; any other positive integer is taken literally.
    """
    if jobs is None or jobs == 0 or jobs == 1:
        return 1
    if jobs == -1:
        return max(1, os.cpu_count() or 1)
    if jobs < -1:
        raise ValueError(f"jobs must be >= -1, got {jobs}")
    return jobs


# -- Per-cell timeout guard ---------------------------------------------------


def _with_timeout(timeout: Optional[float], fn: Callable[..., Any], *args, **kwargs):
    """Run ``fn`` under a SIGALRM deadline (POSIX main thread only).

    Pool workers satisfy both conditions, so a wedged cell reliably raises
    :class:`~repro.errors.CellTimeoutError` instead of hanging the sweep.
    On platforms without ``SIGALRM`` — or when called off the main thread,
    where signal handlers cannot be installed — the cell runs unguarded;
    the retry loop still contains crashes, just not livelocks.
    """
    if (
        not timeout
        or timeout <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        return fn(*args, **kwargs)

    def _expired(signum, frame):
        raise CellTimeoutError(f"cell exceeded its {timeout:g}s timeout")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return fn(*args, **kwargs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _guarded(worker: Callable[[Any], Any], payload: Any, timeout: Optional[float]):
    """Top-level (hence picklable) wrapper: one payload under the deadline."""
    return _with_timeout(timeout, worker, payload)


# -- The retrying executor ----------------------------------------------------


def _execute_cells(
    worker: Callable[[Any], Any],
    payloads: Sequence[Any],
    *,
    jobs: int | None,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.5,
    journal=None,
) -> list[Any]:
    """Run ``worker(payload)`` for every payload with containment + resume.

    Results are returned in payload order.  Cells already present in the
    ``journal`` are replayed, not recomputed; every newly completed cell is
    journaled before the run proceeds.  Transient failures (timeout, broken
    pool) are retried for up to ``retries`` extra rounds; anything still
    unfinished raises :class:`~repro.errors.CellExecutionError`.
    """
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    workers = resolve_jobs(jobs)
    results: dict[int, Any] = {}
    if journal is not None:
        cached = journal.completed()
        results.update((i, v) for i, v in cached.items() if 0 <= i < len(payloads))
    pending = [i for i in range(len(payloads)) if i not in results]
    failures: dict[int, str] = {}
    total_rounds = retries + 1
    for round_no in range(1, total_rounds + 1):
        if not pending:
            break
        if round_no > 1 and backoff > 0:
            time.sleep(backoff * 2 ** (round_no - 2))
        pending, failures = _run_round(
            worker, payloads, pending, workers, timeout, results, journal
        )
    if pending:
        detail = "; ".join(
            f"cell {i}: {failures.get(i, 'unknown failure')}" for i in pending
        )
        raise CellExecutionError(
            f"{len(pending)} cell(s) unfinished after {total_rounds} round(s): "
            f"{detail}",
            failures={i: failures.get(i, "unknown failure") for i in pending},
        )
    return [results[i] for i in range(len(payloads))]


def _commit(results: dict, journal, index: int, value: Any) -> None:
    results[index] = value
    if journal is not None:
        journal.record(index, value)


def _run_round(
    worker: Callable[[Any], Any],
    payloads: Sequence[Any],
    pending: list[int],
    workers: int,
    timeout: Optional[float],
    results: dict,
    journal,
) -> tuple[list[int], dict[int, str]]:
    """One attempt over the pending cells; returns (still pending, errors)."""
    remaining: list[int] = []
    failures: dict[int, str] = {}
    if workers <= 1 or len(pending) <= 1:
        for i in pending:
            try:
                value = _guarded(worker, payloads[i], timeout)
            except CellTimeoutError as exc:
                remaining.append(i)
                failures[i] = str(exc)
            else:
                _commit(results, journal, i, value)
        return remaining, failures
    # A fresh pool per round: after a worker crash the old pool is broken
    # for good, and a clean one is cheap relative to a sweep round.
    with ProcessPoolExecutor(max_workers=min(workers, len(pending))) as pool:
        futures = {
            i: pool.submit(_guarded, worker, payloads[i], timeout) for i in pending
        }
        for i, future in futures.items():
            try:
                _commit(results, journal, i, future.result())
            except (CellTimeoutError, BrokenExecutor) as exc:
                # Transient: the cell timed out, or a worker died and took
                # the pool (and every in-flight sibling) with it.  Both are
                # retried next round; non-transient exceptions are cell
                # bugs and propagate to the caller immediately.
                remaining.append(i)
                failures[i] = f"{type(exc).__name__}: {exc}"
    return remaining, failures


# -- Public entry points ------------------------------------------------------


def _call(payload: tuple[Callable[..., Any], tuple, dict]) -> Any:
    fn, args, kwargs = payload
    return fn(*args, **kwargs)


def parallel_map(
    fn: Callable[..., Any],
    argument_sets: Sequence[tuple],
    *,
    jobs: int | None = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.5,
    checkpoint=None,
) -> list[Any]:
    """``[fn(*args) for args in argument_sets]``, optionally in processes.

    Results come back in input order regardless of completion order, so
    parallel and serial runs are interchangeable.  ``timeout`` bounds each
    call's wall clock; ``retries`` re-runs timed-out / crash-failed calls
    in fresh pools (see the module docstring for the containment model).
    ``checkpoint`` names a journal file keyed to ``(fn, argument_sets)``
    — completed calls are durable and a rerun resumes from them.
    """
    payloads = [(fn, tuple(args), {}) for args in argument_sets]
    journal = None
    if checkpoint is not None:
        import hashlib
        import pickle

        from repro.sim.checkpoint import CellJournal

        # Digest the pickled argument tuples (repr would embed object
        # addresses and break resume across processes).
        digest = hashlib.sha256()
        for args in argument_sets:
            digest.update(pickle.dumps(tuple(args)))
        journal = CellJournal(
            checkpoint,
            fingerprint={
                "kind": "parallel-map",
                "fn": f"{getattr(fn, '__module__', '?')}."
                f"{getattr(fn, '__qualname__', repr(fn))}",
                "num_cells": len(payloads),
                "args_sha256": digest.hexdigest(),
            },
        )
    try:
        return _execute_cells(
            _call,
            payloads,
            jobs=jobs,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            journal=journal,
        )
    finally:
        if journal is not None:
            journal.close()


def _run_seeded_cell(
    payload: tuple[Callable[..., Any], Mapping[str, Any], np.random.SeedSequence],
) -> Any:
    fn, params, stream = payload
    return fn(**params, rng=np.random.default_rng(stream))


def run_seeded_cells(
    fn: Callable[..., Any],
    cells: Sequence[Mapping[str, Any]],
    streams: Sequence[np.random.SeedSequence],
    *,
    jobs: int | None = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.5,
    checkpoint=None,
) -> list[Any]:
    """Run ``fn(**params, rng=...)`` for each cell with its own RNG stream.

    ``streams`` must be the per-cell :class:`numpy.random.SeedSequence`
    objects (typically ``root.spawn(len(cells))``) — spawning happens in
    the caller so serial and parallel executions consume identical
    entropy.  This is the engine behind
    :meth:`repro.analysis.sweeps.Sweep.run`.

    ``checkpoint`` names a journal file: completed cells are made durable
    as they finish, and a rerun pointed at the same file resumes from them
    — with bit-identical final results, because the journal is keyed to a
    fingerprint of ``(fn, cells, streams)`` and refuses any other workload
    (:class:`~repro.errors.CheckpointError`).
    """
    if len(cells) != len(streams):
        raise ValueError(
            f"got {len(cells)} cells but {len(streams)} RNG streams"
        )
    for params in cells:
        reject_reserved_params(params, where="run_seeded_cells")
    payloads = [(fn, dict(params), stream) for params, stream in zip(cells, streams)]
    journal = None
    if checkpoint is not None:
        from repro.sim.checkpoint import CellJournal, workload_fingerprint

        journal = CellJournal(
            checkpoint, fingerprint=workload_fingerprint(fn, cells, streams)
        )
    try:
        return _execute_cells(
            _run_seeded_cell,
            payloads,
            jobs=jobs,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            journal=journal,
        )
    finally:
        if journal is not None:
            journal.close()
