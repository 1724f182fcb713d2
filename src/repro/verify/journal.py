"""The crash-resume referee: a killed journal resumes to its surviving prefix.

The journal buys its throughput with liberties — fixed-width tagged
records with a JSON fallback, O(1) delta riders instead of full-state
digests between full-checkpoint crossings, and batch frames that pack
every record between two syncs into one frame.  None of them may be
observable: a journaled session must resume to *bit-identical* state,
and a journal killed mid-delta-window (after a delta rider, before the
next state digest) must recover exactly the surviving hole-free prefix
and then catch up to the uninterrupted run.  This referee enforces that
the way the rest of :mod:`repro.verify` does — same input, journaled and
not, diff everything:

* **final state**: kernel ``snapshot()``, ``status()``, and metrics of
  the journaled session must equal an unjournaled oracle's, both live
  and after a close/reopen round trip;
* **history**: the events a journaled session reads back from its
  journal (:attr:`~repro.service.session.AllocationSession.events`) must
  be the ones the oracle absorbed — kept in memory, never encoded — live,
  after a reopen, and for every kill up to the resume and after catching
  up;
* **kill windows**: the journal is truncated at sampled frame
  boundaries *and* once mid-frame (the torn-tail case), and cut where a
  state sidecar had been written but not yet renamed into place; each
  truncation reopens twice — restoring the sidecar the killed process
  would have left, and with none (the full replay) — and both must match
  an oracle fed exactly the surviving records, then answer every later
  record as it does.  Kills inside a delta window are counted, since
  only they make resume lean on the delta check;
* **replayability**: both the committed corpus
  (:func:`replay_corpus_journal`) and fresh fuzzed streams
  (:func:`fuzz_journal`: plain churn, fault-tolerant churn with failures,
  kills, grows and shrinks, and SLO admission) feed the check;
  ``repro verify --journal`` wires both into CI.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.registry import make_algorithm
from repro.errors import ReproError, SimulationError
from repro.machines.tree import TreeMachine
from repro.scenarios.churn import ChurnProcess
from repro.service.resume import read_sidecar, sidecar_path
from repro.service.session import AllocationSession
from repro.service.slo import SLOPolicy
from repro.service.stream import (
    admission_lines,
    decision_line,
    records_from_events,
    sequence_records,
)
from repro.sim.frames import JOURNAL_MAGIC, decode_journal, scan_frames
from repro.verify.corpus import load_corpus
from repro.workloads.generators import churn_sequence

__all__ = [
    "JOURNAL_MODES",
    "JournalOutcome",
    "check_journal_resume",
    "fuzz_journal",
    "mode_stream",
    "replay_corpus_journal",
]


@dataclass
class JournalOutcome:
    """Verdict of one crash-resume check (one stream, one journal)."""

    algorithm: str
    num_pes: int
    events: int
    divergences: list[str] = field(default_factory=list)
    #: Truncation points exercised on the journal — a check that never
    #: kills inside a delta window proves less.
    kills_checked: int = 0
    #: Of those, truncations that landed strictly between a delta rider
    #: and the next state digest.
    delta_window_kills: int = 0
    #: Truncations that left a sidecar to restore (each also resumed
    #: without it).
    restored_kills: int = 0
    #: Truncations between a sidecar's write and its rename.
    rename_kills: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences


def _digest(state: Any) -> str:
    return hashlib.sha256(
        json.dumps(state, sort_keys=True, default=repr).encode()
    ).hexdigest()


def _fingerprint(session: AllocationSession) -> tuple[str, int]:
    """Everything "bit-identical" means for a session's state, hashed.

    ``journal_pending`` is durability plumbing (how many writes await
    fsync), not session state — an unjournaled oracle always reads 0 —
    so it is excluded from the comparison.  The event history lives in
    the journal, which an oracle does not have: :func:`_history` reads
    it, and :class:`_Oracle` keeps the events to compare it with.
    """
    status = dict(session.status())
    status.pop("journal_pending", None)
    state = {
        "snapshot": session.snapshot(),
        "status": status,
        "metrics": session.kernel.metrics.to_state(),
        "cursor": list(session._cursor),
        "order": session.kernel.task_order(),
    }
    return _digest(state), session.num_events


def _history(session: AllocationSession) -> list[dict[str, Any]]:
    """A journaled session's event history as wire records."""
    return records_from_events(session.events)


class _Oracle(AllocationSession):
    """An unjournaled session that keeps every event it absorbs, so the
    history read back from a journal is checked against events that
    never went through the journal codec."""

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.absorbed: list[Any] = []

    def _absorb(self, decoded: Any, *, journal: bool = True) -> Any:
        # The referee feeds its oracles one record at a time.
        assert not isinstance(decoded, list)
        result = super()._absorb(decoded, journal=journal)
        self.absorbed.append(decoded[0])
        return result


def _truncation_points(
    data: bytes,
    rng: np.random.Generator,
    count: int,
    boundaries: Optional[Sequence[int]] = None,
) -> list[int]:
    """Sampled kill offsets: frame boundaries plus one mid-frame cut.

    Boundaries are frame starts (the header frame is never cut — a
    journal without its header is a different failure, not a crash), or
    the given ``boundaries``.  The final mid-frame offset exercises the
    torn-tail scan.
    """
    if boundaries is None:
        frames, good_end, _reason = scan_frames(data, len(JOURNAL_MAGIC))
        boundaries = sorted({start for _k, _p, start in frames[2:]} | {good_end})
    else:
        boundaries = sorted(set(boundaries))
    picks = min(count, len(boundaries))
    chosen = sorted(
        int(boundaries[i])
        for i in rng.choice(len(boundaries), size=picks, replace=False)
    )
    # One torn cut: a few bytes into the frame after some clean boundary.
    torn = chosen[len(chosen) // 2] + 3
    if torn < len(data):
        chosen.append(torn)
    return chosen


def _replies(session: AllocationSession, record: Mapping[str, Any]) -> list[str]:
    """The reply lines ``repro serve`` would send for one wire record."""
    try:
        if session.slo_policy is not None:
            return admission_lines(session.offer(dict(record)))
        return [decision_line(session.push(dict(record)))]
    except ReproError as exc:
        return [f"error: {exc}"]


@dataclass(frozen=True)
class _Sidecar:
    """One state sidecar as the writer left it, and its journal then."""

    journal_size: int
    index: int
    events: int
    blob: bytes


def _usable(sidecars: Sequence[_Sidecar], payloads: Mapping[int, Any]) -> Optional[_Sidecar]:
    """The newest sidecar a process killed with ``payloads`` on disk
    could have left: one written after its state-digest rider was."""
    for sidecar in reversed(sidecars):
        rider = payloads.get(sidecar.index - 1)
        if isinstance(rider, dict) and "state_sha256" in rider:
            return sidecar
    return None


def check_journal_resume(
    records: Sequence[Mapping[str, Any]],
    *,
    algorithm: str = "greedy",
    num_pes: int = 64,
    d: float = 2.0,
    seed: int = 0,
    batch: int = 16,
    snapshot_interval: int = 8,
    full_snapshot_interval: int = 32,
    fsync_policy: str = "batch",
    fault_tolerant: bool = False,
    slo: Optional[SLOPolicy] = None,
    per_record: bool = False,
    kill_points: int = 4,
    max_divergences: int = 10,
) -> JournalOutcome:
    """Journal one event stream, kill the journal, and diff every resume.

    The deliberately small ``snapshot_interval`` / ``full_snapshot_interval``
    pair guarantees fuzzed streams cross several delta windows and state
    sidecars, so the sampled truncations land inside them.  Every kill
    resumes twice — restoring the sidecar the killed process would have
    left, and with no sidecar (the full replay) — and both must match an
    oracle fed the surviving records, then give the same reply to every
    later record.  Kills between a sidecar's write and its rename leave
    the previous sidecar in place, beside the temp file.

    Without an SLO the writer commits every ``batch`` records: as one
    :meth:`~AllocationSession.push_batch`, or with ``per_record`` as
    ``batch`` :meth:`~AllocationSession.push` calls, whose records the
    journal groups into shared batch frames between its syncs — so the
    sampled kills and the torn cut land inside those groups.
    """
    outcome = JournalOutcome(
        algorithm=algorithm, num_pes=num_pes, events=len(records)
    )
    rng = np.random.default_rng(seed)

    def diverge(message: str) -> None:
        if len(outcome.divergences) < max_divergences:
            outcome.divergences.append(message)

    def open_session(path: Optional[Path] = None) -> AllocationSession:
        machine = TreeMachine(num_pes)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # partial tails are expected
            return (AllocationSession if path is not None else _Oracle)(
                machine,
                make_algorithm(algorithm, machine, d=d, seed=seed),
                fault_tolerant=fault_tolerant,
                journal_path=path,
                snapshot_interval=snapshot_interval,
                full_snapshot_interval=full_snapshot_interval,
                fsync_policy=fsync_policy,
                slo=slo,
            )

    with tempfile.TemporaryDirectory(prefix="repro-jref-") as tmp:
        tmpdir = Path(tmp)
        path = tmpdir / "session.journal"
        state = sidecar_path(path)
        # Journal size after each commit, and every sidecar written.
        commits: list[int] = []
        sidecars: list[_Sidecar] = []

        def note_commit() -> None:
            writer.flush()
            commits.append(path.stat().st_size)
            if state.exists():
                blob = state.read_bytes()
                if not sidecars or blob != sidecars[-1].blob:
                    image = read_sidecar(state)
                    sidecars.append(
                        _Sidecar(commits[-1], image["index"], image["events"], blob)
                    )

        oracle = open_session()
        writer = open_session(path)
        try:
            if slo is not None:
                # Offer by offer: a kill between the records of one offer
                # (an absorb and its queue drains) is a different failure.
                for rec in records:
                    if _replies(oracle, rec) != _replies(writer, rec):
                        diverge("live replies != oracle")
                    note_commit()
            else:
                for start in range(0, len(records), batch):
                    chunk = records[start : start + batch]
                    for rec in chunk:
                        oracle.push(dict(rec))
                    if per_record:
                        for rec in chunk:
                            writer.push(dict(rec))
                    else:
                        writer.push_batch([dict(r) for r in chunk])
                    note_commit()
            expected = _fingerprint(oracle)
            if _fingerprint(writer) != expected:
                diverge("live state != oracle")
            history = records_from_events(oracle.absorbed)
            if _history(writer) != history:
                diverge("live history != oracle")
        finally:
            oracle.close()
            writer.close()

        # Clean close/reopen must restore the exact state, from the last
        # sidecar when there is one.
        try:
            resumed = open_session(path)
        except ReproError as exc:
            diverge(f"reopen failed: {exc}")
            return outcome
        try:
            if resumed.num_offers != len(records):
                diverge(
                    f"reopen lost records: {resumed.num_offers} "
                    f"of {len(records)}"
                )
            elif _fingerprint(resumed) != expected:
                diverge("reopened state != oracle")
            elif _history(resumed) != history:
                diverge("reopened history != oracle")
            if sidecars and resumed.restored_events != sidecars[-1].events:
                diverge("reopen did not restore the last sidecar")
        finally:
            resumed.close()

        # Kill windows: truncate at sampled boundaries (offer boundaries
        # in SLO mode), reopen, diff against an oracle fed exactly the
        # surviving prefix, then drive all of them to the end.
        data = path.read_bytes()
        cuts = [
            (cut, None)
            for cut in _truncation_points(data, rng, kill_points, commits if slo else None)
        ]
        # Kills between a sidecar's write and its rename.
        for k in sorted(rng.choice(len(sidecars), size=min(2, len(sidecars)), replace=False)):
            cuts.append((sidecars[k].journal_size, k))
        def oracle_from(survived: int) -> tuple[Any, list[list[str]], Any]:
            """Oracle fed the surviving records: its state then, its
            replies to every later record, and its state at the end."""
            prefix = open_session()
            try:
                for rec in records[:survived]:
                    _replies(prefix, rec)
                at_kill = _fingerprint(prefix)
                later = [_replies(prefix, rec) for rec in records[survived:]]
                return at_kill, later, _fingerprint(prefix)
            finally:
                prefix.close()

        for cut, renaming in cuts:
            if renaming is None:
                left = _usable(sidecars, decode_journal(data[:cut])[1])
                temp = None
            else:
                left = sidecars[renaming - 1] if renaming else None
                temp = sidecars[renaming]
            want = None
            survived = 0
            for sidecar in ([left] if left is not None else []) + [None]:
                label = (
                    f"cut@{cut}{' mid-rename' if temp else ''}, "
                    f"{'restored' if sidecar else 'replayed'}"
                )
                copy = tmpdir / f"kill.{cut}.journal"
                copy.write_bytes(data[:cut])
                sidecar_path(copy).unlink(missing_ok=True)
                if sidecar is not None:
                    sidecar_path(copy).write_bytes(sidecar.blob)
                if temp is not None:
                    Path(f"{sidecar_path(copy)}.tmp").write_bytes(temp.blob)
                try:
                    resumed = open_session(copy)
                except ReproError as exc:
                    diverge(f"{label}: resume failed: {exc}")
                    continue
                try:
                    survived = resumed.num_offers
                    if survived > len(records):
                        diverge(f"{label}: resurrected {survived - len(records)} record(s)")
                        continue
                    restored = 0 if sidecar is None else sidecar.events
                    if resumed.restored_events != restored:
                        diverge(
                            f"{label}: restored {resumed.restored_events} "
                            f"event(s), expected {restored}"
                        )
                    if want is None:
                        want = oracle_from(survived)
                    if _fingerprint(resumed) != want[0]:
                        diverge(
                            f"{label}: resumed state != oracle of the "
                            f"surviving {survived} record(s)"
                        )
                        continue
                    if _history(resumed) != history[: resumed.num_events]:
                        diverge(f"{label}: resumed history != oracle")
                    if [_replies(resumed, rec) for rec in records[survived:]] != want[1]:
                        diverge(f"{label}: replies diverge after the kill")
                    elif _fingerprint(resumed) != want[2]:
                        diverge(f"{label}: end state diverges after catch-up")
                    elif _history(resumed) != history:
                        diverge(f"{label}: history diverges after catch-up")
                finally:
                    resumed.close()
            outcome.kills_checked += 1
            outcome.restored_kills += left is not None
            outcome.rename_kills += temp is not None
            last_delta = (survived // snapshot_interval) * snapshot_interval
            last_full = (survived // full_snapshot_interval) * full_snapshot_interval
            if last_delta > last_full:
                outcome.delta_window_kills += 1
    return outcome


def replay_corpus_journal(
    directory: Union[str, Any],
    *,
    kill_points: int = 2,
    strict: bool = False,
) -> list[tuple[Any, Optional[JournalOutcome]]]:
    """Crash-resume-check every journalable corpus entry; churn entries
    (whose resize events a session cannot ingest) map to ``None``."""
    results: list[tuple[Any, Optional[JournalOutcome]]] = []
    for entry in load_corpus(directory, strict=strict):
        if entry.resize_events:
            results.append((entry, None))
            continue
        records = list(sequence_records(entry.sequence()))
        outcome = check_journal_resume(
            records,
            algorithm=entry.algorithm,
            num_pes=entry.num_pes,
            d=entry.d,
            seed=entry.seed,
            fault_tolerant=bool(entry.fault_events),
            kill_points=kill_points,
        )
        results.append((entry, outcome))
    return results


#: The stream families :func:`fuzz_journal` journals for each algorithm.
JOURNAL_MODES = ("plain", "faults", "slo")


def mode_stream(
    mode: str, num_pes: int, tasks: int, rng: np.random.Generator, seed: int
) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """One fuzzed stream of ``mode`` and the session options it needs.

    ``plain`` is random churn; ``faults`` is a fault-tolerant churn
    scenario with failures, repairs, kills, a grow and a shrink; ``slo``
    is random churn through a tight admission gate, so arrivals queue,
    drain and get rejected.
    """
    if mode == "faults":
        scenario = ChurnProcess(
            num_pes=num_pes, seed=seed, horizon=40.0, task_rate=3.0,
            pe_mttf=15.0, mttr=6.0, kill_rate=0.05,
            resizes=((13.0, "grow", 2), (27.0, "shrink", 2)),
        ).build()
        return records_from_events(list(scenario.merged_events())), {
            "fault_tolerant": True
        }
    records = list(sequence_records(churn_sequence(num_pes, tasks, rng)))
    if mode == "slo":
        return records, {"slo": SLOPolicy(slowdown_target=1.0, queue_capacity=4)}
    if mode != "plain":
        raise ValueError(f"unknown journal fuzz mode {mode!r}; known: {JOURNAL_MODES}")
    return records, {}


def fuzz_journal(
    *,
    num_pes: int = 256,
    sequences: int = 25,
    tasks: int = 120,
    seed: int = 0,
    algorithms: Optional[Sequence[str]] = None,
    kill_points: int = 3,
) -> list[JournalOutcome]:
    """Crash-resume sweep: ``sequences`` fresh streams per algorithm and
    mode of :data:`JOURNAL_MODES` (:func:`mode_stream`), every journal
    kill-sampled.  The ``plain`` streams are journaled record by record
    (``per_record``), the ``faults`` ones a batch at a time.

    Raises :class:`~repro.errors.SimulationError` listing the first
    divergences if any stream fails to resume, so CI fails loudly.
    """
    names = list(algorithms) if algorithms else ["greedy", "firstfit"]
    outcomes: list[JournalOutcome] = []
    failures: list[str] = []
    for name in names:
        for mode in JOURNAL_MODES:
            for index in range(sequences):
                rng = np.random.default_rng(seed + index)
                records, options = mode_stream(mode, num_pes, tasks, rng, seed + index)
                outcome = check_journal_resume(
                    records,
                    algorithm=name,
                    num_pes=num_pes,
                    seed=seed + index,
                    batch=int(rng.integers(1, 65)),
                    per_record=mode == "plain",
                    kill_points=kill_points,
                    **options,
                )
                outcomes.append(outcome)
                if not outcome.ok:
                    failures.append(
                        f"{name} {mode} seq {index}: " + "; ".join(outcome.divergences)
                    )
    if failures:
        raise SimulationError(
            f"journal resume broken in {len(failures)} stream(s): "
            + " | ".join(failures[:5])
        )
    return outcomes
