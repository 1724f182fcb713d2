"""The crash-resume referee: a killed journal resumes to its surviving prefix.

The journal buys its throughput with liberties — framed pickle/columnar
records, O(1) delta riders instead of full-state digests between
full-checkpoint crossings, and batch frames that never materialise
per-event dicts.  None of them may be observable: a journaled session
must resume to *bit-identical* state, and a journal killed mid-delta-
window (after a delta rider, before the next state digest) must recover
exactly the surviving hole-free prefix and then catch up to the
uninterrupted run.  This referee enforces that the way the rest of
:mod:`repro.verify` does — same input, journaled and not, diff
everything:

* **final state**: kernel ``snapshot()``, ``status()``, and metrics of
  the journaled session must equal an unjournaled oracle's, both live
  and after a close/reopen round trip;
* **kill windows**: the journal is truncated at sampled frame
  boundaries *and* once mid-frame (the torn-tail case); each truncation
  must reopen to the state of an oracle fed exactly the surviving
  records, then drive to the same end state.  Kills inside a delta
  window are counted, since only they make resume lean on the delta
  check;
* **replayability**: both the committed corpus
  (:func:`replay_corpus_journal`) and fresh fuzzed churn streams
  (:func:`fuzz_journal`) feed the check; ``repro verify --journal``
  wires both into CI.
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
from repro.service.session import AllocationSession
from repro.service.stream import sequence_records
from repro.sim.frames import JOURNAL_MAGIC, scan_frames
from repro.verify.corpus import load_corpus
from repro.workloads.generators import churn_sequence

__all__ = [
    "JournalOutcome",
    "check_journal_resume",
    "fuzz_journal",
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

    @property
    def ok(self) -> bool:
        return not self.divergences


def _digest(state: Any) -> str:
    return hashlib.sha256(
        json.dumps(state, sort_keys=True, default=repr).encode()
    ).hexdigest()


def _fingerprint(session: AllocationSession) -> tuple[str, int]:
    """Everything "bit-identical" means for a session, hashed.

    ``journal_pending`` is durability plumbing (how many writes await
    fsync), not session state — an unjournaled oracle always reads 0 —
    so it is excluded from the comparison.
    """
    status = dict(session.status())
    status.pop("journal_pending", None)
    state = {
        "snapshot": session.snapshot(),
        "status": status,
        "metrics": session.kernel.metrics.to_state(),
        "cursor": list(session._cursor),
    }
    return _digest(state), session.num_events


def _truncation_points(
    data: bytes, rng: np.random.Generator, count: int
) -> list[int]:
    """Sampled kill offsets: frame boundaries plus one mid-frame cut.

    Boundaries are frame starts (the header frame is never cut — a
    journal without its header is a different failure, not a crash).
    The final mid-frame offset exercises the torn-tail scan.
    """
    frames, good_end, _reason = scan_frames(data, len(JOURNAL_MAGIC))
    boundaries = sorted({start for _k, _p, start in frames[2:]} | {good_end})
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
    kill_points: int = 4,
    max_divergences: int = 10,
) -> JournalOutcome:
    """Journal one event stream, kill the journal, and diff every resume.

    The deliberately small ``snapshot_interval`` / ``full_snapshot_interval``
    pair guarantees fuzzed streams cross several delta windows, so the
    sampled truncations land inside them.
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
            return AllocationSession(
                machine,
                make_algorithm(algorithm, machine, d=d, seed=seed),
                fault_tolerant=fault_tolerant,
                journal_path=path,
                snapshot_interval=snapshot_interval,
                full_snapshot_interval=full_snapshot_interval,
                fsync_policy=fsync_policy,
            )

    with tempfile.TemporaryDirectory(prefix="repro-jref-") as tmp:
        tmpdir = Path(tmp)
        path = tmpdir / "session.journal"
        oracle = open_session()
        writer = open_session(path)
        try:
            for start in range(0, len(records), batch):
                chunk = records[start : start + batch]
                for rec in chunk:
                    oracle.push(dict(rec))
                writer.push_batch([dict(r) for r in chunk])
            expected = _fingerprint(oracle)
            if _fingerprint(writer) != expected:
                diverge("live state != oracle")
        finally:
            oracle.close()
            writer.close()

        # Clean close/reopen must restore the exact state.
        try:
            resumed = open_session(path)
        except ReproError as exc:
            diverge(f"reopen failed: {exc}")
            return outcome
        try:
            if resumed.num_events != len(records):
                diverge(
                    f"reopen lost events: {resumed.num_events} "
                    f"of {len(records)}"
                )
            elif _fingerprint(resumed) != expected:
                diverge("reopened state != oracle")
        finally:
            resumed.close()

        # Kill windows: truncate at sampled boundaries, reopen, diff
        # against an oracle fed exactly the surviving prefix, then drive
        # both to the end of the stream.
        data = path.read_bytes()
        for cut in _truncation_points(data, rng, kill_points):
            copy = tmpdir / f"kill.{cut}.journal"
            copy.write_bytes(data[:cut])
            try:
                resumed = open_session(copy)
            except ReproError as exc:
                diverge(f"cut@{cut}: resume failed: {exc}")
                continue
            try:
                survived = resumed.num_events
                if survived > len(records):
                    diverge(
                        f"cut@{cut}: resurrected "
                        f"{survived - len(records)} unknown event(s)"
                    )
                    continue
                last_delta = (survived // snapshot_interval) * snapshot_interval
                last_full = (
                    survived // full_snapshot_interval
                ) * full_snapshot_interval
                if last_delta > last_full:
                    outcome.delta_window_kills += 1
                prefix = open_session()
                try:
                    for rec in records[:survived]:
                        prefix.push(dict(rec))
                    if _fingerprint(resumed) != _fingerprint(prefix):
                        diverge(
                            f"cut@{cut}: resumed state != oracle of the "
                            f"surviving {survived} record(s)"
                        )
                        continue
                    for rec in records[survived:]:
                        resumed.push(dict(rec))
                        prefix.push(dict(rec))
                    if _fingerprint(resumed) != _fingerprint(prefix):
                        diverge(f"cut@{cut}: end state diverges after catch-up")
                finally:
                    prefix.close()
                outcome.kills_checked += 1
            finally:
                resumed.close()
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


def fuzz_journal(
    *,
    num_pes: int = 256,
    sequences: int = 25,
    tasks: int = 120,
    seed: int = 0,
    algorithms: Optional[Sequence[str]] = None,
    kill_points: int = 3,
) -> list[JournalOutcome]:
    """Random-churn crash-resume sweep: ``sequences`` fresh streams per
    algorithm, every journal kill-sampled.

    Raises :class:`~repro.errors.SimulationError` listing the first
    divergences if any stream fails to resume, so CI fails loudly.
    """
    names = list(algorithms) if algorithms else ["greedy", "firstfit"]
    outcomes: list[JournalOutcome] = []
    failures: list[str] = []
    for name in names:
        for index in range(sequences):
            rng = np.random.default_rng(seed + index)
            records = list(
                sequence_records(churn_sequence(num_pes, tasks, rng))
            )
            outcome = check_journal_resume(
                records,
                algorithm=name,
                num_pes=num_pes,
                seed=seed + index,
                batch=int(rng.integers(1, 65)),
                kill_points=kill_points,
            )
            outcomes.append(outcome)
            if not outcome.ok:
                failures.append(
                    f"{name} seq {index}: " + "; ".join(outcome.divergences)
                )
    if failures:
        raise SimulationError(
            f"journal resume broken in {len(failures)} stream(s): "
            + " | ".join(failures[:5])
        )
    return outcomes
