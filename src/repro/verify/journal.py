"""The journal-format referee: v1 and v2 journals must be one history.

The binary v2 journal buys its throughput with three liberties — framed
pickle/columnar records instead of JSONL, O(1) delta riders instead of
full-state digests between full-checkpoint crossings, and batch frames
that never materialise per-event dicts.  None of them may be observable:
a session journaled in either format must resume to *bit-identical*
state, and a v2 journal killed mid-delta-window (after a delta rider,
before the next state digest) must recover exactly the surviving
hole-free prefix and then catch up to the uninterrupted run.  This
referee enforces all of that the way the rest of :mod:`repro.verify`
does — same input, both configurations, diff everything:

* **final state**: kernel ``snapshot()``, ``status()``, and metrics of
  the v1- and v2-journaled sessions must equal an unjournaled oracle's,
  both live and after a close/reopen round trip;
* **kill windows**: the v2 journal is truncated at sampled frame
  boundaries *and* mid-frame (the torn-tail case); each truncation must
  reopen to the state of an oracle fed exactly the surviving records,
  then drive to the same end state.  v1 copies get the same treatment
  at line granularity, so both recovery paths stay honest;
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
from repro.errors import SimulationError
from repro.machines.tree import TreeMachine
from repro.service.session import AllocationSession
from repro.service.stream import sequence_records
from repro.sim.frames import JOURNAL_MAGIC, scan_frames
from repro.verify.corpus import load_corpus
from repro.workloads.generators import churn_sequence

__all__ = [
    "JournalOutcome",
    "check_journal_parity",
    "fuzz_journal",
    "replay_corpus_journal",
]


@dataclass
class JournalOutcome:
    """Verdict of one parity check (one stream, both formats)."""

    algorithm: str
    num_pes: int
    events: int
    divergences: list[str] = field(default_factory=list)
    #: Truncation points exercised on each format's journal — a check
    #: that never kills inside a delta window proves less.
    kills_checked: int = 0
    #: Of those, truncations that landed strictly between a delta rider
    #: and the next state digest (the v2-only recovery path).
    delta_window_kills: int = 0
    bytes_v1: int = 0
    bytes_v2: int = 0

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
        "now": session.now,
        "next_id": session._next_task_id,
    }
    return _digest(state), session.num_events


def _open(
    path: Optional[Path],
    *,
    algorithm: str,
    num_pes: int,
    d: float,
    seed: int,
    fault_tolerant: bool,
    journal_format: str,
    snapshot_interval: int,
    full_snapshot_interval: int,
    fsync_policy: str,
) -> AllocationSession:
    machine = TreeMachine(num_pes)
    return AllocationSession(
        machine,
        make_algorithm(algorithm, machine, d=d, seed=seed),
        fault_tolerant=fault_tolerant,
        journal_path=path,
        snapshot_interval=snapshot_interval,
        full_snapshot_interval=full_snapshot_interval,
        fsync_policy=fsync_policy,
        journal_format=journal_format,
    )


def _truncation_points(
    data: bytes, journal_format: str, rng: np.random.Generator, count: int
) -> list[int]:
    """Sampled kill offsets: record boundaries plus one mid-record cut.

    v2 boundaries are frame starts (the header frame is never cut — a
    journal without its header is a different failure, not a crash);
    v1 boundaries are newline positions past the header line.  The final
    mid-record offset exercises the torn-tail scan.
    """
    if journal_format == "v2":
        frames, good_end, _reason = scan_frames(data, len(JOURNAL_MAGIC))
        boundaries = [start for _k, _p, start in frames[2:]] + [good_end]
    else:
        text = data.decode("utf-8")
        first = text.index("\n") + 1
        boundaries = [
            i + 1 for i, ch in enumerate(text) if ch == "\n" and i + 1 > first
        ]
    boundaries = sorted(set(boundaries))
    if not boundaries:
        return []
    picks = min(count, len(boundaries))
    chosen = sorted(
        int(boundaries[i])
        for i in rng.choice(len(boundaries), size=picks, replace=False)
    )
    # One torn cut: a few bytes into the record after some clean boundary.
    torn = chosen[len(chosen) // 2] + 3
    if torn < len(data):
        chosen.append(torn)
    return chosen


def check_journal_parity(
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
    """Diff one event stream across journal formats and kill windows.

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

    def reopen(path: Path, journal_format: str) -> AllocationSession:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # partial tails are expected
            return _open(
                path,
                algorithm=algorithm, num_pes=num_pes, d=d, seed=seed,
                fault_tolerant=fault_tolerant, journal_format=journal_format,
                snapshot_interval=snapshot_interval,
                full_snapshot_interval=full_snapshot_interval,
                fsync_policy=fsync_policy,
            )

    with tempfile.TemporaryDirectory(prefix="repro-jref-") as tmp:
        tmpdir = Path(tmp)
        oracle = _open(
            None,
            algorithm=algorithm, num_pes=num_pes, d=d, seed=seed,
            fault_tolerant=fault_tolerant, journal_format="v2",
            snapshot_interval=snapshot_interval,
            full_snapshot_interval=full_snapshot_interval,
            fsync_policy=fsync_policy,
        )
        paths = {
            "v1": tmpdir / "session.v1.journal",
            "v2": tmpdir / "session.v2.journal",
        }
        writers = {
            fmt: _open(
                path,
                algorithm=algorithm, num_pes=num_pes, d=d, seed=seed,
                fault_tolerant=fault_tolerant, journal_format=fmt,
                snapshot_interval=snapshot_interval,
                full_snapshot_interval=full_snapshot_interval,
                fsync_policy=fsync_policy,
            )
            for fmt, path in paths.items()
        }
        try:
            for start in range(0, len(records), batch):
                chunk = records[start : start + batch]
                for rec in chunk:
                    oracle.push(dict(rec))
                for fmt, writer in writers.items():
                    writer.push_batch([dict(r) for r in chunk])
            expected = _fingerprint(oracle)
            for fmt, writer in writers.items():
                if _fingerprint(writer) != expected:
                    diverge(f"{fmt} live state != oracle")
        finally:
            oracle.close()
            for writer in writers.values():
                writer.close()
        outcome.bytes_v1 = paths["v1"].stat().st_size
        outcome.bytes_v2 = paths["v2"].stat().st_size

        # Clean close/reopen: both formats must restore the exact state.
        for fmt, path in paths.items():
            resumed = reopen(path, fmt)
            try:
                if resumed.num_events != len(records):
                    diverge(
                        f"{fmt} reopen lost events: {resumed.num_events} "
                        f"of {len(records)}"
                    )
                elif _fingerprint(resumed) != expected:
                    diverge(f"{fmt} reopened state != oracle")
            finally:
                resumed.close()

        # Kill windows: truncate at sampled boundaries, reopen, diff
        # against an oracle fed exactly the surviving prefix, then drive
        # both to the end of the stream.
        for fmt, path in paths.items():
            data = path.read_bytes()
            for cut in _truncation_points(data, fmt, rng, kill_points):
                copy = tmpdir / f"kill.{fmt}.{cut}.journal"
                copy.write_bytes(data[:cut])
                resumed = reopen(copy, fmt)
                try:
                    survived = resumed.num_events
                    if survived > len(records):
                        diverge(
                            f"{fmt} cut@{cut}: resurrected "
                            f"{survived - len(records)} unknown event(s)"
                        )
                        continue
                    last_delta = (survived // snapshot_interval) * snapshot_interval
                    last_full = (
                        survived // full_snapshot_interval
                    ) * full_snapshot_interval
                    if fmt == "v2" and last_delta > last_full:
                        outcome.delta_window_kills += 1
                    prefix = _open(
                        None,
                        algorithm=algorithm, num_pes=num_pes, d=d,
                        seed=seed, fault_tolerant=fault_tolerant,
                        journal_format=fmt,
                        snapshot_interval=snapshot_interval,
                        full_snapshot_interval=full_snapshot_interval,
                        fsync_policy=fsync_policy,
                    )
                    try:
                        for rec in records[:survived]:
                            prefix.push(dict(rec))
                        if _fingerprint(resumed) != _fingerprint(prefix):
                            diverge(
                                f"{fmt} cut@{cut}: resumed state != "
                                f"oracle of the surviving {survived} "
                                f"record(s)"
                            )
                            continue
                        for rec in records[survived:]:
                            resumed.push(dict(rec))
                            prefix.push(dict(rec))
                        if _fingerprint(resumed) != _fingerprint(prefix):
                            diverge(
                                f"{fmt} cut@{cut}: end state diverges "
                                f"after catch-up"
                            )
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
    """Parity-check every journalable corpus entry; churn entries (whose
    resize events a session cannot ingest) map to ``None``."""
    results: list[tuple[Any, Optional[JournalOutcome]]] = []
    for entry in load_corpus(directory, strict=strict):
        if entry.resize_events:
            results.append((entry, None))
            continue
        records = list(sequence_records(entry.sequence()))
        outcome = check_journal_parity(
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
    """Random-churn parity sweep: ``sequences`` fresh streams per
    algorithm through both journal formats, every journal kill-sampled.

    Raises :class:`~repro.errors.SimulationError` listing the first
    divergences if any stream breaks parity, so CI fails loudly.
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
            outcome = check_journal_parity(
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
            f"journal parity broken in {len(failures)} stream(s): "
            + " | ".join(failures[:5])
        )
    return outcomes
