"""The crash-resume referee (``repro verify --journal``) at tier-1 scale.

One committed corpus entry and one fuzzed stream per journal mode
(plain, fault-tolerant, SLO) at N=64: every sampled truncation must
resume to exactly its surviving prefix and then catch up, at least one
kill must land inside a delta window, and planted replay and
history-read defects must be reported rather than pass.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.service import AllocationSession, sequence_records
from repro.sim.checkpoint import CheckpointJournal
from repro.verify.corpus import load_corpus
from repro.verify.journal import check_journal_resume, fuzz_journal, mode_stream

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def _corpus_entry():
    return next(
        e
        for e in load_corpus(CORPUS)
        if e.num_pes == 64 and not e.resize_events and not e.fault_events
    )


def _check(entry):
    return check_journal_resume(
        list(sequence_records(entry.sequence())),
        algorithm=entry.algorithm,
        num_pes=entry.num_pes,
        d=entry.d,
        seed=entry.seed,
    )


def _run_all():
    outcomes = [_check(_corpus_entry())]
    outcomes += fuzz_journal(num_pes=64, sequences=1, algorithms=["greedy"])
    return outcomes


def test_kills_resume_to_their_surviving_prefix():
    outcomes = _run_all()
    assert len(outcomes) == 4
    assert all(o.ok for o in outcomes), [o.divergences for o in outcomes]
    assert all(o.kills_checked > 0 for o in outcomes)
    assert sum(o.delta_window_kills for o in outcomes) >= 1


def test_replay_that_drops_the_last_record_is_reported(monkeypatch):
    original = AllocationSession.push_replay

    def lossy(self, record):
        # Skip the final journaled record of every resume.
        if self.num_events == len(self._journal.completed()) - 1:
            return None
        return original(self, record)

    monkeypatch.setattr(AllocationSession, "push_replay", lossy)
    outcome = _check(_corpus_entry())
    assert not outcome.ok
    assert any("reopen" in d or "cut@" in d for d in outcome.divergences)
    with pytest.raises(SimulationError, match="journal resume broken"):
        fuzz_journal(num_pes=64, sequences=1, algorithms=["greedy"])


def test_history_that_loses_an_event_is_reported(monkeypatch):
    original = AllocationSession._history

    def lossy(self):
        # Read the journal back without its final event.
        return iter(list(original(self))[:-1])

    monkeypatch.setattr(AllocationSession, "_history", lossy)
    outcome = _check(_corpus_entry())
    assert not outcome.ok
    # The live writer's history is checked against events the oracle
    # absorbed, not only against other reads of the same journal.
    assert "live history != oracle" in outcome.divergences
    assert "reopened history != oracle" in outcome.divergences


def test_sidecar_that_pins_short_of_the_group_is_reported(monkeypatch):
    """A content digest taken without writing the held group out pins a
    sidecar short of its own state-digest rider, so no resume can
    restore it.  Only the record-by-record writer reaches that path: a
    ``push_batch`` writer has written its group before every digest."""

    original = CheckpointJournal.content_digest

    def short_digest(self):
        if self._scan is not None:  # a resume reading the journal
            return original(self)
        return self._size, self._content.hexdigest()

    monkeypatch.setattr(CheckpointJournal, "content_digest", short_digest)
    records, _options = mode_stream("plain", 64, 120, np.random.default_rng(0), 0)
    assert check_journal_resume(records, num_pes=64).ok
    outcome = check_journal_resume(records, num_pes=64, per_record=True)
    assert "reopen did not restore the last sidecar" in outcome.divergences
