"""Differential harness end-to-end: clean code passes, seeded bugs don't.

The headline test seeds a deliberate off-by-one into A_G's placement
descent (always take the left child, ignoring sibling loads) and demands
the full pipeline deliver: detection, a shrunk counterexample of at most 8
events, deterministic replay from the corpus while the bug is live, and a
green replay once it is reverted.  All of it runs serially (``jobs=None``)
so the monkeypatch is visible to the checks.
"""

import math

import pytest

from repro.core.base import Placement
from repro.core.greedy import GreedyAlgorithm
from repro.errors import UnknownAlgorithmError, VerificationError
from repro.verify import (
    DifferentialHarness,
    check_algorithm,
    replay_corpus,
)
from repro.verify.harness import DEFAULT_D_VALUES


def _num_events(entry):
    return sum(2 if not math.isinf(dep) else 1 for _tid, _s, _a, dep in entry.tasks)


class TestCheckAlgorithm:
    def test_green_on_known_good_algorithms(self):
        from repro.verify.fuzzer import SequenceFuzzer

        fuzz = DifferentialHarness(16, algorithms=["optimal", "greedy"], seed=0)
        sigma = SequenceFuzzer(16, seed=0).generate()
        for outcome in fuzz.check_sequence(sigma, d=1.0, seed=0):
            assert outcome.ok, outcome.violations

    def test_bound_recorded_for_bounded_specs(self):
        from repro.verify.fuzzer import SequenceFuzzer

        sigma = SequenceFuzzer(16, seed=2).generate()
        outcome = check_algorithm("greedy", 16, 2.0, 0, sigma)
        assert outcome.bound is not None
        assert outcome.max_load <= outcome.bound
        outcome = check_algorithm("roundrobin", 16, 2.0, 0, sigma)
        assert outcome.bound is None  # baselines carry no guarantee

    def test_optimal_bound_is_exact(self):
        from repro.verify.fuzzer import SequenceFuzzer

        sigma = SequenceFuzzer(16, seed=4).generate()
        outcome = check_algorithm("optimal", 16, 2.0, 0, sigma)
        assert outcome.ok, outcome.violations
        assert outcome.max_load == outcome.optimal_load


class TestDifferentialHarness:
    def test_unknown_algorithm_rejected_cleanly(self):
        with pytest.raises(UnknownAlgorithmError, match="unknown algorithm"):
            DifferentialHarness(16, algorithms=["nope"])

    def test_requires_a_stopping_condition(self):
        with pytest.raises(ValueError, match="budget"):
            DifferentialHarness(16, algorithms=["greedy"]).fuzz()

    def test_clean_code_fuzzes_green(self):
        harness = DifferentialHarness(16, seed=11)
        report = harness.fuzz(max_sequences=8)
        assert report.ok, [v.violations for v in report.violations]
        assert report.sequences_tried == 8
        assert report.checks_run == 8 * len(harness.algorithms)
        assert report.features_covered >= 1
        report.raise_if_failed()  # must be a no-op when green

    def test_d_values_cycle_both_theorem_branches(self):
        assert 0.0 in DEFAULT_D_VALUES
        assert math.inf in DEFAULT_D_VALUES

    def test_report_serialises(self):
        import json

        report = DifferentialHarness(16, algorithms=["greedy"], seed=1).fuzz(
            max_sequences=4
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] is True
        assert payload["checks_run"] == 4
        assert "greedy" in payload["tightest_bounds"]


def _left_stacking_arrival(self, task):
    """The seeded bug: an off-by-one in the min-load descent that always
    takes the left child — every task lands on the leftmost submachine of
    its size, stacking loads the real A_G would spread."""
    self.machine.validate_task_size(task.size)
    level = self.machine.hierarchy.level_for_size(task.size)
    return Placement(task.task_id, 1 << level)


class TestSeededBugPipeline:
    @pytest.fixture
    def buggy_greedy(self, monkeypatch):
        monkeypatch.setattr(GreedyAlgorithm, "on_arrival", _left_stacking_arrival)

    def test_harness_catches_and_shrinks(self, buggy_greedy, tmp_path):
        corpus = tmp_path / "corpus"
        harness = DifferentialHarness(
            16, algorithms=["greedy"], seed=5, corpus_dir=corpus
        )
        report = harness.fuzz(max_sequences=40)
        assert not report.ok
        with pytest.raises(VerificationError, match="violation"):
            report.raise_if_failed()

        # At least one counterexample shrank to the acceptance target.
        assert report.counterexamples
        smallest = min(report.counterexamples, key=_num_events)
        assert _num_events(smallest) <= 8

        # Replay from disk while the bug is live: deterministic reproduction.
        results = replay_corpus(corpus)
        assert results
        assert all(not outcome.ok for _entry, outcome in results)

    def test_corpus_goes_green_after_the_fix(self, monkeypatch, tmp_path):
        corpus = tmp_path / "corpus"
        monkeypatch.setattr(GreedyAlgorithm, "on_arrival", _left_stacking_arrival)
        harness = DifferentialHarness(
            16, algorithms=["greedy"], seed=5, corpus_dir=corpus
        )
        assert not harness.fuzz(max_sequences=40).ok
        monkeypatch.undo()  # "fix" the bug
        results = replay_corpus(corpus)
        assert results
        assert all(outcome.ok for _entry, outcome in results)
