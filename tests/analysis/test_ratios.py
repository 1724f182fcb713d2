"""Unit tests for competitive-ratio summaries."""

import pytest

from repro.analysis.ratios import all_within_bound, summarize_ratios, worst_ratio
from repro.sim.engine import RunResult
from repro.sim.metrics import MetricsCollector


def _result(max_load: int, lstar: int) -> RunResult:
    metrics = MetricsCollector()
    metrics.observe(max_load)
    return RunResult(
        algorithm_name="x",
        machine_description={},
        metrics=metrics,
        optimal_load=lstar,
    )


class TestSummaries:
    def test_summary_fields(self):
        results = [_result(2, 1), _result(3, 1), _result(2, 2)]
        s = summarize_ratios(results)
        assert s.num_runs == 3
        assert s.worst == 3.0
        assert s.best == 1.0
        assert s.mean == pytest.approx((2 + 3 + 1) / 3)
        assert "worst=" in str(s)

    def test_worst_ratio(self):
        assert worst_ratio([_result(4, 2), _result(5, 1)]) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_ratios([])


class TestBoundCompliance:
    def test_within(self):
        assert all_within_bound([_result(2, 1), _result(4, 2)], factor=2.0)

    def test_violation(self):
        assert not all_within_bound([_result(3, 1)], factor=2.0)

    def test_fractional_factor_exact(self):
        # load 3, L* 2, factor 1.5: 3 <= 3.0 exactly.
        assert all_within_bound([_result(3, 2)], factor=1.5)
        assert not all_within_bound([_result(4, 2)], factor=1.5)
