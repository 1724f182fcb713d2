"""Unit tests for metrics collection and fairness/time-series helpers."""

import numpy as np
import pytest

from repro.sim.metrics import (
    LoadTimeSeries,
    MetricsCollector,
    ReallocationStats,
    jain_fairness,
)


class TestJainFairness:
    def test_balanced_is_one(self):
        assert jain_fairness(np.array([3, 3, 3, 3])) == pytest.approx(1.0)

    def test_single_loaded_pe(self):
        assert jain_fairness(np.array([4, 0, 0, 0])) == pytest.approx(0.25)

    def test_empty_machine_is_balanced(self):
        assert jain_fairness(np.zeros(8)) == 1.0

    def test_intermediate(self):
        v = np.array([2, 1, 1, 0])
        expected = (4.0**2) / (4 * (4 + 1 + 1))
        assert jain_fairness(v) == pytest.approx(expected)

    def test_scale_invariant(self):
        v = np.array([1, 2, 3, 4], dtype=float)
        assert jain_fairness(v) == pytest.approx(jain_fairness(10 * v))


class TestLoadTimeSeries:
    def test_peak_empty(self):
        assert LoadTimeSeries().peak == 0

    def test_record_and_peak(self):
        ts = LoadTimeSeries()
        for t, v in [(0.0, 1), (1.0, 3), (2.0, 2)]:
            ts.record(t, v)
        assert ts.peak == 3
        times, loads = ts.as_arrays()
        assert times.tolist() == [0.0, 1.0, 2.0]
        assert loads.tolist() == [1, 3, 2]

    def test_time_average_piecewise(self):
        ts = LoadTimeSeries()
        ts.record(0.0, 2)
        ts.record(1.0, 4)   # 2 held on [0,1)
        ts.record(3.0, 0)   # 4 held on [1,3)
        assert ts.time_average() == pytest.approx((2 * 1 + 4 * 2) / 3.0)

    def test_time_average_degenerate(self):
        ts = LoadTimeSeries()
        assert ts.time_average() == 0.0
        ts.record(1.0, 5)
        assert ts.time_average() == 5.0


class TestReallocationStats:
    def test_accumulation(self):
        stats = ReallocationStats()
        stats.record_reallocation()
        stats.record_move(size=4, distance=3, bytes_moved=100.0)
        stats.record_move(size=2, distance=1, bytes_moved=50.0)
        stats.record_stationary()
        assert stats.num_reallocations == 1
        assert stats.num_migrations == 2
        assert stats.num_stationary == 1
        assert stats.migrated_pe_volume == 6
        assert stats.traffic_pe_hops == 4 * 3 + 2 * 1
        assert stats.checkpoint_bytes == 150.0


def _observe(mc, time, loads):
    """Meter one event as the kernel does: the collector decides whether
    the per-PE snapshot is due, the owner of the loads stores it."""
    if mc.observe(max(loads)):
        mc.peak_snapshot = np.array(loads)
        mc.peak_snapshot_time = time


class TestMetricsCollector:
    def test_peak_snapshot_follows_max(self):
        mc = MetricsCollector()
        _observe(mc, 0.0, [1, 0])
        _observe(mc, 1.0, [3, 1])
        _observe(mc, 2.0, [2, 2])
        _observe(mc, 3.0, [3, 3])  # ties the peak: no new snapshot
        assert mc.max_load == 3
        assert mc.peak_snapshot.tolist() == [3, 1]
        assert mc.peak_snapshot_time == 1.0
        assert mc.events_processed == 4

    def test_snapshot_due_on_first_event_and_strict_rises(self):
        mc = MetricsCollector()
        due = []
        for v in (0, 0, 2, 1, 2, 3):
            due.append(mc.observe(v))
            if due[-1]:
                mc.peak_snapshot = np.array([v])
        assert due == [True, False, True, False, False, True]
        assert mc.max_load == 3

    def test_fairness_at_peak(self):
        mc = MetricsCollector()
        assert mc.fairness_at_peak() == 1.0
        _observe(mc, 0.0, [2, 0])
        assert mc.fairness_at_peak() == pytest.approx(0.5)

    def test_simulator_meters_max_load_and_peak(self):
        from repro.core.greedy import GreedyAlgorithm
        from repro.machines.tree import TreeMachine
        from repro.sim.engine import Simulator
        from repro.tasks.builder import figure1_sequence

        machine = TreeMachine(4)
        sim = Simulator(machine, GreedyAlgorithm(machine))
        for ev in figure1_sequence():
            sim.step(ev)
        series = sim.history.series.max_loads
        assert sim.metrics.max_load == max(series) == 2
        assert sim.metrics.events_processed == len(series)
        assert int(sim.metrics.peak_snapshot.max()) == 2
        # The snapshot is the state after the first event that reached 2.
        assert sim.metrics.peak_snapshot_time == sim.history.series.times[series.index(2)]
