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


class TestMetricsCollector:
    def test_peak_snapshot_follows_max(self):
        mc = MetricsCollector()
        mc.observe(0.0, 1, np.array([1, 0]))
        mc.observe(1.0, 3, np.array([3, 1]))
        mc.observe(2.0, 2, np.array([2, 2]))
        assert mc.max_load == 3
        assert mc.peak_snapshot.tolist() == [3, 1]
        assert mc.peak_snapshot_time == 1.0
        assert mc.events_processed == 3

    def test_fairness_at_peak(self):
        mc = MetricsCollector()
        assert mc.fairness_at_peak() == 1.0
        mc.observe(0.0, 2, np.array([2, 0]))
        assert mc.fairness_at_peak() == pytest.approx(0.5)


class TestLightweightMode:
    def test_observe_without_snapshot(self):
        mc = MetricsCollector()
        mc.observe(0.0, 3)  # no leaf loads
        assert mc.max_load == 3
        assert mc.peak_snapshot is None
        assert mc.fairness_at_peak() == 1.0

    def test_simulator_flag_keeps_max_load_exact(self):
        from repro.core.greedy import GreedyAlgorithm
        from repro.machines.tree import TreeMachine
        from repro.sim.engine import Simulator
        from repro.tasks.builder import figure1_sequence

        m1, m2 = TreeMachine(4), TreeMachine(4)
        full = Simulator(m1, GreedyAlgorithm(m1))
        light = Simulator(m2, GreedyAlgorithm(m2), collect_leaf_snapshots=False)
        for ev in figure1_sequence():
            full.step(ev)
        for ev in figure1_sequence():
            light.step(ev)
        assert light.metrics.max_load == full.metrics.max_load == 2
        assert light.history.series.max_loads == full.history.series.max_loads
        assert light.metrics.peak_snapshot is None
        assert full.metrics.peak_snapshot is not None
