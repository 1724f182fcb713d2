"""RunHistory: residence segments and the load series from decisions alone.

The kernel keeps no history, so every driver folds it from the decision
stream.  The fold must give the segments ``test_placement_history.py``
pins and the same history whichever kernel path made the decisions —
per-event ``apply`` or the ``apply_batch`` loop — with faults, kills and
resizes in the stream.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from repro.core.registry import make_algorithm
from repro.faults.salvage import FaultTolerantAlgorithm
from repro.kernel import AllocationKernel
from repro.machines.tree import TreeMachine
from repro.scenarios import ChurnProcess, run_scenario
from repro.sim.audit import audit_run
from repro.sim.history import RunHistory
from repro.tasks.builder import SequenceBuilder, figure1_sequence
from repro.types import TaskId
from repro.workloads.generators import churn_sequence

PATHS = ("apply", "loop")


def _history(kernel, events, path, chunk=8):
    """Drive ``events`` through one kernel path and fold the decisions."""
    decisions = []
    if path == "apply":
        decisions = [kernel.apply(e) for e in events]
    else:
        for start in range(0, len(events), chunk):
            part = events[start : start + chunk]
            decisions.extend(kernel.apply_batch(part).decisions)
    history = RunHistory()
    history.extend(decisions)
    return history, decisions


def _kernel(n, name="greedy", *, fault_tolerant=False):
    machine = TreeMachine(n)
    algorithm = make_algorithm(name, machine, d=1.0)
    if fault_tolerant:
        wrapper = FaultTolerantAlgorithm(machine, algorithm, machine.degraded_view())
        return AllocationKernel(machine, wrapper, view=wrapper.view)
    return AllocationKernel(machine, algorithm)


class TestPinnedSegments:
    """The shapes ``test_placement_history.py`` pins, path by path."""

    @pytest.mark.parametrize("path", PATHS)
    def test_static_algorithm_single_segment(self, path):
        seq = SequenceBuilder().arrive("a", size=2).depart("a").build()
        kernel = _kernel(4)
        history, _ = _history(kernel, list(seq), path, chunk=2)
        (seg,) = history.placement_intervals()[TaskId(0)]
        start, end, node = seg
        assert (start, end) == (1.0, 2.0)
        assert kernel.machine.hierarchy.subtree_size(node) == 2

    @pytest.mark.parametrize("path", PATHS)
    def test_immortal_task_open_segment(self, path):
        seq = SequenceBuilder().arrive("a", size=1).build()
        history, _ = _history(_kernel(4), list(seq), path, chunk=1)
        (seg,) = history.placement_intervals()[TaskId(0)]
        assert math.isinf(seg[1])

    @pytest.mark.parametrize("path", PATHS)
    def test_reallocation_splits_segments_and_covers_lifetimes(self, path):
        seq = figure1_sequence()
        history, decisions = _history(_kernel(4, "optimal"), list(seq), path)
        assert any(d.moves for d in decisions)
        intervals = history.placement_intervals()
        assert any(len(segs) > 1 for segs in intervals.values())
        for tid, task in seq.tasks.items():
            segs = intervals[tid]
            assert all(e > s for s, e, _ in segs)
            for (_s1, e1, _), (s2, _e2, _) in zip(segs, segs[1:]):
                assert e1 == s2  # contiguous
            assert segs[0][0] == task.arrival
            assert segs[-1][1] == task.departure


class TestPathsAgree:
    def test_apply_and_apply_batch_fold_the_same_history(self):
        sigma = churn_sequence(16, 80, np.random.default_rng(6))
        events = list(sigma)
        runs = {}
        for path in PATHS:
            kernel = _kernel(16)
            history, decisions = _history(kernel, events, path, chunk=16)
            runs[path] = (history.placement_intervals(), history.series, kernel)
        intervals, series, kernel = runs["apply"]
        assert runs["loop"][0] == intervals
        assert runs["loop"][1] == series
        assert series.times == [float(e.time) for e in events]
        assert series.peak == kernel.metrics.max_load
        report = audit_run(kernel.machine, sigma, intervals)
        assert report.ok, report.violations
        assert report.max_load == kernel.metrics.max_load


#: sha256 of the intervals and series that the kernel's own placement log
#: produced for ``_churn_scenario()`` before history left the kernel.
PINNED = {
    "greedy": "1d4bc378ed2e4bf9936002d3e39650be03c3d91385f610d2e2360a75893b1ac8",
    "periodic": "6f58aa6b3640f3c39fc62f1515e0a4ffce5b7c3d383085de22f02f5d10580a1b",
}


def _churn_scenario():
    return ChurnProcess(
        num_pes=16, seed=3, horizon=40.0, task_rate=1.2, pe_mttf=12.0,
        mttr=3.0, kill_rate=0.1,
        resizes=((10.0, "grow", 2), (25.0, "shrink", 2)),
    ).build()


def _pin(intervals, series) -> str:
    payload = {
        "intervals": {
            str(int(t)): [[float(a), float(b), int(n)] for a, b, n in segs]
            for t, segs in sorted(intervals.items())
        },
        "series": [[float(t) for t in series.times], list(series.max_loads)],
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class TestFaultsKillsResizes:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_history_matches_the_pin_on_every_path(self, name):
        scenario = _churn_scenario()
        events = list(scenario.merged_events())
        kinds = {getattr(e, "kind", None) for e in events}
        assert {"failure", "repair", "kill", "resize"} <= {
            getattr(k, "value", k) for k in kinds
        }
        result = run_scenario(scenario, name, d=1.0, seed=0)
        assert _pin(result.intervals, result.series) == PINNED[name]
        for path in ("apply", "loop"):
            machine = TreeMachine(scenario.num_pes)
            inner = make_algorithm(name, machine, d=1.0, seed=0)
            wrapper = FaultTolerantAlgorithm(machine, inner, machine.degraded_view())
            kernel = AllocationKernel(machine, wrapper, view=wrapper.view)
            history, decisions = _history(kernel, events, path, chunk=7)
            assert any(d.kind == "resize" and d.moves for d in decisions)
            assert _pin(history.placement_intervals(), history.series) == PINNED[name]
