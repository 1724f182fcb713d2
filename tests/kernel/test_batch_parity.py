"""``apply_batch`` is the per-event path run in a loop, not a fork.

Every test here pits batched ingest against per-event ``apply`` on the
same event stream and demands strict bit-identity: decision tuples,
metrics series, peak snapshots, state digests, error types and messages,
even where mid-batch failures stop.  Batches run at several lengths,
across all six machine topologies, under fault plans and online resizes,
and through ``snapshot()``/``restore()`` cycles.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.greedy import GreedyAlgorithm
from repro.core.registry import make_algorithm
from repro.errors import (
    BatchError,
    InvalidMachineError,
    SimulationError,
)
from repro.faults.plan import generate_fault_plan, merge_events
from repro.faults.salvage import FaultTolerantAlgorithm
from repro.kernel import AllocationKernel
from repro.kernel.decision import BatchDecision
from repro.machines.butterfly import Butterfly
from repro.machines.fattree import FatTree
from repro.machines.hypercube import Hypercube
from repro.machines.mesh import Mesh2D
from repro.machines.tree import TreeMachine
from repro.scenarios import MachineResize
from repro.tasks.events import Arrival, Departure
from repro.tasks.sequence import TaskSequence
from repro.tasks.task import Task
from repro.types import TaskId
from repro.verify.backends import check_churn_backend_parity
from repro.verify.corpus import load_corpus
from repro.verify.fuzzer import SequenceFuzzer
from repro.workloads.generators import churn_sequence

N = 32

#: Two short batch lengths, plus the CLI default.
BATCH_LENGTHS = (7, 8, 256)

#: All six CLI topologies at a size every one of them accepts (Mesh2D
#: needs a 4**k PE count).
TOPOLOGIES = {
    "tree": TreeMachine,
    "fattree": lambda n: FatTree(n, fatness=2.0),
    "hypercube": Hypercube,
    "hypercube-gray": lambda n: Hypercube(n, layout="gray"),
    "butterfly": Butterfly,
    "mesh": Mesh2D,
}
TOPOLOGY_N = 16


def _digest(state) -> str:
    return hashlib.sha256(
        json.dumps(state, sort_keys=True, default=repr).encode()
    ).hexdigest()


def _kernel(machine=None, *, n: int = N):
    machine = machine if machine is not None else TreeMachine(n)
    algo = make_algorithm("greedy", machine, d=1)
    return AllocationKernel(machine, algo)


def _fault_kernel(n: int = N):
    machine = TreeMachine(n)
    algo = make_algorithm("greedy", machine, d=1)
    wrapper = FaultTolerantAlgorithm(machine, algo, machine.degraded_view())
    return AllocationKernel(machine, wrapper, view=wrapper.view)


class _ResizableGreedy(GreedyAlgorithm):
    """Greedy that takes a grow as a pure renumbering (no repack), so a
    grown kernel keeps placing by the same rule."""

    def on_resize(self, machine, view):
        self.machine = machine
        return None


def _grown_kernel(events):
    """A greedy kernel fed ``events`` one by one, then grown 2x online."""
    machine = TreeMachine(N)
    kernel = AllocationKernel(
        machine, _ResizableGreedy(machine), view=machine.degraded_view()
    )
    for e in events:
        kernel.apply(e)
    kernel.apply(MachineResize(events[-1].time, "grow", 2))
    assert kernel.machine.num_pes == 2 * N
    return kernel


def _random_splits(num_events: int, rng) -> list[slice]:
    cuts = [0]
    while cuts[-1] < num_events:
        cuts.append(cuts[-1] + int(rng.integers(1, 24)))
    cuts[-1] = num_events
    return [slice(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]


def _fixed_splits(num_events: int, length: int) -> list[slice]:
    return [slice(a, a + length) for a in range(0, num_events, length)]


def _assert_same_state(batched: AllocationKernel, oracle: AllocationKernel):
    assert _digest(batched.snapshot()) == _digest(oracle.snapshot())
    # The max-load series is the decisions' (compared by every caller);
    # the kernel keeps only its running peak.
    assert batched.metrics.max_load == oracle.metrics.max_load
    assert batched.metrics.events_processed == oracle.metrics.events_processed
    a, b = batched.metrics.peak_snapshot, oracle.metrics.peak_snapshot
    assert (a is None) == (b is None)
    if a is not None:
        assert np.array_equal(a, b)
        assert (
            batched.metrics.peak_snapshot_time == oracle.metrics.peak_snapshot_time
        )
    batched.check_consistency()


def _run_pair(events, splits, make_kernel=_kernel):
    """Per-event oracle vs a batched run over ``splits``; full diff."""
    oracle = make_kernel()
    expected = [oracle.apply(e) for e in events]
    batched = make_kernel()
    got = []
    for sl in splits:
        got.extend(batched.apply_batch(events[sl]).decisions)
    assert got == expected
    _assert_same_state(batched, oracle)
    return batched, oracle


# -- Bit-identity across topologies and workloads -----------------------------


class TestBatchParity:
    @pytest.mark.parametrize("batch", BATCH_LENGTHS, ids=lambda b: f"batch{b}")
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_all_topologies(self, topology, batch):
        events = list(churn_sequence(TOPOLOGY_N, 120, np.random.default_rng(7)))
        factory = TOPOLOGIES[topology]
        _run_pair(
            events,
            _fixed_splits(len(events), batch),
            lambda: _kernel(factory(TOPOLOGY_N), n=TOPOLOGY_N),
        )

    def test_fuzzed_sequences_random_splits(self):
        fuzzer = SequenceFuzzer(N, seed=23)
        rng = np.random.default_rng(23)
        for _ in range(6):
            events = list(fuzzer.generate())
            _run_pair(events, _random_splits(len(events), rng))

    def test_same_size_arrival_bursts(self):
        # Waves of 12 consecutive same-size arrivals; departures
        # interleave as the waves drain.
        tasks = []
        tid = 0
        t = 0.0
        for size in (2, 4, 2, 1):
            for _ in range(12):
                tasks.append(
                    Task(TaskId(tid), size, t, t + 3.0 + (tid % 5))
                )
                tid += 1
                t += 0.125
            t += 1.0
        events = list(TaskSequence.from_tasks(tasks))
        assert len(events) == 2 * 4 * 12
        rng = np.random.default_rng(3)
        _run_pair(events, _random_splits(len(events), rng))
        # Whole stream as one batch, too.
        _run_pair(events, [slice(0, len(events))])

    def test_fault_plan_batches_match_per_event(self):
        # Failures, repairs and kills inside a batch meter exactly as
        # they do one by one.
        rng = np.random.default_rng(5)
        for seed in range(3):
            sigma = churn_sequence(N, 50, np.random.default_rng(seed))
            plan = generate_fault_plan(N, sigma, np.random.default_rng(seed))
            events = merge_events(sigma, plan)
            _run_pair(events, _random_splits(len(events), rng), _fault_kernel)

    def test_resize_bearing_batch_matches_per_event(self):
        # A batch carrying an online grow or shrink stays bit-identical
        # to per-event apply end to end.
        from repro.scenarios import ChurnProcess

        rng = np.random.default_rng(17)
        scenario = ChurnProcess(
            num_pes=N, seed=13, horizon=25.0, task_rate=1.5,
            pe_mttf=10.0, mttr=2.0, storm_rate=0.2, storm_depth=5,
            resizes=((9.0, "grow", 2), (18.0, "shrink", 2)),
        ).build()
        events = list(scenario.merged_events())
        assert any(type(e).__name__ == "MachineResize" for e in events)
        batched, oracle = _run_pair(
            events, _random_splits(len(events), rng), _fault_kernel
        )
        assert batched.machine.num_pes == oracle.machine.num_pes == N

    def test_snapshot_restore_mid_stream(self):
        events = list(churn_sequence(N, 100, np.random.default_rng(41)))
        half = len(events) // 2
        oracle = _kernel()
        expected_first = [oracle.apply(e) for e in events[:half]]
        mid_digest = _digest(oracle.snapshot())

        first = _kernel()
        decisions = list(first.apply_batch(events[:half]).decisions)
        assert decisions == expected_first
        state = first.snapshot()
        assert _digest(state) == mid_digest

        # The snapshot of a batched kernel restores into a fresh one
        # exactly (the session layer's resume contract digest-verifies
        # this).
        resumed = AllocationKernel(TreeMachine(N))
        resumed.restore(state)
        assert _digest(resumed.snapshot()) == mid_digest
        resumed.check_consistency()

        # Taking the snapshot must not perturb the kernel: it keeps
        # streaming and stays bit-identical.
        expected_rest = [oracle.apply(e) for e in events[half:]]
        got_rest = list(first.apply_batch(events[half:]).decisions)
        assert got_rest == expected_rest
        _assert_same_state(first, oracle)

        # A snapshot taken after a grow restores onto a kernel built for
        # the original machine by adopting the grown one, and the next
        # batch still matches per-event apply.
        grown_state = _grown_kernel(events[:half]).snapshot()
        adopted = [_kernel(), _kernel()]
        for kernel in adopted:
            kernel.restore(grown_state)
            kernel.algorithm.machine = kernel.machine
        oracle, batched = adopted
        assert batched.machine.num_pes == 2 * N
        expected_rest = [oracle.apply(e) for e in events[half:]]
        assert list(batched.apply_batch(events[half:]).decisions) == expected_rest
        _assert_same_state(batched, oracle)

    def test_peak_snapshot_rises_inside_one_batch(self):
        # Whole-machine arrivals raise the max load one by one, with
        # smaller arrivals and departures between them: the first batch
        # opens the run and holds several strict peak rises, the second
        # holds the rest.  The last rise's snapshot must be the per-event
        # path's.
        tasks = []
        t = 0.0
        for i in range(6):
            tasks.append(Task(TaskId(2 * i), N, t, 100.0))
            tasks.append(Task(TaskId(2 * i + 1), 1 << (i % 4), t + 0.25, t + 0.75))
            t += 1.0
        events = list(TaskSequence.from_tasks(tasks))
        oracle = _kernel()
        loads = [oracle.apply(e).max_load for e in events]
        rises = [i for i, v in enumerate(loads) if i == 0 or v > max(loads[:i])]
        first = len(events) // 2
        assert rises[0] == 0
        assert sum(i < first for i in rises) >= 3
        assert sum(i >= first for i in rises) >= 2
        _run_pair(events, [slice(0, first), slice(first, len(events))])
        # The whole stream as one batch, too.
        _run_pair(events, [slice(0, len(events))])

    def test_mid_batch_failure_leaves_prefix_state(self):
        events = list(churn_sequence(N, 60, np.random.default_rng(2)))
        k = len(events) // 2
        # Poison: a duplicate arrival of a task still active at index k
        # (arrived in the prefix, departs in the suffix).
        departed_early = {
            e.task_id for e in events[:k] if isinstance(e, Departure)
        }
        victim = next(
            e.task
            for e in events[:k]
            if isinstance(e, Arrival) and e.task_id not in departed_early
        )
        bad = Arrival(events[k].time, victim)
        batch = events[:k] + [bad] + events[k:]

        oracle = _kernel()
        for e in events[:k]:
            oracle.apply(e)
        with pytest.raises(SimulationError) as oracle_err:
            oracle.apply(bad)
        batched = _kernel()
        with pytest.raises(BatchError) as batch_err:
            batched.apply_batch(batch)

        assert str(batch_err.value) == (
            f"batch event {k} failed: {oracle_err.value}"
        )
        assert str(batch_err.value.__cause__) == str(oracle_err.value)
        assert batch_err.value.applied == k
        assert len(batch_err.value.decisions) == k
        _assert_same_state(batched, oracle)
        # The kernel remains usable after the failed batch.
        tail = events[k:]
        expected_tail = [oracle.apply(e) for e in tail]
        assert list(batched.apply_batch(tail).decisions) == expected_tail
        _assert_same_state(batched, oracle)

    def test_error_semantics_match(self):
        # Each poisoned batch opens with healthy arrivals, then runs
        # through apply_batch and one apply per event: the batch error
        # wraps the per-event error, with the same cause and prefix.
        pad = list(
            TaskSequence.from_tasks(
                [Task(TaskId(100 + i), 1, -1.0 + 0.01 * i, 50.0) for i in range(8)]
            )
        )[:8]
        assert all(isinstance(e, Arrival) for e in pad)
        cases = []

        # Duplicate arrival.
        seq = TaskSequence.from_tasks(
            [Task(TaskId(1), 2, 0.0, 10.0), Task(TaskId(2), 2, 1.0, 11.0)]
        )
        arrivals = [e for e in seq if isinstance(e, Arrival)]
        cases.append(
            (arrivals + [arrivals[0]], SimulationError, "duplicate arrival")
        )

        # Departure of a task nobody placed.
        lone = TaskSequence.from_tasks([Task(TaskId(7), 1, 0.0, 5.0)])
        departures = [e for e in lone if isinstance(e, Departure)]
        cases.append((departures, SimulationError, "unknown task"))

        # Oversized task (> N): rejected by machine validation.
        big = TaskSequence.from_tasks([Task(TaskId(9), 2 * N, 0.0, 5.0)])
        cases.append(([list(big)[0]], InvalidMachineError, ""))

        for tail, exc_type, needle in cases:
            batch = pad + tail
            oracle = _kernel()
            expected = [oracle.apply(e) for e in batch[:-1]]
            with pytest.raises(exc_type) as per_event:
                oracle.apply(batch[-1])
            batched = _kernel()
            with pytest.raises(BatchError) as err:
                batched.apply_batch(batch)
            assert str(err.value) == (
                f"batch event {len(batch) - 1} failed: {per_event.value}"
            )
            assert needle in str(err.value)
            assert err.value.applied == len(batch) - 1
            assert type(err.value.__cause__) is type(per_event.value)
            assert list(err.value.decisions) == expected
            _assert_same_state(batched, oracle)

    def test_corpus_replay(self, corpus_dir):
        entries = [e for e in load_corpus(corpus_dir) if not e.fault_events]
        assert entries, "committed regression corpus is missing"
        for entry in entries:

            def make_kernel():
                machine = TreeMachine(entry.num_pes)
                algorithm = make_algorithm(
                    entry.algorithm, machine, d=entry.d, seed=entry.seed
                )
                return AllocationKernel(machine, algorithm)

            events = list(entry.sequence())
            _run_pair(events, _fixed_splits(len(events), 64), make_kernel)


@pytest.fixture(scope="session")
def corpus_dir():
    from pathlib import Path

    return Path(__file__).resolve().parents[1] / "corpus"


# -- The harness referee ------------------------------------------------------


class TestHarnessAxis:
    def test_divergence_is_reported(self):
        # Diff a batched run against a per-event run of a shorter stream:
        # the referee must name the decision and state divergence.
        from repro.verify.backends import _diff, _run

        events = list(churn_sequence(16, 30, np.random.default_rng(4)))
        batched = _run("greedy", 2.0, 1, 16, events, 16)
        reference = _run("greedy", 2.0, 1, 16, events[:-1], None)
        violations = _diff(batched, reference)
        assert any("decision streams diverge" in v for v in violations)
        assert any("digests differ" in v for v in violations)
        assert any("series differ" in v for v in violations)

    def test_churn_referee_catches_a_skipped_metrics_flush(self, monkeypatch):
        # A batch path that applies the last event of each batch without
        # metering it must fail the churn referee, which the per-event
        # path never touches.
        from repro.scenarios import ChurnProcess

        scenario = ChurnProcess(
            num_pes=16, seed=11, horizon=30.0, task_rate=1.2,
            pe_mttf=10.0, mttr=2.5, kill_rate=0.1,
        ).build()
        assert check_churn_backend_parity("greedy", 2.0, 0, scenario) == []
        real = AllocationKernel.apply_batch

        def lossy(self, events):
            head = real(self, events[:-1]).decisions
            last = self._dispatch(events[-1])  # applied, never metered
            return BatchDecision.summarize(
                head + (last,),
                max_load=self.current_max_load,
                active_size=self.active_size(),
                optimal_load=self.optimal_load,
            )

        monkeypatch.setattr(AllocationKernel, "apply_batch", lossy)
        violations = check_churn_backend_parity("greedy", 2.0, 0, scenario)
        assert any("digests differ" in v for v in violations)
