"""The columnar engine is an *encoding* of the per-event path, not a fork.

Every test here pits batched ingest against per-event ``apply`` on the
same event stream and demands strict bit-identity: decision tuples,
metrics series, peak snapshots, state digests, error types and messages,
even where mid-batch failures stop.  Batches run at lengths on both sides
of ``_COLUMNAR_MIN_BATCH`` (so both the engine and the per-event batch
loop are exercised), across all six machine topologies, under fault plans
(where the engine must decline, not misbehave), and through
``snapshot()``/``restore()`` cycles.  A spy pins which batches the kernel
offers the engine.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.registry import make_algorithm
from repro.errors import (
    BatchError,
    InvalidMachineError,
    SimulationError,
)
from repro.faults.plan import generate_fault_plan, merge_events
from repro.faults.salvage import FaultTolerantAlgorithm
from repro.kernel import AllocationKernel
from repro.kernel.columnar import _COLUMNAR_MIN_BATCH, RUN_MIN, ColumnarEngine
from repro.machines.butterfly import Butterfly
from repro.machines.fattree import FatTree
from repro.machines.hypercube import Hypercube
from repro.machines.mesh import Mesh2D
from repro.machines.tree import TreeMachine
from repro.sim.metrics import MetricsCollector
from repro.tasks.events import Arrival, Departure
from repro.tasks.sequence import TaskSequence
from repro.tasks.task import Task
from repro.types import TaskId
from repro.verify.backends import check_backend_parity, check_churn_backend_parity
from repro.verify.corpus import load_corpus
from repro.verify.fuzzer import SequenceFuzzer
from repro.workloads.generators import churn_sequence

N = 32

#: Batch lengths straddling the engine threshold, plus the CLI default.
BATCH_LENGTHS = (_COLUMNAR_MIN_BATCH - 1, _COLUMNAR_MIN_BATCH, 256)

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


@pytest.fixture
def engine_spy(monkeypatch):
    """Record ``(batch length, absorbed?)`` for every batch the engine sees."""
    seen: list[tuple[int, bool]] = []
    real = ColumnarEngine.try_apply_batch

    def spy(self, events):
        summary = real(self, events)
        seen.append((len(events), summary is not None))
        return summary

    monkeypatch.setattr(ColumnarEngine, "try_apply_batch", spy)
    return seen


# -- Which batches reach the engine -------------------------------------------


class TestBatchRouting:
    def test_engine_sees_only_batches_at_or_above_threshold(self, engine_spy):
        events = list(churn_sequence(N, 400, np.random.default_rng(29)))
        lengths = [1, _COLUMNAR_MIN_BATCH - 1, _COLUMNAR_MIN_BATCH, 2, 64, 256]
        splits, start = [], 0
        for length in lengths:
            splits.append(slice(start, start + length))
            start += length
        assert start <= len(events)
        _run_pair(events[:start], splits)
        offered = [length for length, _ in engine_spy]
        assert offered == [n for n in lengths if n >= _COLUMNAR_MIN_BATCH]
        # Greedy on a healthy machine: every offered batch is absorbed.
        assert all(absorbed for _, absorbed in engine_spy)

    def test_degraded_view_batches_are_declined(self, engine_spy):
        sigma = churn_sequence(N, 40, np.random.default_rng(8))
        plan = generate_fault_plan(N, sigma, np.random.default_rng(8))
        events = merge_events(sigma, plan)
        _run_pair(events, _fixed_splits(len(events), 64), _fault_kernel)
        assert engine_spy and not any(absorbed for _, absorbed in engine_spy)

    def test_engine_rebound_after_resize(self):
        from repro.scenarios import MachineResize

        kernel = _fault_kernel()
        kernel.apply(MachineResize(0.0, "grow", 2))
        assert kernel.machine.num_pes == 2 * N
        assert kernel._columnar.kernel is kernel
        assert max(kernel._columnar._valid_sizes) == 2 * N


# -- Bit-identity across topologies and workloads -----------------------------


class TestColumnarParity:
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

    def test_same_size_bursts_hit_the_run_path(self):
        # Bursts of >= RUN_MIN same-class arrivals engage the vectorised
        # waterfill; interleaved departures break them back to singletons.
        tasks = []
        tid = 0
        t = 0.0
        for wave, size in enumerate((2, 4, 2, 1)):
            for _ in range(RUN_MIN + 4):
                tasks.append(
                    Task(TaskId(tid), size, t, t + 3.0 + (tid % 5))
                )
                tid += 1
                t += 0.125
            t += 1.0
        events = list(TaskSequence.from_tasks(tasks))
        assert len(events) >= 2 * (RUN_MIN + 4)
        rng = np.random.default_rng(3)
        _run_pair(events, _random_splits(len(events), rng))
        # Whole stream as one batch, too: maximal run lengths.
        _run_pair(events, [slice(0, len(events))])

    def test_fault_plan_falls_back_bit_identically(self):
        # A kernel with a degraded view never takes the columnar path; its
        # batch loop must still match per-event apply exactly.
        rng = np.random.default_rng(5)
        for seed in range(3):
            sigma = churn_sequence(N, 50, np.random.default_rng(seed))
            plan = generate_fault_plan(N, sigma, np.random.default_rng(seed))
            events = merge_events(sigma, plan)
            _run_pair(events, _random_splits(len(events), rng), _fault_kernel)

    def test_resize_bearing_batch_falls_back_bit_identically(self):
        # Online grow/shrink is outside the columnar alphabet: a batch
        # carrying a resize must be declined to the per-event loop, not
        # silently mis-absorbed — and stay bit-identical end to end.
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

        # Which path ran a batch is not kernel state: the snapshot of a
        # batched kernel restores into a fresh one exactly (the session
        # layer's resume contract digest-verifies this).
        resumed = AllocationKernel(TreeMachine(N))
        resumed.restore(state)
        assert _digest(resumed.snapshot()) == mid_digest
        resumed.check_consistency()

        # Taking the snapshot must not perturb the engine: the original
        # kernel keeps streaming and stays bit-identical.
        expected_rest = [oracle.apply(e) for e in events[half:]]
        got_rest = list(first.apply_batch(events[half:]).decisions)
        assert got_rest == expected_rest
        _assert_same_state(first, oracle)

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
        loop = _kernel()
        with pytest.raises(BatchError) as loop_err:
            loop._apply_batch_loop(batch)
        engine = _kernel()
        with pytest.raises(BatchError) as engine_err:
            engine._columnar.try_apply_batch(batch)

        assert str(engine_err.value) == str(loop_err.value)
        assert str(engine_err.value.__cause__) == str(oracle_err.value)
        assert engine_err.value.applied == loop_err.value.applied == k
        assert list(engine_err.value.decisions) == list(loop_err.value.decisions)
        _assert_same_state(engine, oracle)
        _assert_same_state(loop, oracle)
        # Every kernel remains usable after the failed batch.
        tail = events[k:]
        expected_tail = [oracle.apply(e) for e in tail]
        assert list(engine.apply_batch(tail).decisions) == expected_tail
        assert list(loop.apply_batch(tail).decisions) == expected_tail
        _assert_same_state(engine, oracle)

    def test_error_semantics_match(self):
        # Each poisoned batch is padded with healthy arrivals up to the
        # engine threshold, then run by the engine directly and by the
        # per-event batch loop: same error text, cause type and prefix.
        pad = list(
            TaskSequence.from_tasks(
                [
                    Task(TaskId(100 + i), 1, -1.0 + 0.01 * i, 50.0)
                    for i in range(_COLUMNAR_MIN_BATCH)
                ]
            )
        )[:_COLUMNAR_MIN_BATCH]
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
            loop = _kernel()
            with pytest.raises(BatchError) as a:
                loop._apply_batch_loop(batch)
            engine = _kernel()
            with pytest.raises(BatchError) as b:
                engine._columnar.try_apply_batch(batch)
            assert str(a.value) == str(b.value)
            assert needle in str(b.value)
            assert b.value.applied == a.value.applied == len(batch) - 1
            assert isinstance(a.value.__cause__, exc_type)
            assert type(b.value.__cause__) is type(a.value.__cause__)
            assert list(b.value.decisions) == list(a.value.decisions)
            _assert_same_state(engine, loop)

    def test_corpus_replay(self, corpus_dir):
        entries = [e for e in load_corpus(corpus_dir) if not e.fault_events]
        assert entries, "committed regression corpus is missing"
        for entry in entries:
            violations = check_backend_parity(
                entry.algorithm,
                entry.num_pes,
                entry.d,
                entry.seed,
                entry.sequence(),
            )
            assert violations == []


@pytest.fixture(scope="session")
def corpus_dir():
    from pathlib import Path

    return Path(__file__).resolve().parents[1] / "corpus"


# -- The harness referee ------------------------------------------------------


class TestHarnessAxis:
    def test_check_backend_parity_clean_run(self):
        sigma = churn_sequence(64, 80, np.random.default_rng(19))
        assert check_backend_parity("greedy", 64, 2.0, 1, sigma) == []

    def test_divergence_is_reported(self):
        # Diff a batched run against a per-event run of a shorter stream:
        # the referee must name the decision and state divergence.
        from repro.verify.backends import _diff, _run

        events = list(churn_sequence(16, 30, np.random.default_rng(4)))
        batched = _run("greedy", 16, 2.0, 1, events, 16)
        reference = _run("greedy", 16, 2.0, 1, events[:-1], None)
        violations = _diff(batched, reference)
        assert any("decision streams diverge" in v for v in violations)
        assert any("digests differ" in v for v in violations)
        assert any("series differ" in v for v in violations)

    def test_churn_referee_catches_a_skipped_metrics_flush(self, monkeypatch):
        # A batch path that drops the last event of each metrics flush must
        # fail the churn referee, which the per-event path never touches.
        from repro.scenarios import ChurnProcess

        scenario = ChurnProcess(
            num_pes=16, seed=11, horizon=30.0, task_rate=1.2,
            pe_mttf=10.0, mttr=2.5, kill_rate=0.1,
        ).build()
        assert check_churn_backend_parity("greedy", 2.0, 0, scenario) == []
        real = MetricsCollector.observe_batch

        def lossy(self, count, *args):
            real(self, count - 1, *args)

        monkeypatch.setattr(MetricsCollector, "observe_batch", lossy)
        violations = check_churn_backend_parity("greedy", 2.0, 0, scenario)
        assert any("digests differ" in v for v in violations)
