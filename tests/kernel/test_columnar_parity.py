"""Columnar backends are an *encoding* of the per-event path, not a fork.

Every test here pits a columnar-backend kernel against the per-event
oracle kernel on the same event stream and demands strict bit-identity:
decision tuples, metrics series, peak snapshots, state digests, error
types and messages, even where mid-batch failures stop.  The suite runs
for every columnar backend (``numpy``), across all six machine topologies, under fault plans (where the engine must fall
back, not misbehave), and through ``snapshot()``/``restore()`` cycles.
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
from repro.kernel.columnar import (
    BACKENDS,
    RUN_MIN,
    resolve_backend,
)
from repro.machines.butterfly import Butterfly
from repro.machines.fattree import FatTree
from repro.machines.hypercube import Hypercube
from repro.machines.mesh import Mesh2D
from repro.machines.tree import TreeMachine
from repro.tasks.events import Arrival, Departure
from repro.tasks.sequence import TaskSequence
from repro.tasks.task import Task
from repro.types import TaskId
from repro.verify.backends import check_backend_parity
from repro.verify.corpus import load_corpus
from repro.verify.fuzzer import SequenceFuzzer
from repro.workloads.generators import churn_sequence

N = 32

#: Backends under test: everything except the per-event oracle.
COLUMNAR = [b for b in BACKENDS if b != "python"]

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


def _kernel(backend: str, machine=None, *, n: int = N):
    machine = machine if machine is not None else TreeMachine(n)
    algo = make_algorithm("greedy", machine, d=1)
    return AllocationKernel(machine, algo, batch_backend=backend)


def _random_splits(num_events: int, rng) -> list[slice]:
    cuts = [0]
    while cuts[-1] < num_events:
        cuts.append(cuts[-1] + int(rng.integers(1, 24)))
    cuts[-1] = num_events
    return [slice(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]


def _assert_same_state(columnar: AllocationKernel, oracle: AllocationKernel):
    assert _digest(columnar.snapshot()) == _digest(oracle.snapshot())
    assert columnar.metrics.series.times == oracle.metrics.series.times
    assert columnar.metrics.series.max_loads == oracle.metrics.series.max_loads
    assert columnar.metrics.events_processed == oracle.metrics.events_processed
    a, b = columnar.metrics.peak_snapshot, oracle.metrics.peak_snapshot
    assert (a is None) == (b is None)
    if a is not None:
        assert np.array_equal(a, b)
        assert (
            columnar.metrics.peak_snapshot_time == oracle.metrics.peak_snapshot_time
        )
    columnar.check_consistency()


def _run_pair(backend, events, rng, machine_factory=TreeMachine, *, n: int = N):
    """Per-event oracle vs random-split batched columnar run; full diff."""
    oracle = _kernel("python", machine_factory(n), n=n)
    expected = [oracle.apply(e) for e in events]
    columnar = _kernel(backend, machine_factory(n), n=n)
    got = []
    for sl in _random_splits(len(events), rng):
        got.extend(columnar.apply_batch(events[sl]).decisions)
    assert got == expected
    _assert_same_state(columnar, oracle)


# -- Backend registry ---------------------------------------------------------


class TestBackendRegistry:
    def test_available_is_subset_of_known(self):
        assert BACKENDS == ("python", "numpy")
        assert all(resolve_backend(name) == name for name in BACKENDS)

    def test_unknown_backend_rejected(self):
        with pytest.raises(SimulationError, match="unknown batch backend"):
            resolve_backend("fortran")

    def test_numba_backend_gated_on_import(self):
        # The numba backend was deleted: the name is now simply unknown.
        with pytest.raises(SimulationError, match="unknown batch backend"):
            resolve_backend("numba")

    def test_python_backend_has_no_engine(self):
        kernel = _kernel("python")
        assert kernel._columnar is None


# -- Bit-identity across topologies and workloads -----------------------------


@pytest.mark.parametrize("backend", COLUMNAR)
class TestColumnarParity:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_all_topologies(self, backend, topology):
        rng = np.random.default_rng(13)
        events = list(churn_sequence(TOPOLOGY_N, 120, np.random.default_rng(7)))
        _run_pair(backend, events, rng, TOPOLOGIES[topology], n=TOPOLOGY_N)

    def test_fuzzed_sequences_random_splits(self, backend):
        fuzzer = SequenceFuzzer(N, seed=23)
        rng = np.random.default_rng(23)
        for _ in range(6):
            _run_pair(backend, list(fuzzer.generate()), rng)

    def test_same_size_bursts_hit_the_run_path(self, backend):
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
        _run_pair(backend, events, rng)
        # Whole stream as one batch, too: maximal run lengths.
        oracle = _kernel("python")
        expected = [oracle.apply(e) for e in events]
        whole = _kernel(backend)
        assert list(whole.apply_batch(events).decisions) == expected
        _assert_same_state(whole, oracle)

    def test_fault_plan_falls_back_bit_identically(self, backend):
        # A kernel with a degraded view never takes the columnar path,
        # but constructing it with a columnar backend must stay exact.
        rng = np.random.default_rng(5)
        for seed in range(3):
            sigma = churn_sequence(N, 50, np.random.default_rng(seed))
            plan = generate_fault_plan(N, sigma, np.random.default_rng(seed))
            events = merge_events(sigma, plan)

            def fault_kernel(backend_name):
                machine = TreeMachine(N)
                algo = make_algorithm("greedy", machine, d=1)
                wrapper = FaultTolerantAlgorithm(
                    machine, algo, machine.degraded_view()
                )
                return AllocationKernel(
                    machine, wrapper, view=wrapper.view, batch_backend=backend_name
                )

            oracle = fault_kernel("python")
            expected = [oracle.apply(e) for e in events]
            columnar = fault_kernel(backend)
            got = []
            for sl in _random_splits(len(events), rng):
                got.extend(columnar.apply_batch(events[sl]).decisions)
            assert got == expected
            _assert_same_state(columnar, oracle)

    def test_resize_bearing_batch_falls_back_bit_identically(self, backend):
        # Online grow/shrink is outside the columnar alphabet: a batch
        # carrying a resize must be declined to the per-event path, not
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

        def churn_kernel(backend_name):
            machine = TreeMachine(N)
            algo = make_algorithm("greedy", machine, d=1)
            wrapper = FaultTolerantAlgorithm(
                machine, algo, machine.degraded_view()
            )
            return AllocationKernel(
                machine, wrapper, view=wrapper.view, batch_backend=backend_name
            )

        oracle = churn_kernel("python")
        expected = [oracle.apply(e) for e in events]
        columnar = churn_kernel(backend)
        got = []
        for sl in _random_splits(len(events), rng):
            got.extend(columnar.apply_batch(events[sl]).decisions)
        assert got == expected
        assert columnar.machine.num_pes == oracle.machine.num_pes == N
        _assert_same_state(columnar, oracle)

    def test_snapshot_restore_mid_stream(self, backend):
        events = list(churn_sequence(N, 100, np.random.default_rng(41)))
        half = len(events) // 2
        oracle = _kernel("python")
        expected_first = [oracle.apply(e) for e in events[:half]]
        mid_digest = _digest(oracle.snapshot())

        first = _kernel(backend)
        decisions = list(first.apply_batch(events[:half]).decisions)
        assert decisions == expected_first
        state = first.snapshot()
        assert _digest(state) == mid_digest

        # The backend is engine configuration, not kernel state: a snapshot
        # written under one backend restores under any other (the session
        # layer's resume contract digest-verifies exactly this).
        for resume_backend in ("python", backend):
            resumed = AllocationKernel(
                TreeMachine(N), batch_backend=resume_backend
            )
            resumed.restore(state)
            assert _digest(resumed.snapshot()) == mid_digest
            resumed.check_consistency()

        # Taking the snapshot must not perturb the engine: the original
        # columnar kernel keeps streaming and stays bit-identical.
        expected_rest = [oracle.apply(e) for e in events[half:]]
        got_rest = list(first.apply_batch(events[half:]).decisions)
        assert got_rest == expected_rest
        _assert_same_state(first, oracle)

    def test_mid_batch_failure_leaves_prefix_state(self, backend):
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

        oracle = _kernel("python")
        with pytest.raises(BatchError) as oracle_err:
            oracle.apply_batch(batch)
        columnar = _kernel(backend)
        with pytest.raises(BatchError) as columnar_err:
            columnar.apply_batch(batch)

        assert str(columnar_err.value) == str(oracle_err.value)
        assert columnar_err.value.applied == oracle_err.value.applied == k
        assert list(columnar_err.value.decisions) == list(oracle_err.value.decisions)
        _assert_same_state(columnar, oracle)
        # Both kernels remain usable after the failed batch.
        tail = events[k:]
        expected_tail = [oracle.apply(e) for e in tail]
        got_tail = list(columnar.apply_batch(tail).decisions)
        assert got_tail == expected_tail
        _assert_same_state(columnar, oracle)

    def test_error_semantics_match(self, backend):
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

        for batch, exc_type, needle in cases:
            oracle = _kernel("python")
            with pytest.raises(BatchError) as a:
                oracle.apply_batch(batch)
            columnar = _kernel(backend)
            with pytest.raises(BatchError) as b:
                columnar.apply_batch(batch)
            assert str(a.value) == str(b.value)
            assert needle in str(b.value)
            assert isinstance(a.value.__cause__, exc_type)
            assert type(b.value.__cause__) is type(a.value.__cause__)
            _assert_same_state(columnar, oracle)

    def test_corpus_replay(self, backend, corpus_dir):
        entries = [e for e in load_corpus(corpus_dir) if not e.fault_events]
        assert entries, "committed regression corpus is missing"
        for entry in entries:
            violations = check_backend_parity(
                entry.algorithm,
                entry.num_pes,
                entry.d,
                entry.seed,
                entry.sequence(),
                backends=("python", backend),
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

    def test_single_backend_short_circuits(self):
        sigma = churn_sequence(16, 10, np.random.default_rng(1))
        assert (
            check_backend_parity("greedy", 16, 2.0, 1, sigma, backends=("python",))
            == []
        )

    def test_divergence_is_reported(self):
        # A non-columnar "backend" pair would be vacuous; instead check the
        # diff logic itself by comparing against a different algorithm seed
        # through the private runner.
        from repro.verify.backends import _run_backend

        sigma = churn_sequence(16, 30, np.random.default_rng(4))
        events = list(sigma)
        a = _run_backend("python", "greedy", 16, 2.0, 1, events, 16)
        b = _run_backend("numpy", "greedy", 16, 2.0, 1, events, 16)
        assert a.decisions == b.decisions
        assert a.digest == b.digest
        assert a.series == b.series
