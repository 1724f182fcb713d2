"""``apply_batch`` is an amortisation of ``apply``, not a different path.

The contract under test: for ANY split of ANY event sequence into
batches, the batched kernel ends bit-identical to the per-event kernel —
same per-event decisions, same metrics (running peak, peak snapshot, counters),
same versioned state snapshot.  Fuzzer-generated sequences and generated
fault plans feed the property; a mid-batch failure must leave the kernel
exactly where the per-event path would have stopped.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.registry import make_algorithm
from repro.errors import BatchError
from repro.faults.plan import generate_fault_plan, merge_events
from repro.faults.salvage import FaultTolerantAlgorithm
from repro.kernel import AllocationKernel, BatchDecision
from repro.machines.tree import TreeMachine
from repro.verify.fuzzer import SequenceFuzzer
from repro.workloads.generators import churn_sequence, poisson_sequence

N = 16


def _digest(state) -> str:
    return hashlib.sha256(
        json.dumps(state, sort_keys=True, default=repr).encode()
    ).hexdigest()


def _make_kernel(algorithm_name: str, *, fault_tolerant: bool = False):
    machine = TreeMachine(N)
    algo = make_algorithm(algorithm_name, machine, d=1)
    if fault_tolerant:
        wrapper = FaultTolerantAlgorithm(machine, algo, machine.degraded_view())
        return AllocationKernel(machine, wrapper, view=wrapper.view)
    return AllocationKernel(machine, algo)


def _random_splits(num_events: int, rng) -> list[slice]:
    """Cut [0, num_events) into contiguous batches of random sizes."""
    cuts = [0]
    while cuts[-1] < num_events:
        cuts.append(cuts[-1] + int(rng.integers(1, 8)))
    cuts[-1] = num_events
    return [slice(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]


def _assert_same_state(batched: AllocationKernel, serial: AllocationKernel):
    assert _digest(batched.snapshot()) == _digest(serial.snapshot())
    # The max-load series is the decisions' (compared by every caller);
    # the kernel keeps only its running peak.
    assert batched.metrics.max_load == serial.metrics.max_load
    a, b = batched.metrics.peak_snapshot, serial.metrics.peak_snapshot
    assert (a is None) == (b is None)
    if a is not None:
        assert np.array_equal(a, b)
        assert batched.metrics.peak_snapshot_time == serial.metrics.peak_snapshot_time
    batched.check_consistency()


class TestBatchEquivalence:
    @pytest.mark.parametrize("algorithm", ["greedy", "periodic", "optimal"])
    def test_fuzzed_sequences_random_splits(self, algorithm):
        fuzzer = SequenceFuzzer(N, seed=11)
        rng = np.random.default_rng(11)
        for _ in range(8):
            events = list(fuzzer.generate())
            serial = _make_kernel(algorithm)
            expected = [serial.apply(e) for e in events]
            batched = _make_kernel(algorithm)
            got = []
            for sl in _random_splits(len(events), rng):
                result = batched.apply_batch(events[sl])
                assert isinstance(result, BatchDecision)
                assert result.count == sl.stop - sl.start
                got.extend(result.decisions)
            assert got == expected
            _assert_same_state(batched, serial)

    @pytest.mark.parametrize("algorithm", ["greedy", "periodic"])
    def test_under_fault_plans(self, algorithm):
        rng = np.random.default_rng(5)
        for seed in range(4):
            sigma = churn_sequence(N, 40, np.random.default_rng(seed))
            plan = generate_fault_plan(N, sigma, np.random.default_rng(seed))
            events = merge_events(sigma, plan)
            serial = _make_kernel(algorithm, fault_tolerant=True)
            expected = [serial.apply(e) for e in events]
            batched = _make_kernel(algorithm, fault_tolerant=True)
            got = []
            for sl in _random_splits(len(events), rng):
                got.extend(batched.apply_batch(events[sl]).decisions)
            assert got == expected
            _assert_same_state(batched, serial)

    def test_single_batch_and_single_event_batches(self):
        sigma = poisson_sequence(N, 60, np.random.default_rng(3))
        events = list(sigma)
        serial = _make_kernel("periodic")
        expected = [serial.apply(e) for e in events]
        whole = _make_kernel("periodic")
        assert list(whole.apply_batch(events).decisions) == expected
        _assert_same_state(whole, serial)
        singles = _make_kernel("periodic")
        got = [singles.apply_batch([e]).decisions[0] for e in events]
        assert got == expected
        _assert_same_state(singles, serial)

    def test_empty_batch_is_a_noop(self):
        kernel = _make_kernel("greedy")
        before = _digest(kernel.snapshot())
        result = kernel.apply_batch([])
        assert result.count == 0
        assert result.max_load == 0
        assert _digest(kernel.snapshot()) == before

    def test_summary_fields(self):
        sigma = poisson_sequence(N, 50, np.random.default_rng(9))
        events = list(sigma)
        kernel = _make_kernel("periodic")
        result = kernel.apply_batch(events)
        assert result.count == len(events)
        assert result.arrivals == sum(1 for d in result.decisions if d.kind == "arrival")
        assert result.departures == result.count - result.arrivals
        assert result.peak_max_load == max(d.max_load for d in result.decisions)
        assert result.max_load == result.decisions[-1].max_load
        assert result.reallocations == sum(1 for d in result.decisions if d.reallocated)
        assert result.migrations == sum(d.migrations for d in result.decisions)
        payload = result.to_dict()
        assert payload["kind"] == "batch"
        assert payload["count"] == result.count


class TestBatchFailure:
    def test_mid_batch_failure_leaves_prefix_state(self):
        sigma = poisson_sequence(N, 30, np.random.default_rng(2))
        events = list(sigma)
        # A fault event without a degraded view is rejected by dispatch.
        from repro.faults.plan import TaskKill

        bad = TaskKill(events[-1].time + 1.0, events[0].task.task_id)
        k = len(events) // 2
        batch = events[:k] + [bad] + events[k:]
        serial = _make_kernel("greedy")
        expected = [serial.apply(e) for e in events[:k]]
        batched = _make_kernel("greedy")
        with pytest.raises(BatchError) as info:
            batched.apply_batch(batch)
        assert info.value.applied == k
        assert list(info.value.decisions) == expected
        _assert_same_state(batched, serial)
        # The kernel is still usable: the remaining valid events apply.
        for e in events[k:]:
            serial.apply(e)
            batched.apply(e)
        _assert_same_state(batched, serial)
