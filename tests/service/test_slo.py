"""SLO admission-control tests: gate, queue, drain, cancel, backpressure.

The contract under test (docs/SLO.md): an arrival is admitted only when
its best placement keeps every PE in its submachine at or below the load
target; otherwise it waits in a bounded FIFO queue (head-blocking) or is
rejected with a retry hint.  Departures and repairs drain the queue in
strict FIFO order, every decision is journaled, and a resumed session
reproduces the same queue, counters, and placements bit-identically.
"""

import json

import pytest

from repro.core.registry import make_algorithm
from repro.errors import InvalidMachineError, SimulationError
from repro.machines.tree import TreeMachine
from repro.service import (
    Admit,
    AllocationSession,
    Cancel,
    Queue,
    Reject,
    SLOPolicy,
    admission_lines,
)
from repro.sim.slowdown import load_target_for_slowdown


def _session(n=16, name="greedy", slo=None, **kw):
    machine = TreeMachine(n)
    target = None if slo is None else slo.load_target
    algorithm = make_algorithm(name, machine, d=2.0, load_target=target)
    return AllocationSession(machine, algorithm, slo=slo, **kw)


def _fill(session, n, target):
    """Admit machine-spanning tasks until every PE sits at the target."""
    for _ in range(target):
        outcome = session.submit(n)
        assert isinstance(outcome, Admit)


class TestPolicy:
    def test_slowdown_maps_to_integer_load_target(self):
        assert SLOPolicy(slowdown_target=1.0).load_target == 1
        assert SLOPolicy(slowdown_target=2.0).load_target == 2
        assert SLOPolicy(slowdown_target=2.9).load_target == 2
        assert SLOPolicy(slowdown_target=3.0).load_target == 3
        assert SLOPolicy(slowdown_target=4.0).load_target == (
            load_target_for_slowdown(4.0)
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"slowdown_target": 0.5},
            {"slowdown_target": 2.0, "queue_capacity": -1},
            {"slowdown_target": 2.0, "retry_after": 0.0},
            {"slowdown_target": 2.0, "low_watermark": 0},
            {"slowdown_target": 2.0, "low_watermark": 10, "high_watermark": 5},
            {
                "slowdown_target": 2.0,
                "low_watermark_bytes": 8,
                "high_watermark_bytes": 4,
            },
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(SimulationError):
            SLOPolicy(**kwargs)


class TestAdmissionGate:
    def test_admit_until_target_then_queue_then_reject(self):
        slo = SLOPolicy(slowdown_target=2.0, queue_capacity=2)
        s = _session(n=16, slo=slo)
        _fill(s, 16, 2)  # every PE at the target
        q1 = s.submit(4)
        q2 = s.submit(4)
        assert isinstance(q1, Queue) and q1.position == 0
        assert isinstance(q2, Queue) and q2.position == 1
        r = s.submit(4)
        assert isinstance(r, Reject)
        assert r.reason.startswith("admission queue full")
        assert r.retry_after == slo.retry_after
        st = s.status()
        assert st["queued_tasks"] == 2
        assert st["rejected_total"] == 1
        assert st["slo"]["admitted_total"] == 2
        assert st["slo_violations"] == 0

    def test_departure_drains_fifo(self):
        slo = SLOPolicy(slowdown_target=1.0, queue_capacity=8)
        s = _session(n=8, slo=slo)
        a = s.submit(8)  # load 1 everywhere: machine is full at target 1
        q1 = s.submit(2)
        q2 = s.submit(2)
        assert isinstance(q1, Queue) and isinstance(q2, Queue)
        out = s.depart(a.decision.task_id)
        assert isinstance(out, Admit)
        # Both queued tasks fit side by side now; drained strictly FIFO.
        assert [d.task_id for d in out.drained] == [q1.task_id, q2.task_id]
        assert s.status()["queued_tasks"] == 0
        assert s.status()["slo"]["drained_total"] == 2

    def test_head_blocking_holds_small_tasks_behind_big_head(self):
        slo = SLOPolicy(slowdown_target=1.0, queue_capacity=8)
        s = _session(n=8, slo=slo)
        half = s.submit(4)  # one half busy, other half free
        assert isinstance(half, Admit)
        big = s.submit(8)  # cannot fit: whole machine would hit load 2
        assert isinstance(big, Queue)
        # A size-2 task WOULD fit in the free half, but FIFO head-blocks it.
        small = s.submit(2)
        assert isinstance(small, Queue) and small.position == 1
        # Freeing the half admits the big head first, then the small one.
        out = s.depart(half.decision.task_id)
        assert [d.task_id for d in out.drained] == [big.task_id]
        assert s.status()["queued_tasks"] == 1

    def test_cancel_queued_task_frees_slot_and_drains(self):
        slo = SLOPolicy(slowdown_target=1.0, queue_capacity=8)
        s = _session(n=8, slo=slo)
        s.submit(8)
        q1 = s.submit(8)
        q2 = s.submit(4)
        out = s.kill(q1.task_id)
        assert isinstance(out, Cancel)
        assert out.dequeued and out.task_id == q1.task_id
        # q2 is still head-blocked by the full machine, not by q1.
        assert s.admission_queue()[0]["id"] == q2.task_id
        assert s.status()["slo"]["canceled_total"] == 1

    def test_departure_of_rejected_task_is_noop_cancel(self):
        slo = SLOPolicy(slowdown_target=1.0, queue_capacity=0)
        s = _session(n=8, slo=slo)
        s.submit(8)
        r = s.submit(8)
        assert isinstance(r, Reject)
        out = s.depart(r.task_id)
        assert isinstance(out, Cancel) and not out.dequeued
        assert s.status()["slo"]["canceled_total"] == 0  # nothing dequeued

    def test_retried_rejected_id_routes_like_a_fresh_task(self):
        """A client that retries a rejected id must get full service —
        including a real departure once the retry is admitted."""
        slo = SLOPolicy(slowdown_target=1.0, queue_capacity=0)
        s = _session(n=8, slo=slo)
        a = s.submit(8)
        r = s.submit(8, task_id=77)
        assert isinstance(r, Reject)
        s.depart(a.decision.task_id)
        retry = s.submit(8, task_id=77)
        assert isinstance(retry, Admit)
        out = s.depart(77)
        assert isinstance(out, Admit)  # a real departure, not a noop Cancel
        assert s.status()["active_tasks"] == 0

    def test_gated_sessions_never_count_violations(self):
        slo = SLOPolicy(slowdown_target=2.0, queue_capacity=4)
        s = _session(n=16, name="twochoice", slo=slo)
        for size in (4, 8, 2, 16, 4, 8, 16, 2, 4):
            s.submit(size)
        assert s.status()["slo_violations"] == 0

    def test_oblivious_random_can_violate_and_is_counted(self):
        """`random` places without looking at loads, so the violation
        counter (the referee's tripwire) must eventually fire."""
        for seed in range(30):
            slo = SLOPolicy(slowdown_target=1.0, queue_capacity=64)
            machine = TreeMachine(8)
            algorithm = make_algorithm("random", machine, d=2.0, seed=seed)
            s = AllocationSession(machine, algorithm, slo=slo)
            for _ in range(6):
                s.submit(2)
            if s.status()["slo_violations"] > 0:
                return
        pytest.fail("oblivious random never produced an SLO violation")


class TestResizedMachine:
    """Arrival sizes are checked against the machine as it is now, not
    the one the session was built with."""

    SLO = SLOPolicy(slowdown_target=2.0)

    def test_grow_admits_a_task_only_the_grown_machine_holds(self):
        gated = _session(n=8, slo=self.SLO, fault_tolerant=True)
        plain = _session(n=8, fault_tolerant=True)
        for s in (gated, plain):
            s.grow(2)
        out = gated.submit(16)
        assert isinstance(out, Admit)
        assert out.decision == plain.submit(16)
        assert gated.snapshot() == plain.snapshot()

    def test_shrink_refuses_a_task_the_shrunk_machine_cannot_hold(self):
        s = _session(n=8, slo=self.SLO, fault_tolerant=True)
        s.shrink(2)
        with pytest.raises(InvalidMachineError, match="4-PE machine"):
            s.submit(8)
        assert s.admission_queue() == ()
        assert s.num_offers == 1  # the shrink alone
        assert isinstance(s.submit(4), Admit)


class TestStatusAndWire:
    def test_status_keys_zero_valued_without_slo(self):
        s = _session(n=8)
        s.submit(4)
        st = s.status()
        assert st["journal_pending"] == 0
        assert st["queued_tasks"] == 0
        assert st["rejected_total"] == 0
        assert st["slo_violations"] == 0
        assert "slo" not in st

    def test_status_slo_block_schema(self):
        slo = SLOPolicy(slowdown_target=2.5, queue_capacity=3)
        s = _session(n=8, slo=slo)
        st = s.status()["slo"]
        assert st["slowdown_target"] == 2.5
        assert st["load_target"] == 2
        assert st["queue_capacity"] == 3
        assert st["overloaded"] is False
        for key in (
            "admitted_total", "drained_total", "queued_total",
            "rejected_total", "canceled_total", "slo_violations",
        ):
            assert st[key] == 0

    def test_admission_lines_wire_format(self):
        slo = SLOPolicy(slowdown_target=1.0, queue_capacity=1)
        s = _session(n=8, slo=slo)
        admit = json.loads(admission_lines(s.submit(8))[0])
        assert admit["kind"] == "arrival" and "node" in admit
        queued = json.loads(admission_lines(s.submit(4))[0])
        assert queued == {"slo": "queued", "id": 1, "position": 0, "queued": 1}
        rejected = json.loads(admission_lines(s.submit(4))[0])
        assert rejected["slo"] == "rejected"
        assert rejected["retry_after"] == slo.retry_after
        lines = admission_lines(s.depart(0))
        records = [json.loads(l) for l in lines]
        assert records[0]["kind"] == "departure"
        assert records[1]["dequeued"] is True and records[1]["task_id"] == 1

    def test_offer_batch_matches_sequential_offers(self):
        slo = SLOPolicy(slowdown_target=1.0, queue_capacity=4)
        records = [
            {"kind": "arrival", "size": 8, "time": 0.0},
            {"kind": "arrival", "size": 4, "time": 1.0},
            {"kind": "departure", "id": 0, "time": 2.0},
            {"kind": "arrival", "size": 2, "time": 3.0},
        ]
        one = _session(n=8, slo=slo)
        verdicts_a = [one.offer(dict(r)).verdict for r in records]
        two = _session(n=8, slo=slo)
        verdicts_b = [o.verdict for o in two.push_batch(records)]
        assert verdicts_a == verdicts_b
        assert one.status() == two.status()


class TestBackpressure:
    def test_overload_trips_at_high_watermark_and_clears_low(self, tmp_path):
        slo = SLOPolicy(
            slowdown_target=4.0, queue_capacity=4,
            high_watermark=4, low_watermark=2,
        )
        s = _session(
            n=16, slo=slo,
            journal_path=tmp_path / "j", fsync_policy="batch",
        )
        for _ in range(3):
            s.submit(1)
        assert not s.overloaded  # 3 pending < high watermark
        s.submit(1)
        assert s.overloaded  # trips at 4
        s.flush()
        # Hysteresis: pending dropped to 0 <= low watermark, so it clears.
        assert not s.overloaded
        s.close()

    def test_overload_holds_between_watermarks(self, tmp_path):
        """Between low and high the flag keeps its prior value."""
        slo = SLOPolicy(
            slowdown_target=4.0, queue_capacity=4,
            high_watermark=3, low_watermark=1,
        )
        s = _session(
            n=16, slo=slo,
            journal_path=tmp_path / "j", fsync_policy="interval:1000",
        )
        s.submit(1)
        s.submit(1)
        assert not s.overloaded  # rising through 2: not yet tripped
        s.submit(1)
        assert s.overloaded  # 3 >= high
        s.submit(1)
        assert s.overloaded  # still above low: stays tripped
        s.close()

    def test_no_journal_means_never_overloaded(self):
        slo = SLOPolicy(slowdown_target=1.0, high_watermark=1, low_watermark=1)
        s = _session(n=8, slo=slo)
        s.submit(8)
        assert not s.overloaded


class TestJournaledAdmission:
    def _storm(self, s):
        s.submit(8, time=0.0)          # admitted
        s.submit(4, time=1.0)          # queued
        s.submit(4, time=1.0)          # queued
        s.submit(2, time=1.0)          # queued
        s.submit(2, time=1.0)          # rejected (capacity 3)
        s.kill(2, time=2.0)            # cancel a queued task
        s.depart(0, time=3.0)          # drains the remaining queue

    def test_resume_reproduces_queue_counters_and_placements(self, tmp_path):
        slo = SLOPolicy(slowdown_target=1.0, queue_capacity=3)
        path = tmp_path / "slo.journal"
        live = _session(n=8, slo=slo, journal_path=path)
        self._storm(live)
        want_status = live.status()
        want_queue = live.admission_queue()
        want_snapshot = live.snapshot()
        want_offers = live.num_offers
        live.close()

        resumed = _session(n=8, slo=slo, journal_path=path)
        assert resumed.num_offers == want_offers
        assert resumed.admission_queue() == want_queue
        assert resumed.status() == want_status
        assert resumed.snapshot() == want_snapshot
        resumed.close()

    def test_resume_leaves_journal_untouched_and_resumes_twice(self, tmp_path):
        """Replaying a drained queue must not re-journal its dequeues: the
        bytes stay as written, so a second resume sees the same history."""
        slo = SLOPolicy(slowdown_target=1.0, queue_capacity=3)
        path = tmp_path / "slo.journal"
        live = _session(n=8, slo=slo, journal_path=path)
        self._storm(live)
        want = (live.status(), live.admission_queue(), live.snapshot())
        live.close()
        written = path.read_bytes()

        first = _session(n=8, slo=slo, journal_path=path)
        first.close()
        assert path.read_bytes() == written

        second = _session(n=8, slo=slo, journal_path=path)
        assert (
            second.status(), second.admission_queue(), second.snapshot()
        ) == want
        second.close()
        assert path.read_bytes() == written

    def test_resume_continues_identically_to_uninterrupted(self, tmp_path):
        slo = SLOPolicy(slowdown_target=1.0, queue_capacity=3)
        path = tmp_path / "slo.journal"
        live = _session(n=8, slo=slo, journal_path=path)
        self._storm(live)
        live.close()
        resumed = _session(n=8, slo=slo, journal_path=path)
        tail = resumed.submit(4, time=4.0)

        ref = _session(n=8, slo=slo)
        self._storm(ref)
        expected = ref.submit(4, time=4.0)
        assert tail.verdict == expected.verdict
        assert resumed.kernel.metrics.to_state() == ref.kernel.metrics.to_state()
        resumed.close()

    def test_policy_change_across_resume_is_rejected(self, tmp_path):
        from repro.errors import CheckpointError

        path = tmp_path / "slo.journal"
        live = _session(n=8, slo=SLOPolicy(slowdown_target=1.0), journal_path=path)
        live.submit(4)
        live.close()
        with pytest.raises(CheckpointError):
            _session(n=8, slo=SLOPolicy(slowdown_target=2.0), journal_path=path)
