"""Unit tests for the JSONL streaming wire format."""

import io
import json

import numpy as np
import pytest

from repro.errors import TraceFormatError
from repro.service.stream import (
    EVENT_KINDS,
    decision_line,
    iter_event_records,
    parse_event_record,
    records_from_events,
    sequence_records,
)
from repro.tasks.sequence import TaskSequence
from repro.tasks.task import Task
from repro.types import TaskId
from repro.workloads.generators import poisson_sequence


class TestParseEventRecord:
    def test_parses_line_and_mapping(self):
        rec = parse_event_record('{"kind": "arrival", "size": 4}')
        assert rec == {"kind": "arrival", "size": 4}
        assert parse_event_record({"kind": "departure", "id": 3})["id"] == 3

    def test_invalid_json(self):
        with pytest.raises(TraceFormatError, match="invalid event JSON"):
            parse_event_record("{nope")

    def test_nesting_deeper_than_the_stack_is_invalid_json(self):
        with pytest.raises(TraceFormatError, match="invalid event JSON"):
            parse_event_record("[" * 30_000 + "]" * 30_000)

    def test_non_object(self):
        with pytest.raises(TraceFormatError, match="must be a JSON object"):
            parse_event_record("[1, 2]")

    def test_unknown_kind(self):
        with pytest.raises(TraceFormatError, match="unknown event kind"):
            parse_event_record({"kind": "explode"})

    @pytest.mark.parametrize(
        "kind,field",
        [("arrival", "size"), ("departure", "id"),
         ("failure", "node"), ("repair", "node"), ("kill", "id"),
         ("resize", "op")],
    )
    def test_missing_required_field(self, kind, field):
        with pytest.raises(TraceFormatError, match=field):
            parse_event_record({"kind": kind})

    def test_every_kind_is_known(self):
        for kind in EVENT_KINDS:
            assert kind in (
                "arrival", "departure", "failure", "repair", "kill", "resize"
            )


class TestIterEventRecords:
    def test_skips_blanks_and_comments(self):
        stream = io.StringIO(
            "# a comment\n\n"
            '{"kind": "arrival", "size": 2}\n'
            "   \n"
            '{"kind": "departure", "id": 0}\n'
        )
        records = list(iter_event_records(stream))
        assert [r["kind"] for r in records] == ["arrival", "departure"]

    def test_reports_line_number(self):
        stream = io.StringIO('{"kind": "arrival", "size": 2}\n{broken\n')
        it = iter_event_records(stream)
        next(it)
        with pytest.raises(TraceFormatError, match="line 2"):
            next(it)


class TestRoundTrips:
    def test_sequence_records_cover_the_sequence(self):
        sigma = poisson_sequence(8, 20, np.random.default_rng(0))
        records = [parse_event_record(r) for r in sequence_records(sigma)]
        arrivals = [r for r in records if r["kind"] == "arrival"]
        assert len(arrivals) == sigma.num_tasks
        # Each line survives a JSON round trip unchanged.
        for rec in records:
            assert json.loads(json.dumps(rec)) == rec

    def test_never_departing_tasks_emit_no_departure(self):
        sigma = TaskSequence.from_tasks([Task(TaskId(0), 2, 0.0)])
        records = list(sequence_records(sigma))
        assert [r["kind"] for r in records] == ["arrival"]

    def test_records_from_events_round_trip(self):
        sigma = poisson_sequence(8, 15, np.random.default_rng(3))
        direct = list(sequence_records(sigma))
        via_events = records_from_events(list(sigma))
        # Same wire records either way (modulo never-departing omissions,
        # absent in this workload).
        assert via_events == direct

    def test_decision_line_is_compact_json(self):
        from repro.kernel import AllocationKernel
        from repro.machines.tree import TreeMachine
        from repro.types import NodeId

        kernel = AllocationKernel(TreeMachine(4))
        decision = kernel.apply_placed(0.0, Task(TaskId(0), 1, 0.0), NodeId(4))
        line = decision_line(decision)
        assert "\n" not in line and " " not in line
        assert json.loads(line)["kind"] == "arrival"
