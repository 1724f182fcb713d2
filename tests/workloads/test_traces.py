"""Unit tests for JSONL trace IO."""

import math

import numpy as np
import pytest

from repro.errors import TraceFormatError
from repro.tasks.task import Task
from repro.tasks.sequence import TaskSequence
from repro.types import TaskId
from repro.workloads.generators import poisson_sequence
from repro.workloads.traces import read_trace, trace_line, write_trace


class TestRoundtrip:
    def test_write_read_identity(self, tmp_path):
        seq = poisson_sequence(16, 60, np.random.default_rng(3))
        path = tmp_path / "trace.jsonl"
        write_trace(path, seq)
        loaded = read_trace(path)
        assert loaded == seq

    def test_immortal_tasks_roundtrip(self, tmp_path):
        seq = TaskSequence.from_tasks([Task(TaskId(0), 4, 1.0)])
        path = tmp_path / "t.jsonl"
        write_trace(path, seq)
        loaded = read_trace(path)
        assert math.isinf(next(iter(loaded.tasks.values())).departure)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            "# a comment\n\n"
            '{"id": 0, "size": 2, "arrival": 0.0, "departure": 5.0}\n'
        )
        seq = read_trace(path)
        assert seq.num_tasks == 1

    def test_work_field_preserved(self, tmp_path):
        seq = TaskSequence.from_tasks([Task(TaskId(1), 2, 0.0, 3.0, work=9.0)])
        path = tmp_path / "t.jsonl"
        write_trace(path, seq)
        assert read_trace(path).task(TaskId(1)).work == 9.0


class TestErrors:
    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(TraceFormatError, match="line 1"):
            read_trace(path)

    def test_non_object_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": 0, "arrival": 0.0}\n')
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_invalid_task_values(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": 0, "size": 3, "arrival": 0.0}\n')
        with pytest.raises(TraceFormatError):
            read_trace(path)

    @pytest.mark.parametrize(
        "line",
        [
            "[" * 30_000 + "]" * 30_000,
            '{"id": ' + "7" * 5_000 + ', "size": 1, "arrival": 0.0}',
            '{"id": 0, "size": 1, "arrival": 0.0, "departure": "x"}',
            '{"id": 0, "size": 1, "arrival": 0.0, "work": "x"}',
        ],
        ids=["deep_nesting", "huge_id", "bad_departure", "bad_work"],
    )
    def test_hostile_line_names_the_line(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(TraceFormatError, match="^line 1: "):
            read_trace(path)


class TestTraceLine:
    def test_finite_departure(self):
        line = trace_line(Task(TaskId(2), 4, 1.0, 2.5))
        assert '"departure":2.5' in line

    def test_infinite_departure(self):
        line = trace_line(Task(TaskId(2), 4, 1.0))
        assert '"departure":"inf"' in line
