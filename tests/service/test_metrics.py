"""Prometheus text exposition: rendering, parsing, and the round trip."""

import math

import pytest

from repro.core.registry import make_algorithm
from repro.errors import TraceFormatError
from repro.machines.tree import TreeMachine
from repro.service import (
    AllocationSession,
    Sample,
    parse_exposition,
    render_exposition,
    service_samples,
)


def _samples_roundtrip(samples):
    return parse_exposition(render_exposition(samples))


class TestRoundTrip:
    def test_plain_gauges(self):
        samples = [
            Sample("repro_now", 12.5),
            Sample("repro_events_total", 240),
            Sample("repro_competitive_ratio", 1.3333333333333333),
        ]
        assert _samples_roundtrip(samples) == samples

    def test_labeled_series_stay_contiguous(self):
        samples = [
            Sample("repro_stage_total", 10, (("stage", "decode"),)),
            Sample("repro_now", 1.0),
            Sample("repro_stage_total", 20, (("stage", "fsync"),)),
        ]
        text = render_exposition(samples)
        # The format requires one block per metric; order inside the
        # block is first-appearance.
        assert text.index('stage="decode"') < text.index('stage="fsync"')
        assert text.index('stage="fsync"') < text.index("repro_now")
        assert set(_samples_roundtrip(samples)) == set(samples)

    def test_nan_and_inf_spelling(self):
        text = render_exposition(
            [Sample("repro_competitive_ratio", float("nan")),
             Sample("repro_optimal_load", float("inf"))]
        )
        assert "repro_competitive_ratio NaN" in text
        assert "repro_optimal_load +Inf" in text
        back = parse_exposition(text)
        assert math.isnan(back[0].value)
        assert math.isinf(back[1].value)

    def test_label_escaping(self):
        tricky = 'a"b\\c\nd'
        samples = [Sample("repro_stage_total", 1, (("stage", tricky),))]
        assert _samples_roundtrip(samples) == samples

    def test_help_and_type_headers(self):
        text = render_exposition([Sample("repro_events_total", 3)])
        assert "# HELP repro_events_total" in text
        assert "# TYPE repro_events_total counter" in text

    def test_malformed_line_raises(self):
        with pytest.raises(TraceFormatError):
            parse_exposition("repro_now\n")
        with pytest.raises(TraceFormatError):
            parse_exposition("repro_now not-a-number\n")


class TestServiceSamples:
    def test_session_status_maps_to_series(self):
        machine = TreeMachine(16)
        session = AllocationSession(machine, make_algorithm("greedy", machine, d=2.0))
        session.push({"kind": "arrival", "time": 0.0, "id": 0, "size": 2})
        by_name = {s.name: s.value for s in service_samples(session.status())}
        assert by_name["repro_events_total"] == 1
        assert by_name["repro_active_tasks"] == 1
        assert by_name["repro_max_load"] >= 1.0
        session.close()

    def test_missing_keys_are_omitted_not_zeroed(self):
        samples = service_samples({"events": 1})
        names = {s.name for s in samples}
        assert names == {"repro_events_total"}

    def test_overloaded_bool_renders_as_01(self):
        on = service_samples({"slo": {"overloaded": True}})
        off = service_samples({"slo": {"overloaded": False}})
        assert (on[0].name, on[0].value) == ("repro_overloaded", 1.0)
        assert (off[0].name, off[0].value) == ("repro_overloaded", 0.0)


class TestProcessMemory:
    def test_scrape_exports_current_and_peak_resident_memory(self):
        import json

        from repro.service.shard.server import StdioServer

        machine = TreeMachine(16)
        session = AllocationSession(machine, make_algorithm("greedy", machine))
        reply = list(StdioServer(session).serve_lines([json.dumps({"op": "metrics"})]))
        session.close()
        page = json.loads(reply[0])["metrics"]
        by_name = {s.name: s.value for s in parse_exposition(page)}
        current = by_name["process_resident_memory_bytes"]
        peak = by_name["repro_process_peak_resident_memory_bytes"]
        assert current > 0 and peak > 0
        assert peak >= current
        for name in ("process_resident_memory_bytes",
                     "repro_process_peak_resident_memory_bytes"):
            assert f"# HELP {name} " in page
            assert f"# TYPE {name} gauge" in page

    def test_without_proc_status_only_the_peak_is_exported(self, tmp_path):
        from repro.service.metrics import process_memory

        sizes = process_memory(str(tmp_path / "absent"))
        assert set(sizes) == {"peak_resident_memory_bytes"}
        assert sizes["peak_resident_memory_bytes"] > 0
        names = {s.name for s in service_samples(sizes)}
        assert names == {"repro_process_peak_resident_memory_bytes"}
