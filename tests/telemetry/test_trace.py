"""Tests for span tracing and the Telemetry handle."""

import pytest

from repro.telemetry import (
    NULL_SPAN,
    RunJournal,
    Telemetry,
    Tracer,
    journal_path,
    read_journal,
)


class TestTracer:
    def test_spans_nest_via_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.records  # children finish (emit) first
        assert inner["name"] == "inner"
        assert inner["parent"] == outer["span"]
        assert outer["parent"] is None

    def test_siblings_share_a_parent(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b, parent = tracer.records
        assert a["parent"] == parent["span"] == b["parent"]

    def test_span_ids_are_unique(self):
        tracer = Tracer()
        for _ in range(5):
            with tracer.span("s"):
                pass
        ids = [record["span"] for record in tracer.records]
        assert len(set(ids)) == 5

    def test_exception_marks_error_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("nope")
        (record,) = tracer.records
        assert record["status"] == "error"
        assert record["attrs"]["error_type"] == "RuntimeError"

    def test_annotate_attaches_attrs(self):
        tracer = Tracer()
        with tracer.span("s", fixed=1) as span:
            span.annotate(discovered="late")
        (record,) = tracer.records
        assert record["attrs"] == {"fixed": 1, "discovered": "late"}

    def test_durations_are_positive(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        assert tracer.records[0]["dur_s"] >= 0.0

    def test_journal_backed_tracer_streams_to_disk(self, tmp_path):
        journal = RunJournal(journal_path(str(tmp_path)))
        tracer = Tracer(journal)
        with tracer.span("s"):
            pass
        journal.close()
        assert tracer.records == []
        assert read_journal(str(tmp_path))[0]["name"] == "s"


class TestTelemetryHandle:
    def test_disabled_handle_is_a_no_op(self):
        telemetry = Telemetry(enabled=False)
        assert telemetry.span("s") is NULL_SPAN
        telemetry.count("c")
        telemetry.observe("h", 1.0)
        telemetry.set_gauge("g", 2.0)
        assert telemetry.snapshot() == {}

    def test_null_span_supports_the_span_protocol(self):
        with NULL_SPAN as span:
            assert span.annotate(anything=1) is span

    def test_in_memory_handle_buffers_spans(self):
        telemetry = Telemetry.in_memory()
        with telemetry.span("s"):
            telemetry.count("c", 2)
        assert telemetry.tracer.records[0]["name"] == "s"
        assert telemetry.snapshot()["c"]["value"] == 2.0
        telemetry.flush()  # journal-less flush is a harmless no-op
        telemetry.close()

    def test_for_run_dir_flush_writes_metrics_record(self, tmp_path):
        with Telemetry.for_run_dir(str(tmp_path)) as telemetry:
            telemetry.count("c")
        records = read_journal(str(tmp_path))
        metrics = [r for r in records if r["event"] == "metrics"]
        assert metrics and metrics[-1]["registry"]["c"]["value"] == 1.0

    def test_delta_since_flows_through_the_handle(self):
        telemetry = Telemetry.in_memory()
        telemetry.count("c")
        before = telemetry.snapshot()
        telemetry.count("c", 4)
        assert telemetry.delta_since(before) == {"c": 4.0}
