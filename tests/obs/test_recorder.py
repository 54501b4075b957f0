"""Unit tests for the recorder: spans, events, and the global API."""

import sys
import threading

import pytest

from repro import obs
from repro.obs import InMemorySink, NullRecorder, Recorder
from repro.obs.recorder import NULL_RECORDER


class TestSpans:
    def test_span_record_shape(self):
        recorder = Recorder()
        with recorder.span("stage", model="m1") as span:
            span.set(n_states=8)
        (record,) = recorder.records
        assert record["kind"] == "span"
        assert record["name"] == "stage"
        assert record["status"] == "ok"
        assert record["parent_id"] is None
        assert record["fields"] == {"model": "m1", "n_states": 8}
        assert record["duration_s"] >= 0.0
        assert record["cpu_s"] >= 0.0

    def test_nesting_links_child_to_parent(self):
        recorder = Recorder()
        with recorder.span("outer") as outer:
            with recorder.span("inner"):
                pass
        inner, outer_record = recorder.records
        assert inner["name"] == "inner"
        assert inner["parent_id"] == outer.span_id
        assert outer_record["name"] == "outer"
        assert outer_record["parent_id"] is None

    def test_sibling_spans_share_parent(self):
        recorder = Recorder()
        with recorder.span("outer") as outer:
            with recorder.span("a"):
                pass
            with recorder.span("b"):
                pass
        a, b, _ = recorder.records
        assert a["parent_id"] == b["parent_id"] == outer.span_id
        assert a["span_id"] != b["span_id"]

    def test_error_status_on_exception(self):
        recorder = Recorder()
        with pytest.raises(RuntimeError):
            with recorder.span("doomed"):
                raise RuntimeError("boom")
        (record,) = recorder.records
        assert record["status"] == "error"
        assert record["fields"]["error"] == "RuntimeError"

    def test_stack_unwinds_after_exception(self):
        recorder = Recorder()
        with pytest.raises(ValueError):
            with recorder.span("failed"):
                raise ValueError()
        with recorder.span("next"):
            pass
        assert recorder.records[-1]["parent_id"] is None


class TestThreadedSpans:
    def test_interleaved_threads_keep_separate_stacks(self):
        """Thread A opens ``a``, thread B opens ``b``, then ``a`` closes
        before ``b``: out of order on one shared stack.  Neither span may
        parent the other, a later span on a third thread is a root, and
        no id stays on any stack."""
        recorder = Recorder()
        a_open, b_open, a_closed = (threading.Event() for _ in range(3))
        leftovers = {}

        def first():
            with recorder.span("a"):
                a_open.set()
                b_open.wait(5.0)
            a_closed.set()
            leftovers["a"] = list(recorder._stack.ids)

        def second():
            a_open.wait(5.0)
            with recorder.span("b"):
                b_open.set()
                a_closed.wait(5.0)
            leftovers["b"] = list(recorder._stack.ids)

        def third():
            with recorder.span("c"):
                pass
            leftovers["c"] = list(recorder._stack.ids)

        pair = [threading.Thread(target=f) for f in (first, second)]
        for thread in pair:
            thread.start()
        for thread in pair:
            thread.join(10.0)
            assert not thread.is_alive()
        later = threading.Thread(target=third)
        later.start()
        later.join(10.0)
        assert not later.is_alive()
        spans = {record["name"]: record for record in recorder.records}
        assert spans["a"]["parent_id"] is None
        assert spans["b"]["parent_id"] is None
        assert spans["c"]["parent_id"] is None
        assert leftovers == {"a": [], "b": [], "c": []}
        assert recorder._stack.ids == []

    def test_span_ids_unique_across_threads(self):
        recorder = Recorder()

        def open_spans():
            for _ in range(200):
                with recorder.span("s"):
                    pass

        threads = [threading.Thread(target=open_spans) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        ids = [record["span_id"] for record in recorder.records]
        assert len(ids) == len(set(ids)) == 800


class TestEvents:
    def test_event_links_to_enclosing_span(self):
        recorder = Recorder()
        with recorder.span("work") as span:
            recorder.event("milestone", step=3)
        event, _ = recorder.records
        assert event["kind"] == "event"
        assert event["parent_id"] == span.span_id
        assert event["fields"] == {"step": 3}

    def test_top_level_event_has_no_parent(self):
        recorder = Recorder()
        recorder.event("standalone")
        (event,) = recorder.records
        assert event["parent_id"] is None


class TestSinksFanout:
    def test_records_fan_out_to_every_sink(self):
        first, second = InMemorySink(), InMemorySink()
        recorder = Recorder(sinks=(first, second))
        recorder.event("ping")
        assert len(first.records) == len(second.records) == 1

    def test_keep_records_false_buffers_nothing(self):
        sink = InMemorySink()
        recorder = Recorder(sinks=(sink,), keep_records=False)
        recorder.event("ping")
        assert recorder.records == []
        assert len(sink.records) == 1


class TestGlobalApi:
    def test_default_recorder_is_null(self):
        assert obs.get_recorder() is NULL_RECORDER
        assert not obs.enabled()

    def test_null_recorder_is_inert(self):
        null = NullRecorder()
        with null.span("anything") as span:
            span.set(ignored=True)
        null.event("anything")
        null.counter("c_total").inc()
        null.gauge("g").set(1.0)
        null.histogram("h").observe(2.0)

    def test_observe_installs_and_restores(self):
        with obs.observe() as recorder:
            assert obs.get_recorder() is recorder
            assert obs.enabled()
            obs.event("inside")
        assert obs.get_recorder() is NULL_RECORDER
        assert recorder.records[0]["name"] == "inside"

    def test_observe_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with obs.observe():
                raise RuntimeError()
        assert obs.get_recorder() is NULL_RECORDER

    def test_observe_nested_restores_outer(self):
        with obs.observe() as outer:
            with obs.observe() as inner:
                assert obs.get_recorder() is inner
            assert obs.get_recorder() is outer

    def test_module_level_verbs_hit_active_recorder(self):
        with obs.observe() as recorder:
            with obs.span("stage"):
                obs.counter("hits_total").inc()
        assert recorder.records[-1]["name"] == "stage"
        assert recorder.metrics.counter("hits_total").value == 1.0

    def test_set_recorder_returns_previous(self):
        replacement = Recorder()
        previous = obs.set_recorder(replacement)
        try:
            assert obs.get_recorder() is replacement
        finally:
            obs.set_recorder(previous)
        assert obs.get_recorder() is previous
