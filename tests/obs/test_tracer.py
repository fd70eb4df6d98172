"""Span tracer: nesting, exception safety, null backend, JSONL round-trip."""

import io
import json

import numpy as np
import pytest

from repro.obs.events import iter_events, jsonable, read_events
from repro.obs.tracer import NULL_SPAN, Tracer, traced


def fresh_tracer(sink=None):
    t = Tracer()
    if sink is not None:
        t.configure(sink)
    return t


class TestNullBackend:
    def test_disabled_returns_shared_null_span(self):
        t = fresh_tracer()
        assert t.span("anything", k=1) is NULL_SPAN
        assert t.span("other") is NULL_SPAN

    def test_null_span_is_inert(self):
        with NULL_SPAN as sp:
            sp.record(a=1)  # no-op, no error

    def test_disabled_event_writes_nothing(self):
        t = fresh_tracer()
        t.event("tick", v=1)  # no sink, no error

    def test_exception_passes_through_null_span(self):
        t = fresh_tracer()
        with pytest.raises(ValueError):
            with t.span("x"):
                raise ValueError("boom")


class TestSpans:
    def test_meta_header_first(self):
        buf = io.StringIO()
        t = fresh_tracer(buf)
        with t.span("a"):
            pass
        records = read_events(buf.getvalue().splitlines())
        assert records[0]["type"] == "meta"
        assert records[0]["schema"] == 1

    def test_nesting_parent_links_and_depth(self):
        buf = io.StringIO()
        t = fresh_tracer(buf)
        with t.span("outer"):
            with t.span("middle"):
                with t.span("inner"):
                    pass
        spans = {r["name"]: r for r in read_events(buf.getvalue().splitlines())
                 if r["type"] == "span"}
        assert spans["outer"]["parent_id"] is None and spans["outer"]["depth"] == 0
        assert spans["middle"]["parent_id"] == spans["outer"]["span_id"]
        assert spans["inner"]["parent_id"] == spans["middle"]["span_id"]
        assert spans["inner"]["depth"] == 2
        # children emit before parents (spans write on exit)
        order = [r["name"] for r in read_events(buf.getvalue().splitlines())
                 if r["type"] == "span"]
        assert order == ["inner", "middle", "outer"]

    def test_timings_present_and_sane(self):
        buf = io.StringIO()
        t = fresh_tracer(buf)
        with t.span("timed"):
            sum(range(1000))
        (span,) = [r for r in read_events(buf.getvalue().splitlines())
                   if r["type"] == "span"]
        assert span["wall_s"] >= 0.0
        assert span["cpu_s"] >= 0.0
        assert span["ts"] > 0

    def test_record_merges_attrs(self):
        buf = io.StringIO()
        t = fresh_tracer(buf)
        with t.span("s", a=1) as sp:
            sp.record(b=2.5, c="x")
        (span,) = [r for r in read_events(buf.getvalue().splitlines())
                   if r["type"] == "span"]
        assert span["attrs"] == {"a": 1, "b": 2.5, "c": "x"}

    def test_exception_safety(self):
        buf = io.StringIO()
        t = fresh_tracer(buf)
        with pytest.raises(RuntimeError):
            with t.span("outer"):
                with t.span("failing"):
                    raise RuntimeError("boom")
        spans = {r["name"]: r for r in read_events(buf.getvalue().splitlines())
                 if r["type"] == "span"}
        # both spans still emitted, both flagged, stack unwound
        assert spans["failing"]["error"] == "RuntimeError"
        assert spans["outer"]["error"] == "RuntimeError"
        assert t.current_span is None
        with t.span("after"):
            assert t.current_span.depth == 0

    def test_event_attaches_to_current_span(self):
        buf = io.StringIO()
        t = fresh_tracer(buf)
        with t.span("parent") as sp:
            t.event("tick", v=7)
            parent_id = sp.span_id
        records = read_events(buf.getvalue().splitlines())
        (event,) = [r for r in records if r["type"] == "event"]
        assert event["parent_id"] == parent_id
        assert event["attrs"] == {"v": 7}

    def test_numpy_attrs_serialize(self):
        buf = io.StringIO()
        t = fresh_tracer(buf)
        with t.span("np", arr=np.arange(3), x=np.float64(1.5), ok=np.bool_(True)):
            pass
        (span,) = [r for r in read_events(buf.getvalue().splitlines())
                   if r["type"] == "span"]
        assert span["attrs"] == {"arr": [0, 1, 2], "x": 1.5, "ok": True}

    def test_close_disables(self):
        buf = io.StringIO()
        t = fresh_tracer(buf)
        t.close()
        assert not t.enabled
        assert t.span("x") is NULL_SPAN
        t.close()  # idempotent


class TestTraced:
    def test_traced_disabled_passthrough(self):
        t = fresh_tracer()

        @traced(tracer=t)
        def add(a, b):
            return a + b

        assert add(2, 3) == 5

    def test_traced_emits_span(self):
        buf = io.StringIO()
        t = fresh_tracer(buf)

        @traced(name="math.add", tracer=t)
        def add(a, b):
            return a + b

        assert add(2, 3) == 5
        (span,) = [r for r in read_events(buf.getvalue().splitlines())
                   if r["type"] == "span"]
        assert span["name"] == "math.add"


class TestJsonl:
    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        t = fresh_tracer(str(path))
        with t.span("a", k=1):
            t.event("e")
        t.close()
        records = list(iter_events(str(path)))
        assert [r["type"] for r in records] == ["meta", "event", "span"]
        # every line is independently parseable JSON
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_jsonable_fallback(self):
        class Weird:
            def __repr__(self):
                return "<weird>"

        assert jsonable({"x": Weird()}) == {"x": "<weird>"}
        assert jsonable(1 + 2j) == {"re": 1.0, "im": 2.0}
        assert jsonable((1, {2})) == [1, [2]]


class TestDetach:
    def test_detach_disables_without_flushing(self):
        buf = io.StringIO()
        t = Tracer()
        t.configure(buf)
        with t.span("before"):
            pass
        written = buf.getvalue()
        t.detach()
        assert not t.enabled
        assert t.span("after") is NULL_SPAN
        t.event("after")  # silently dropped
        # the inherited buffer is walked away from, never touched again
        assert buf.getvalue() == written
        t.close()  # idempotent after detach, no error
        assert buf.getvalue() == written

    def test_detach_resets_span_stack(self, tmp_path):
        t = Tracer()
        t.configure(str(tmp_path / "t.jsonl"))
        span = t.span("parent").__enter__()  # left open, as at fork time
        assert t.current_span is span
        t.detach()
        assert t.current_span is None
        assert not t.enabled


class TestCaptureAndAdopt:
    """A pool worker's records travel home and join the parent's trace."""

    def _worker_records(self):
        worker = Tracer()
        worker.capture()
        with worker.span("runtime.chunk", chunk=0):
            with worker.span("kernel"):
                worker.event("draw", n=2)
        records = worker.drain()
        assert worker.drain() == []  # drained records are forgotten
        return records

    def test_capture_keeps_records_in_memory(self, tmp_path):
        records = self._worker_records()
        assert [r["type"] for r in records] == ["event", "span", "span"]
        assert [r["name"] for r in records] == ["draw", "kernel", "runtime.chunk"]
        assert Tracer().drain() == []  # not capturing: nothing to hand over

    def test_adopt_restores_linkage_inside_open_parent_span(self):
        records = self._worker_records()
        buf = io.StringIO()
        parent = Tracer()
        parent.configure(buf)
        with parent.span("runtime.sweep") as sweep:
            with parent.span("local"):
                pass
            parent.adopt(records, worker_pid=111)
        out = [json.loads(line) for line in buf.getvalue().splitlines()[1:]]
        spans = {r["name"]: r for r in out if r["type"] == "span"}
        (event,) = [r for r in out if r["type"] == "event"]
        chunk, kernel = spans["runtime.chunk"], spans["kernel"]
        assert chunk["parent_id"] == sweep.span_id
        assert chunk["depth"] == sweep.depth + 1
        assert kernel["parent_id"] == chunk["span_id"]
        assert kernel["depth"] == chunk["depth"] + 1
        assert event["parent_id"] == kernel["span_id"]
        assert chunk["attrs"] == {"worker_pid": 111, "chunk": 0}
        assert event["attrs"] == {"worker_pid": 111, "n": 2}
        ids = [r["span_id"] for r in out if r["type"] == "span"]
        assert len(ids) == len(set(ids))  # fresh ids from the parent

    def test_adopt_is_a_no_op_while_disabled(self):
        Tracer().adopt(self._worker_records(), worker_pid=1)  # no sink, no error
