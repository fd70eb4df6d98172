"""Event ring: ring semantics, env knob, dumps, trace taps, overhead bound."""

import json
import time

import pytest

from repro.obs import flightrec
from repro.obs.alerts import AlertEngine, AlertRule
from repro.obs.events import read_events
from repro.obs.flightrec import (
    DEFAULT_CAPACITY,
    DUMP_SCHEMA,
    ENABLE_ENV,
    FlightRecorder,
    get_recorder,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer


@pytest.fixture(autouse=True)
def _clean_global_recorder():
    """Taps feed the process-global ring; never leak records across tests."""
    get_recorder().clear()
    yield
    get_recorder().clear()


class TestRing:
    def test_records_kept_oldest_first(self):
        rec = FlightRecorder(capacity=8, enabled=True)
        rec.record("a", {"i": 1}, ts=1.0)
        rec.record("b", {"i": 2}, ts=2.0)
        snap = rec.snapshot()
        assert [r["kind"] for r in snap] == ["a", "b"]
        assert snap[0] == {"ts": 1.0, "kind": "a", "data": {"i": 1}}

    def test_kind_filter_and_last(self):
        rec = FlightRecorder(capacity=8, enabled=True)
        rec.record("tick", {"n": 1})
        rec.record("tock")
        rec.record("tick", {"n": 2})
        assert [r["data"]["n"] for r in rec.snapshot(kind="tick")] == [1, 2]
        assert rec.last("tick")["data"] == {"n": 2}
        assert rec.last("missing") is None

    def test_eviction_counts_total_and_dropped(self):
        rec = FlightRecorder(capacity=3, enabled=True)
        for i in range(10):
            rec.record("k", {"i": i})
        assert len(rec) == 3
        assert rec.total == 10
        assert rec.dump()["dropped"] == 7
        assert [r["data"]["i"] for r in rec.snapshot()] == [7, 8, 9]

    def test_disabled_recorder_is_inert(self):
        rec = FlightRecorder(capacity=8, enabled=False)
        rec.record("k")
        assert len(rec) == 0 and rec.total == 0

    def test_clear_resets_counters(self):
        rec = FlightRecorder(capacity=2, enabled=True)
        for _ in range(5):
            rec.record("k")
        rec.clear()
        assert len(rec) == 0 and rec.total == 0
        assert rec.dump()["dropped"] == 0

    def test_timestamp_defaults_to_now(self):
        rec = FlightRecorder(capacity=2, enabled=True)
        before = time.time()
        rec.record("k")
        assert before <= rec.last()["ts"] <= time.time()

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestEnvKnobs:
    def test_enable_env_zero_disables(self, monkeypatch):
        monkeypatch.setenv(ENABLE_ENV, "0")
        assert FlightRecorder().enabled is False
        monkeypatch.setenv(ENABLE_ENV, "1")
        assert FlightRecorder().enabled is True
        monkeypatch.delenv(ENABLE_ENV)
        assert FlightRecorder().enabled is True  # on by default


class TestDump:
    def test_dump_header_and_records(self):
        rec = FlightRecorder(capacity=2, enabled=True)
        for i in range(3):
            rec.record("k", {"i": i})
        dump = rec.dump()
        assert dump["schema"] == DUMP_SCHEMA
        assert dump["capacity"] == 2
        assert dump["total"] == 3 and dump["dropped"] == 1
        assert [r["data"]["i"] for r in dump["records"]] == [1, 2]

    def test_dump_json_round_trip(self, tmp_path):
        rec = FlightRecorder(capacity=8, enabled=True)
        rec.record("k", {"i": 1}, ts=5.0)
        path = rec.dump_json(tmp_path / "nested" / "flightrec.json")
        with open(path) as f:
            loaded = json.load(f)
        assert loaded["schema"] == DUMP_SCHEMA
        assert loaded["records"] == [{"ts": 5.0, "kind": "k", "data": {"i": 1}}]


class TestTaps:
    """One record call feeds the ring and the open trace."""

    def test_record_writes_one_trace_event(self, tmp_path):
        t = Tracer()
        rec = FlightRecorder(capacity=8, enabled=True, tracer=t)
        path = tmp_path / "trace.jsonl"
        t.configure(str(path))
        with t.span("unit.work"):
            rec.record("unit.tick", {"v": 1}, ts=5.0)
        t.close()
        rec.record("unit.after_close")  # no sink: ring only
        (event,) = [r for r in read_events(str(path)) if r["type"] == "event"]
        (span,) = [r for r in read_events(str(path)) if r["type"] == "span"]
        assert event["name"] == "unit.tick" and event["ts"] == 5.0
        assert event["attrs"] == {"v": 1}
        assert event["parent_id"] == span["span_id"]
        assert [r["kind"] for r in rec.snapshot()] == ["unit.tick", "unit.after_close"]

    def test_spans_stay_off_the_ring(self, tmp_path):
        t = Tracer()
        t.configure(str(tmp_path / "trace.jsonl"))
        with t.span("unit.work"):
            t.event("unit.detail", v=1)  # trace-only annotation
        t.close()
        assert get_recorder().snapshot() == []

    def test_alert_transitions_land_on_ring(self):
        reg = MetricsRegistry()
        reg.histogram("s.x").observe(9.0)
        engine = AlertEngine([
            AlertRule(name="s.high", series="s.x", threshold=1.0),
        ])
        (alarm,) = engine.evaluate(reg)
        (tap,) = get_recorder().snapshot(kind="obs.alert")
        assert tap["data"] == alarm

    def test_bus_frames_land_on_ring(self):
        # a progress tick emitted on the bus is the record a crash bundle's
        # progress.json reads back from the ring
        flightrec.emit("runtime.progress", {"done": 1})
        assert get_recorder().last("runtime.progress")["data"] == {"done": 1}

    def test_disabled_ring_still_feeds_trace_and_subscribers(self, tmp_path):
        t = Tracer()
        rec = FlightRecorder(capacity=8, enabled=False, tracer=t)
        path = tmp_path / "trace.jsonl"
        t.configure(str(path))
        rec.record("unit.tick", {"v": 1})
        t.close()
        assert len(rec) == 0
        assert [r["name"] for r in read_events(str(path))
                if r["type"] == "event"] == ["unit.tick"]


class TestOverheadBound:
    def test_enabled_recording_is_negligible(self):
        """ISSUE 9 bound: the always-on ring must stay under 5% overhead.

        Mirrors the null-span bound in test_integration: accept either the
        relative bound or a per-record cost so small (<5us) that it cannot
        amount to 5% of any sweep that emits telemetry at sane rates.
        """
        on = FlightRecorder(capacity=DEFAULT_CAPACITY, enabled=True)
        off = FlightRecorder(capacity=DEFAULT_CAPACITY, enabled=False)
        n = 5000
        payload = {"name": "unit.metric", "value": 1.0}

        def pump(rec):
            for _ in range(n):
                rec.record("runtime.chunk", payload, ts=1.0)

        def best_of(fn, rec, reps=5):
            best = float("inf")
            for _ in range(reps):
                rec.clear()
                t0 = time.perf_counter()
                fn(rec)
                best = min(best, time.perf_counter() - t0)
            return best

        pump(on)  # warm caches before timing either variant
        t_off = best_of(pump, off)
        t_on = best_of(pump, on)
        per_record = (t_on - t_off) / n
        assert t_on < t_off * 1.05 or per_record < 5e-6, (
            f"flight-recorder overhead too high: {t_on / t_off:.3f}x "
            f"({per_record * 1e6:.2f} us/record)"
        )


class TestGlobalRecorder:
    def test_module_record_feeds_global_ring(self):
        flightrec.emit("unit.kind", {"a": 1})
        assert get_recorder().last("unit.kind")["data"] == {"a": 1}


class TestSweepEvents:
    def test_fig9_sweep_leaves_one_record_per_chunk_and_tick(self, monkeypatch):
        """No trace: the ring holds chunks and progress ticks only.

        Each value the sweep samples lives in one store (the registry); the
        ring gets one event per chunk and per progress tick and no copies
        of metric samples.
        """
        from collections import Counter

        from repro.sim.experiments import run_fig9

        monkeypatch.setenv("REPRO_PROGRESS", "0")
        run_fig9(seed=2, n_aps=(2, 6), n_topologies=20, backend="auto")
        kinds = Counter(r["kind"] for r in get_recorder().snapshot())
        assert kinds == {"runtime.chunk": 6, "runtime.progress": 3}
