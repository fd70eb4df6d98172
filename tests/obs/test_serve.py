"""Live telemetry endpoint: routes, SSE stream, subscriber fan-out, watch client."""

import io
import json
import queue
import urllib.request

import pytest

from repro.obs.alerts import AlertEngine, AlertRule
from repro.obs.export import validate_openmetrics
from repro.obs.flightrec import EVENTS_DROPPED, FlightRecorder
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.serve import (
    EXIT_ALERT,
    OPENMETRICS_CONTENT_TYPE,
    TelemetryServer,
    _iter_sse_frames,
    fetch_json,
    render_status,
    stream_events,
    watch,
)


@pytest.fixture
def server():
    """An isolated TelemetryServer on an ephemeral port (no globals)."""
    registry = MetricsRegistry()
    registry.counter("runtime.chunks_run").inc(3)
    registry.gauge("sim.goodput_mbps").set(36.0)
    registry.histogram("mac.phase_error_rad").observe(0.01)
    engine = AlertEngine([
        AlertRule(name="test.err_budget", series="sim.err",
                  kind="budget", stat="last", threshold=0.05),
    ])
    srv = TelemetryServer(
        port=0, registry=registry, engine=engine,
        eval_interval_s=10.0,  # evaluate manually in tests
    )
    srv.start()
    yield srv
    srv.stop()


def get(url, timeout=2.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.headers, resp.read().decode()


class TestEndpoints:
    def test_ephemeral_port_is_bound(self, server):
        assert server.port != 0
        assert server.url == f"http://127.0.0.1:{server.port}"
        assert server.running

    def test_index_lists_endpoints(self, server):
        body = fetch_json(server.url + "/")
        assert set(body["endpoints"]) == {
            "/metrics", "/timeseries", "/alerts", "/events",
        }

    def test_metrics_is_valid_openmetrics(self, server):
        status, headers, text = get(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"] == OPENMETRICS_CONTENT_TYPE
        assert validate_openmetrics(text) == []
        assert "runtime_chunks_run_total 3" in text

    def test_timeseries_rollups_and_params(self, server):
        for i in range(4):
            server.registry.histogram("sim.err").observe(0.01 * i, ts=float(i))
        body = fetch_json(server.url + "/timeseries")
        assert body["series"]["sim.err"]["count"] == 4
        body = fetch_json(server.url + "/timeseries?name=sim.e*")
        assert set(body["series"]) == {"sim.err"}
        # the samples are decades old: a 60-s window holds none of them
        body = fetch_json(server.url + "/timeseries?since_s=60&name=sim.e*")
        assert body["series"]["sim.err"]["count"] == 0
        assert body["series"]["sim.err"]["total"] == 4

    def test_alerts_view_reflects_engine_state(self, server):
        body = fetch_json(server.url + "/alerts")
        assert body["firing"] == []
        assert body["rules"]["test.err_budget"]["status"] == "ok"
        server.registry.histogram("sim.err").observe(0.2)
        server.evaluate_once()
        body = fetch_json(server.url + "/alerts")
        (firing,) = body["firing"]
        assert firing["rule"] == "test.err_budget"
        assert firing["kind"] == "budget"

    def test_unknown_route_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server.url + "/nope")
        assert err.value.code == 404

    def test_timeseries_reads_the_registry(self, server):
        series = fetch_json(server.url + "/timeseries")["series"]
        assert series["runtime.chunks_run"] == {"type": "counter", "last": 3.0}
        assert series["sim.goodput_mbps"]["last"] == 36.0
        assert series["mac.phase_error_rad"]["p95"] == pytest.approx(0.01)

    def test_stop_is_idempotent(self, server):
        server.stop()
        assert not server.running
        server.stop()  # second call is a no-op

    def test_start_twice_is_a_noop(self, server):
        port = server.port
        assert server.start() is server
        assert server.port == port


class TestSse:
    def _read_frames(self, server, n_frames, timeout=5.0):
        """Read SSE frames (event+data line pairs), skipping keep-alives."""
        req = urllib.request.Request(server.url + "/events")
        frames = []
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            assert resp.headers["Content-Type"].startswith("text/event-stream")
            while len(frames) < n_frames:
                line = resp.readline().decode()
                if not line:
                    break  # server closed the stream
                if line.startswith("event: "):
                    kind = line[len("event: "):].strip()
                    data = resp.readline().decode()
                    assert data.startswith("data: ")
                    frames.append((kind, json.loads(data[len("data: "):])))
        return frames

    def test_hello_frame_arrives_first(self, server):
        (frame,) = self._read_frames(server, 1)
        kind, payload = frame
        assert kind == "hello"
        assert "/metrics" in payload["endpoints"]

    def test_alert_transition_streams_as_sse_frame(self, server):
        # breach the budget, then evaluate from a thread while we read
        import threading

        server.registry.histogram("sim.err").observe(0.2)
        timer = threading.Timer(0.2, server.evaluate_once)
        timer.start()
        try:
            frames = self._read_frames(server, 2)
        finally:
            timer.cancel()
        kinds = [k for k, _ in frames]
        assert kinds == ["hello", "obs.alert"]
        _, alert = frames[1]
        assert alert["rule"] == "test.err_budget"
        assert alert["status"] == "firing" and alert["previous"] == "ok"
        assert alert["value"] == pytest.approx(0.2)

    def test_stopping_closes_the_stream(self, server):
        import threading

        threading.Timer(0.2, server.stop).start()
        # the reader unblocks promptly instead of hanging on keep-alives
        frames = self._read_frames(server, 99, timeout=5.0)
        assert frames[0][0] == "hello"
        assert len(frames) < 99


class TestEventBus:
    """SSE fan-out: the flight recorder hands each event to subscribers."""

    @staticmethod
    def _dropped():
        return get_registry().counter(EVENTS_DROPPED).value

    def test_fanout_to_all_subscribers(self):
        rec = FlightRecorder(enabled=True)
        a, b = rec.subscribe(), rec.subscribe()
        before = self._dropped()
        rec.record("tick", {"n": 1})
        assert a.get_nowait() == ("tick", {"n": 1})
        assert b.get_nowait() == ("tick", {"n": 1})
        assert rec.total == 1 and self._dropped() == before

    def test_full_subscriber_drops_without_blocking(self):
        rec = FlightRecorder(enabled=True)
        q = rec.subscribe(maxsize=2)
        before = self._dropped()
        for i in range(5):
            rec.record("tick", {"n": i})
        assert self._dropped() == before + 3
        assert q.qsize() == 2
        assert q.get_nowait()[1] == {"n": 0}  # oldest frames are kept

    def test_unsubscribe_stops_delivery(self):
        rec = FlightRecorder(enabled=True)
        q = rec.subscribe()
        rec.unsubscribe(q)
        rec.record("tick", {})
        with pytest.raises(queue.Empty):
            q.get_nowait()

    def test_payload_is_copied_per_subscriber(self):
        rec = FlightRecorder(enabled=True)
        a, b = rec.subscribe(), rec.subscribe()
        payload = {"n": 1}
        rec.record("tick", payload)
        payload["n"] = 99  # later producer-side mutation must not leak
        frame_a = a.get_nowait()[1]
        assert frame_a == {"n": 1}
        frame_a["n"] = 7  # nor may one subscriber corrupt another's frame
        assert b.get_nowait()[1] == {"n": 1}


class TestWatch:
    def test_healthy_watch_renders_and_exits_zero(self, server):
        server.registry.histogram("sim.err").observe(0.01)
        out = io.StringIO()
        code = watch(server.url, iterations=1, stream=out)
        assert code == 0
        text = out.getvalue()
        assert "sim.err" in text
        assert "0 firing / 1 rules" in text

    def test_fail_on_alert_exit_code(self, server):
        server.registry.histogram("sim.err").observe(0.2)
        server.evaluate_once()
        out = io.StringIO()
        code = watch(server.url, iterations=1, fail_on_alert=True, stream=out)
        assert code == EXIT_ALERT
        assert "FIRING" in out.getvalue()
        assert "test.err_budget" in out.getvalue()

    def test_firing_without_flag_still_exits_zero(self, server):
        server.registry.histogram("sim.err").observe(0.2)
        server.evaluate_once()
        code = watch(server.url, iterations=1, stream=io.StringIO())
        assert code == 0

    def test_unreachable_endpoint_exits_one(self):
        out = io.StringIO()
        code = watch("http://127.0.0.1:9", iterations=1, stream=out,
                     timeout=0.5)
        assert code == 1
        assert "unreachable" in out.getvalue()

    def test_scheme_is_optional(self, server):
        code = watch(f"127.0.0.1:{server.port}", iterations=1,
                     stream=io.StringIO())
        assert code == 0

    def test_name_glob_filters_series(self, server):
        server.registry.histogram("sim.err").observe(0.01)
        server.registry.histogram("runtime.rate").observe(5.0)
        out = io.StringIO()
        watch(server.url, iterations=1, name="runtime.*", stream=out)
        text = out.getvalue()
        assert "runtime.rate" in text
        assert "sim.err" not in text


class TestRenderStatus:
    def test_empty_store_renders_header_only(self):
        text = render_status({"series": {}}, {"rules": {}, "firing": []})
        assert "series" in text
        assert "alerts: 0 firing / 0 rules" in text

    def test_firing_rows_show_rule_details(self):
        alerts = {
            "rules": {"a.b": {}},
            "firing": [{
                "rule": "a.b", "series": "s.x", "stat": "p95",
                "value": 0.2, "threshold": 0.05, "op": "above",
                "severity": "critical",
            }],
        }
        text = render_status({"series": {}}, alerts)
        assert "FIRING [critical] a.b" in text
        assert "p95=0.2" in text


class TestDropTelemetry:
    """Satellite: subscriber drops surface as the obs.events.dropped counter."""

    def test_drops_land_on_metric_and_series(self):
        rec = FlightRecorder(enabled=True)
        rec.subscribe(maxsize=1)
        before = get_registry().counter(EVENTS_DROPPED).value
        for i in range(4):
            rec.record("tick", {"n": i})
        dropped = get_registry().counter(EVENTS_DROPPED)
        assert dropped.value == before + 3
        # the counter is one of the registry metrics /timeseries reports
        live = get_registry().rollups(names=EVENTS_DROPPED)
        assert live[EVENTS_DROPPED]["last"] == dropped.value

    def test_clean_publish_records_nothing_new(self):
        rec = FlightRecorder(enabled=True)
        rec.subscribe(maxsize=4)
        before = get_registry().counter(EVENTS_DROPPED).value
        rec.record("tick", {"n": 1})
        assert get_registry().counter(EVENTS_DROPPED).value == before


class TestStreamEvents:
    def test_iter_sse_frames_parses_events_keepalives_and_raw(self):
        raw = (b"event: progress\n"
               b'data: {"a": 1}\n'
               b"\n"
               b": keep-alive\n"
               b"data: notjson\n"
               b"\n")
        frames = list(_iter_sse_frames(io.BytesIO(raw)))
        assert frames == [
            ("progress", {"a": 1}),
            (None, None),
            ("message", {"raw": "notjson"}),
        ]

    def test_bounded_stream_exits_zero(self, server):
        out = io.StringIO()
        assert stream_events(server.url, max_events=1, stream=out) == 0
        (line,) = [ln for ln in out.getvalue().splitlines()
                   if ln.startswith("{")]
        doc = json.loads(line)
        assert doc["event"] == "hello"

    def test_no_reconnect_exits_one_on_unreachable(self):
        out = io.StringIO()
        code = stream_events("http://127.0.0.1:9", reconnect=False,
                             timeout=0.5, stream=out)
        assert code == 1
        assert "unreachable" in out.getvalue()

    def test_gives_up_after_retry_budget(self, monkeypatch):
        import repro.obs.serve as serve_mod

        monkeypatch.setattr(serve_mod, "STREAM_BACKOFF_S", 0.01)
        monkeypatch.setattr(serve_mod, "STREAM_BACKOFF_CAP_S", 0.02)
        monkeypatch.setattr(serve_mod, "STREAM_RETRIES", 3)
        out = io.StringIO()
        code = stream_events("http://127.0.0.1:9", timeout=0.3, stream=out)
        assert code == 1
        text = out.getvalue()
        assert text.count("reconnecting") == 3
        assert "giving up after 3" in text

    def test_reconnects_across_drops_and_resets_budget(self, monkeypatch):
        import urllib.request as _request

        import repro.obs.serve as serve_mod

        monkeypatch.setattr(serve_mod, "STREAM_BACKOFF_S", 0.01)
        monkeypatch.setattr(serve_mod, "STREAM_BACKOFF_CAP_S", 0.02)
        responses = [
            io.BytesIO(b'data: {"n": 1}\n\n'),      # one frame, clean close
            urllib.error.URLError("still down"),    # failed reconnect
            io.BytesIO(b'data: {"n": 2}\n\n'),      # back up again
        ]

        def fake_urlopen(url, timeout=None):
            item = responses.pop(0)
            if isinstance(item, Exception):
                raise item
            return item

        monkeypatch.setattr(_request, "urlopen", fake_urlopen)
        monkeypatch.setattr(serve_mod, "STREAM_RETRIES", 2)
        out = io.StringIO()
        code = stream_events("http://127.0.0.1:9", max_events=2, stream=out)
        assert code == 0
        lines = out.getvalue().splitlines()
        payloads = [json.loads(ln)["n"] for ln in lines if ln.startswith("{")]
        assert payloads == [1, 2]
        assert sum("reconnecting" in ln for ln in lines) == 2
