"""Live telemetry endpoint: routes, lifecycle, alert evaluation."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.alerts import AlertEngine, AlertRule
from repro.obs.export import validate_openmetrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.serve import OPENMETRICS_CONTENT_TYPE, TelemetryServer


@pytest.fixture
def server():
    """An isolated TelemetryServer on an ephemeral port (no globals)."""
    registry = MetricsRegistry()
    registry.counter("runtime.chunks_run").inc(3)
    registry.gauge("sim.goodput_mbps").set(36.0)
    registry.histogram("fastsim.phase_error_rad").observe(0.01)
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


def fetch_json(url):
    return json.loads(get(url)[2])


class TestEndpoints:
    def test_ephemeral_port_is_bound(self, server):
        assert server.port != 0
        assert server.url == f"http://127.0.0.1:{server.port}"
        assert server.running

    def test_index_lists_endpoints(self, server):
        body = fetch_json(server.url + "/")
        assert set(body["endpoints"]) == {"/metrics", "/timeseries", "/alerts"}

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

    def test_events_stream_is_not_served(self, server):
        # events reach readers through the ring and the JSONL trace only
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server.url + "/events")
        assert err.value.code == 404

    def test_timeseries_reads_the_registry(self, server):
        series = fetch_json(server.url + "/timeseries")["series"]
        assert series["runtime.chunks_run"] == {"type": "counter", "last": 3.0}
        assert series["sim.goodput_mbps"]["last"] == 36.0
        assert series["fastsim.phase_error_rad"]["p95"] == pytest.approx(0.01)

    def test_stop_is_idempotent(self, server):
        server.stop()
        assert not server.running
        server.stop()  # second call is a no-op

    def test_start_twice_is_a_noop(self, server):
        port = server.port
        assert server.start() is server
        assert server.port == port
