"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import metrics


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_range(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "5"])
        args = build_parser().parse_args(["figure", "6"])
        assert args.number == 6

    def test_ablation_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ablation", "nonsense"])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.n_aps == 4 and args.arrival_rate is None

    def test_alert_rules_are_builtin_only(self):
        # the TOML overlay (--alerts FILE) is gone: rules are builtin_rules()
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--alerts", "a.toml"])


class TestCommands:
    def test_quickstart(self, capsys):
        assert main(["quickstart"]) == 0
        out = capsys.readouterr().out
        assert "client0: ok" in out

    def test_figure6(self, capsys):
        assert main(["figure", "6", "--scale", "0.2"]) == 0
        assert "misalignment" in capsys.readouterr().out

    def test_figure7_small(self, capsys):
        assert main(["figure", "7", "--scale", "0.2"]) == 0
        assert "median" in capsys.readouterr().out

    def test_figure11_small(self, capsys):
        assert main(["figure", "11", "--scale", "0.2"]) == 0
        assert "AP(Mbps)" in capsys.readouterr().out

    def test_figure12_small(self, capsys):
        assert main(["figure", "12", "--scale", "0.2"]) == 0
        assert "gain" in capsys.readouterr().out

    def test_ablation_cfo(self, capsys):
        assert main(["ablation", "cfo"]) == 0
        assert "alpha" in capsys.readouterr().out

    def test_ablation_sounding(self, capsys):
        assert main(["ablation", "sounding"]) == 0
        assert "interleaved" in capsys.readouterr().out

    def test_simulate(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--n-aps", "2",
                    "--n-clients", "2",
                    "--duration", "0.05",
                    "--seed", "3",
                ]
            )
            == 0
        )
        assert "goodput" in capsys.readouterr().out


@pytest.fixture
def clean_registry():
    """Zero the process-global metrics registry around a live-serve test.

    The alert rules read the registry's histograms (wall-clock windows);
    without this, one test's injected sync fault would trip the §7.3
    budget rules of every later test in the same process.
    """
    metrics.reset()
    yield metrics.get_registry()
    metrics.reset()


class TestLiveTelemetry:
    def _probe_on_stop(self, monkeypatch, probes: dict):
        """Sample the endpoints at the moment the CLI stops its server.

        ``--serve-port`` runs stop the server right after dispatch, while
        the process is still inside ``main``; hooking stop() observes the
        endpoint exactly as a live scraper would during the run.
        """
        from repro.obs.serve import TelemetryServer, fetch_json

        orig_stop = TelemetryServer.stop

        def probing_stop(self):
            if self.running and not probes:
                import urllib.request

                with urllib.request.urlopen(self.url + "/metrics",
                                            timeout=2.0) as resp:
                    probes["metrics"] = resp.read().decode()
                    probes["content_type"] = resp.headers["Content-Type"]
                probes["timeseries"] = fetch_json(self.url + "/timeseries")
                probes["alerts"] = fetch_json(self.url + "/alerts")
            orig_stop(self)

        monkeypatch.setattr(TelemetryServer, "stop", probing_stop)

    def test_serve_port_exposes_live_endpoints_during_a_run(
        self, clean_registry, capsys, monkeypatch
    ):
        from repro.obs.export import validate_openmetrics

        probes: dict = {}
        self._probe_on_stop(monkeypatch, probes)
        assert main(["figure", "6", "--scale", "0.2",
                     "--serve-port", "0"]) == 0
        assert "serving live telemetry on http://127.0.0.1:" in (
            capsys.readouterr().err
        )
        assert validate_openmetrics(probes["metrics"]) == []
        assert probes["content_type"].startswith("application/openmetrics-text")
        # the sweep's progress reached the live registry view
        series = probes["timeseries"]["series"]
        assert series["runtime.trials_done"]["last"] > 0
        assert series["runtime.worker_utilization"]["count"] >= 1
        assert probes["alerts"]["firing"] == []

    def test_injected_sync_fault_fails_the_run_and_lands_in_the_ledger(
        self, clean_registry, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_PHASE_SIGMA_SCALE", "40")
        code = main([
            "simulate", "--n-aps", "2", "--n-clients", "2",
            "--duration", "0.05", "--seed", "3",
            "--serve-port", "0", "--fail-on-alert",
        ])
        assert code == 3  # EXIT_ALERT: distinct from regress's 1/2
        # the firing made it into the run ledger as a structured alarm
        ledger = tmp_path / "runs" / "ledger.jsonl"
        record = json.loads(ledger.read_text().splitlines()[-1])
        assert record["status"] == "alert"
        # both vocabularies land side by side: the exit-time sync-health
        # alarms (kind-only) and the live alert-engine firings (rule-keyed)
        rules = {a.get("rule") for a in record["alarms"]}
        assert "mac.phase_error_p95" in rules
        (p95,) = [a for a in record["alarms"]
                  if a.get("rule") == "mac.phase_error_p95"]
        assert p95["kind"] == "alert_budget"
        assert p95["severity"] == "critical"
        assert p95["value"] > p95["threshold"]

    def test_same_fault_without_fail_on_alert_still_exits_zero(
        self, clean_registry, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_PHASE_SIGMA_SCALE", "40")
        assert main([
            "simulate", "--n-aps", "2", "--n-clients", "2",
            "--duration", "0.05", "--seed", "3", "--serve-port", "0",
        ]) == 0

    def test_obs_serve_runs_for_duration_and_announces(self, capsys):
        assert main(["obs", "serve", "--port", "0", "--duration",
                     "0.05"]) == 0
        err = capsys.readouterr().err
        assert "serving live telemetry on http://127.0.0.1:" in err

    def test_obs_watch_once_against_a_live_server(self, clean_registry, capsys):
        from repro.obs.serve import TelemetryServer

        clean_registry.histogram("sim.err").observe(0.01)
        server = TelemetryServer(port=0).start()
        try:
            assert main(["obs", "watch", server.url, "--once"]) == 0
        finally:
            server.stop()
        assert "sim.err" in capsys.readouterr().out

    def test_obs_watch_fail_on_alert_exit_code(self, clean_registry, capsys):
        from repro.obs.alerts import AlertEngine, AlertRule
        from repro.obs.serve import TelemetryServer

        engine = AlertEngine([AlertRule(
            name="test.err_budget", series="sim.err", threshold=0.05,
        )])
        clean_registry.histogram("sim.err").observe(0.2)
        server = TelemetryServer(port=0, engine=engine).start()
        server.evaluate_once()
        try:
            assert main(["obs", "watch", server.url, "--once",
                         "--fail-on-alert"]) == 3
        finally:
            server.stop()

    def test_obs_watch_unreachable_exits_one(self, capsys):
        assert main(["obs", "watch", "http://127.0.0.1:9", "--once"]) == 1

    def test_obs_watch_events_streams_sse_lines(self, clean_registry, capsys):
        from repro.obs.serve import TelemetryServer

        server = TelemetryServer(port=0).start()
        try:
            assert main(["obs", "watch", server.url, "--events",
                         "--max-events", "1"]) == 0
        finally:
            server.stop()
        out = capsys.readouterr().out
        assert json.loads(out.splitlines()[0])["event"] == "hello"

    def test_obs_watch_events_no_reconnect_exits_one(self, capsys):
        assert main(["obs", "watch", "http://127.0.0.1:9", "--events",
                     "--no-reconnect"]) == 1


class TestBlackboxParser:
    def test_show_defaults_to_latest(self):
        args = build_parser().parse_args(["obs", "blackbox", "show"])
        assert args.bundle == "latest"
        assert args.records == 10 and args.as_json is False

    def test_list_and_show_parse(self):
        args = build_parser().parse_args(["obs", "blackbox", "list"])
        assert args.blackbox_command == "list"
        args = build_parser().parse_args(
            ["obs", "blackbox", "show", "abc", "--records", "3", "--json"])
        assert (args.bundle, args.records, args.as_json) == ("abc", 3, True)

    def test_watch_events_flags(self):
        args = build_parser().parse_args(
            ["obs", "watch", "u", "--events", "--no-reconnect",
             "--max-events", "5"])
        assert args.events and args.no_reconnect
        assert args.max_events == 5
        # reconnect tuning is fixed (serve.STREAM_RETRIES), not a flag
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["obs", "watch", "u", "--events", "--max-retries", "2"])
