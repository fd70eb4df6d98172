"""Command-line interface."""

import json
import urllib.request

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

    def test_default_seeds_come_from_the_claims_table(self):
        # ledger config hashes record these seeds, so they must not move
        from repro.sim.claims import CLAIMS

        seeds = {key: CLAIMS[key].seed for key in (
            "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
            "sync", "tracking", "sounding", "cfo", "overhead", "screening",
        )}
        assert seeds == {
            "fig6": 1, "fig7": 2, "fig8": 3, "fig9": 4, "fig10": 4, "fig11": 5,
            "fig12": 6, "fig13": 6, "sync": 7, "tracking": 8, "sounding": 9,
            "cfo": 10, "overhead": 11, "screening": 14,
        }
        for name in ("feedback", "grouping"):  # report/tier-1 only
            with pytest.raises(SystemExit):
                build_parser().parse_args(["ablation", name])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.n_aps == 4 and args.arrival_rate is None

    def test_alert_rules_are_builtin_only(self):
        # the TOML overlay (--alerts FILE) is gone: rules are builtin_rules()
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--alerts", "a.toml"])

    def test_fail_on_alert_requires_serve_port(self, capsys):
        # no server means no alert engine: the flag must not silently pass
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n-aps", "2", "--n-clients", "2",
                  "--duration", "0.05", "--seed", "3", "--no-ledger",
                  "--fail-on-alert"])
        assert exc.value.code == 2
        assert "--fail-on-alert requires --serve-port" in capsys.readouterr().err


class TestObsSurface:
    """``repro obs`` is profile, runs and regress; nothing else parses."""

    def test_obs_help_lists_exactly_three_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["obs", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        # argparse prints the full choice list of the obs subcommands
        assert "{profile,runs,regress}" in out

    @pytest.mark.parametrize("argv", [
        ["obs", "summarize", "t.jsonl"],
        ["obs", "export", "csv"],
        ["obs", "watch", "http://127.0.0.1:9"],
        ["obs", "serve"],
        ["obs", "blackbox", "list"],
    ])
    def test_removed_obs_commands_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


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
        from repro.obs.serve import TelemetryServer

        def fetch_json(url):
            with urllib.request.urlopen(url, timeout=2.0) as resp:
                return json.loads(resp.read().decode())

        orig_stop = TelemetryServer.stop

        def probing_stop(self):
            if self.running and not probes:
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
        assert code == 3  # EXIT_ALERT: distinct from regress's 1
        # the firing made it into the run ledger as a structured alarm
        ledger = tmp_path / "runs" / "ledger.jsonl"
        record = json.loads(ledger.read_text().splitlines()[-1])
        assert record["status"] == "alert"
        # the live engine's alarms are recorded once, next to the crash
        # bundle the critical firing wrote
        rules = [a["rule"] for a in record["alarms"] if a["kind"] == "alert_budget"]
        assert rules == ["fastsim.phase_error_p50", "fastsim.phase_error_p95"]
        (p95,) = [a for a in record["alarms"]
                  if a.get("rule") == "fastsim.phase_error_p95"]
        assert p95["kind"] == "alert_budget"
        assert p95["severity"] == "critical"
        assert p95["value"] > p95["threshold"]

    def test_clean_ten_ap_run_stays_within_the_budget(self, clean_registry, capsys):
        # the budget is per slave: a clean run fires nothing however many
        # slaves each packet has
        assert main([
            "simulate", "--n-aps", "10", "--n-clients", "10",
            "--duration", "0.2", "--seed", "5", "--no-ledger",
            "--serve-port", "0", "--fail-on-alert",
        ]) == 0

    def test_same_fault_without_fail_on_alert_still_exits_zero(
        self, clean_registry, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_PHASE_SIGMA_SCALE", "40")
        assert main([
            "simulate", "--n-aps", "2", "--n-clients", "2",
            "--duration", "0.05", "--seed", "3", "--serve-port", "0",
        ]) == 0
