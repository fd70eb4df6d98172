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

    @pytest.mark.parametrize("command", [
        ["figure", "6"], ["ablation", "sync"], ["simulate"], ["quickstart"], ["report"],
    ])
    def test_fail_on_alert_parses_on_run_commands(self, command):
        assert build_parser().parse_args([*command, "--fail-on-alert"]).fail_on_alert

    @pytest.mark.parametrize("command", [
        ["obs", "runs", "list"], ["obs", "regress"], ["obs", "profile", "t.jsonl"], ["lint"],
    ])
    def test_fail_on_alert_is_an_error_off_the_run_commands(self, command, capsys):
        # these commands judge nothing, so the flag would be a silent no-op
        with pytest.raises(SystemExit) as exc:
            main([*command, "--fail-on-alert"])
        assert exc.value.code == 2
        assert "--fail-on-alert" in capsys.readouterr().err

    def test_serve_port_is_gone(self, capsys):
        # alerts are judged once at the end of the run; there is no server
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["simulate", "--serve-port", "0"])
        assert exc.value.code == 2


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
    """Zero the process-global metrics registry around a judged run.

    ``main`` resets the registry when a run command starts; resetting
    after the test too keeps an injected sync fault's samples out of
    later tests in the same process.
    """
    metrics.reset()
    yield metrics.get_registry()
    metrics.reset()


#: The 3-AP run the end-of-run judge is pinned on.
SIMULATE_3AP = ["simulate", "--n-aps", "3", "--n-clients", "3",
                "--duration", "0.2", "--seed", "5"]


def last_record(tmp_path) -> dict:
    ledger = tmp_path / "runs" / "ledger.jsonl"
    return json.loads(ledger.read_text().splitlines()[-1])


class TestLiveTelemetry:
    """The end-of-run alert judge every run command passes through."""

    def test_doubled_phase_noise_exits_3_with_one_linked_bundle(
        self, clean_registry, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_PHASE_SIGMA_SCALE", "2")
        assert main([*SIMULATE_3AP, "--fail-on-alert"]) == 3
        record = last_record(tmp_path)
        assert record["status"] == "alert"
        rules = [a["rule"] for a in record["alarms"] if a["kind"] == "alert_budget"]
        assert rules == ["fastsim.phase_error_p50", "fastsim.phase_error_p95"]
        # the critical p95 firing wrote one crash bundle, linked both ways
        (link,) = [a for a in record["alarms"] if a["kind"] == "crash_bundle"]
        assert link["reason"] == "critical_alert"
        bundles = sorted((tmp_path / "runs").glob("crash-*"))
        assert [b.name for b in bundles] == [link["bundle_id"]]
        manifest = json.loads((bundles[0] / "bundle.json").read_text())
        assert manifest["run_id"] == record["run_id"]
        assert manifest["detail"] == {"rules": ["fastsim.phase_error_p95"]}

    def test_clean_three_ap_run_exits_0(self, clean_registry, tmp_path, capsys):
        assert main([*SIMULATE_3AP, "--fail-on-alert"]) == 0
        record = last_record(tmp_path)
        assert record["status"] == "ok" and record["alarms"] == []
        assert not list((tmp_path / "runs").glob("crash-*"))

    def test_injected_sync_fault_fails_the_run_and_lands_in_the_ledger(
        self, clean_registry, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_PHASE_SIGMA_SCALE", "40")
        code = main([
            "simulate", "--n-aps", "2", "--n-clients", "2",
            "--duration", "0.05", "--seed", "3", "--fail-on-alert",
        ])
        assert code == 3  # EXIT_ALERT: distinct from regress's 1
        # the firing made it into the run ledger as a structured alarm
        record = last_record(tmp_path)
        assert record["status"] == "alert"
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
            "--fail-on-alert",
        ]) == 0

    def test_same_fault_without_fail_on_alert_still_exits_zero(
        self, clean_registry, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_PHASE_SIGMA_SCALE", "40")
        assert main([
            "simulate", "--n-aps", "2", "--n-clients", "2",
            "--duration", "0.05", "--seed", "3",
        ]) == 0

    def test_pool_sweep_is_judged_like_an_in_parent_one(
        self, clean_registry, capsys, monkeypatch
    ):
        # the samples are observed in the pool workers; the judge sees
        # them only because the chunk envelopes carry them home
        argv = ["figure", "8", "--scale", "0.1", "--workers", "2",
                "--no-ledger", "--fail-on-alert"]
        assert main(argv) == 0
        monkeypatch.setenv("REPRO_PHASE_SIGMA_SCALE", "2")
        assert main(argv) == 3
