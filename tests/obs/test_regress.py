"""``repro obs regress`` over the claims table, and the one §7.3 judge."""

import json

import pytest

from repro.cli import main
from repro.core.phasesync import PHASE_ERROR_BUDGET_P95_RAD
from repro.obs import metrics
from repro.obs.alerts import AlertEngine, builtin_rules
from repro.obs.metrics import MetricsRegistry
from repro.sim import claims
from repro.sim.claims import CLAIMS, Check, Claim
from repro.sim.fastsim import PHASE_SIGMA_SCALE_ENV


def _one(seed: int = 0) -> int:
    return 1


def _raises(seed: int = 0) -> int:
    raise ValueError("runner blew up")


def _claim(key: str, runner, holds) -> Claim:
    return Claim(key=key, title="", runner=runner, paper="", report=None,
                 checks=(Check(name="check", holds=holds, call={}),))


class TestCliExitCodes:
    """``repro obs regress`` via the real CLI, on a two-claim stub table."""

    def _regress(self, monkeypatch, capsys, *table):
        monkeypatch.setattr(claims, "CLAIMS", {c.key: c for c in table})
        code = main(["obs", "regress"])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_pass_breach_and_missing_baseline(self, monkeypatch, capsys):
        # the baseline file is gone; its failure mode, a check that cannot
        # be evaluated, is now a runner that raises
        ok = _claim("a", _one, lambda r: r == 1)
        code, out, _ = self._regress(monkeypatch, capsys, ok, _claim("b", _one, lambda r: r == 1))
        assert code == 0
        assert "regress passed: all 2 checks hold" in out

        code, out, _ = self._regress(monkeypatch, capsys, ok, _claim("b", _one, lambda r: r == 2))
        assert code == 1
        assert "BREACH" in out and "b/check" in out.splitlines()[-1]

        code, out, err = self._regress(monkeypatch, capsys, ok, _claim("c", _raises, bool))
        assert code == 1
        assert "ERROR ValueError: runner blew up" in out
        assert "Traceback" not in out + err


class TestBudgetClaim:
    def test_doubled_phase_noise_breaches_both_checks(self, monkeypatch):
        # the runner itself, not Claim.holds: memoized results ignore the
        # environment, so they would return the clean draw
        monkeypatch.setenv(PHASE_SIGMA_SCALE_ENV, "2")
        claim = CLAIMS["budget"]
        for check in claim.checks:
            result = claim.runner(**{"seed": claim.seed, **check.call})
            assert not check.holds(result), check.name


@pytest.fixture
def clean_registry():
    metrics.reset()
    yield
    metrics.reset()


def _simulate_alarms(tmp_path) -> list:
    assert main(["simulate", "--n-aps", "3", "--n-clients", "3",
                 "--duration", "0.2", "--seed", "5"]) == 0
    record = (tmp_path / "runs" / "ledger.jsonl").read_text().splitlines()[-1]
    return json.loads(record)["alarms"]


class TestSyncHealth:
    """``repro simulate`` judges the §7.3 budget rules once at the end."""

    def test_alarm_on_budget_breach(self, clean_registry, tmp_path, monkeypatch):
        monkeypatch.setenv(PHASE_SIGMA_SCALE_ENV, "2")
        alarms = {a["rule"]: a for a in _simulate_alarms(tmp_path)}
        assert set(alarms) == {"fastsim.phase_error_p50", "fastsim.phase_error_p95"}
        p95 = alarms["fastsim.phase_error_p95"]
        assert p95["kind"] == "alert_budget"
        assert p95["metric"] == "fastsim.phase_error_rad"
        assert p95["value"] > p95["threshold"] == PHASE_ERROR_BUDGET_P95_RAD

    def test_quiet_within_budget(self, clean_registry, tmp_path):
        assert _simulate_alarms(tmp_path) == []

    def test_quiet_with_too_few_samples(self):
        reg = MetricsRegistry()
        hist = reg.histogram("fastsim.phase_error_rad")
        floor = min(r.min_count for r in builtin_rules() if r.kind == "budget")
        for _ in range(floor - 1):
            hist.observe(10 * PHASE_ERROR_BUDGET_P95_RAD)
        engine = AlertEngine(builtin_rules())
        assert engine.evaluate(reg) == []
        assert engine.fired_alarms() == []
