"""Alert engine: rule validation, one judging pass over the registry, built-ins."""

import pytest

from repro.core.phasesync import (
    PHASE_ERROR_BUDGET_MEDIAN_RAD,
    PHASE_ERROR_BUDGET_P95_RAD,
)
from repro.obs.alerts import AlertEngine, AlertRule, builtin_rules
from repro.obs.metrics import MetricsRegistry


def fill(reg, name, values):
    for v in values:
        reg.histogram(name).observe(v)


class TestAlertRule:
    def test_defaults(self):
        r = AlertRule(name="a.b", series="s.x", threshold=1.0)
        assert r.kind == "threshold" and r.stat == "last" and r.op == "above"
        assert r.min_count == 1 and r.severity == "warning"

    @pytest.mark.parametrize("kwargs", [
        {"kind": "nope"},
        {"stat": "p42"},
        {"op": "sideways"},
        {"severity": "fatal"},
        {"min_count": 0},
    ])
    def test_invalid_fields_raise(self, kwargs):
        with pytest.raises(ValueError):
            AlertRule(name="a.b", series="s.x", threshold=1.0, **kwargs)

    def test_unconventional_name_warns_but_constructs(self, caplog):
        import logging

        logging.getLogger("repro").propagate = True
        with caplog.at_level(logging.WARNING, logger="repro.obs.alerts"):
            r = AlertRule(name="BadName", series="s.x", threshold=1.0)
        assert r.name == "BadName"
        assert any("OBS004" in rec.getMessage() for rec in caplog.records)

    def test_to_dict_round_trips_fields(self):
        r = AlertRule(name="a.b", series="s.x", threshold=1.0, min_count=3)
        d = r.to_dict()
        assert d["name"] == "a.b" and d["min_count"] == 3
        assert AlertRule(**d) == r


class TestStateMachine:
    """One judging pass: a rule either fired or it did not."""

    def _engine(self, **kwargs):
        defaults = dict(name="t.rule", series="s.x", threshold=1.0)
        defaults.update(kwargs)
        return AlertEngine([AlertRule(**defaults)])

    def test_immediate_fire_without_for_duration(self):
        reg = MetricsRegistry()
        engine = self._engine()
        fill(reg, "s.x", [0.5, 2.0])
        (alarm,) = engine.evaluate(reg)
        assert alarm["rule"] == "t.rule"
        assert alarm["value"] == 2.0 and alarm["threshold"] == 1.0
        assert engine.fired_alarms() == [alarm]

    def test_no_transition_while_healthy(self):
        reg = MetricsRegistry()
        engine = self._engine()
        fill(reg, "s.x", [2.0, 0.5])  # "last" reads the newest sample
        assert engine.evaluate(reg) == []
        assert engine.fired_alarms() == []

    def test_below_direction(self):
        reg = MetricsRegistry()
        engine = self._engine(op="below", threshold=0.5)
        fill(reg, "s.x", [0.2])
        (alarm,) = engine.evaluate(reg)
        assert alarm["value"] == 0.2

    def test_min_count_holds_judgement(self):
        reg = MetricsRegistry()
        engine = self._engine(min_count=3)
        fill(reg, "s.x", [5.0, 5.0])
        assert engine.evaluate(reg) == []  # 2 < min_count
        fill(reg, "s.x", [5.0])
        (alarm,) = engine.evaluate(reg)
        assert alarm["rule"] == "t.rule"

    def test_counter_rule_reads_the_current_value(self):
        reg = MetricsRegistry()
        engine = self._engine(series="runtime.stalls", threshold=0.0)
        stalls = reg.counter("runtime.stalls")
        assert engine.evaluate(reg) == []  # 0 is not above 0
        stalls.inc()
        (alarm,) = engine.evaluate(reg)
        assert alarm["value"] == 1.0

    def test_missing_series_reads_as_ok(self):
        engine = self._engine()
        assert engine.evaluate(MetricsRegistry()) == []

    def test_window_excludes_stale_breaches(self):
        # the judge reads the retained ring: a spike that left it is gone
        reg = MetricsRegistry()
        engine = self._engine(stat="max")
        reg.histogram("s.x", capacity=4).observe(5.0)  # old spike
        fill(reg, "s.x", [0.1] * 4)
        assert engine.evaluate(reg) == []

    def test_fired_alarms_shape_and_worst_value(self):
        reg = MetricsRegistry()
        engine = self._engine(kind="budget", stat="max")
        fill(reg, "s.x", [2.0, 3.5, 0.1])
        engine.evaluate(reg)
        (alarm,) = engine.fired_alarms()
        assert alarm == {
            "kind": "alert_budget", "rule": "t.rule", "metric": "s.x",
            "stat": "max", "value": 3.5, "threshold": 1.0,
            "severity": "warning",
        }

    def test_no_alarms_when_nothing_fired(self):
        engine = self._engine()
        assert engine.fired_alarms() == []


class TestBuiltinRules:
    def test_phase_budgets_match_the_paper_constants(self):
        rules = {r.name: r for r in builtin_rules()}
        budget = [r for r in rules.values() if r.kind == "budget"]
        p50 = rules["fastsim.phase_error_p50"]
        p95 = rules["fastsim.phase_error_p95"]
        assert budget == [p50, p95]  # one §7.3 judge, over one histogram
        assert p50.threshold == PHASE_ERROR_BUDGET_MEDIAN_RAD
        assert p95.threshold == PHASE_ERROR_BUDGET_P95_RAD
        assert p95.severity == "critical"
        assert p50.series == p95.series == "fastsim.phase_error_rad"
        assert p50.min_count == p95.min_count == 8
        assert set(rules) == {
            "fastsim.phase_error_p50", "fastsim.phase_error_p95",
            "runtime.watchdog_stall",
        }

    def test_builtin_p95_budget_fires_on_degraded_sync(self):
        reg = MetricsRegistry()
        engine = AlertEngine(builtin_rules())
        fill(reg, "fastsim.phase_error_rad", [0.2] * 10)
        fired = {a["rule"] for a in engine.evaluate(reg)}
        assert fired == {"fastsim.phase_error_p50", "fastsim.phase_error_p95"}

    def test_builtin_budgets_stay_quiet_within_budget(self):
        reg = MetricsRegistry()
        engine = AlertEngine(builtin_rules())
        fill(reg, "fastsim.phase_error_rad", [0.005] * 10)
        assert engine.evaluate(reg) == []
