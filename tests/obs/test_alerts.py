"""Alert engine: rule validation, state machine over the registry, built-ins."""

import pytest

from repro.core.phasesync import (
    PHASE_ERROR_BUDGET_MEDIAN_RAD,
    PHASE_ERROR_BUDGET_P95_RAD,
)
from repro.obs.alerts import AlertEngine, AlertRule, builtin_rules
from repro.obs.metrics import MetricsRegistry


def observe(reg, name, value, ts):
    reg.histogram(name).observe(value, ts=ts)


def fill(reg, name, values, t0=0.0, dt=1.0):
    for i, v in enumerate(values):
        observe(reg, name, v, ts=t0 + i * dt)


class TestAlertRule:
    def test_defaults(self):
        r = AlertRule(name="a.b", series="s.x", threshold=1.0)
        assert r.kind == "threshold" and r.stat == "last" and r.op == "above"
        assert r.clear_level() == 1.0  # no hysteresis by default

    def test_explicit_clear_level(self):
        r = AlertRule(name="a.b", series="s.x", threshold=1.0, clear=0.8)
        assert r.clear_level() == 0.8

    @pytest.mark.parametrize("kwargs", [
        {"kind": "nope"},
        {"stat": "p42"},
        {"op": "sideways"},
        {"window_s": 0.0},
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
        r = AlertRule(name="a.b", series="s.x", threshold=1.0, for_s=2.0)
        d = r.to_dict()
        assert d["name"] == "a.b" and d["for_s"] == 2.0
        assert AlertRule(**d) == r


class TestStateMachine:
    def _engine(self, **kwargs):
        defaults = dict(name="t.rule", series="s.x", threshold=1.0)
        defaults.update(kwargs)
        return AlertEngine([AlertRule(**defaults)])

    def test_immediate_fire_without_for_duration(self):
        reg = MetricsRegistry()
        engine = self._engine()
        fill(reg, "s.x", [2.0], t0=10.0)
        (t,) = engine.evaluate(reg, now=10.0)
        assert t["status"] == "firing" and t["previous"] == "ok"
        assert t["value"] == 2.0 and t["threshold"] == 1.0
        assert engine.state("t.rule").status == "firing"
        assert engine.firing()[0]["rule"] == "t.rule"

    def test_no_transition_while_healthy(self):
        reg = MetricsRegistry()
        engine = self._engine()
        fill(reg, "s.x", [0.5], t0=10.0)
        assert engine.evaluate(reg, now=10.0) == []
        assert engine.firing() == []

    def test_for_duration_debounce(self):
        reg = MetricsRegistry()
        engine = self._engine(for_s=5.0)
        fill(reg, "s.x", [2.0], t0=0.0)
        (t,) = engine.evaluate(reg, now=0.0)
        assert t["status"] == "pending"  # breached, but not for long enough
        observe(reg, "s.x", 2.0, ts=3.0)
        assert engine.evaluate(reg, now=3.0) == []  # still pending
        observe(reg, "s.x", 2.0, ts=6.0)
        (t,) = engine.evaluate(reg, now=6.0)
        assert t["status"] == "firing" and t["previous"] == "pending"

    def test_pending_clears_without_firing(self):
        reg = MetricsRegistry()
        engine = self._engine(for_s=5.0)
        fill(reg, "s.x", [2.0], t0=0.0)
        engine.evaluate(reg, now=0.0)
        observe(reg, "s.x", 0.1, ts=2.0)
        (t,) = engine.evaluate(reg, now=2.0)
        assert t["status"] == "ok" and t["previous"] == "pending"
        state = engine.state("t.rule")
        assert state.fired_count == 0

    def test_hysteresis_prevents_strobing(self):
        reg = MetricsRegistry()
        engine = self._engine(clear=0.8)
        observe(reg, "s.x", 2.0, ts=0.0)
        engine.evaluate(reg, now=0.0)
        # drops below threshold but above the clear level: stays firing
        observe(reg, "s.x", 0.9, ts=1.0)
        assert engine.evaluate(reg, now=1.0) == []
        assert engine.state("t.rule").status == "firing"
        # crosses the clear level: now it clears
        observe(reg, "s.x", 0.7, ts=2.0)
        (t,) = engine.evaluate(reg, now=2.0)
        assert t["status"] == "ok" and t["previous"] == "firing"

    def test_below_direction(self):
        reg = MetricsRegistry()
        engine = self._engine(op="below", threshold=0.5)
        observe(reg, "s.x", 0.2, ts=0.0)
        (t,) = engine.evaluate(reg, now=0.0)
        assert t["status"] == "firing"

    def test_min_count_holds_judgement(self):
        reg = MetricsRegistry()
        engine = self._engine(min_count=3)
        fill(reg, "s.x", [5.0, 5.0], t0=0.0)
        assert engine.evaluate(reg, now=1.0) == []  # 2 < min_count
        observe(reg, "s.x", 5.0, ts=2.0)
        (t,) = engine.evaluate(reg, now=2.0)
        assert t["status"] == "firing"

    def test_counter_rule_reads_the_current_value(self):
        reg = MetricsRegistry()
        engine = self._engine(series="runtime.stalls", threshold=0.0)
        stalls = reg.counter("runtime.stalls")
        assert engine.evaluate(reg, now=0.0) == []  # 0 is not above 0
        stalls.inc()
        (t,) = engine.evaluate(reg, now=1.0)
        assert t["status"] == "firing" and t["value"] == 1.0

    def test_missing_series_reads_as_ok(self):
        engine = self._engine()
        assert engine.evaluate(MetricsRegistry(), now=0.0) == []

    def test_window_excludes_stale_breaches(self):
        reg = MetricsRegistry()
        engine = self._engine(window_s=10.0, stat="max")
        observe(reg, "s.x", 5.0, ts=0.0)  # old spike
        observe(reg, "s.x", 0.1, ts=100.0)
        assert engine.evaluate(reg, now=100.0) == []

    def test_fired_alarms_shape_and_worst_value(self):
        reg = MetricsRegistry()
        engine = self._engine(kind="budget", stat="last")
        observe(reg, "s.x", 2.0, ts=0.0)
        engine.evaluate(reg, now=0.0)
        observe(reg, "s.x", 3.5, ts=1.0)  # worse while firing
        engine.evaluate(reg, now=1.0)
        (alarm,) = engine.fired_alarms()
        assert alarm == {
            "kind": "alert_budget", "rule": "t.rule", "metric": "s.x",
            "stat": "last", "value": 3.5, "threshold": 1.0,
            "severity": "warning", "count": 1,
        }

    def test_no_alarms_when_nothing_fired(self):
        engine = self._engine()
        assert engine.fired_alarms() == []

    def test_refire_increments_count(self):
        reg = MetricsRegistry()
        engine = self._engine(window_s=5.0)
        observe(reg, "s.x", 2.0, ts=0.0)
        engine.evaluate(reg, now=0.0)
        observe(reg, "s.x", 0.1, ts=1.0)
        engine.evaluate(reg, now=1.0)  # clears
        observe(reg, "s.x", 2.0, ts=2.0)
        engine.evaluate(reg, now=2.0)  # fires again
        (alarm,) = engine.fired_alarms()
        assert alarm["count"] == 2

    def test_to_dict_view(self):
        engine = self._engine()
        view = engine.to_dict()
        assert view["t.rule"]["status"] == "ok"
        assert view["t.rule"]["series"] == "s.x"


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
        floor = rules["runtime.worker_utilization_floor"]
        assert floor.op == "below" and floor.clear == 0.6

    def test_builtin_p95_budget_fires_on_degraded_sync(self):
        reg = MetricsRegistry()
        engine = AlertEngine(builtin_rules())
        fill(reg, "fastsim.phase_error_rad", [0.2] * 10, t0=0.0)
        transitions = engine.evaluate(reg, now=9.0)
        fired = {t["rule"] for t in transitions if t["status"] == "firing"}
        assert fired == {"fastsim.phase_error_p50", "fastsim.phase_error_p95"}

    def test_builtin_budgets_stay_quiet_within_budget(self):
        reg = MetricsRegistry()
        engine = AlertEngine(builtin_rules())
        fill(reg, "fastsim.phase_error_rad", [0.005] * 10, t0=0.0)
        assert engine.evaluate(reg, now=9.0) == []
