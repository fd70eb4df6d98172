"""Declarative alert rules evaluated live over the metrics registry.

JMB's operating point degrades *quietly*: §7.3 shows joint-beamforming
gains collapse once the lead/slave phase error leaves a narrow budget, and
a sweep whose worker pool half-stalls still finishes — just late.  Both
failure modes are invisible in an exit snapshot and obvious in a live
window.  This module turns windows into verdicts.

An :class:`AlertRule` names a metric in the
:class:`~repro.obs.metrics.MetricsRegistry`, a statistic, a comparison
and a threshold.  A histogram gives the statistic over its samples of
the last ``window_s`` seconds (its timestamped ring); a counter or gauge
gives its current value.  Two rule kinds share that shape:

* ``threshold`` — plain comparison of the statistic against the bound.
* ``budget`` — identical mechanics, but the bound is a *paper budget*
  (the built-in §7.3 phase-error rules use
  ``PHASE_ERROR_BUDGET_{MEDIAN,P95}_RAD`` from :mod:`repro.core.phasesync`);
  kept distinct so ledger alarms and dashboards can tell "tuning knob"
  from "reproduction-invalidating breach".

Two anti-flap mechanisms, both opt-in per rule:

* **for-duration debouncing** (``for_s``): a breach must persist — the
  rule sits in ``pending`` until the condition has held ``for_s``
  seconds, only then transitions to ``firing``.
* **hysteresis** (``clear``): once firing, the rule clears only when the
  statistic crosses the ``clear`` level (defaults to the threshold), so a
  value oscillating around the bound does not strobe.

:class:`AlertEngine` owns the rule set and the ok/pending/firing state
machine; every transition becomes one ``obs.alert`` event (flight
recorder and trace, see :func:`repro.obs.flightrec.emit`) and a
logger line.
"""

from __future__ import annotations

import dataclasses
import re
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.flightrec import emit
from repro.obs.logging import get_logger
from repro.obs.metrics import Histogram, MetricsRegistry

logger = get_logger("obs.alerts")

#: Recognised rule kinds / statistics / comparison directions.
KINDS = ("threshold", "budget")
STATS = ("last", "mean", "min", "max", "p50", "p95")
OPS = ("above", "below")

#: Rule names follow the ``domain.metric`` convention that OBS002 enforces
#: for metric names (and OBS004 advises for alert rules): lowercase dotted
#: segments, so ledger alarms and exported series sort into families.
RULE_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")


@dataclasses.dataclass(frozen=True)
class AlertRule:
    """One declarative rule over a named metric.

    Args:
        name: Rule identity (``domain.metric`` convention, see OBS004).
        series: Name of the metric the rule watches.
        threshold: Bound the statistic is compared against.
        kind: ``threshold`` | ``budget``.
        stat: Windowed statistic of a histogram (a counter or gauge
            always gives its current value).
        op: ``above`` fires when value > threshold, ``below`` when <.
        clear: Hysteresis level the value must re-cross to clear a firing
            rule; defaults to ``threshold`` (no hysteresis).
        for_s: Seconds a breach must persist before ``pending`` becomes
            ``firing`` (0 = fire immediately).
        window_s: Lookback window a histogram's statistic covers.
        min_count: Histogram samples required in the window before the
            rule judges at all (insufficient data reads as ``ok``).
        severity: ``warning`` or ``critical`` (advisory; ledger-visible).
        description: Human explanation shown by ``/alerts`` and ``watch``.
    """

    name: str
    series: str
    threshold: float
    kind: str = "threshold"
    stat: str = "last"
    op: str = "above"
    clear: Optional[float] = None
    for_s: float = 0.0
    window_s: float = 30.0
    min_count: int = 1
    severity: str = "warning"
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown alert kind {self.kind!r} (want {KINDS})")
        if self.stat not in STATS:
            raise ValueError(f"unknown alert stat {self.stat!r} (want {STATS})")
        if self.op not in OPS:
            raise ValueError(f"unknown alert op {self.op!r} (want {OPS})")
        if self.window_s <= 0:
            raise ValueError("window_s must be > 0")
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")
        if not RULE_NAME_RE.match(self.name):
            logger.warning(
                "alert rule %r does not follow the domain.metric naming "
                "convention (see lint rule OBS004)", self.name,
            )

    def clear_level(self) -> float:
        return self.threshold if self.clear is None else self.clear

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class AlertState:
    """Mutable evaluation state for one rule: ok -> pending -> firing."""

    __slots__ = ("rule", "status", "since", "value", "fired_count",
                 "worst_value", "last_transition_ts")

    def __init__(self, rule: AlertRule):
        self.rule = rule
        self.status = "ok"
        self.since: Optional[float] = None  # breach onset (pending/firing)
        self.value: Optional[float] = None
        self.fired_count = 0
        self.worst_value: Optional[float] = None
        self.last_transition_ts: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "rule": self.rule.name,
            "series": self.rule.series,
            "kind": self.rule.kind,
            "stat": self.rule.stat,
            "op": self.rule.op,
            "threshold": self.rule.threshold,
            "severity": self.rule.severity,
            "status": self.status,
            "since": self.since,
            "value": self.value,
            "fired_count": self.fired_count,
            "worst_value": self.worst_value,
            "description": self.rule.description,
        }


class AlertEngine:
    """Evaluates a rule set against a registry; owns per-rule state machines."""

    def __init__(self, rules: Sequence[AlertRule]):
        self._states: Dict[str, AlertState] = {
            r.name: AlertState(r) for r in rules
        }

    @property
    def rules(self) -> List[AlertRule]:
        return [s.rule for s in self._states.values()]

    def state(self, name: str) -> Optional[AlertState]:
        return self._states.get(name)

    # -- evaluation ------------------------------------------------------------

    @staticmethod
    def _rule_value(
        rule: AlertRule, registry: MetricsRegistry, now: float
    ) -> Optional[float]:
        """The rule's statistic; None = not enough data."""
        metric = registry.get(rule.series)
        if metric is None:
            return None
        if not isinstance(metric, Histogram):
            return metric.value
        roll = metric.rollup(since=now - rule.window_s)
        if roll["count"] < rule.min_count:
            return None
        return float(roll[rule.stat])

    @staticmethod
    def _breached(rule: AlertRule, value: float) -> bool:
        return value > rule.threshold if rule.op == "above" else value < rule.threshold

    @staticmethod
    def _cleared(rule: AlertRule, value: float) -> bool:
        level = rule.clear_level()
        return value <= level if rule.op == "above" else value >= level

    def evaluate(
        self, registry: MetricsRegistry, now: Optional[float] = None
    ) -> List[dict]:
        """One evaluation pass; returns the list of state *transitions*.

        Each transition dict carries ``rule``/``series``/``status`` (the
        new state), ``previous``, the triggering ``value`` and the rule's
        threshold/severity — the exact payload of the ``obs.alert`` events,
        and what ledger alarms are built from.
        """
        if now is None:
            now = time.time()
        transitions: List[dict] = []
        for state in self._states.values():
            rule = state.rule
            value = self._rule_value(rule, registry, now)
            state.value = value
            if value is None:
                continue  # insufficient data: hold current status
            if state.status in ("pending", "firing"):
                if state.worst_value is None:
                    state.worst_value = value
                elif rule.op == "above":
                    state.worst_value = max(state.worst_value, value)
                else:
                    state.worst_value = min(state.worst_value, value)
            new_status = state.status
            if state.status == "ok":
                if self._breached(rule, value):
                    new_status = "firing" if rule.for_s <= 0 else "pending"
                    state.since = now
                    state.worst_value = value
            elif state.status == "pending":
                if self._cleared(rule, value):
                    new_status = "ok"
                    state.since = None
                elif state.since is not None and now - state.since >= rule.for_s:
                    new_status = "firing"
            elif state.status == "firing":
                if self._cleared(rule, value):
                    new_status = "ok"
                    state.since = None
            if new_status == state.status:
                continue
            previous, state.status = state.status, new_status
            state.last_transition_ts = now
            if new_status == "firing":
                state.fired_count += 1
            transition = {
                "ts": now,
                "rule": rule.name,
                "series": rule.series,
                "kind": rule.kind,
                "status": new_status,
                "previous": previous,
                "value": value,
                "threshold": rule.threshold,
                "severity": rule.severity,
                "description": rule.description,
            }
            transitions.append(transition)
            emit("obs.alert", transition, ts=now)
            log = logger.warning if new_status == "firing" else logger.info
            log(
                "alert %s: %s -> %s (%s %s=%0.6g vs threshold %0.6g)",
                rule.name, previous, new_status, rule.series, rule.stat,
                value, rule.threshold,
            )
        return transitions

    # -- views -----------------------------------------------------------------

    def firing(self) -> List[dict]:
        return [s.to_dict() for s in self._states.values() if s.status == "firing"]

    def to_dict(self) -> dict:
        return {name: s.to_dict() for name, s in sorted(self._states.items())}

    def fired_alarms(self) -> List[dict]:
        """Ledger-alarm dicts for every rule that fired at least once."""
        alarms = []
        for state in self._states.values():
            if state.fired_count == 0:
                continue
            alarms.append({
                "kind": f"alert_{state.rule.kind}",
                "rule": state.rule.name,
                "metric": state.rule.series,
                "stat": state.rule.stat,
                "value": state.worst_value,
                "threshold": state.rule.threshold,
                "severity": state.rule.severity,
                "count": state.fired_count,
            })
        return alarms


# ---------------------------------------------------------------------------
# Built-in rules
# ---------------------------------------------------------------------------


def builtin_rules() -> Tuple[AlertRule, ...]:
    """Default rules: §7.3 phase budgets, utilization floor, watchdog stalls.

    The two budget rules are the one §7.3 judge: the live engine behind
    ``--serve-port`` runs them, and so does the single end-of-run pass
    that gives a plain ``repro simulate`` its ledger alarms.  The budget
    thresholds come straight from
    :mod:`repro.core.phasesync` (imported lazily — this module stays
    importable without pulling the PHY stack at package-init time).
    """
    from repro.core.phasesync import (
        PHASE_ERROR_BUDGET_MEDIAN_RAD,
        PHASE_ERROR_BUDGET_P95_RAD,
    )

    # one histogram, one sample per slave per draw, covers every caller of
    # the fast path's error model: the figure sweeps and `repro simulate`
    rules: List[AlertRule] = [
        AlertRule(
            name="fastsim.phase_error_p50",
            series="fastsim.phase_error_rad",
            kind="budget",
            stat="p50",
            op="above",
            threshold=PHASE_ERROR_BUDGET_MEDIAN_RAD,
            window_s=60.0,
            min_count=8,
            severity="warning",
            description=(
                "median per-slave phase error above the paper's §7.3 "
                "median budget"
            ),
        ),
        AlertRule(
            name="fastsim.phase_error_p95",
            series="fastsim.phase_error_rad",
            kind="budget",
            stat="p95",
            op="above",
            threshold=PHASE_ERROR_BUDGET_P95_RAD,
            window_s=60.0,
            min_count=8,
            severity="critical",
            description=(
                "p95 per-slave phase error above the §7.3 budget — "
                "joint-beamforming gains are collapsing"
            ),
        ),
    ]
    rules.append(AlertRule(
        name="runtime.watchdog_stall",
        series="runtime.watchdog_stalls",  # a counter: its current value
        threshold=0.0,
        severity="critical",
        description=(
            "the worker watchdog declared a stalled chunk — a hung "
            "worker was abandoned and its work re-run serially; see the "
            "runs/crash-<runid>/ forensics bundle"
        ),
    ))
    rules.append(AlertRule(
        name="runtime.worker_utilization_floor",
        series="runtime.worker_utilization",
        kind="threshold",
        stat="mean",
        op="below",
        threshold=0.5,
        clear=0.6,
        for_s=5.0,
        window_s=20.0,
        min_count=4,
        severity="warning",
        description=(
            "worker pool running below half busy for 5s — dispatch "
            "starvation or a straggler tail"
        ),
    ))
    return tuple(rules)
