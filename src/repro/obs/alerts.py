"""Declarative alert rules, judged once at the end of every run command.

JMB's operating point degrades *quietly*: §7.3 shows joint-beamforming
gains collapse once the lead/slave phase error leaves a narrow budget,
and a run with degraded sync still finishes and prints plausible tables.

An :class:`AlertRule` compares a statistic of one registry metric with a
threshold.  ``budget`` rules (the §7.3 phase-error budgets of
:mod:`repro.core.phasesync`) work like ``threshold`` rules; the kind lets
ledger alarms tell a tuning knob from a reproduction-invalidating breach.
:class:`AlertEngine` runs one pass over the registry after a run command
finishes (``repro.cli``): every rule that fires becomes a ledger alarm,
one ``obs.alert`` event (see :func:`repro.obs.flightrec.emit`) and a
logger line.  Pool workers' samples reach the parent registry through
the sweep engine's chunk envelopes, so a pool run is judged like an
in-parent one.
"""

from __future__ import annotations

import dataclasses
import re
from typing import List, Optional, Sequence, Tuple

from repro.obs.flightrec import emit
from repro.obs.logging import get_logger
from repro.obs.metrics import Histogram, MetricsRegistry

logger = get_logger("obs.alerts")

#: Recognised rule kinds / statistics / comparison directions / severities.
KINDS = ("threshold", "budget")
STATS = ("last", "mean", "min", "max", "p50", "p95")
OPS = ("above", "below")
SEVERITIES = ("warning", "critical")

#: Rule names follow the ``domain.metric`` convention that OBS002 enforces
#: for metric names (and OBS004 advises for alert rules): lowercase dotted
#: segments, so ledger alarms sort into families.
RULE_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")


@dataclasses.dataclass(frozen=True)
class AlertRule:
    """One declarative rule over a named metric.

    Args:
        name: Rule identity (``domain.metric`` convention, see OBS004).
        series: Name of the metric the rule watches.
        threshold: Bound the statistic is compared against.
        kind: ``threshold`` | ``budget``.
        stat: Statistic of a histogram's retained samples (a counter or
            gauge always gives its current value).
        op: ``above`` fires when value > threshold, ``below`` when <.
        min_count: Histogram samples required before the rule judges at
            all (too few samples read as not fired).
        severity: ``warning`` or ``critical``; a critical rule that fires
            writes a ``critical_alert`` crash bundle.
        description: Human explanation carried into logs.
    """

    name: str
    series: str
    threshold: float
    kind: str = "threshold"
    stat: str = "last"
    op: str = "above"
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
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"unknown alert severity {self.severity!r} (want {SEVERITIES})"
            )
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")
        if not RULE_NAME_RE.match(self.name):
            logger.warning(
                "alert rule %r does not follow the domain.metric naming "
                "convention (see lint rule OBS004)", self.name,
            )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class AlertEngine:
    """Judges a rule set against a registry, once per run."""

    def __init__(self, rules: Sequence[AlertRule]):
        self.rules: Tuple[AlertRule, ...] = tuple(rules)
        self._fired: List[dict] = []

    @staticmethod
    def _rule_value(rule: AlertRule, registry: MetricsRegistry) -> Optional[float]:
        """The rule's statistic; None = no metric or too few samples."""
        metric = registry.get(rule.series)
        if metric is None:
            return None
        if not isinstance(metric, Histogram):
            return metric.value
        roll = metric.series.rollup()
        if roll["count"] < rule.min_count:
            return None
        return float(roll[rule.stat])

    def evaluate(self, registry: MetricsRegistry) -> List[dict]:
        """One pass over every rule; returns the ledger alarms of those that fired.

        Each alarm carries ``kind`` (``alert_<rule kind>``), ``rule``,
        ``metric``, ``stat``, the breaching ``value``, ``threshold`` and
        ``severity`` — the payload of its ``obs.alert`` event too.
        """
        fired: List[dict] = []
        for rule in self.rules:
            value = self._rule_value(rule, registry)
            if value is None:
                continue
            breached = value > rule.threshold if rule.op == "above" else value < rule.threshold
            if not breached:
                continue
            alarm = {
                "kind": f"alert_{rule.kind}",
                "rule": rule.name,
                "metric": rule.series,
                "stat": rule.stat,
                "value": value,
                "threshold": rule.threshold,
                "severity": rule.severity,
            }
            fired.append(alarm)
            emit("obs.alert", alarm)
            logger.warning(
                "alert %s fired (%s %s=%0.6g vs threshold %0.6g)%s",
                rule.name, rule.series, rule.stat, value, rule.threshold,
                f": {rule.description}" if rule.description else "",
            )
        self._fired = fired
        return fired

    def fired_alarms(self) -> List[dict]:
        """The ledger alarms of the last :meth:`evaluate` pass."""
        return list(self._fired)


# ---------------------------------------------------------------------------
# Built-in rules
# ---------------------------------------------------------------------------


def builtin_rules() -> Tuple[AlertRule, ...]:
    """Default rules: the §7.3 phase budgets and watchdog stalls.

    The budget thresholds come from :mod:`repro.core.phasesync`, imported
    lazily so this module stays importable without the PHY stack.
    """
    from repro.core.phasesync import (
        PHASE_ERROR_BUDGET_MEDIAN_RAD,
        PHASE_ERROR_BUDGET_P95_RAD,
    )

    # one histogram, one sample per slave per draw, covers every caller of
    # the fast path's error model: the figure sweeps and `repro simulate`
    return (
        AlertRule(
            name="fastsim.phase_error_p50",
            series="fastsim.phase_error_rad",
            kind="budget",
            stat="p50",
            threshold=PHASE_ERROR_BUDGET_MEDIAN_RAD,
            min_count=8,
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
            threshold=PHASE_ERROR_BUDGET_P95_RAD,
            min_count=8,
            severity="critical",
            description=(
                "p95 per-slave phase error above the §7.3 budget — "
                "joint-beamforming gains are collapsing"
            ),
        ),
        AlertRule(
            name="runtime.watchdog_stall",
            series="runtime.watchdog_stalls",  # a counter: its current value
            threshold=0.0,
            severity="critical",
            description=(
                "the worker watchdog declared a stalled chunk — a hung "
                "worker was abandoned and its work re-run serially; see the "
                "runs/crash-<runid>/ forensics bundle"
            ),
        ),
    )
