"""Automated regression detection against a committed baseline.

``repro obs regress --baseline tests/data/regress_baseline.json`` closes
the observability loop: instead of a human eyeballing ``golden.json``, a
deterministic **probe suite** re-measures the stack's headline physics
and compares each metric against the baseline with per-metric
tolerances.  Exit codes are CI-friendly:

* ``0`` — every check passed,
* ``1`` — at least one metric breached its tolerance (the breached
  metrics are named on stdout),
* ``2`` — the baseline file is missing or unreadable.

Three sources of "current" metrics:

* the built-in probe suite (default) — quick fig6 sweep, fast-path SINR
  grid, and a short link-layer simulation whose per-slave phase-error p95
  is checked against the paper's budget
  (:data:`repro.core.phasesync.PHASE_ERROR_BUDGET_P95_RAD`);
* ``--run ID|latest`` — the headline metrics a ledger record captured;
* ``--current FILE`` — a flat ``{metric: value}`` JSON file.

The **sync-health monitor** (:func:`sync_health_alarms`) is the
always-on half: every ``repro simulate`` run checks the phase-error
histograms against the budget and attaches an alarm to its ledger record
on breach — AirSync-style longitudinal sync diagnosis from telemetry,
not from staring at waveforms.

Fault injection for CI: ``REPRO_PHASE_SIGMA_SCALE=2`` doubles the
calibrated slave phase noise (see :mod:`repro.sim.fastsim`), which must
trip both the baseline comparison and the budget check.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.core.phasesync import PHASE_ERROR_BUDGET_P95_RAD
from repro.obs import metrics
from repro.obs.flightrec import emit
from repro.obs.logging import get_logger
from repro.obs.tracer import trace

logger = get_logger(__name__)

#: Baseline file schema version.
BASELINE_SCHEMA = 1

#: Exit codes of ``repro obs regress``.
EXIT_OK = 0
EXIT_BREACH = 1
EXIT_NO_BASELINE = 2

#: Minimum histogram samples before the sync-health monitor will alarm.
SYNC_HEALTH_MIN_SAMPLES = 20

#: Phase-error histograms the sync-health monitor watches.
SYNC_HEALTH_METRICS = ("mac.phase_error_rad", "fastsim.phase_error_rad")


# ---------------------------------------------------------------------------
# Sync-health monitor (wired into every simulate run)
# ---------------------------------------------------------------------------


def sync_health_alarms(registry=None, budget_rad: float = PHASE_ERROR_BUDGET_P95_RAD) -> List[dict]:
    """Check per-slave phase-error p95 against the paper's budget.

    Reads the phase-error histograms accumulated during the run; any with
    enough samples and a p95 beyond ``budget_rad`` yields one alarm dict
    (suitable for a ledger record's ``alarms`` list) and one
    ``obs.sync_alarm`` event.
    """
    reg = registry if registry is not None else metrics.get_registry()
    alarms = []
    for name in SYNC_HEALTH_METRICS:
        hist = reg.get(name)
        if hist is None or getattr(hist, "count", 0) < SYNC_HEALTH_MIN_SAMPLES:
            continue
        p95 = float(hist.percentile(95))
        if p95 > budget_rad:
            alarm = {
                "kind": "sync_health",
                "metric": name,
                "p95_rad": p95,
                "budget_rad": float(budget_rad),
                "count": int(hist.count),
            }
            alarms.append(alarm)
            emit("obs.sync_alarm", alarm)
            logger.warning(
                "sync-health alarm: %s p95 %.4f rad exceeds the %.3f rad "
                "budget (%d samples)",
                name, p95, budget_rad, hist.count,
            )
    return alarms


# ---------------------------------------------------------------------------
# Probe suite
# ---------------------------------------------------------------------------


def _probe_fig6() -> Dict[str, float]:
    """Quick Fig. 6 sweep: SNR loss vs. misalignment (pure beamforming math)."""
    from repro.sim.experiments import run_fig6

    result = run_fig6(seed=1, n_channels=16)
    return {
        "fig6.loss_0p10rad_10db": result.reduction_at(10.0, 0.10),
        "fig6.loss_0p10rad_20db": result.reduction_at(20.0, 0.10),
    }


def _probe_sinr_grid() -> Dict[str, float]:
    """Fast-path SINR physics: joint-ZF post-beamforming SINR by size."""
    from repro.sim.fastsim import run_sinr_grid

    grid = run_sinr_grid(seed=12, sizes=(2, 4), n_trials=8)
    return {
        "fastsim.mean_sinr_db_n2": grid[2]["mean_sinr_db"],
        "fastsim.mean_sinr_db_n4": grid[4]["mean_sinr_db"],
    }


def _probe_simulate() -> Dict[str, float]:
    """Short link-layer run: goodput + the per-slave phase-error p95.

    Resets the in-process metrics registry first so the phase-error
    histogram reflects only this probe.
    """
    from repro.mac.simulator import DownlinkSimulator, LinkLayerConfig

    metrics.reset()
    sim_trace = DownlinkSimulator(
        LinkLayerConfig(n_aps=3, n_clients=3, duration_s=0.05, seed=5)
    ).run()
    out = {"sim.goodput_mbps": sim_trace.total_goodput_bps / 1e6}
    hist = metrics.get_registry().get("mac.phase_error_rad")
    if hist is not None and hist.count:
        out["sync.phase_error_p95_rad"] = float(hist.percentile(95))
    return out


#: The probe suite: name -> callable returning a flat metrics dict.
PROBES: Dict[str, Callable[[], Dict[str, float]]] = {
    "fig6": _probe_fig6,
    "sinr_grid": _probe_sinr_grid,
    "simulate": _probe_simulate,
}

#: Per-metric tolerances stamped into baselines by --update-baseline.
#: Probe metrics are deterministic at fixed seeds, so the tolerances
#: guard against *model/kernel changes*, not Monte Carlo noise; wall time
#: is machine-dependent and therefore informational only.
DEFAULT_TOLERANCES: Dict[str, dict] = {
    "fig6.loss_0p10rad_10db": {"tol_rel": 0.15},
    "fig6.loss_0p10rad_20db": {"tol_rel": 0.15},
    "fastsim.mean_sinr_db_n2": {"tol_abs": 1.0},
    "fastsim.mean_sinr_db_n4": {"tol_abs": 1.0},
    "sim.goodput_mbps": {"tol_rel": 0.35},
    "sync.phase_error_p95_rad": {
        "tol_rel": 0.5,
        "max": PHASE_ERROR_BUDGET_P95_RAD,
    },
    "probe.wall_s": {"informational": True},
}


def run_probes(
    probes: Optional[Dict[str, Callable[[], Dict[str, float]]]] = None,
) -> Dict[str, float]:
    """Run the probe suite; returns the flat current-metrics dict.

    Deterministic (fixed seeds throughout) and quick — a few seconds —
    so it can gate every CI run.  Includes ``probe.wall_s`` so wall-time
    drift is recorded (informational by default).
    """
    t0 = time.perf_counter()
    current: Dict[str, float] = {}
    for name, fn in (probes or PROBES).items():
        with trace.span("obs.regress.probe", probe=name):
            current.update(fn())
    current["probe.wall_s"] = time.perf_counter() - t0
    return current


# ---------------------------------------------------------------------------
# Baseline comparison
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    """Outcome of one metric's baseline comparison."""

    metric: str
    status: str  # "ok" | "breach" | "missing" | "info"
    current: Optional[float] = None
    expected: Optional[float] = None
    tolerance: Optional[float] = None
    detail: str = ""


@dataclass
class RegressReport:
    """All check outcomes of one ``repro obs regress`` invocation."""

    checks: List[CheckResult] = field(default_factory=list)

    @property
    def breaches(self) -> List[CheckResult]:
        return [c for c in self.checks if c.status in ("breach", "missing")]

    @property
    def passed(self) -> bool:
        return not self.breaches

    def format_table(self) -> str:
        lines = [
            f"{'metric':<30} {'status':<8} {'current':>12} {'baseline':>12} "
            f"{'tolerance':>12}"
        ]
        for c in self.checks:
            cur = "-" if c.current is None else f"{c.current:.6g}"
            exp = "-" if c.expected is None else f"{c.expected:.6g}"
            tol = "-" if c.tolerance is None else f"±{c.tolerance:.4g}"
            status = c.status.upper() if c.status in ("breach", "missing") else c.status
            row = f"{c.metric:<30} {status:<8} {cur:>12} {exp:>12} {tol:>12}"
            if c.detail:
                row += f"  {c.detail}"
            lines.append(row)
        if self.passed:
            lines.append(f"regression check passed ({len(self.checks)} metrics)")
        else:
            names = ", ".join(c.metric for c in self.breaches)
            lines.append(
                f"regression check FAILED: {len(self.breaches)} breached "
                f"({names})"
            )
        return "\n".join(lines)


def _tolerance(spec: dict) -> float:
    value = float(spec.get("value", 0.0))
    tol_abs = float(spec.get("tol_abs", 0.0))
    tol_rel = float(spec.get("tol_rel", 0.0))
    return max(tol_abs, tol_rel * abs(value))


def compare(
    current: Dict[str, float],
    baseline: dict,
    require_all: bool = True,
) -> RegressReport:
    """Compare current metrics against a baseline document.

    Baseline format (``schema: 1``)::

        {"schema": 1, "checks": {
            "fig6.loss_0p10rad_10db": {"value": 1.23, "tol_rel": 0.15},
            "sync.phase_error_p95_rad":
                {"value": 0.03, "tol_rel": 0.5, "max": 0.05},
            "probe.wall_s": {"value": 4.1, "informational": true}}}

    Per check: breach when ``|current - value|`` exceeds
    ``max(tol_abs, tol_rel * |value|)``, or when an optional hard
    ``min``/``max`` bound is crossed.  ``informational`` checks are
    reported but never breach.  A baseline metric absent from ``current``
    is a ``missing`` failure when ``require_all`` (probe mode), and
    skipped otherwise (ledger-record mode, where runs carry only their
    own command's headline metrics).
    """
    report = RegressReport()
    checks = baseline.get("checks", {})
    for name in sorted(checks):
        spec = checks[name]
        expected = spec.get("value")
        informational = bool(spec.get("informational"))
        if name not in current:
            if informational or not require_all:
                continue
            report.checks.append(CheckResult(
                metric=name, status="missing", expected=expected,
                detail="metric not produced by this run",
            ))
            continue
        cur = float(current[name])
        if informational or expected is None:
            report.checks.append(CheckResult(
                metric=name, status="info", current=cur, expected=expected,
            ))
            continue
        expected = float(expected)
        tol = _tolerance(spec)
        status, detail = "ok", ""
        if abs(cur - expected) > tol:
            status = "breach"
            detail = f"drifted {cur - expected:+.4g} from baseline"
        if "max" in spec and cur > float(spec["max"]):
            status = "breach"
            detail = f"exceeds hard max {float(spec['max']):.4g}"
        if "min" in spec and cur < float(spec["min"]):
            status = "breach"
            detail = f"below hard min {float(spec['min']):.4g}"
        report.checks.append(CheckResult(
            metric=name, status=status, current=cur, expected=expected,
            tolerance=tol, detail=detail,
        ))
    # metrics the run produced that the baseline doesn't know: informational
    for name in sorted(set(current) - set(checks)):
        report.checks.append(CheckResult(
            metric=name, status="info", current=float(current[name]),
            detail="not in baseline",
        ))
    return report


def load_baseline(path: str) -> Optional[dict]:
    """Parse a baseline file; ``None`` when missing/unreadable."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        logger.error("cannot load baseline %s: %s", path, exc)
        return None
    if not isinstance(doc, dict) or "checks" not in doc:
        logger.error("baseline %s has no 'checks' table", path)
        return None
    return doc


def make_baseline(current: Dict[str, float]) -> dict:
    """Build a baseline document from current metrics + default tolerances."""
    checks = {}
    for name, value in sorted(current.items()):
        spec: dict = {"value": value}
        spec.update(DEFAULT_TOLERANCES.get(name, {}))
        if "informational" not in spec and "tol_abs" not in spec \
                and "tol_rel" not in spec:
            spec["tol_rel"] = 0.25
        checks[name] = spec
    return {
        "schema": BASELINE_SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "checks": checks,
    }


def write_baseline(path: str, current: Dict[str, float]) -> None:
    doc = make_baseline(current)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
