"""The paper's evaluation claims, one table.

One :class:`Claim` per figure (Figs. 6-13), per design ablation (§5,
§9) and for the §7.3 phase-error budget gives the runner that reproduces
it, the sizes ``repro report`` runs it at, the paper's statement, and the
checks that statement implies.  Each check is pinned to one exact runner
call, seed and sizes included, so it asserts a bound on one reproducible
draw.

Four callers read the table: ``tests/integration/test_paper_claims.py``
and ``repro obs regress`` run every check, ``repro report`` prints every
claim at its report sizes under its paper statement, and the CLI takes
each experiment's default seed from here (a claim's seed is its runner's
default).

Runner calls are memoized on their arguments, so checks pinned to the
same call, and derived figures such as Fig. 10 over Fig. 9's run, share
one execution.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.phasesync import PHASE_ERROR_BUDGET_MEDIAN_RAD, PHASE_ERROR_BUDGET_P95_RAD
from repro.sim import ablations as A
from repro.sim import experiments as E
from repro.sim.fastsim import run_slave_phase_errors
from repro.sim.overhead import run_overhead_experiment


@dataclass(frozen=True)
class Check:
    """One bound implied by a claim, asserted at one runner call.

    Attributes:
        name: Identifier, unique within its claim.
        holds: Predicate over the claim's result at ``call`` (truthy
            when the bound holds).
        call: The runner's keyword arguments; the seed defaults to the
            claim's.
    """

    name: str
    holds: Callable[[Any], Any]
    call: Dict[str, Any]


def _check(name: str, holds: Callable[[Any], Any], **call: Any) -> Check:
    return Check(name=name, holds=holds, call=call)


def _table(result: Any) -> str:
    return str(result.format_table())


def _same(result: Any) -> Any:
    return result


@functools.lru_cache(maxsize=None)
def _run(runner: Callable[..., Any], call: Tuple[Tuple[str, Any], ...]) -> Any:
    return runner(**dict(call))


@dataclass(frozen=True)
class Claim:
    """One figure or ablation of the paper's evaluation.

    Attributes:
        key: Table key (``fig6`` ... ``fig13``, ``fig12_sample_level``,
            ``budget``, or the ablation's CLI name).
        title: ``repro report`` banner; empty continues the previous one.
        runner: Reproduces the experiment; its ``seed`` default is the
            claim's seed.
        paper: What the paper reports.
        report: The runner's sizes in ``repro report``; ``None`` leaves the
            claim out of the report.
        checks: The claim's bounds, each at its own runner call.
        view: Derives the claim's result from the runner's (Fig. 10 from
            Fig. 9's run, Fig. 13 from Fig. 12's).
        render: The report's text for one result.
    """

    key: str
    title: str
    runner: Callable[..., Any]
    paper: str
    report: Optional[Dict[str, Any]]
    checks: Tuple[Check, ...]
    view: Callable[[Any], Any] = _same
    render: Callable[[Any], str] = _table

    @property
    def seed(self) -> int:
        return int(inspect.signature(self.runner).parameters["seed"].default)

    def result(self, **call: Any) -> Any:
        """The claim's result at one runner call (memoized on the call)."""
        args = {"seed": self.seed, **call}
        return self.view(_run(self.runner, tuple(sorted(args.items()))))

    def check(self, name: str) -> Check:
        (found,) = [c for c in self.checks if c.name == name]
        return found

    def holds(self, name: str) -> bool:
        """Whether check ``name`` holds at its pinned call."""
        check = self.check(name)
        return bool(check.holds(self.result(**check.call)))


_BANDS = ("high", "medium", "low")


def _at_0db(fig11: Any, n_aps: int) -> float:
    """Fig. 11 throughput of ``n_aps`` transmitters at the 0 dB point."""
    zero = int(abs(fig11.snr_db - 0.0).argmin())
    return float(fig11.throughput_mbps[n_aps][zero])


def _spread(gains: Any) -> float:
    """p10-p90 spread relative to the median."""
    p10, p90 = np.percentile(gains, [10, 90])
    return float((p90 - p10) / np.median(gains))


def _fig8_inr(r: Any) -> bool:
    return bool(r.inr_db["high"][-1] < 2.0 and 0.05 < r.slope_db_per_pair("high") < 0.25)


def _fig9_scaling(r: Any) -> bool:
    return all(r.mean_megamimo_mbps(b)[-1] > 3.5 * r.mean_megamimo_mbps(b)[0] for b in _BANDS)


def _fig12_gains(r: Any) -> bool:
    return bool(all(1.3 < r.mean_gain(b) < 2.3 for b in _BANDS)
                and r.mean_gain("high") > r.mean_gain("low") - 0.1)


def _fig6_render(r: Any) -> str:
    return f"{r.format_table()}\nloss at 0.35 rad / 20 dB: {r.reduction_at(20.0, 0.35):.2f} dB"


def _fig8_render(r: Any) -> str:
    slopes = [f"{b}: slope {r.slope_db_per_pair(b):+.3f} dB/pair" for b in _BANDS]
    return "\n".join([r.format_table(), *slopes])


def _fig9_render(r: Any) -> str:
    return f"{r.format_table()}\n{r.format_screen_table()}"


def _fig11_render(r: Any) -> str:
    return f"{r.format_table()}\n0 dB client with 10 APs: {_at_0db(r, 10):.1f} Mbps"


_FIG9_SEED3: Dict[str, Any] = {"seed": 3, "n_aps": (2, 4, 6, 8, 10), "n_topologies": 6}

_TABLE = (
    Claim(
        key="fig6", title="Figure 6 — SNR reduction vs. phase misalignment",
        runner=E.run_fig6, report={"n_channels": 100}, render=_fig6_render,
        paper="~8 dB loss at 0.35 rad / 20 dB SNR; more loss with more "
              "misalignment and at higher SNR",
        checks=(
            _check("035_rad_costs_8db_at_20db_snr",
                   lambda r: abs(r.reduction_at(20.0, 0.35) - 8.0) <= 1.5, n_channels=100),
            _check("loss_monotonic_and_snr_ordering",
                   lambda r: all(np.all(np.diff(c) > 0) for c in r.reduction_db.values())
                   and np.all(r.reduction_db[20.0][1:] > r.reduction_db[10.0][1:]),
                   n_channels=60),
            _check("higher_snr_loses_more_at_035_rad",
                   lambda r: r.reduction_at(20.0, 0.35) > r.reduction_at(10.0, 0.35),
                   n_channels=100),
        ),
    ),
    Claim(
        key="fig7", title="Figure 7 — CDF of observed phase misalignment",
        runner=E.run_fig7, report={"n_systems": 12, "n_rounds": 40},
        paper="median 0.017 rad, p95 0.05 rad",
        checks=(
            _check("misalignment_distribution",
                   lambda r: r.median_rad < 0.035 and r.p95_rad < 0.10,
                   n_systems=6, n_rounds=20),
        ),
    ),
    Claim(
        key="fig8", title="Figure 8 — INR vs. number of receivers",
        runner=E.run_fig8, report={"n_topologies": 20, "n_packets": 5}, render=_fig8_render,
        paper="<1.5 dB at 10 receivers; ~0.13 dB/pair at high SNR; higher SNR "
              "bands show higher INR",
        checks=(
            _check("inr_below_1_5db_and_slope",
                   lambda r: _fig8_inr(r)
                   and np.mean(r.inr_db["high"]) > np.mean(r.inr_db["low"]),
                   n_receivers=(2, 4, 6, 8, 10), n_topologies=6, n_packets=4),
            _check("inr_and_slope_on_9_point_grid", _fig8_inr, n_topologies=8, n_packets=5),
        ),
    ),
    Claim(
        key="fig9", title="Figures 9 & 10 — throughput scaling and fairness",
        runner=E.run_fig9, report={"n_topologies": 20}, render=_fig9_render,
        paper="gains 9.4x / 9.1x / 8.1x at 10 APs; baselines 23.6 / 14.9 / 7.75 Mbps",
        checks=(
            _check("linear_scaling",
                   lambda r: _fig9_scaling(r) and all(
                       np.all(np.diff(r.mean_megamimo_mbps(b)) > -5.0) for b in _BANDS),
                   **_FIG9_SEED3),
            _check("baseline_flat",
                   lambda r: all(np.std(r.mean_baseline_mbps(b))
                                 < 0.25 * np.mean(r.mean_baseline_mbps(b)) for b in _BANDS),
                   **_FIG9_SEED3),
            _check("median_gain_at_10_aps",
                   lambda r: 7.0 < r.median_gain("high", 10) < 11.0
                   and 5.0 < r.median_gain("low", 10) <= r.median_gain("high", 10) + 0.5,
                   **_FIG9_SEED3),
            _check("baseline_absolute_levels",
                   lambda r: abs(r.mean_baseline_mbps("high").mean() - 23.6) <= 2.5
                   and abs(r.mean_baseline_mbps("medium").mean() - 14.9) <= 3.0
                   and abs(r.mean_baseline_mbps("low").mean() - 7.75) <= 2.5,
                   **_FIG9_SEED3),
            _check("scaling_gain_and_baseline_on_9_point_grid",
                   lambda r: _fig9_scaling(r) and 7.0 < r.median_gain("high", 10) < 11.0
                   and 20.0 <= r.mean_baseline_mbps("high").mean() <= 26.0,
                   n_topologies=8),
        ),
    ),
    Claim(
        key="fig10", title="", runner=E.run_fig9, report={"n_topologies": 20},
        view=lambda fig9: E.run_fig10(fig9, n_aps=(2, 6, 10)),
        paper="per-client gains track the aggregate gain; the CDF is wider at low SNR",
        checks=(
            _check("per_client_gains_fair",
                   lambda r: np.percentile(r.gains[("high", 10)], 90)
                   / max(np.percentile(r.gains[("high", 10)], 10), 1e-9) < 4.0
                   and 6.0 < np.percentile(r.gains[("high", 10)], 50) < 12.0
                   and _spread(r.gains[("low", 10)]) > 0.5 * _spread(r.gains[("high", 10)]),
                   n_aps=(2, 6, 10), n_topologies=8),
        ),
    ),
    Claim(
        key="fig11", title="Figure 11 — diversity throughput vs. SNR",
        runner=E.run_fig11, report={"n_draws": 40}, render=_fig11_render,
        paper="0 dB client: ~0 Mbps with 802.11, ~21 Mbps with 10 APs; gains "
              "largest at low SNR",
        checks=(
            _check("dead_spot_revival",
                   lambda r: r.throughput_mbps[1][0] < 2.0
                   and abs(r.throughput_mbps[10][0] - 21.0) <= 6.0,
                   n_aps_list=(10,), snr_db=(0.0,), n_draws=20),
            _check("gain_largest_at_low_snr",
                   lambda r: r.throughput_mbps[4][0] / max(r.throughput_mbps[1][0], 0.05)
                   > r.throughput_mbps[4][1] / max(r.throughput_mbps[1][1], 0.05),
                   n_aps_list=(4,), snr_db=(0.0, 20.0), n_draws=10),
            _check("more_aps_never_hurt",
                   lambda r: r.throughput_mbps[10][0] >= r.throughput_mbps[6][0]
                   >= r.throughput_mbps[2][0] - 1.0,
                   n_aps_list=(2, 6, 10), snr_db=(5.0,), n_draws=10),
            _check("dead_spot_revival_on_full_sweep",
                   lambda r: _at_0db(r, 1) < 2.0 and 14.0 < _at_0db(r, 10) < 26.0
                   and all(_at_0db(r, hi) >= _at_0db(r, lo) - 1.0
                           for lo, hi in ((2, 4), (4, 6), (6, 8), (8, 10))),
                   n_draws=15),
        ),
    ),
    Claim(
        key="fig12", title="Figures 12 & 13 — 802.11n compatibility",
        runner=E.run_fig12, report={"n_topologies": 40},
        paper="1.67-1.83x average across bands; high-SNR gains exceed low",
        checks=(
            _check("80211n_compat_gains", _fig12_gains, n_topologies=12),
            _check("80211n_compat_gains_20_topologies", _fig12_gains, n_topologies=20),
        ),
    ),
    Claim(
        key="fig13", title="", runner=E.run_fig12, report={"n_topologies": 40},
        view=E.run_fig13, paper="1.65-2x per node, median 1.8x",
        checks=(_check("median_node_gain", lambda r: 1.4 < r.median < 2.2, n_topologies=20),),
    ),
    Claim(
        key="fig12_sample_level",
        title="Figure 12, sample level — real waveforms through the §6 pipeline",
        runner=E.run_fig12_sample_level, report={"n_topologies": 8},
        paper="average gain 1.67-1.83x, here with every packet modulated, sent and decoded",
        checks=(
            _check("real_waveform_gains_in_band",
                   lambda r: 1.1 < r.mean_gain < 2.9 and (r.gains > 1.0).mean() >= 0.5,
                   n_topologies=4),
            _check("gain_in_band_with_at_most_one_topology_dropped",
                   lambda r: 1.2 < r.mean_gain < 2.8 and r.gains.size >= 4, n_topologies=5),
        ),
    ),
    Claim(
        key="sync", title="Ablation — sync strategy",
        runner=A.run_sync_strategy_ablation, report={"n_systems": 8},
        paper="direct measurement stays flat (~0.02 rad); extrapolation and no "
              "correction blow up",
        checks=(
            _check("direct_flat_and_10x_better_than_naive_past_2ms",
                   lambda r: np.all(r.misalignment_rad["megamimo"] < 0.06)
                   and np.all(r.misalignment_rad["naive"][1:]
                              > 10 * r.misalignment_rad["megamimo"][1:]),
                   n_systems=4),
        ),
    ),
    Claim(
        key="tracking", title="Ablation — in-packet tracking",
        runner=A.run_tracking_ablation, report={"n_systems": 8},
        paper="tracked error stays ~0.01-0.03 rad through 2 ms packets",
        checks=(
            _check("tracked_below_0_1_rad_and_5x_better",
                   lambda r: np.all(r.with_tracking < 0.1)
                   and np.all(r.without_tracking > 5 * r.with_tracking),
                   n_systems=4),
        ),
    ),
    Claim(
        key="sounding", title="Ablation — sounding layout",
        runner=A.run_sounding_ablation, report={"n_trials": 20},
        paper="interleaving keeps per-AP measurements close in time",
        checks=(
            _check("interleaved_below_0_05_rad_and_beats_sequential",
                   lambda r: r.interleaved_rad < min(r.sequential_rad, 0.05), n_trials=8),
        ),
    ),
    Claim(
        key="cfo", title="Ablation — CFO averaging window",
        runner=A.run_cfo_averaging_ablation, report={"n_systems": 10},
        paper="averaging beats raw per-header estimates (~100 Hz noise)",
        checks=(
            _check("averaging_halves_raw_error",
                   lambda r: r.cfo_error_hz.min()
                   < r.cfo_error_hz[np.isclose(r.alphas, 1.0)][0] / 2,
                   n_systems=5),
        ),
    ),
    Claim(
        key="overhead", title="Ablation — sounding overhead vs. CSI staleness",
        runner=run_overhead_experiment, report={"n_topologies": 8},
        paper="optimum interval scales with coherence time; beyond it ZF collapses",
        checks=(
            _check("optimum_grows_with_coherence_and_stale_intervals_lose_half",
                   lambda r: r.best_interval_s[max(r.best_interval_s)]
                   >= r.best_interval_s[min(r.best_interval_s)]
                   and all(c[-1] < max(c) / 2 for c in r.net_throughput_bps.values()),
                   n_topologies=6),
        ),
    ),
    Claim(
        key="screening", title="Ablation — Fig. 9 placement screening",
        runner=A.run_screening_ablation, report=None,
        paper="screening reproduces the near-N gains; without it the slope drops "
              "but scaling stays linear",
        checks=(
            _check("screen_costs_under_0_5x_and_unscreened_still_scales",
                   lambda r: all(r.screened[n] >= r.unscreened[n] - 0.5 for n in r.n_aps)
                   and r.unscreened[r.n_aps[-1]] > 1.3 * r.unscreened[r.n_aps[0]],
                   n_topologies=6),
        ),
    ),
    Claim(
        key="feedback", title="Ablation — CSI feedback precision (4x4, 20 dB)",
        runner=A.run_feedback_sweep, report={"n_topologies": 20},
        paper="8-bit reports are ~ideal; coarse reports self-interfere",
        checks=(
            _check("8_bits_2db_over_3_bits_and_within_1db_of_12",
                   lambda r: r.sinr_at(8) > r.sinr_at(3) + 2.0
                   and abs(r.sinr_at(12) - r.sinr_at(8)) < 1.0,
                   n_topologies=8),
        ),
    ),
    Claim(
        key="grouping",
        title="Ablation — joint-transmission grouping on collinear-pair topologies",
        runner=A.run_grouping_comparison, report={"n_trials": 40},
        paper="greedy sum-rate admission avoids conditioning collapse",
        checks=(
            _check("throughput_aware_beats_fifo",
                   lambda r: np.mean(r.smart_bps) > np.mean(r.fifo_bps)
                   and np.all(r.smart_bps >= r.fifo_bps - 1e-9)
                   and r.fifo_bps.max() > 0,
                   n_trials=15),
        ),
    ),
    Claim(
        key="budget", title="§7.3 — per-slave phase-error budget",
        runner=run_slave_phase_errors, report=None,
        paper=f"per-slave misalignment median <= {PHASE_ERROR_BUDGET_MEDIAN_RAD} rad, "
              f"p95 <= {PHASE_ERROR_BUDGET_P95_RAD} rad",
        checks=(
            _check("median_within_budget",
                   lambda r: np.median(r) <= PHASE_ERROR_BUDGET_MEDIAN_RAD, n_draws=1000),
            _check("p95_within_budget",
                   lambda r: np.percentile(r, 95) <= PHASE_ERROR_BUDGET_P95_RAD, n_draws=1000),
        ),
    ),
)

#: Every claim by key, in report order.
CLAIMS: Dict[str, Claim] = {claim.key: claim for claim in _TABLE}
