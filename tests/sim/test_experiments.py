"""Experiment runners (small configurations — the paper-shape assertions
live in tests/integration/test_paper_claims.py)."""

import numpy as np
import pytest

from repro.sim import ablations as A
from repro.sim.experiments import (
    draw_screened_channels,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig12_sample_level,
    run_fig13,
    zf_penalty_db,
)
from repro.sim.overhead import run_overhead_experiment


@pytest.mark.parametrize("runner, arg", [
    (run_fig6, "n_channels"),
    (run_fig7, "n_systems"),
    (run_fig7, "n_rounds"),
    (run_fig8, "n_topologies"),
    (run_fig8, "n_packets"),
    (run_fig9, "n_topologies"),
    (run_fig10, "n_topologies"),
    (run_fig11, "n_draws"),
    (run_fig12, "n_topologies"),
    (run_fig13, "n_topologies"),
    (run_fig12_sample_level, "n_topologies"),
    (A.run_sync_strategy_ablation, "n_systems"),
    (A.run_tracking_ablation, "n_systems"),
    (A.run_sounding_ablation, "n_trials"),
    (A.run_cfo_averaging_ablation, "n_systems"),
    (A.run_cfo_averaging_ablation, "n_headers"),
    (A.run_screening_ablation, "n_topologies"),
    (A.run_feedback_sweep, "n_topologies"),
    (A.run_grouping_comparison, "n_trials"),
    (run_overhead_experiment, "n_topologies"),
])
def test_runners_reject_empty_sizes(runner, arg):
    with pytest.raises(ValueError, match=f"{arg} must be >= 1"):
        runner(**{arg: 0})


class TestFig6:
    def test_structure(self):
        r = run_fig6(n_channels=20)
        assert set(r.reduction_db) == {10.0, 20.0}
        assert r.reduction_db[10.0].size == r.misalignments_rad.size
        assert "loss@10dB" in r.format_table()

    def test_zero_misalignment_zero_loss(self):
        r = run_fig6(n_channels=10)
        assert r.reduction_at(20.0, 0.0) == pytest.approx(0.0, abs=1e-9)


class TestFig8:
    def test_structure(self):
        r = run_fig8(n_receivers=(2, 4), n_topologies=3, n_packets=2)
        assert set(r.inr_db) == {"high", "medium", "low"}
        assert r.inr_db["high"].size == 2
        assert "n_receivers" in r.format_table()


class TestFig9And10:
    def test_structure(self):
        r = run_fig9(n_aps=(2, 3), n_topologies=3)
        assert ("high", 2) in r.cells
        assert r.mean_megamimo_mbps("high").size == 2
        assert r.median_gain("high", 2) > 0
        f10 = run_fig10(r, n_aps=(2, 3))
        xs, fs = f10.cdf("high", 2)
        assert xs.size == fs.size > 0
        assert "median" in f10.format_table()

    def test_cells_keep_the_screen_record(self):
        r = run_fig9(n_aps=(2, 6), n_topologies=3)
        for (band, n), cell in r.cells.items():
            assert cell.screen.draws.shape == (3,)
            assert cell.screen.exhausted.dtype == bool
            assert np.all(cell.screen.penalty_db[~cell.screen.exhausted] <= 2.0)
        assert r.screen_stats(6).draws.shape == (9,)
        table = r.format_screen_table()
        assert "exhausted" in table and len(table.splitlines()) == 4

    def test_megamimo_beats_baseline(self):
        r = run_fig9(n_aps=(4,), n_topologies=4)
        for band in ("high", "medium", "low"):
            cell = r.cells[(band, 4)]
            assert np.mean(cell.megamimo_bps) > np.mean(cell.baseline_bps)


class TestFig11:
    def test_structure(self):
        r = run_fig11(n_aps_list=(2, 4), snr_db=(0.0, 10.0, 20.0), n_draws=5)
        assert set(r.throughput_mbps) == {1, 2, 4}
        assert r.throughput_mbps[4].size == 3

    def test_more_aps_more_throughput_at_low_snr(self):
        r = run_fig11(n_aps_list=(2, 8), snr_db=(0.0,), n_draws=10)
        assert r.throughput_mbps[8][0] > r.throughput_mbps[2][0]
        assert r.throughput_mbps[2][0] >= r.throughput_mbps[1][0]


class TestFig12And13:
    def test_structure(self):
        r = run_fig12(n_topologies=4)
        assert set(r.baseline_mbps) == {"high", "medium", "low"}
        assert r.mean_gain("high") > 1.0
        f13 = run_fig13(r)
        assert f13.gains.size > 0
        assert "median" in f13.format_table()


class TestScreening:
    def test_penalty_scale_invariant(self):
        rng = np.random.default_rng(0)
        (ch,), _ = draw_screened_channels(3, [rng], max_penalty_db=None)
        assert zf_penalty_db(ch) == pytest.approx(zf_penalty_db(ch * 7.0), abs=1e-9)

    def test_stacked_penalty_matches_per_topology(self):
        rngs = [np.random.default_rng(s) for s in range(3)]
        stack, _ = draw_screened_channels(4, rngs, max_penalty_db=None)
        penalties = zf_penalty_db(stack)
        assert penalties.shape == (3,)
        assert isinstance(zf_penalty_db(stack[0]), float)
        assert list(penalties) == [zf_penalty_db(ch) for ch in stack]

    def test_screening_bounds_penalty(self):
        rngs = [np.random.default_rng(1 + s) for s in range(5)]
        for ch in draw_screened_channels(4, rngs, max_penalty_db=3.0)[0]:
            assert zf_penalty_db(ch) <= 3.5  # best-effort fallback allowed

    def test_unscreened_often_worse(self):
        rng = np.random.default_rng(2)
        screened = np.mean(
            [zf_penalty_db(draw_screened_channels(6, [rng], 2.0)[0][0]) for _ in range(10)]
        )
        raw = np.mean(
            [zf_penalty_db(draw_screened_channels(6, [rng], None)[0][0]) for _ in range(10)]
        )
        assert screened < raw

    def test_stats_record_each_trials_screen(self):
        rngs = [np.random.default_rng(10 + s) for s in range(6)]
        channels, stats = draw_screened_channels(6, rngs, 2.0, max_attempts=5)
        assert list(stats.penalty_db) == list(zf_penalty_db(channels))
        assert np.all((stats.draws >= 1) & (stats.draws <= 5))
        # an exhausted trial drew every attempt and kept a failing candidate;
        # one trial here passes on its last attempt and is not exhausted
        np.testing.assert_array_equal(stats.exhausted, stats.penalty_db > 2.0)
        assert np.all(stats.draws[stats.exhausted] == 5)
        assert np.sum(stats.draws == 5) > np.sum(stats.exhausted) > 0

    def test_unscreened_draws_once(self):
        rngs = [np.random.default_rng(s) for s in range(3)]
        channels, stats = draw_screened_channels(6, rngs, None)
        assert list(stats.draws) == [1, 1, 1]
        assert not stats.exhausted.any()
        assert list(stats.penalty_db) == list(zf_penalty_db(channels))
