"""The Fig. 9 kernel against its per-candidate, per-client form.

``draw_screened_channels`` transforms a whole screen round's taps with one
FFT, ``_zero_forcing`` solves a flat (single-tap) candidate on one bin, and
``fig9_kernel`` gathers every client's best-AP link with one index.  The
reference below is the straightforward form they replace: one
``build_channel_tensor`` per candidate, a ZF solve on every bin, and one
``unicast_snr_db`` per (trial, client).  Results must match bit for bit.
"""

import numpy as np
import pytest

from repro.constants import MAC_EFFICIENCY, SAMPLE_RATE_USRP, SNR_BANDS_DB
from repro.mac.rate import EffectiveSnrRateSelector
from repro.runtime import seed_sequence
from repro.sim.experiments import draw_screened_channels, fig9_kernel
from repro.sim.fastsim import (
    SyncErrorModel,
    build_channel_tensor,
    draw_band_snrs,
    joint_zf_sinr_db,
    unicast_snr_db,
)
from repro.utils.rng import ensure_rng
from repro.utils.units import db_to_linear, linear_to_db


def _k_full_solve(channels):
    """``zero_forcing_gain_wideband`` with one ``inv`` per bin, flat or not."""
    inverses = np.linalg.inv(channels)
    per_antenna = np.mean(np.sum(np.abs(inverses) ** 2, axis=-1), axis=-2)
    return np.sqrt(1.0 / np.max(per_antenna, axis=-1))


def _penalty_full_solve(channels):
    """``zf_penalty_db`` on :func:`_k_full_solve`."""
    k = _k_full_solve(channels)
    link_gain = np.mean(np.abs(channels) ** 2, axis=-3)
    best = np.mean(np.max(link_gain, axis=-1), axis=-1)
    return linear_to_db(best) - linear_to_db(k**2)


def screen_reference(n, rngs, max_penalty_db, max_attempts=100):
    """One candidate tensor per trial and round, each scored alone."""
    kept, draws = [], []
    for rng in rngs:
        best, best_penalty = None, np.inf
        for attempt in range(1, max_attempts + 1):
            cand = np.stack([build_channel_tensor(draw_band_snrs((19.0, 21.0), n, n, rng), rng)])
            penalty = _penalty_full_solve(cand)[0]
            if penalty < best_penalty:
                best, best_penalty = cand[0], penalty
            if penalty <= max_penalty_db:
                break
        kept.append(best)
        draws.append(attempt)
    return np.stack(kept), draws


def fig9_reference(params, seeds):
    """``fig9_kernel`` with a per-(trial, client) unicast loop."""
    n, band, error_model = params["n"], params["band"], params["error_model"]
    selector = EffectiveSnrRateSelector(params["sample_rate"], mac_efficiency=MAC_EFFICIENCY)
    rngs = [ensure_rng(seed) for seed in seeds]
    channels, _ = screen_reference(n, rngs, params["max_penalty_db"])
    k = _k_full_solve(channels)
    targets = np.array([float(rng.uniform(band[0], band[1])) for rng in rngs])
    channels = channels * np.sqrt(db_to_linear(targets) / k**2)[:, None, None, None]
    link_snrs_db = linear_to_db(np.mean(np.abs(channels) ** 2, axis=-3))
    est = np.stack([error_model.corrupt_estimate(channels[t], link_snrs_db[t], rngs[t])
                    for t in range(len(rngs))])
    errors = np.stack([error_model.phase_errors(n, rng) for rng in rngs])
    stream_rates = selector.goodput_batch(
        joint_zf_sinr_db(channels, phase_errors=errors, est_channels=est))
    best_ap = np.argmax(link_snrs_db, axis=-1)
    uni = np.stack([
        np.stack([unicast_snr_db(channels[t], c, int(best_ap[t, c])) for c in range(n)])
        for t in range(len(rngs))
    ])
    unicast_rates = selector.goodput_batch(uni)
    return [(float(np.sum(stream_rates[t])), float(np.mean(unicast_rates[t])))
            for t in range(len(rngs))]


@pytest.mark.parametrize("band,n", [("high", 10), ("low", 3)])
def test_fig9_kernel_matches_reference_chunk(band, n):
    params = {"band": SNR_BANDS_DB[band], "n": n, "error_model": SyncErrorModel(),
              "sample_rate": SAMPLE_RATE_USRP, "max_penalty_db": 2.0}
    seeds = [seed_sequence(9, "fig9", n, t) for t in range(4)]
    results = fig9_kernel(params, seeds)
    assert [(r["megamimo_bps"], r["baseline_bps"]) for r in results] == \
        fig9_reference(params, seeds)


@pytest.mark.parametrize("n", [4, 10])
def test_screen_matches_reference_draw_for_draw(n):
    seeds = range(30, 36)
    channels, stats = draw_screened_channels(n, [np.random.default_rng(s) for s in seeds], 2.0)
    ref_channels, ref_draws = screen_reference(n, [np.random.default_rng(s) for s in seeds], 2.0)
    assert list(stats.draws) == ref_draws
    np.testing.assert_array_equal(channels, ref_channels)
    np.testing.assert_array_equal(stats.penalty_db, _penalty_full_solve(ref_channels))
