"""The Fig. 8 and Fig. 11 kernels against their per-bin / per-SNR forms.

``nulling_inr_db`` evaluates the leakage at a nulled client with one
broadcast matmul over every subcarrier, and ``fig11_kernel`` makes one
effective-SNR rate walk over a chunk's rows.  The references below are the
straightforward forms they replace: one vector-matrix product per
subcarrier, and one scalar ``selector.goodput`` per (seed, SNR).
"""

import numpy as np
import pytest

from repro.constants import MAC_EFFICIENCY, SAMPLE_RATE_USRP, SNR_BANDS_DB
from repro.core.beamforming import zero_forcing_precoder_wideband
from repro.mac.rate import EffectiveSnrRateSelector
from repro.runtime import seed_sequence
from repro.sim.experiments import fig8_kernel, fig11_kernel
from repro.sim.fastsim import (
    SyncErrorModel,
    build_channel_tensor,
    diversity_snr_db,
    draw_band_snrs,
    nulling_inr_db,
    unicast_snr_db,
)
from repro.utils.rng import ensure_rng
from repro.utils.units import linear_to_db


def nulling_inr_per_bin(channels, nulled_client, noise_power=1.0,
                        phase_errors=None, est_channels=None):
    """Reference Fig. 8 INR of one (n_bins, n_rx, n_tx) tensor under the ZF
    precoders of ``est_channels``: the nulled client's row is formed and its
    leakage summed one subcarrier at a time."""
    est = channels if est_channels is None else est_channels
    n_bins, n_rx, n_tx = channels.shape
    rotation = np.ones(n_tx) if phase_errors is None else np.exp(1j * phase_errors)
    precoders, _ = zero_forcing_precoder_wideband(est)
    others = np.ones(n_rx, dtype=bool)
    others[nulled_client] = False
    leak = 0.0
    for b in range(n_bins):
        row = (channels[b][nulled_client] * rotation) @ precoders[b]
        leak += float(np.sum(np.abs(row[others]) ** 2))
    leak /= n_bins
    return float(linear_to_db((leak + noise_power) / noise_power))


def fig8_reference(params, seeds):
    """``fig8_kernel`` with the per-bin INR and a ZF solve per packet."""
    n, error_model = params["n"], params["error_model"]
    out = []
    for seed in seeds:
        rng = ensure_rng(seed)
        snrs = draw_band_snrs(params["band"], n, n, rng)
        channels = build_channel_tensor(snrs, rng)
        est = error_model.corrupt_estimate(channels, snrs, rng)
        samples = []
        for _ in range(params["n_packets"]):
            errors = error_model.phase_errors(n, rng)
            nulled = int(rng.integers(0, n))
            samples.append(nulling_inr_per_bin(
                channels, nulled, phase_errors=errors, est_channels=est))
        out.append(samples)
    return out


def fig11_reference(params, seeds):
    """``fig11_kernel`` with one scalar ``goodput`` per (seed, SNR)."""
    n, error_model = params["n_aps"], params["error_model"]
    selector = EffectiveSnrRateSelector(
        params["sample_rate"], mac_efficiency=MAC_EFFICIENCY)
    out = []
    for seed in seeds:
        rng = ensure_rng(seed)
        rates = []
        for s in params["snr_db"]:
            if n == 1:
                channels = build_channel_tensor(np.full((1, 1), s), rng)
                rates.append(float(selector.goodput(unicast_snr_db(channels, 0, 0))))
            else:
                snrs = np.full((1, n), s) + rng.normal(0, 1.0, (1, n))
                channels = build_channel_tensor(snrs, rng)
                errors = error_model.phase_errors(n, rng)
                div = diversity_snr_db(channels[:, 0, :], phase_errors=errors)
                rates.append(float(selector.goodput(div)))
        out.append(rates)
    return out


def _random_stack(seed, batch, n_bins, n_rx, n_tx):
    rng = np.random.default_rng(seed)
    shape = (batch, n_bins, n_rx, n_tx)
    channels = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    est = channels + 0.05 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return channels, est, rng.normal(0.0, 0.05, n_tx)


@pytest.mark.parametrize("seed,n_rx,n_tx", [(0, 2, 2), (1, 4, 4), (2, 10, 10), (3, 3, 5)])
def test_nulling_matches_per_bin_reference(seed, n_rx, n_tx):
    channels, est, phases = _random_stack(seed, 6, 52, n_rx, n_tx)
    precoders, _ = zero_forcing_precoder_wideband(est)
    for nulled in range(n_rx):
        stacked = nulling_inr_db(channels, nulled, noise_power=0.3,
                                 phase_errors=phases, precoders=precoders)
        assert stacked.shape == (6,)
        for t in range(6):
            ref = nulling_inr_per_bin(channels[t], nulled, noise_power=0.3,
                                      phase_errors=phases, est_channels=est[t])
            one = nulling_inr_db(channels[t], nulled, noise_power=0.3,
                                 phase_errors=phases, precoders=precoders[t])
            assert isinstance(one, float)
            assert one == pytest.approx(ref, rel=1e-12, abs=1e-12)
            assert stacked[t] == pytest.approx(ref, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("band,n", [("high", 10), ("low", 4)])
def test_fig8_kernel_matches_reference_chunk(band, n):
    params = {"band": SNR_BANDS_DB[band], "n": n, "n_packets": 5,
              "error_model": SyncErrorModel()}
    seeds = [seed_sequence(11, "fig8", 0, t) for t in range(8)]
    got = np.asarray(fig8_kernel(params, seeds))
    ref = np.asarray(fig8_reference(params, seeds))
    assert got.shape == (8, 5)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n_aps", [1, 2, 10])
def test_fig11_kernel_matches_scalar_goodput_bitwise(n_aps):
    params = {"n_aps": n_aps, "snr_db": [float(s) for s in np.arange(-5.0, 26.0, 2.5)],
              "error_model": SyncErrorModel(), "sample_rate": SAMPLE_RATE_USRP}
    seeds = [seed_sequence(12, "fig11", n_aps, t) for t in range(6)]
    got = fig11_kernel(params, seeds)
    assert got == fig11_reference(params, seeds)
    assert all(type(r) is float for rates in got for r in rates)
