"""Effective-SNR rate selection [13]."""

import numpy as np
import pytest

from repro.constants import MAC_EFFICIENCY
from repro.mac.rate import (
    EffectiveSnrRateSelector,
    ber_for_modulation,
    effective_snr_db,
    snr_for_ber,
)
from repro.phy.mcs import ALL_MCS


class TestBerFormulas:
    @pytest.mark.parametrize("bits", [1, 2, 4, 6])
    def test_ber_decreases_with_snr(self, bits):
        snrs = 10 ** (np.array([0.0, 5.0, 10.0, 15.0, 20.0]) / 10)
        bers = ber_for_modulation(snrs, bits)
        assert np.all(np.diff(bers) < 0)

    @pytest.mark.parametrize("bits", [1, 2, 4, 6])
    def test_inverse_roundtrip(self, bits):
        for snr_db in (3.0, 10.0, 18.0):
            snr = 10 ** (snr_db / 10)
            ber = ber_for_modulation(snr, bits)
            assert snr_for_ber(ber, bits) == pytest.approx(snr, rel=1e-6)

    def test_higher_order_worse_at_same_snr(self):
        snr = 10 ** (12.0 / 10)
        bers = [float(ber_for_modulation(snr, b)) for b in (1, 2, 4, 6)]
        assert bers == sorted(bers)

    def test_bpsk_known_value(self):
        # BER of BPSK at 0 dB: Q(sqrt(2)) ~ 0.0786
        assert float(ber_for_modulation(1.0, 1)) == pytest.approx(0.0786, abs=1e-3)


class TestEffectiveSnr:
    def test_flat_channel_identity(self):
        assert effective_snr_db(np.full(48, 15.0), 2) == pytest.approx(15.0, abs=0.01)

    def test_selective_channel_below_mean(self):
        """Effective SNR of a frequency-selective channel is dominated by
        the weak subcarriers — below the arithmetic dB mean."""
        snrs = np.concatenate([np.full(24, 25.0), np.full(24, 5.0)])
        eff = effective_snr_db(snrs, 4)
        assert eff < np.mean(snrs)

    def test_single_deep_fade_limited_impact(self):
        snrs = np.full(48, 20.0)
        snrs[0] = -5.0
        eff = effective_snr_db(snrs, 2)
        assert 8.0 < eff < 20.0


class TestThresholdSelection:
    """On a flat channel the effective SNR is the SNR itself, so the
    selector reduces to the MCS threshold table."""

    def select_flat(self, snr_db):
        return EffectiveSnrRateSelector(10e6).select(np.full(48, snr_db)).mcs

    def test_below_all_thresholds(self):
        assert self.select_flat(1.0) is None

    def test_top_rate_at_high_snr(self):
        assert self.select_flat(30.0).index == 7

    def test_each_threshold_selects_its_mcs(self):
        for mcs in ALL_MCS:
            got = self.select_flat(mcs.min_snr_db + 0.01)
            assert got.index >= mcs.index


class TestSelector:
    def test_goodput_includes_mac_efficiency(self):
        sel = EffectiveSnrRateSelector(10e6, mac_efficiency=MAC_EFFICIENCY)
        flat = np.full(48, 30.0)
        assert sel.goodput(flat) == pytest.approx(27e6 * MAC_EFFICIENCY)

    def test_high_snr_hits_paper_baseline(self):
        """802.11 at high SNR ~ 23.6 Mbps on the 10 MHz USRP channel (§11.2)."""
        sel = EffectiveSnrRateSelector(10e6, mac_efficiency=MAC_EFFICIENCY)
        assert sel.goodput(np.full(48, 25.0)) == pytest.approx(23.6e6, rel=0.01)

    def test_zero_below_threshold(self):
        sel = EffectiveSnrRateSelector(10e6)
        decision = sel.select(np.full(48, -3.0))
        assert decision.mcs is None and decision.bitrate == 0.0

    def test_rate_monotonic_in_snr(self):
        sel = EffectiveSnrRateSelector(20e6)
        rates = [sel.select(np.full(48, s)).bitrate for s in range(0, 30, 2)]
        assert rates == sorted(rates)

    def test_selective_channel_drops_rate(self):
        sel = EffectiveSnrRateSelector(20e6)
        flat = sel.select(np.full(48, 16.0)).bitrate
        selective = np.full(48, 16.0)
        selective[::3] = 4.0
        assert sel.select(selective).bitrate < flat

    def test_scalar_input(self):
        sel = EffectiveSnrRateSelector(20e6)
        assert sel.select(25.0).mcs is not None

    def test_invalid_sample_rate(self):
        with pytest.raises(ValueError):
            EffectiveSnrRateSelector(0.0)

    def test_matches_per_mcs_walk_bitwise(self):
        """One effective SNR per modulation decides exactly as the walk that
        recomputes it for every MCS."""
        sel = EffectiveSnrRateSelector(10e6)
        rng = np.random.default_rng(40)
        for row in rng.uniform(-10.0, 40.0, (200, 52)):
            best, best_eff = None, effective_snr_db(row, 1)
            for mcs in ALL_MCS:
                eff = effective_snr_db(row, mcs.bits_per_subcarrier)
                if eff >= mcs.min_snr_db:
                    best, best_eff = mcs, eff
            decision = sel.select(row)
            assert decision.mcs is best
            assert decision.effective_snr_db == best_eff
