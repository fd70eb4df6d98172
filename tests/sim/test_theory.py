"""The paper's §11.2 gain model."""

import pytest

from repro.sim.theory import (
    fit_gain_model,
    implied_k_db,
    megamimo_gain_model,
    paper_implied_k_summary,
)


class TestGainModel:
    def test_perfect_conditioning_gives_n(self):
        assert megamimo_gain_model(10, 20.0, k_db=0.0) == pytest.approx(10.0)

    def test_gain_grows_with_snr(self):
        low = megamimo_gain_model(10, 9.0, k_db=2.0)
        high = megamimo_gain_model(10, 22.0, k_db=2.0)
        assert high > low

    def test_paper_asymmetry_reproduced(self):
        """With one K ~ 1.7 dB the model produces the paper's 8.1x (low)
        and ~9.4x (high) spread."""
        k = 1.7
        low = megamimo_gain_model(10, 9.0, k_db=k)
        high = megamimo_gain_model(10, 22.0, k_db=k)
        assert low == pytest.approx(8.1, abs=0.4)
        assert high == pytest.approx(9.2, abs=0.4)

    def test_inversion_roundtrip(self):
        for k in (0.5, 1.5, 3.0):
            gain = megamimo_gain_model(8, 15.0, k_db=k)
            assert implied_k_db(8, 15.0, gain) == pytest.approx(k, abs=1e-9)

    def test_paper_summary_band(self):
        """The paper's own gains imply K ~ 1-2.5 dB across bands — the
        justification for the Fig. 9 placement screen."""
        ks = paper_implied_k_summary()
        for label, k in ks.items():
            assert 0.3 < k < 3.0, label

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            megamimo_gain_model(0, 20.0, 1.0)
        with pytest.raises(ValueError):
            implied_k_db(4, 20.0, 5.0)  # gain > N


class TestFit:
    def test_fits_synthetic_data_exactly(self):
        k = 1.8
        ns = [2, 4, 6, 8, 10]
        gains = [megamimo_gain_model(n, 18.0, k) for n in ns]
        fit = fit_gain_model(ns, gains, 18.0)
        assert fit.k_db == pytest.approx(k, abs=1e-9)
        assert fit.max_relative_error() < 1e-9

    def test_fits_measured_fig9(self):
        """Our own Fig. 9 measurements follow the paper's model with a
        small K, confirming the linear-scaling mechanism."""
        from repro.sim.experiments import run_fig9

        fig9 = run_fig9(seed=4, n_aps=(4, 6, 8, 10), n_topologies=4)
        gains = [fig9.median_gain("high", n) for n in (4, 6, 8, 10)]
        fit = fit_gain_model([4, 6, 8, 10], gains, 22.0)
        assert 0.0 <= fit.k_db < 4.0
        assert fit.max_relative_error() < 0.35

    def test_table_renders(self):
        fit = fit_gain_model([2, 4], [1.9, 3.7], 20.0)
        assert "fitted conditioning penalty" in fit.format_table()
