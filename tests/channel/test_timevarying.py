"""Time-varying fading and coherence."""

import numpy as np
import pytest

from repro.channel.timevarying import (
    GaussMarkovFader,
    JakesFader,
    JakesLinkGrid,
    TimeVaryingLinkChannel,
    channel_correlation,
    doppler_from_coherence,
)
from repro.sim.fastsim import taps_to_channel_tensor


class TestCorrelationModels:
    def test_clarke_half_point(self):
        # Tc is defined as the 50%-coherence time
        assert channel_correlation(0.25, 0.25) == pytest.approx(0.5, abs=0.02)

    def test_clarke_flat_at_origin(self):
        """Physical fading decorrelates quadratically near t = 0 — far
        slower than the exponential model."""
        tc = 0.25
        t = 0.01 * tc
        clarke = channel_correlation(t, tc, model="clarke")
        expo = channel_correlation(t, tc, model="exponential")
        assert 1.0 - clarke < (1.0 - expo) / 10

    def test_zero_lag_is_one(self):
        for model in ("clarke", "exponential"):
            assert channel_correlation(0.0, 0.1, model=model) == pytest.approx(1.0)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            channel_correlation(0.1, 0.1, model="bessel")

    def test_doppler_scaling(self):
        assert doppler_from_coherence(0.25) == pytest.approx(
            2 * doppler_from_coherence(0.5)
        )


class TestJakesFader:
    def test_unit_average_power(self):
        rng = np.random.default_rng(0)
        powers = []
        for seed in range(100):
            fader = JakesFader(0.25, rng=np.random.default_rng(seed))
            powers.append(abs(fader.value_at(float(rng.uniform(0, 1)))) ** 2)
        assert np.mean(powers) == pytest.approx(1.0, rel=0.2)

    def test_deterministic_in_time(self):
        fader = JakesFader(0.25, rng=1)
        assert fader.value_at(0.123) == fader.value_at(0.123)

    def test_empirical_autocorrelation_matches_clarke(self):
        tc = 0.1
        lags = np.array([0.01, 0.03, 0.05])
        acc = np.zeros(lags.size, dtype=complex)
        n = 400
        for seed in range(n):
            fader = JakesFader(tc, rng=seed)
            h0 = fader.value_at(0.0)
            for i, lag in enumerate(lags):
                acc[i] += fader.value_at(float(lag)) * np.conj(h0)
        empirical = np.abs(acc) / n
        for i, lag in enumerate(lags):
            expected = abs(channel_correlation(float(lag), tc))
            assert empirical[i] == pytest.approx(expected, abs=0.12)

    def test_slow_channel_barely_moves_within_packet(self):
        """Packets (~1 ms) are static relative to a 250 ms coherence time —
        the assumption behind snapshotting links per packet."""
        fader = JakesFader(0.25, rng=2)
        h0, h1 = fader.value_at(0.0), fader.value_at(1e-3)
        assert abs(h1 - h0) < 0.02

    def test_too_few_paths_rejected(self):
        with pytest.raises(ValueError):
            JakesFader(0.25, rng=0, n_paths=2)


class TestGaussMarkovFader:
    def test_repeatable_queries(self):
        fader = GaussMarkovFader(0.25, rng=3)
        t = 0.05
        assert fader.value_at(t) == fader.value_at(t)

    def test_decorrelates_over_coherence_time(self):
        tc = 0.05
        corr = []
        for seed in range(300):
            fader = GaussMarkovFader(tc, rng=seed)
            corr.append(fader.value_at(tc) * np.conj(fader.value_at(0.0)))
        assert abs(np.mean(corr)) == pytest.approx(np.exp(-1.0), abs=0.12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            GaussMarkovFader(0.25, rng=0).value_at(-1.0)


class TestTimeVaryingLink:
    def test_average_gain(self):
        gains = []
        for seed in range(300):
            link = TimeVaryingLinkChannel.create(4.0, rng=seed, rician_k=3.0)
            gains.append(float(np.sum(np.abs(link.taps_at(0.02)) ** 2)))
        assert np.mean(gains) == pytest.approx(4.0, rel=0.15)

    def test_high_k_breathes_less(self):
        def wobble(k, seed):
            link = TimeVaryingLinkChannel.create(
                1.0, coherence_time_s=0.05, rng=seed, rician_k=k
            )
            vals = [link.taps_at(t)[0] for t in np.linspace(0, 0.2, 9)]
            return np.std(np.abs(vals))

        low = np.mean([wobble(0.0, s) for s in range(40)])
        high = np.mean([wobble(20.0, s) for s in range(40)])
        assert high < low / 2

    def test_snapshot_freezes(self):
        link = TimeVaryingLinkChannel.create(1.0, rng=5)
        snap = link.snapshot(0.1)
        assert np.allclose(snap.taps, link.taps_at(0.1))

    def test_linkchannel_interface(self):
        link = TimeVaryingLinkChannel.create(1.0, rng=6, n_taps=2)
        assert link.frequency_response().shape == (64,)
        out = link.apply_at(np.ones(4, dtype=complex), 0.0)
        assert out.size == 5  # convolution with 2 taps

    def test_medium_integration(self):
        """The medium freezes time-varying links at each packet's start."""
        from repro.channel.medium import Medium
        from repro.channel.oscillator import Oscillator, OscillatorConfig

        m = Medium(10e6, noise_power=0.0, rng=0)
        def osc():
            return Oscillator(OscillatorConfig(phase_noise_rad2_per_s=0.0))

        m.register_node("tx", osc())
        m.register_node("rx", osc())
        link = TimeVaryingLinkChannel.create(1.0, coherence_time_s=0.02, rng=7)
        m.set_link("tx", "rx", link)
        m.transmit("tx", np.ones(4, dtype=complex), 0.0)
        m.transmit("tx", np.ones(4, dtype=complex), 0.05)
        early = m.receive("rx", 0.0, 4)
        late = m.receive("rx", 0.05 + 0.0, 4)
        assert np.allclose(early, link.taps_at(0.0)[0], atol=1e-9)
        assert np.allclose(late, link.taps_at(0.05)[0], atol=1e-9)
        assert not np.allclose(early, late)


class TestJakesLinkGrid:
    """Stacked evaluation of many links: the same bits as link by link."""

    @pytest.fixture
    def links(self):
        rng = np.random.default_rng(21)
        return [
            [
                TimeVaryingLinkChannel.create(
                    average_gain=float(rng.uniform(10, 300)), coherence_time_s=0.05,
                    n_taps=2, rician_k=7.0, rng=rng,
                )
                for _ in range(4)
            ]
            for _ in range(3)
        ]

    @pytest.mark.parametrize("t", [0.0, 1e-4, 0.0173, 0.4999])
    def test_taps_match_per_link(self, links, t):
        taps = JakesLinkGrid(links).taps_at(t)
        assert taps.shape == (3, 4, 2)
        for c, row in enumerate(links):
            for a, link in enumerate(row):
                np.testing.assert_array_equal(taps[c, a], link.taps_at(t))

    @pytest.mark.parametrize("t", [0.0, 0.0173, 0.4999])
    def test_stacked_snapshot_matches_per_link_response(self, links, t):
        tensor = taps_to_channel_tensor(JakesLinkGrid(links).taps_at(t), 16)
        assert tensor.shape == (16, 3, 4)
        for c, row in enumerate(links):
            for a, link in enumerate(row):
                response = link.snapshot(t).frequency_response(64)[:16]
                np.testing.assert_array_equal(tensor[:, c, a], response)

    def test_rejects_non_jakes_links(self):
        link = TimeVaryingLinkChannel.create(1.0, 0.05, rng=0, fader="gauss-markov")
        with pytest.raises(ValueError):
            JakesLinkGrid([[link]])
