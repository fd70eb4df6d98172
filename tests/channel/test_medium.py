"""The shared medium: superposition, delays, oscillator rotation."""

import bisect

import numpy as np
import pytest

from repro.channel.medium import Medium, fast_fft_length, fractional_delay
from repro.channel.models import LinkChannel
from repro.channel.oscillator import Oscillator, OscillatorConfig

FS = 10e6


def quiet_medium(**kwargs):
    return Medium(FS, noise_power=kwargs.pop("noise_power", 0.0), rng=0)


def ideal_osc(ppm=0.0, phase=0.0):
    return Oscillator(
        OscillatorConfig(ppm_offset=ppm, phase_noise_rad2_per_s=0.0, initial_phase=phase)
    )


class TestFractionalDelay:
    def test_integer_delay(self):
        x = np.array([1.0, 2.0, 3.0], dtype=complex)
        out = fractional_delay(x, 2.0)
        assert np.allclose(out[:2], 0.0)
        assert np.allclose(out[2:5], x)

    def test_zero_delay_identity(self):
        x = np.arange(5, dtype=complex)
        assert np.allclose(fractional_delay(x, 0.0), x)

    def test_half_sample_delay_of_tone(self):
        n = 256
        freq = 5  # cycles over the window
        x = np.exp(2j * np.pi * freq * np.arange(n) / n)
        out = fractional_delay(x, 0.5)
        # interior samples should match the analytically delayed tone
        expected = np.exp(2j * np.pi * freq * (np.arange(n) - 0.5) / n)
        assert np.allclose(out[32:-32], expected[32:-32], atol=0.05)

    def test_negative_integer_advances(self):
        x = np.array([0.0, 0.0, 1.0, 2.0], dtype=complex)
        out = fractional_delay(x, -2.0)
        assert np.allclose(out[:2], [1.0, 2.0])


def one_zero_pad_delay(samples, delay_samples):
    """The fractional part of ``fractional_delay`` as it was before the fast
    FFT length: the ramp over an ``n + 1``-point transform (one zero of
    guard).  Kept only as an accuracy oracle."""
    n = samples.size + 1
    spectrum = np.fft.fft(np.concatenate([samples, [0.0]]))
    spectrum *= np.exp(-2j * np.pi * np.fft.fftfreq(n) * delay_samples)
    return np.fft.ifft(spectrum)[: samples.size]


def padded_delay(samples, delay_samples, n=None):
    """The ramp over an ``n``-point transform, by default ``8 * size`` (a
    near-linear reference)."""
    n = 8 * samples.size if n is None else n
    spectrum = np.fft.fft(samples, n)
    spectrum *= np.exp(-2j * np.pi * np.fft.fftfreq(n) * delay_samples)
    return np.fft.ifft(spectrum)[: samples.size]


def ofdm_like(n, rng):
    """``n`` samples of cyclic-prefixed 64-point OFDM on the 52 used bins."""
    n_symbols = -(-n // 80)
    used = np.r_[1:27, 38:64]
    spectrum = np.zeros((n_symbols, 64), dtype=complex)
    spectrum[:, used] = rng.choice([-1.0, 1.0], (n_symbols, 52, 2)) @ [1.0, 1j]
    symbols = np.fft.ifft(spectrum, axis=1)
    return np.concatenate([symbols[:, -16:], symbols], axis=1).ravel()[:n]


class TestFastFftLength:
    def test_smallest_smooth_length(self):
        limit = 50_001
        smooth = sorted(
            2**a * 3**b * 5**c
            for a in range(18)
            for b in range(11)
            for c in range(8)
            if 2**a * 3**b * 5**c <= 2 * limit
        )
        for n in range(limit):
            assert fast_fft_length(n + 1) == smooth[bisect.bisect_left(smooth, n + 1)]

    def test_small_lengths(self):
        assert [fast_fft_length(n) for n in range(12)] == [1, 1, 2, 3, 4, 5, 6, 8, 8, 9, 10, 12]


class TestFractionalDelayAccuracy:
    @pytest.mark.parametrize("n", [320, 333, 1200, 1201, 3040, 10320, 20320, 40400])
    def test_no_worse_than_one_zero_pad(self, n):
        x = ofdm_like(n, np.random.default_rng(n))
        rms = np.sqrt(np.mean(np.abs(x) ** 2))
        for delay in (0.1, 0.37, 0.5, 0.9):
            reference = padded_delay(x, delay)
            new = np.max(np.abs(fractional_delay(x, delay) - reference)) / rms
            old = np.max(np.abs(one_zero_pad_delay(x, delay) - reference)) / rms
            assert new <= old

    @pytest.mark.parametrize("n", [*range(12), 319, 320, 1201, 10320])
    def test_ramp_matches_direct_exponential(self, n):
        x = np.random.default_rng(n).normal(size=(n, 2)) @ [1.0, 1j]
        for delay in (0.01, 0.5, 0.99):
            direct = padded_delay(x, delay, fast_fft_length(n + 1))
            assert np.allclose(fractional_delay(x, delay), direct, rtol=0, atol=1e-12)

    def test_integer_part_and_length(self):
        x = ofdm_like(1201, np.random.default_rng(0))
        out = fractional_delay(x, 3.25)
        assert out.size == x.size + 3
        assert np.array_equal(out[:3], np.zeros(3))
        assert np.allclose(out[3:], fractional_delay(x, 0.25))


class TestMediumBasics:
    def test_direct_delivery(self):
        m = quiet_medium()
        m.register_node("tx", ideal_osc())
        m.register_node("rx", ideal_osc())
        m.set_link("tx", "rx", LinkChannel(taps=np.array([0.5 + 0j])))
        x = np.arange(10, dtype=complex)
        m.transmit("tx", x, 0.0)
        y = m.receive("rx", 0.0, 10)
        assert np.allclose(y, 0.5 * x)

    def test_unlinked_node_hears_nothing(self):
        m = quiet_medium()
        m.register_node("tx", ideal_osc())
        m.register_node("rx", ideal_osc())
        m.transmit("tx", np.ones(10, dtype=complex), 0.0)
        assert np.allclose(m.receive("rx", 0.0, 10), 0.0)

    def test_own_transmission_excluded(self):
        m = quiet_medium()
        m.register_node("a", ideal_osc())
        m.set_link("a", "a", LinkChannel(taps=np.array([1.0 + 0j])))
        m.transmit("a", np.ones(10, dtype=complex), 0.0)
        assert np.allclose(m.receive("a", 0.0, 10), 0.0)
        loopback = m.receive("a", 0.0, 10, exclude_own=False)
        assert np.allclose(loopback, 1.0)

    def test_superposition(self):
        m = quiet_medium()
        for node in ("t1", "t2", "rx"):
            m.register_node(node, ideal_osc())
        m.set_link("t1", "rx", LinkChannel(taps=np.array([1.0 + 0j])))
        m.set_link("t2", "rx", LinkChannel(taps=np.array([2.0 + 0j])))
        m.transmit("t1", np.ones(10, dtype=complex), 0.0)
        m.transmit("t2", np.ones(10, dtype=complex), 0.0)
        assert np.allclose(m.receive("rx", 0.0, 10), 3.0)

    def test_window_offsets(self):
        m = quiet_medium()
        m.register_node("tx", ideal_osc())
        m.register_node("rx", ideal_osc())
        m.set_link("tx", "rx", LinkChannel(taps=np.array([1.0 + 0j])))
        x = np.arange(20, dtype=complex)
        m.transmit("tx", x, 100 / FS)
        y = m.receive("rx", 105 / FS, 10)
        assert np.allclose(y, x[5:15])

    def test_clear_drops_traffic(self):
        m = quiet_medium()
        m.register_node("tx", ideal_osc())
        m.register_node("rx", ideal_osc())
        m.set_link("tx", "rx", LinkChannel(taps=np.array([1.0 + 0j])))
        m.transmit("tx", np.ones(5, dtype=complex), 0.0)
        m.clear()
        assert np.allclose(m.receive("rx", 0.0, 5), 0.0)

    def test_unknown_nodes_rejected(self):
        m = quiet_medium()
        with pytest.raises(ValueError):
            m.transmit("ghost", np.ones(4), 0.0)
        with pytest.raises(ValueError):
            m.receive("ghost", 0.0, 4)


class TestOscillatorRotation:
    def test_cfo_between_tx_and_rx(self):
        m = quiet_medium()
        m.register_node("tx", ideal_osc(ppm=1.0))  # 2.412 kHz at 2.412 GHz
        m.register_node("rx", ideal_osc(ppm=0.0))
        m.set_link("tx", "rx", LinkChannel(taps=np.array([1.0 + 0j])))
        n = 1000
        m.transmit("tx", np.ones(n, dtype=complex), 0.0)
        y = m.receive("rx", 0.0, n)
        df = m.oscillator("tx").frequency_offset_hz
        expected = np.exp(2j * np.pi * df * np.arange(n) / FS)
        assert np.allclose(y, expected, atol=1e-6)

    def test_identical_oscillators_cancel(self):
        shared_phase = 1.2
        m = quiet_medium()
        m.register_node("tx", ideal_osc(ppm=3.0, phase=shared_phase))
        m.register_node("rx", ideal_osc(ppm=3.0, phase=shared_phase))
        m.set_link("tx", "rx", LinkChannel(taps=np.array([1.0 + 0j])))
        m.transmit("tx", np.ones(100, dtype=complex), 0.0)
        y = m.receive("rx", 0.0, 100)
        assert np.allclose(y, 1.0, atol=1e-9)


class TestNoise:
    def test_noise_power(self):
        m = Medium(FS, noise_power=2.0, rng=0)
        m.register_node("rx", ideal_osc())
        y = m.receive("rx", 0.0, 50_000)
        assert np.mean(np.abs(y) ** 2) == pytest.approx(2.0, rel=0.05)

    def test_noise_can_be_disabled(self):
        m = Medium(FS, noise_power=2.0, rng=0)
        m.register_node("rx", ideal_osc())
        assert np.allclose(m.receive("rx", 0.0, 100, include_noise=False), 0.0)


class TestMultipathAndDelay:
    def test_two_tap_echo(self):
        m = quiet_medium()
        m.register_node("tx", ideal_osc())
        m.register_node("rx", ideal_osc())
        m.set_link("tx", "rx", LinkChannel(taps=np.array([1.0, 0.25 + 0j])))
        x = np.zeros(10, dtype=complex)
        x[0] = 1.0
        m.transmit("tx", x, 0.0)
        y = m.receive("rx", 0.0, 10)
        assert y[0] == pytest.approx(1.0)
        assert y[1] == pytest.approx(0.25)

    def test_propagation_delay_shifts_arrival(self):
        m = quiet_medium()
        m.register_node("tx", ideal_osc())
        m.register_node("rx", ideal_osc())
        m.set_link("tx", "rx", LinkChannel(taps=np.array([1.0 + 0j]), delay_s=3 / FS))
        x = np.zeros(10, dtype=complex)
        x[0] = 1.0
        m.transmit("tx", x, 0.0)
        y = m.receive("rx", 0.0, 10)
        assert abs(y[3]) == pytest.approx(1.0, abs=1e-6)
        assert abs(y[0]) < 1e-9

    def test_end_time(self):
        m = quiet_medium()
        m.register_node("tx", ideal_osc())
        m.transmit("tx", np.ones(100, dtype=complex), 1e-3)
        assert m.transmission_end_time() == pytest.approx(1e-3 + 100 / FS)
