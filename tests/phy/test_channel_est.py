"""Channel estimation from LTS symbols."""

import numpy as np
import pytest

from repro.constants import FFT_SIZE
from repro.phy.channel_est import (
    average_channel_estimates,
    channel_rotation,
    estimate_channel_lts,
)
from repro.phy.preamble import lts_grid


def lts_time():
    grid = lts_grid()
    return np.fft.ifft(grid) * np.sqrt(FFT_SIZE)


class TestLsEstimate:
    def test_identity_channel(self):
        est = estimate_channel_lts(lts_time())
        occupied = np.abs(lts_grid()) > 0
        assert np.allclose(est[occupied], 1.0, atol=1e-9)
        assert np.allclose(est[~occupied], 0.0)

    def test_flat_complex_channel(self):
        h = 0.5 * np.exp(1j * 0.7)
        est = estimate_channel_lts(h * lts_time())
        occupied = np.abs(lts_grid()) > 0
        assert np.allclose(est[occupied], h, atol=1e-9)

    def test_frequency_selective_channel(self):
        taps = np.array([1.0, 0.4 + 0.2j, 0.1j])
        rx = np.convolve(lts_time(), taps)[:FFT_SIZE]
        # circular convolution needs the wrapped tail added back
        tail = np.convolve(lts_time(), taps)[FFT_SIZE:]
        rx[: tail.size] += tail
        est = estimate_channel_lts(rx)
        truth = np.fft.fft(np.concatenate([taps, np.zeros(FFT_SIZE - 3)]))
        occupied = np.abs(lts_grid()) > 0
        assert np.allclose(est[occupied], truth[occupied], atol=1e-9)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            estimate_channel_lts(np.zeros(32, dtype=complex))


class TestAveraging:
    def test_mean_of_estimates(self):
        a = np.full(FFT_SIZE, 1.0 + 0j)
        b = np.full(FFT_SIZE, 3.0 + 0j)
        assert np.allclose(average_channel_estimates([a, b]), 2.0)

    def test_reduces_noise(self):
        rng = np.random.default_rng(0)
        h = 2.0 * np.exp(1j * 0.3)
        estimates = []
        for _ in range(16):
            noisy = h * lts_time() + 0.2 * (
                rng.normal(size=FFT_SIZE) + 1j * rng.normal(size=FFT_SIZE)
            )
            estimates.append(estimate_channel_lts(noisy))
        avg = average_channel_estimates(estimates)
        occupied = np.abs(lts_grid()) > 0
        err_single = np.mean(np.abs(estimates[0][occupied] - h))
        err_avg = np.mean(np.abs(avg[occupied] - h))
        assert err_avg < err_single / 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_channel_estimates([])


class TestRotation:
    def test_channel_rotation_recovers_phasor(self):
        rng = np.random.default_rng(1)
        ref = rng.normal(size=FFT_SIZE) + 1j * rng.normal(size=FFT_SIZE)
        phi = 0.9
        current = ref * np.exp(1j * phi)
        r = channel_rotation(ref, current)
        assert np.angle(r) == pytest.approx(phi)
        assert abs(r) == pytest.approx(1.0)

    def test_channel_rotation_is_noise_robust(self):
        rng = np.random.default_rng(2)
        ref = rng.normal(size=FFT_SIZE) + 1j * rng.normal(size=FFT_SIZE)
        current = ref * np.exp(1j * 0.5) + 0.05 * (
            rng.normal(size=FFT_SIZE) + 1j * rng.normal(size=FFT_SIZE)
        )
        assert np.angle(channel_rotation(ref, current)) == pytest.approx(0.5, abs=0.02)

    def test_degenerate_inputs_give_unity(self):
        assert channel_rotation(np.zeros(4), np.zeros(4)) == 1.0 + 0j
