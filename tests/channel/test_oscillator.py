"""Oscillator model: the physics that motivates the paper."""

import numpy as np
import pytest

from repro.channel.oscillator import Oscillator, OscillatorConfig


class TestDeterministicPhase:
    def test_pure_cfo_phase(self):
        osc = Oscillator(OscillatorConfig(ppm_offset=1.0, phase_noise_rad2_per_s=0.0,
                                          carrier_frequency=1e9))
        # 1 ppm at 1 GHz = 1 kHz
        assert osc.frequency_offset_hz == pytest.approx(1000.0)
        t = 1e-3
        assert osc.phase_at([t])[0] == pytest.approx(2 * np.pi * 1000.0 * t)

    def test_initial_phase(self):
        osc = Oscillator(OscillatorConfig(phase_noise_rad2_per_s=0.0, initial_phase=0.7))
        assert osc.phase_at([0.0])[0] == pytest.approx(0.7)

    def test_sampling_ratio_shares_crystal(self):
        osc = Oscillator(OscillatorConfig(ppm_offset=5.0))
        assert osc.sampling_ratio == pytest.approx(1.0 + 5e-6)

    def test_rotation_is_unit_modulus(self):
        osc = Oscillator(OscillatorConfig(ppm_offset=2.0))
        r = osc.rotation_at(np.linspace(0, 1e-3, 10))
        assert np.allclose(np.abs(r), 1.0)


class TestPhaseNoise:
    def test_repeated_queries_identical(self):
        """The same instant must always return the same phase — one
        transmission is observed by many receivers."""
        osc = Oscillator(OscillatorConfig(phase_noise_rad2_per_s=1.0), rng=0)
        t = np.array([1e-3, 5e-3, 2e-3])  # non-monotonic on purpose
        first = osc.phase_at(t)
        second = osc.phase_at(t)
        assert np.array_equal(first, second)

    def test_variance_grows_linearly(self):
        rate = 1.0
        samples = []
        for seed in range(300):
            osc = Oscillator(OscillatorConfig(phase_noise_rad2_per_s=rate), rng=seed)
            samples.append(osc.phase_noise_at([10e-3])[0])
        var = np.var(samples)
        assert var == pytest.approx(rate * 10e-3, rel=0.3)

    def test_zero_noise_config(self):
        osc = Oscillator(OscillatorConfig(phase_noise_rad2_per_s=0.0))
        assert np.all(osc.phase_noise_at(np.linspace(0, 1e-2, 50)) == 0.0)

    def test_starts_at_zero(self):
        osc = Oscillator(OscillatorConfig(phase_noise_rad2_per_s=1.0), rng=1)
        assert osc.phase_noise_at([0.0])[0] == 0.0

    def test_negative_time_rejected(self):
        osc = Oscillator()
        with pytest.raises(ValueError):
            osc.phase_at([-1.0])


class TestPaperNumerology:
    def test_10hz_error_costs_20_degrees_in_5_5ms(self):
        """§1: 'even a small error of, say, 10 Hz ... can lead to a large
        error of 20 degrees (0.35 radians) within ... 5.5 ms'."""
        phase = 2 * np.pi * 10.0 * 5.5e-3
        assert phase == pytest.approx(np.deg2rad(20.0), rel=0.02)
        assert phase == pytest.approx(0.35, abs=0.01)

    def test_100hz_error_costs_pi_in_20ms(self):
        """§5.2b: '100 Hz ... phase error of pi radians in ... 20 ms'.

        (2*pi*100*0.02 = 4pi; the paper counts the worst-case beamforming
        misalignment, which wraps at pi — verify the error exceeds pi.)"""
        assert 2 * np.pi * 100.0 * 20e-3 >= np.pi
