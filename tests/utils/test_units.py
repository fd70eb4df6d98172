"""Unit conversions."""

import numpy as np
import pytest

from repro.utils.units import (
    db_to_linear,
    linear_to_db,
    ppm_to_hz,
    wrap_phase,
)


class TestDbConversions:
    def test_zero_db_is_unity(self):
        assert db_to_linear(0.0) == pytest.approx(1.0)

    def test_ten_db_is_ten(self):
        assert db_to_linear(10.0) == pytest.approx(10.0)

    def test_roundtrip(self):
        for v in (0.1, 1.0, 3.7, 100.0):
            assert db_to_linear(linear_to_db(v)) == pytest.approx(v)

    def test_linear_to_db_of_zero_is_neg_inf(self):
        assert linear_to_db(0.0) == -np.inf

    def test_array_input(self):
        out = db_to_linear(np.array([0.0, 10.0, 20.0]))
        assert np.allclose(out, [1.0, 10.0, 100.0])


class TestWrapPhase:
    def test_identity_in_range(self):
        assert wrap_phase(1.0) == pytest.approx(1.0)

    def test_wraps_positive(self):
        assert wrap_phase(2 * np.pi + 0.5) == pytest.approx(0.5)

    def test_wraps_negative(self):
        assert wrap_phase(-2 * np.pi - 0.5) == pytest.approx(-0.5)

    def test_scalar_returns_float(self):
        assert isinstance(wrap_phase(5.0), float)

    def test_array(self):
        out = wrap_phase(np.array([0.0, 3 * np.pi]))
        assert np.allclose(out, [0.0, np.pi])


class TestPpm:
    def test_80211_tolerance_at_2_4ghz(self):
        # the paper's §1: 20 ppm at 2.4 GHz is 48 kHz
        assert ppm_to_hz(20.0, 2.4e9) == pytest.approx(48_000.0)

    def test_sign_preserved(self):
        assert ppm_to_hz(-2.0, 1e9) == pytest.approx(-2000.0)
