"""Metrics helpers."""

import numpy as np
import pytest

from repro.sim.metrics import cdf_points, median_gain, percentile


class TestCdf:
    def test_sorted_output(self):
        xs, fs = cdf_points([3.0, 1.0, 2.0])
        assert xs.tolist() == [1.0, 2.0, 3.0]
        assert fs.tolist() == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cdf_points([])


class TestGain:
    def test_median_gain(self):
        assert median_gain([2.0, 4.0, 9.0], [1.0, 2.0, 3.0]) == 2.0

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            median_gain([1.0], [0.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            median_gain([1.0, 2.0], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty sample"):
            median_gain([], [])


def test_percentile():
    assert percentile(np.arange(101), 95) == pytest.approx(95.0)


def test_percentile_empty_rejected():
    with pytest.raises(ValueError, match="empty sample"):
        percentile([], 50)
