"""CDF, percentile and median-gain helpers used by the experiments."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.utils.validation import require


def cdf_points(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: returns (sorted values, cumulative fractions)."""
    values = np.sort(np.asarray(values, dtype=float).ravel())
    require(values.size > 0, "empty sample")
    fractions = np.arange(1, values.size + 1) / values.size
    return values, fractions


def percentile(values: Sequence[float], q: float) -> float:
    """q-th percentile (q in [0, 100])."""
    values = np.asarray(values, dtype=float)
    require(values.size > 0, "empty sample")
    return float(np.percentile(values, q))


def median_gain(megamimo: Sequence[float], baseline: Sequence[float]) -> float:
    """Median of per-sample throughput ratios."""
    megamimo = np.asarray(megamimo, dtype=float)
    baseline = np.asarray(baseline, dtype=float)
    require(megamimo.shape == baseline.shape, "shape mismatch")
    require(megamimo.size > 0, "empty sample")
    require(bool(np.all(baseline > 0)), "baseline throughput must be positive")
    return float(np.median(megamimo / baseline))
