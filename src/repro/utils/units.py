"""Unit conversions used across the PHY and channel models."""

from __future__ import annotations

from typing import Union

import numpy as np
import numpy.typing as npt


def db_to_linear(db: npt.ArrayLike) -> np.ndarray:
    """Convert a power ratio from decibels to linear scale."""
    return np.power(10.0, np.asarray(db, dtype=float) / 10.0)


def linear_to_db(linear: npt.ArrayLike) -> np.ndarray:
    """Convert a linear power ratio to decibels.

    Zero or negative inputs map to ``-inf`` rather than raising, matching
    the convention of signal-strength meters.
    """
    values = np.asarray(linear, dtype=float)
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(values)


def wrap_phase(phase: npt.ArrayLike) -> Union[float, np.ndarray]:
    """Wrap an angle (radians) into (-pi, pi]."""
    values = np.asarray(phase, dtype=float)
    wrapped = np.angle(np.exp(1j * values))
    if values.ndim == 0:
        return float(wrapped)
    return wrapped


def ppm_to_hz(ppm: float, reference_hz: float) -> float:
    """Convert a parts-per-million clock offset into an absolute Hz offset.

    An 802.11 oscillator at 2.4 GHz with a 20 ppm tolerance may be off by
    up to ``ppm_to_hz(20, 2.4e9) == 48 kHz``.
    """
    return float(ppm) * 1e-6 * float(reference_hz)
