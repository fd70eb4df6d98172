"""Least-squares channel estimation from LTS symbols.

Also provides the two operations MegaMIMO needs beyond vanilla 802.11:
averaging repeated per-AP estimates to beat down noise (§5.1b), and the
phasor between two measurements of the lead channel from which a slave
derives its phase correction (§5.2b).
"""

from __future__ import annotations

import numpy as np

from repro.constants import FFT_SIZE
from repro.phy.preamble import lts_grid
from repro.utils.validation import require

_LTS_GRID = lts_grid()
_OCCUPIED = np.abs(_LTS_GRID) > 0


def estimate_channel_lts(lts_time_samples: np.ndarray) -> np.ndarray:
    """LS channel estimate from one 64-sample (CP-free) LTS copy.

    Returns a 64-bin complex array; unoccupied bins (DC, band edges) are 0.
    """
    lts_time_samples = np.asarray(lts_time_samples, dtype=complex).ravel()
    require(lts_time_samples.size == FFT_SIZE, "need exactly one 64-sample LTS")
    grid = np.fft.fft(lts_time_samples) / np.sqrt(FFT_SIZE)
    estimate = np.zeros(FFT_SIZE, dtype=complex)
    estimate[_OCCUPIED] = grid[_OCCUPIED] / _LTS_GRID[_OCCUPIED]
    return estimate


def average_channel_estimates(estimates) -> np.ndarray:
    """Average several 64-bin channel estimates (reduces noise, §5.1a/b)."""
    estimates = [np.asarray(e, dtype=complex).ravel() for e in estimates]
    require(len(estimates) > 0, "need at least one estimate")
    for e in estimates:
        require(e.size == FFT_SIZE, "estimates must be 64-bin arrays")
    return np.mean(np.stack(estimates), axis=0)


def channel_rotation(reference: np.ndarray, current: np.ndarray) -> complex:
    """Unit-magnitude rotation best mapping ``reference`` onto ``current``.

    Computes ``e^{j(w_lead - w_slave) t}`` from the slave's two measurements
    of the lead channel (§5.2b): a least-squares phasor fit across occupied
    subcarriers, robust to per-bin noise.
    """
    reference = np.asarray(reference, dtype=complex).ravel()
    current = np.asarray(current, dtype=complex).ravel()
    require(reference.size == current.size, "estimates must be the same length")
    inner = np.sum(current * np.conj(reference))
    magnitude = np.abs(inner)
    if magnitude < 1e-15:
        return 1.0 + 0j
    return inner / magnitude
