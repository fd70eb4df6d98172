"""Packet detection and symbol timing recovery.

Detection uses the classic Schmidl-Cox style autocorrelation over the STS's
16-sample periodicity; fine timing uses cross-correlation against the known
LTS.  MegaMIMO slave APs run the same detector on the lead AP's sync header
to trigger their joint transmission (§10a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.constants import CP_LENGTH, FFT_SIZE
from repro.phy.preamble import STS_PERIOD, long_training_sequence


@dataclass
class DetectionResult:
    """Where a packet was found in a sample stream.

    Attributes:
        sts_start: Sample index where the STS plateau begins.
        lts_start: Sample index of the first 64-sample LTS copy (after its
            guard interval).
        metric: Peak normalized autocorrelation metric (0..1).
    """

    sts_start: int
    lts_start: int
    metric: float


def sts_autocorrelation(samples: np.ndarray, window: int = 4 * STS_PERIOD) -> np.ndarray:
    """Normalized 16-sample-lag autocorrelation metric per sample offset."""
    samples = np.asarray(samples, dtype=complex).ravel()
    if samples.size < window + STS_PERIOD:
        return np.zeros(0)
    lagged = samples[STS_PERIOD:] * np.conj(samples[:-STS_PERIOD])
    power = np.abs(samples[:-STS_PERIOD]) ** 2
    kernel = np.ones(window)
    corr = np.convolve(lagged, kernel, mode="valid")
    energy = np.convolve(power, kernel, mode="valid")
    metric = np.abs(corr) / np.maximum(energy, 1e-12)
    return metric


def detect_packet(
    samples: np.ndarray,
    threshold: float = 0.8,
    search_start: int = 0,
) -> Optional[DetectionResult]:
    """Find the first packet preamble at or after ``search_start``.

    Returns None if no STS plateau above ``threshold`` is found or the LTS
    cross-correlation cannot confirm timing.
    """
    samples = np.asarray(samples, dtype=complex).ravel()
    metric = sts_autocorrelation(samples[search_start:])
    if metric.size == 0:
        return None
    above = np.nonzero(metric > threshold)[0]
    if above.size == 0:
        return None
    plateau_start = int(above[0]) + search_start

    # STS is 160 samples; search for the LTS in a window after the plateau.
    lts_ref = long_training_sequence(repeats=1, cp_length=0)  # one clean copy
    window_lo = plateau_start
    window_hi = min(plateau_start + 6 * FFT_SIZE, samples.size - FFT_SIZE)
    if window_hi <= window_lo:
        return None
    segment = samples[window_lo : window_hi + FFT_SIZE]
    corr = np.correlate(segment, lts_ref, mode="valid")
    energies = np.convolve(np.abs(segment) ** 2, np.ones(FFT_SIZE), mode="valid")
    n = min(corr.size, energies.size)
    norm = (
        np.abs(corr[:n])
        / np.sqrt(np.maximum(energies[:n], 1e-12))
        / np.linalg.norm(lts_ref)
    )
    peak_val = float(norm.max(initial=0.0))
    if peak_val < 0.5:
        return None
    # the two LTS copies correlate identically; lock onto the *earliest*
    # near-peak index so timing lands on the first copy, not the second
    candidates = np.nonzero(norm > 0.92 * peak_val)[0]
    best = int(candidates[0])
    best_val = float(norm[best])
    return DetectionResult(
        sts_start=plateau_start, lts_start=window_lo + best, metric=best_val
    )


def ideal_lts_offset(packet_start: int) -> int:
    """Where the first LTS copy sits for a packet starting at ``packet_start``.

    Layout: 10 STS repetitions (160 samples) + 32-sample LTS guard.
    """
    return packet_start + 10 * STS_PERIOD + 2 * CP_LENGTH
