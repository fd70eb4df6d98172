"""Theoretical capacity analysis behind the paper's gain model (§11.2).

The paper explains its measured gains with a two-line model:

* beamforming throughput with N APs scales as
  ``N log(SNR / K) = N log(SNR) − N log(K)`` where K captures the
  conditioning of the channel matrix ("natural channel matrices can be
  considered random and well conditioned, and hence K can essentially be
  treated as constant");
* 802.11 throughput scales as ``log(SNR)``;
* hence the expected gain is ``N (1 − log K / log SNR)`` — approaching N
  as SNR grows, which is why high-SNR gains (9.4x) beat low-SNR gains
  (8.1x).

This module implements that model and inverts it (what K do measured gains
imply?).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.utils.units import db_to_linear
from repro.utils.validation import require


def megamimo_gain_model(n_aps: int, snr_db: float, k_db: float) -> float:
    """The paper's expected gain: ``N (1 − log K / log SNR)``.

    Args:
        n_aps: Number of APs (= concurrent streams).
        snr_db: Operating SNR of the 802.11 baseline link.
        k_db: Conditioning penalty K in dB (per-stream effective SNR is
            SNR/K).

    Returns:
        Expected throughput gain over 802.11.
    """
    require(n_aps >= 1, "need at least one AP")
    snr = db_to_linear(snr_db)
    k = db_to_linear(k_db)
    require(snr > 1.0, "the log-SNR model needs SNR > 0 dB")
    gain = n_aps * (1.0 - np.log2(k) / np.log2(snr))
    return float(max(gain, 0.0))


def implied_k_db(n_aps: int, snr_db: float, measured_gain: float) -> float:
    """Invert the gain model: the conditioning penalty K a gain implies.

    Applying this to the paper's own numbers (gain 8.1x at 10 APs, low
    SNR ~9 dB) yields K ~ 1.7 dB — the calibration target for the Fig. 9
    placement screening (see docs/architecture.md).
    """
    require(0 < measured_gain <= n_aps, "gain must be in (0, N]")
    snr = db_to_linear(snr_db)
    log_k = (1.0 - measured_gain / n_aps) * np.log2(snr)
    return float(10.0 * np.log10(2.0**log_k))


@dataclass
class GainModelFit:
    """Comparison of measured gains against the paper's model.

    Attributes:
        n_aps: AP counts.
        measured: Measured gains at each count.
        predicted: Model gains with the fitted K.
        k_db: The single conditioning penalty that best explains the data.
    """

    n_aps: np.ndarray
    measured: np.ndarray
    predicted: np.ndarray
    k_db: float

    def max_relative_error(self) -> float:
        return float(
            np.max(np.abs(self.predicted - self.measured) / self.measured)
        )

    def format_table(self) -> str:
        lines = [f"fitted conditioning penalty K = {self.k_db:.2f} dB",
                 "n_aps  measured  model"]
        for n, m, p in zip(self.n_aps, self.measured, self.predicted):
            lines.append(f"{n:5d}  {m:8.2f}  {p:5.2f}")
        return "\n".join(lines)


def fit_gain_model(
    n_aps: Sequence[int], measured_gains: Sequence[float], snr_db: float
) -> GainModelFit:
    """Fit the single-K gain model to measured gains across AP counts.

    Least squares over log K: each observation implies a K; the fit is the
    (gain-weighted) geometric mean.
    """
    n_aps = np.asarray(list(n_aps), dtype=int)
    measured = np.asarray(list(measured_gains), dtype=float)
    require(n_aps.size == measured.size and n_aps.size > 0, "mismatched inputs")
    ks = np.array(
        [implied_k_db(int(n), snr_db, float(g)) for n, g in zip(n_aps, measured)]
    )
    k_db = float(np.mean(ks))
    predicted = np.array(
        [megamimo_gain_model(int(n), snr_db, k_db) for n in n_aps]
    )
    return GainModelFit(n_aps=n_aps, measured=measured, predicted=predicted, k_db=k_db)


def paper_implied_k_summary() -> Dict[str, float]:
    """K values implied by the paper's own headline gains (for the record)."""
    return {
        "high (9.4x @ 10 APs, ~22 dB)": implied_k_db(10, 22.0, 9.4),
        "medium (9.1x @ 10 APs, ~15 dB)": implied_k_db(10, 15.0, 9.1),
        "low (8.1x @ 10 APs, ~9 dB)": implied_k_db(10, 9.0, 8.1),
    }
