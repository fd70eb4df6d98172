"""Effective-SNR bitrate selection (Halperin et al. [13], used by §9).

Frequency-selective channels make average SNR a poor rate predictor; the
effective-SNR algorithm instead:

1. computes the uncoded bit error rate *per subcarrier* from that
   subcarrier's SNR and the candidate modulation,
2. averages BER across subcarriers, and
3. inverts the BER formula to get the *effective SNR* — the SNR of the flat
   channel that would produce the same average BER,

then picks the fastest MCS whose effective SNR clears its threshold.  In
MegaMIMO the APs know the post-beamforming signal strength k^2 in each
subcarrier and the client-reported noise N, "so they can compute the SNR in
each subcarrier as k^2/N.  They can then map this set of SNRs to rate by
performing a table lookup" (§9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import erfc, erfcinv

from repro.phy.mcs import ALL_MCS, Mcs
from repro.utils.units import db_to_linear, linear_to_db
from repro.utils.validation import require


#: Bits per subcarrier of each modulation in ``ALL_MCS`` (one effective SNR each).
_MODULATION_BITS = sorted({mcs.bits_per_subcarrier for mcs in ALL_MCS})


def _qfunc(x):
    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def _qfunc_inv(p):
    p = np.clip(np.asarray(p, dtype=float), 1e-300, 1 - 1e-12)
    return np.sqrt(2.0) * erfcinv(2.0 * p)


def ber_for_modulation(snr_linear, bits_per_symbol: int) -> np.ndarray:
    """Uncoded BER of Gray-coded BPSK/QPSK/M-QAM at the given symbol SNR."""
    snr_linear = np.maximum(np.asarray(snr_linear, dtype=float), 0.0)
    if bits_per_symbol == 1:  # BPSK
        return _qfunc(np.sqrt(2.0 * snr_linear))
    if bits_per_symbol == 2:  # QPSK
        return _qfunc(np.sqrt(snr_linear))
    # square M-QAM nearest-neighbour approximation
    m = 2.0**bits_per_symbol
    coef = 4.0 / bits_per_symbol * (1.0 - 1.0 / np.sqrt(m))
    arg = np.sqrt(3.0 * snr_linear / (m - 1.0))
    return coef * _qfunc(arg)


def snr_for_ber(ber, bits_per_symbol: int) -> np.ndarray:
    """Inverse of :func:`ber_for_modulation` (the effective SNR mapping)."""
    ber = np.asarray(ber, dtype=float)
    if bits_per_symbol == 1:
        return _qfunc_inv(ber) ** 2 / 2.0
    if bits_per_symbol == 2:
        return _qfunc_inv(ber) ** 2
    m = 2.0**bits_per_symbol
    coef = 4.0 / bits_per_symbol * (1.0 - 1.0 / np.sqrt(m))
    arg = _qfunc_inv(np.minimum(ber / coef, 0.5))
    return arg**2 * (m - 1.0) / 3.0


def effective_snr_db(subcarrier_snr_db, bits_per_symbol: int) -> float:
    """Effective SNR (dB) of a set of per-subcarrier SNRs for one modulation."""
    snrs = db_to_linear(np.atleast_1d(subcarrier_snr_db))
    bers = ber_for_modulation(snrs, bits_per_symbol)
    mean_ber = float(np.mean(bers))
    return float(linear_to_db(snr_for_ber(mean_ber, bits_per_symbol)))


@dataclass
class RateDecision:
    """Output of the rate selector.

    Attributes:
        mcs: Chosen MCS, or None if even the slowest one won't hold.
        effective_snr_db: Effective SNR for the chosen MCS's modulation
            (for the base modulation when no MCS qualifies).
        bitrate: PHY bitrate in bits/s (0 when no MCS qualifies).
    """

    mcs: Optional[Mcs]
    effective_snr_db: float
    bitrate: float


class EffectiveSnrRateSelector:
    """Maps per-subcarrier SNRs to an MCS via the effective-SNR lookup.

    Args:
        sample_rate: Channel sample rate, which fixes the bitrate scale
            (10 MHz -> 3..27 Mbps; 20 MHz -> 6..54 Mbps per stream).
        mac_efficiency: Fraction of the PHY rate surviving MAC overheads;
            applied by :meth:`goodput` only.
    """

    def __init__(self, sample_rate: float, mac_efficiency: float = 1.0):
        require(sample_rate > 0, "sample rate must be positive")
        self.sample_rate = float(sample_rate)
        self.mac_efficiency = float(mac_efficiency)

    def select(self, subcarrier_snr_db) -> RateDecision:
        """Choose the fastest sustainable MCS for these per-subcarrier SNRs."""
        subcarrier_snr_db = np.atleast_1d(np.asarray(subcarrier_snr_db, dtype=float))
        eff = {b: effective_snr_db(subcarrier_snr_db, b) for b in _MODULATION_BITS}
        best: Optional[Mcs] = None
        for mcs in ALL_MCS:
            if eff[mcs.bits_per_subcarrier] >= mcs.min_snr_db:
                best = mcs
        if best is None:
            return RateDecision(mcs=None, effective_snr_db=eff[1], bitrate=0.0)
        return RateDecision(
            mcs=best,
            effective_snr_db=eff[best.bits_per_subcarrier],
            bitrate=best.bitrate(self.sample_rate),
        )

    def goodput(self, subcarrier_snr_db) -> float:
        """Bitrate after MAC overhead for these per-subcarrier SNRs (bits/s)."""
        return self.select(subcarrier_snr_db).bitrate * self.mac_efficiency

    def goodput_batch(self, subcarrier_snr_db: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`goodput` over a stack of per-subcarrier rows.

        ``subcarrier_snr_db`` has shape (..., n_bins); the return value has
        shape (...,).  The MCS walk mirrors :meth:`select` — every MCS is
        evaluated in ``ALL_MCS`` order and the last qualifying one wins —
        with the per-row effective-SNR lookup replaced by one elementwise
        pass per modulation, so each row's decision is bit-identical to the
        scalar selector's.
        """
        rows = np.asarray(subcarrier_snr_db, dtype=float)
        require(rows.ndim >= 1, "need at least one subcarrier axis")
        snrs = db_to_linear(rows)
        eff = {
            b: linear_to_db(snr_for_ber(np.mean(ber_for_modulation(snrs, b), axis=-1), b))
            for b in _MODULATION_BITS
        }
        bitrate = np.zeros(rows.shape[:-1])
        for mcs in ALL_MCS:
            ok = eff[mcs.bits_per_subcarrier] >= mcs.min_snr_db
            bitrate = np.where(ok, mcs.bitrate(self.sample_rate), bitrate)
        return bitrate * self.mac_efficiency
