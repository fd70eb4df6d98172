"""CSI feedback: quantization and airtime of the channel reports.

"The receivers then communicate these estimated channels back to the
transmitters over the wireless channel" (§5.1b), and additionally "Clients
send the noise N to APs along with the measured channels" (§9).  Real
feedback is quantized — 802.11n CSI reports carry 4-8 bits per real
dimension — so the precoder never sees the client's exact estimate.

This module models that last hop:

* ``quantize_csi`` — uniform per-component quantization of a channel
  tensor, scaled per report (the 802.11n style: a per-report exponent plus
  fixed-point entries);
* ``CsiFeedbackCodec`` — round-trip encode/decode with airtime accounting;
* ``feedback_distortion_db`` — quantization SNR as a function of bit
  width, used by the ablation that sweeps feedback precision against
  beamforming leakage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.utils.units import linear_to_db
from repro.utils.validation import require


def quantize_csi(channels: np.ndarray, bits: int) -> np.ndarray:
    """Quantize a complex channel tensor to ``bits`` per real component.

    Uses a single per-report scale (the max absolute component), like the
    802.11n compressed-CSI format's shared exponent.  ``bits >= 16``
    returns the input unchanged (beyond-float precision is meaningless).
    """
    require(bits >= 1, "need at least one bit")
    channels = np.asarray(channels, dtype=complex)
    if bits >= 16 or channels.size == 0:
        return channels.copy()
    scale = float(np.max(np.abs(np.concatenate([channels.real.ravel(),
                                                channels.imag.ravel()]))))
    if scale == 0.0:  # repro: noqa[NUM001] exact zero = all-zero input, avoid 0/0
        return channels.copy()
    levels = (1 << (bits - 1)) - 1  # signed fixed point
    step = scale / levels

    def q(x):
        return np.clip(np.round(x / step), -levels - 1, levels) * step

    return q(channels.real) + 1j * q(channels.imag)


def feedback_distortion_db(channels: np.ndarray, bits: int) -> float:
    """Quantization SNR (dB): signal power over quantization error power."""
    channels = np.asarray(channels, dtype=complex)
    quantized = quantize_csi(channels, bits)
    err = float(np.mean(np.abs(channels - quantized) ** 2))
    sig = float(np.mean(np.abs(channels) ** 2))
    if err == 0.0:  # repro: noqa[NUM001] exact zero = lossless quantization
        return float("inf")
    return float(linear_to_db(sig / err))


@dataclass
class CsiFeedbackCodec:
    """Encode a client's channel report and account for its airtime.

    Attributes:
        bits_per_component: Fixed-point width per real dimension.
        feedback_rate_bps: PHY rate the report is sent at (clients use a
            robust low MCS for control traffic).
        header_bits: Fixed per-report overhead (MAC header, report id,
            the shared exponent, the client's noise figure N from §9).
    """

    bits_per_component: int = 8
    feedback_rate_bps: float = 12e6
    header_bits: int = 128

    def report_bits(self, n_subcarriers: int, n_tx_antennas: int) -> int:
        """Size of one client's CSI report in bits."""
        require(n_subcarriers >= 1 and n_tx_antennas >= 1, "empty report")
        per_entry = 2 * self.bits_per_component
        return self.header_bits + n_subcarriers * n_tx_antennas * per_entry

    def airtime_s(self, n_subcarriers: int, n_tx_antennas: int) -> float:
        """Airtime of one client's report at the feedback rate."""
        return self.report_bits(n_subcarriers, n_tx_antennas) / self.feedback_rate_bps

    def roundtrip(self, channels: np.ndarray) -> Tuple[np.ndarray, float]:
        """Quantize a report and return (reconstruction, airtime_s).

        ``channels`` is the (n_subcarriers, n_tx) slice one client feeds
        back.
        """
        channels = np.asarray(channels, dtype=complex)
        require(channels.ndim == 2, "one client's report is (n_subcarriers, n_tx)")
        quantized = quantize_csi(channels, self.bits_per_component)
        return quantized, self.airtime_s(channels.shape[0], channels.shape[1])


def apply_feedback_quantization(
    channel_tensor: np.ndarray, bits: int
) -> np.ndarray:
    """Quantize a (n_bins, n_clients, n_tx) tensor per client report."""
    channel_tensor = np.asarray(channel_tensor, dtype=complex)
    require(channel_tensor.ndim == 3, "need (n_bins, n_clients, n_tx)")
    out = np.empty_like(channel_tensor)
    for c in range(channel_tensor.shape[1]):
        out[:, c, :] = quantize_csi(channel_tensor[:, c, :], bits)
    return out
