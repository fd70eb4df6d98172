"""Point-to-point packet transport over the simulated medium.

A generic single-antenna 802.11-style link: preamble (STS + LTS) followed
by a PLCP frame.  Used for the control traffic the paper sends "over the
wireless channel" — most importantly the clients' CSI feedback (§5.1b) —
and reusable for any unicast packet in tests and examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.channel.medium import Medium
from repro.constants import FFT_SIZE, SYMBOL_LENGTH
from repro.phy.cfo import apply_cfo, combine_cfo, estimate_cfo_coarse, estimate_cfo_fine
from repro.phy.channel_est import average_channel_estimates, estimate_channel_lts
from repro.phy.frame import DecodedFrame, FrameConfig, PhyFrameDecoder, PhyFrameEncoder
from repro.phy.mcs import Mcs, get_mcs
from repro.phy.ofdm import OfdmDemodulator
from repro.phy.preamble import lts_symbol_offsets, sync_header, sync_header_length
from repro.utils.validation import require


@dataclass
class LinkPacket:
    """Bookkeeping for one transmitted packet.

    Attributes:
        start_time: Absolute time of the preamble's first sample.
        n_samples: Total waveform length.
        mcs: Modulation and coding used.
        payload_length: Bytes carried.
    """

    start_time: float
    n_samples: int
    mcs: Mcs
    payload_length: int


class PointToPointLink:
    """Send and receive unicast packets between two medium nodes."""

    def __init__(self, medium: Medium, mcs: Optional[Mcs] = None):
        self.medium = medium
        self.mcs = mcs or get_mcs(2)  # QPSK-1/2: robust control rate
        config = FrameConfig(sample_rate=medium.sample_rate)
        self._encoder = PhyFrameEncoder(config)
        self._decoder = PhyFrameDecoder(config)
        self._demodulator = OfdmDemodulator()

    def waveform(self, payload: bytes) -> np.ndarray:
        """Preamble + frame as time samples."""
        frame = self._encoder.encode_time_domain(payload, self.mcs)
        return np.concatenate([sync_header(), frame])

    def packet_samples(self, payload_length: int) -> int:
        """Waveform length for a payload of the given size."""
        n_symbols = 1 + self._encoder.n_payload_symbols(payload_length, self.mcs)
        return sync_header_length() + n_symbols * SYMBOL_LENGTH

    def send(self, tx_node: str, payload: bytes, start_time: float) -> LinkPacket:
        """Transmit one packet; returns its on-air bookkeeping."""
        waveform = self.waveform(payload)
        self.medium.transmit(tx_node, waveform, start_time)
        return LinkPacket(
            start_time=start_time,
            n_samples=waveform.size,
            mcs=self.mcs,
            payload_length=len(payload),
        )

    def receive(self, rx_node: str, packet: LinkPacket) -> DecodedFrame:
        """Receive and decode a packet announced by :meth:`send`.

        Runs the standard chain: CFO lock from the preamble, LS channel
        estimate from the two LTS copies, pilot-tracked demodulation,
        Viterbi + CRC.
        """
        fs = self.medium.sample_rate
        rx = self.medium.receive(rx_node, packet.start_time, packet.n_samples)

        coarse = estimate_cfo_coarse(rx[:160], fs)
        lts_off = int(lts_symbol_offsets()[0])
        fine = estimate_cfo_fine(rx[lts_off : lts_off + 2 * FFT_SIZE], fs)
        cfo = combine_cfo(coarse, fine, fs)
        rx = apply_cfo(rx, -cfo, fs)

        estimates = [
            estimate_channel_lts(rx[lts_off + k * FFT_SIZE : lts_off + (k + 1) * FFT_SIZE])
            for k in range(2)
        ]
        channel = average_channel_estimates(estimates)

        data_start = sync_header_length()
        n_symbols = (packet.n_samples - data_start) // SYMBOL_LENGTH
        require(n_symbols >= 2, "packet too short for SIGNAL + data")
        frame = rx[data_start : data_start + n_symbols * SYMBOL_LENGTH]
        eq = self._demodulator.demodulate_symbol(
            frame.reshape(n_symbols, SYMBOL_LENGTH), channel,
            symbol_index=np.arange(n_symbols),
        )
        noise_var = float(np.mean(1.0 / np.maximum(eq.pilot_snr, 1e-6)))
        return self._decoder.decode(eq.data, noise_var=noise_var)

    def exchange(
        self, tx_node: str, rx_node: str, payload: bytes, start_time: float
    ) -> DecodedFrame:
        """Convenience: send then receive one packet."""
        packet = self.send(tx_node, payload, start_time)
        return self.receive(rx_node, packet)
