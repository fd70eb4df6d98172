"""PLCP-style packet framing: SIGNAL field, coding chain and OFDM payload.

The encoder turns a payload byte string into baseband samples:

    payload -> CRC-32 -> scramble -> convolutional encode -> puncture
            -> interleave -> constellation map -> OFDM symbols

preceded by a BPSK-1/2 SIGNAL symbol carrying the MCS and length (as in
IEEE 802.11-2012 §18.3.4).  The decoder inverts every step and reports CRC
success, which is what the link layer counts as a delivered packet.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.constants import CONV_K
from repro.phy.coding import BlockInterleaver, ConvolutionalCode, Puncturer, Scrambler
from repro.phy.mcs import Mcs, get_mcs
from repro.phy.modulation import get_modulation
from repro.phy.ofdm import OfdmModulator
from repro.utils.validation import require

_CRC_BYTES = 4
_SIGNAL_BITS = 24
#: RATE field encodings of 802.11-2012 Table 18-6, indexed by MCS index.
_RATE_CODES = (0b1101, 0b1111, 0b0101, 0b0111, 0b1001, 0b1011, 0b0001, 0b0011)
#: Bit positions of the SIGNAL field's RATE (bits 0..3) and LENGTH (5..16).
_RATE_SHIFTS = np.arange(3, -1, -1)
_LENGTH_SHIFTS = np.arange(12)


def _payload_layout(length: int, mcs: Mcs):
    """(info bits, mother-coded bits, transmitted bits, OFDM symbols) of a
    ``length``-byte payload plus its CRC."""
    n_bits = 8 * (length + _CRC_BYTES)
    n_coded = 2 * (n_bits + CONV_K - 1)
    n_tx = Puncturer(mcs.coding_rate).punctured_length(n_coded)
    return n_bits, n_coded, n_tx, -(-n_tx // mcs.coded_bits_per_symbol)


def n_payload_symbols(length: int, mcs: Mcs) -> int:
    """Number of OFDM data symbols a ``length``-byte payload occupies."""
    return _payload_layout(length, mcs)[3]


def bytes_to_bits(data: bytes) -> np.ndarray:
    """LSB-first byte-to-bit expansion (802.11 bit ordering)."""
    arr = np.frombuffer(bytes(data), dtype=np.uint8)
    return np.unpackbits(arr, bitorder="little")


def bits_to_bytes(bits: np.ndarray) -> bytes:
    """Inverse of :func:`bytes_to_bits`; trailing partial bytes are dropped."""
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    n = (bits.size // 8) * 8
    return np.packbits(bits[:n], bitorder="little").tobytes()


@dataclass
class FrameConfig:
    """Static configuration shared by encoder and decoder.

    Attributes:
        sample_rate: Channel sample rate (10 MHz USRP / 20 MHz 802.11n).
        scrambler_seed: Initial scrambler state.
    """

    sample_rate: float
    scrambler_seed: int = 0b1011101


@dataclass
class DecodedFrame:
    """Decoder output.

    Attributes:
        payload: Recovered payload bytes (CRC stripped), or None on failure.
        crc_ok: Whether the CRC-32 check passed.
        mcs: The MCS announced in the SIGNAL field.
        length: Payload length announced in the SIGNAL field.
        evm_db: Error-vector magnitude of the equalized data symbols, dB.
    """

    payload: Optional[bytes]
    crc_ok: bool
    mcs: Optional[Mcs]
    length: int = 0
    evm_db: float = np.nan


class PhyFrameEncoder:
    """Encode payload bytes into OFDM data symbols (frequency domain rows).

    The output is returned as a (n_symbols, 48) frequency-domain array plus
    the time-domain samples, so beamforming systems can precode the
    frequency-domain symbols before OFDM modulation.
    """

    def __init__(self, config: FrameConfig):
        self.config = config
        self._code = ConvolutionalCode()
        self._modulator = OfdmModulator()

    def signal_field_symbols(self, mcs: Mcs, length: int) -> np.ndarray:
        """Build the 1-symbol SIGNAL field (BPSK, rate 1/2, no scrambling)."""
        require(0 < length < (1 << 12), "SIGNAL length must fit in 12 bits")
        bits = np.zeros(_SIGNAL_BITS, dtype=np.uint8)
        bits[:4] = _RATE_CODES[mcs.index] >> _RATE_SHIFTS & 1  # RATE, MSB first
        bits[5:17] = length >> _LENGTH_SHIFTS & 1  # LENGTH, LSB first
        bits[17] = bits[:17].sum() % 2  # even parity
        # bits 18..23 are the all-zero SIGNAL tail; the convolutional
        # encoder's own zero-termination provides it, so encode bits 0..17.
        coded = self._code.encode(bits[:18])  # 2*(18+6) = 48 coded bits
        interleaver = BlockInterleaver(48, 1)
        interleaved = interleaver.interleave(coded)
        symbols = get_modulation("BPSK").modulate(interleaved)
        return symbols.reshape(1, -1)

    def payload_symbols(self, payload: bytes, mcs: Mcs) -> np.ndarray:
        """Encode payload (with CRC) into (n_symbols, 48) data symbols."""
        payload = bytes(payload)
        data = payload + zlib.crc32(payload).to_bytes(_CRC_BYTES, "little")
        bits = bytes_to_bits(data)

        scrambler = Scrambler(self.config.scrambler_seed)
        scrambled = scrambler.scramble(bits)

        coded = self._code.encode(scrambled)
        puncturer = Puncturer(mcs.coding_rate)
        punctured = puncturer.puncture(coded)

        # pad with alternating bits to fill whole OFDM symbols
        n_cbps = mcs.coded_bits_per_symbol
        n_symbols = int(np.ceil(punctured.size / n_cbps))
        pad = n_symbols * n_cbps - punctured.size
        if pad:
            filler = (np.arange(pad) % 2).astype(punctured.dtype)
            punctured = np.concatenate([punctured, filler])

        interleaver = BlockInterleaver(n_cbps, mcs.bits_per_subcarrier)
        interleaved = interleaver.interleave(punctured)
        symbols = mcs.modulation.modulate(interleaved)
        return symbols.reshape(n_symbols, -1)

    def encode(self, payload: bytes, mcs: Mcs) -> np.ndarray:
        """Full frequency-domain frame: SIGNAL symbol + payload symbols."""
        signal = self.signal_field_symbols(mcs, len(payload))
        data = self.payload_symbols(payload, mcs)
        return np.vstack([signal, data])

    def encode_time_domain(self, payload: bytes, mcs: Mcs) -> np.ndarray:
        """Frame as cyclic-prefixed time samples (no preamble)."""
        return self._modulator.modulate_frame(self.encode(payload, mcs))

    def n_payload_symbols(self, payload_length: int, mcs: Mcs) -> int:
        """Number of OFDM data symbols a payload of given length occupies."""
        return n_payload_symbols(payload_length, mcs)


class PhyFrameDecoder:
    """Decode equalized frequency-domain symbols back to payload bytes.

    Every method is batch-first: leading axes are frames decoded together,
    one Viterbi pass for all SIGNAL fields and one per group of frames
    announcing the same MCS and length.  An unbatched input gives an
    unbatched result; a batch gives a list in row-major order.
    """

    def __init__(self, config: FrameConfig):
        self.config = config
        self._code = ConvolutionalCode()

    def decode_signal_field(self, symbols: np.ndarray):
        """Parse equalized ``(..., 48)`` SIGNAL symbols; each frame gives
        ``(mcs, length)`` or None."""
        symbols = np.asarray(symbols, dtype=complex)
        require(symbols.shape[-1:] == (48,), "a SIGNAL symbol has 48 data subcarriers")
        llrs = get_modulation("BPSK").demodulate_soft(symbols.reshape(-1, 48))
        deinterleaved = BlockInterleaver(48, 1).deinterleave(llrs)
        parsed = [_parse_signal(bits) for bits in self._code.decode(deinterleaved, 18)]
        return parsed if symbols.ndim > 1 else parsed[0]

    def decode_payload(
        self,
        symbols: np.ndarray,
        mcs: Mcs,
        length: int,
        noise_var=0.05,
    ):
        """Decode equalized ``(..., n_symbols, 48)`` data symbols of frames
        sharing ``mcs`` and ``length``; ``noise_var`` is a scalar or one
        value per frame."""
        symbols = np.asarray(symbols, dtype=complex)
        require(symbols.ndim >= 2, "expected (..., n_symbols, 48) data symbols")
        n_bits, n_coded, n_tx, n_symbols = _payload_layout(length, mcs)
        require(
            symbols.shape[-2] >= n_symbols,
            f"need {n_symbols} data symbols, got {symbols.shape[-2]}",
        )
        batch_shape = symbols.shape[:-2]
        noise_var = np.broadcast_to(np.asarray(noise_var, dtype=float), batch_shape)
        flat = symbols[..., :n_symbols, :].reshape(-1, n_symbols * symbols.shape[-1])

        llrs = mcs.modulation.demodulate_soft(flat, noise_var=noise_var.reshape(-1))
        interleaver = BlockInterleaver(mcs.coded_bits_per_symbol, mcs.bits_per_subcarrier)
        deinterleaved = interleaver.deinterleave(llrs)
        puncturer = Puncturer(mcs.coding_rate)
        depunctured = puncturer.depuncture(deinterleaved[:, :n_tx], n_coded)
        scrambled = self._code.decode(depunctured, n_bits)
        bits = Scrambler(self.config.scrambler_seed).descramble(scrambled)

        # EVM against nearest constellation point
        points = mcs.modulation.points
        hard = points[np.argmin(np.abs(flat[..., None] - points), axis=-1)]
        errs = np.mean(np.abs(flat - hard) ** 2, axis=-1)

        frames = []
        for row, err in zip(bits, errs):
            data = bits_to_bytes(row)
            payload, crc = data[:-_CRC_BYTES], data[-_CRC_BYTES:]
            crc_ok = zlib.crc32(payload).to_bytes(_CRC_BYTES, "little") == crc
            frames.append(DecodedFrame(
                payload=payload if crc_ok else None,
                crc_ok=crc_ok,
                mcs=mcs,
                length=length,
                evm_db=float(10 * np.log10(max(err, 1e-12))),
            ))
        return frames if batch_shape else frames[0]

    def decode(self, symbols: np.ndarray, noise_var=0.05):
        """Decode full frames: ``(..., n_symbols, 48)``, a SIGNAL symbol
        followed by data symbols; ``noise_var`` is a scalar or one value
        per frame.

        A corrupted SIGNAL field can mis-announce a length longer than the
        captured frame; a real receiver just drops such a frame, so that
        case returns a failed DecodedFrame rather than raising.
        """
        symbols = np.asarray(symbols, dtype=complex)
        require(symbols.ndim >= 2 and symbols.shape[-2] >= 2, "frame too short")
        batch_shape = symbols.shape[:-2]
        frames_in = symbols.reshape((-1,) + symbols.shape[-2:])
        noise_var = np.broadcast_to(np.asarray(noise_var, dtype=float), batch_shape)
        noise_var = noise_var.reshape(-1)

        frames = [DecodedFrame(payload=None, crc_ok=False, mcs=None) for _ in frames_in]
        groups = {}
        for i, parsed in enumerate(self.decode_signal_field(frames_in[:, 0])):
            if parsed is not None:
                groups.setdefault(parsed, []).append(i)
        for (mcs, length), rows in groups.items():
            if n_payload_symbols(length, mcs) > frames_in.shape[1] - 1:
                # announced length exceeds the capture: corrupted SIGNAL field
                decoded = [
                    DecodedFrame(payload=None, crc_ok=False, mcs=mcs, length=length)
                    for _ in rows
                ]
            else:
                decoded = self.decode_payload(
                    frames_in[rows, 1:], mcs, length, noise_var=noise_var[rows]
                )
            for i, frame in zip(rows, decoded):
                frames[i] = frame
        return frames if batch_shape else frames[0]


def _parse_signal(bits: np.ndarray):
    """``(mcs, length)`` from 18 decoded SIGNAL bits, or None if invalid."""
    rate_code = int(bits[:4] @ (1 << _RATE_SHIFTS))
    if bits[:17].sum() % 2 != bits[17]:
        return None
    if rate_code not in _RATE_CODES:
        return None
    length = int(bits[5:17] @ (1 << _LENGTH_SHIFTS))
    if length == 0:
        return None
    return get_mcs(_RATE_CODES.index(rate_code)), length
