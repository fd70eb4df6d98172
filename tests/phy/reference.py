"""Sequential reference implementations of the batch-first PHY kernels.

These are the step-by-step forms the package's vectorized code replaced:
a per-step add-compare-select Viterbi with a per-bit traceback, a shift
register encoder, a bit-serial LFSR scrambler and a one-symbol-at-a-time
OFDM demodulator.  They exist only as oracles: ``test_batch_oracles.py``
asserts that the package reproduces them bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.constants import (
    CONV_G0,
    CONV_G1,
    CONV_K,
    CP_LENGTH,
    DATA_SUBCARRIERS,
    FFT_SIZE,
    PILOT_POLARITY,
    PILOT_SUBCARRIERS,
    PILOT_VALUES,
    SYMBOL_LENGTH,
)

_N_STATES = 1 << (CONV_K - 1)
_DATA_BINS = np.where(DATA_SUBCARRIERS >= 0, DATA_SUBCARRIERS, DATA_SUBCARRIERS + FFT_SIZE)
_PILOT_BINS = np.where(PILOT_SUBCARRIERS >= 0, PILOT_SUBCARRIERS, PILOT_SUBCARRIERS + FFT_SIZE)


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


def _trellis():
    """next_state[s, b], output_bits[s, b, c], prev_state[s, j], prev_bit[s, j]."""
    next_state = np.empty((_N_STATES, 2), dtype=np.int64)
    output_bits = np.empty((_N_STATES, 2, 2), dtype=np.uint8)
    for s in range(_N_STATES):
        for bit in (0, 1):
            register = (bit << (CONV_K - 1)) | s
            next_state[s, bit] = register >> 1
            output_bits[s, bit, 0] = _parity(register & CONV_G0)
            output_bits[s, bit, 1] = _parity(register & CONV_G1)
    prev_state = np.empty((_N_STATES, 2), dtype=np.int64)
    prev_bit = np.empty((_N_STATES, 2), dtype=np.uint8)
    counts = np.zeros(_N_STATES, dtype=np.int64)
    for s in range(_N_STATES):
        for bit in (0, 1):
            ns = next_state[s, bit]
            prev_state[ns, counts[ns]] = s
            prev_bit[ns, counts[ns]] = bit
            counts[ns] += 1
    return next_state, output_bits, prev_state, prev_bit


NEXT_STATE, OUTPUT_BITS, PREV_STATE, PREV_BIT = _trellis()


def shift_register_encode(bits: np.ndarray) -> np.ndarray:
    """Zero-terminated K=7 (133, 171) encoding, one input bit at a time."""
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    padded = np.concatenate([bits, np.zeros(CONV_K - 1, dtype=np.uint8)])
    out = np.empty(2 * padded.size, dtype=np.uint8)
    state = 0
    for i, b in enumerate(padded):
        out[2 * i] = OUTPUT_BITS[state, b, 0]
        out[2 * i + 1] = OUTPUT_BITS[state, b, 1]
        state = NEXT_STATE[state, b]
    return out


def sequential_viterbi(llrs: np.ndarray, n_info_bits: int) -> np.ndarray:
    """Viterbi decode one codeword: per-step ACS, per-bit traceback."""
    llrs = np.asarray(llrs, dtype=float).ravel()
    n_steps = llrs.size // 2
    pairs = llrs.reshape(n_steps, 2)
    expected = 1.0 - 2.0 * OUTPUT_BITS.astype(float)
    metrics = np.full(_N_STATES, -1e18)
    metrics[0] = 0.0
    decisions = np.empty((n_steps, _N_STATES), dtype=np.uint8)
    arrived = expected[PREV_STATE, PREV_BIT]
    bm_all = (pairs @ arrived.reshape(-1, 2).T).reshape(n_steps, _N_STATES, 2)
    state_range = np.arange(_N_STATES)
    for t in range(n_steps):
        cand = metrics[PREV_STATE] + bm_all[t]
        choice = (cand[:, 1] > cand[:, 0]).astype(np.uint8)
        metrics = cand[state_range, choice]
        decisions[t] = choice
    state = 0
    out = np.empty(n_steps, dtype=np.uint8)
    for t in range(n_steps - 1, -1, -1):
        j = decisions[t, state]
        out[t] = PREV_BIT[state, j]
        state = PREV_STATE[state, j]
    return out[:n_info_bits]


def lfsr_keystream(seed: int, n_bits: int) -> np.ndarray:
    """x^7 + x^4 + 1 scrambler sequence, one bit per LFSR clock."""
    state = seed
    out = np.empty(n_bits, dtype=np.uint8)
    for i in range(n_bits):
        bit = ((state >> 6) ^ (state >> 3)) & 1
        state = ((state << 1) | bit) & 0x7F
        out[i] = bit
    return out


def _safe(values: np.ndarray, floor: float = 1e-9) -> np.ndarray:
    values = np.asarray(values, dtype=complex).copy()
    values[np.abs(values) < floor] = floor
    return values


def modulate_symbol(data_symbols: np.ndarray, symbol_index: int) -> np.ndarray:
    """One 80-sample OFDM symbol from 48 data symbols (one IFFT)."""
    grid = np.zeros(FFT_SIZE, dtype=complex)
    grid[_DATA_BINS] = np.asarray(data_symbols, dtype=complex).ravel()
    grid[_PILOT_BINS] = PILOT_VALUES * PILOT_POLARITY[symbol_index % len(PILOT_POLARITY)]
    time = np.fft.ifft(grid) * np.sqrt(FFT_SIZE)
    return np.concatenate([time[-CP_LENGTH:], time])


def demodulate_symbol(samples, channel, symbol_index: int = 0, track_phase: bool = True):
    """Equalize one 80-sample symbol; returns (data, common_phase, pilot_snr)."""
    samples = np.asarray(samples, dtype=complex).ravel()
    assert samples.size == SYMBOL_LENGTH
    grid = np.fft.fft(samples[CP_LENGTH:]) / np.sqrt(FFT_SIZE)
    channel = np.asarray(channel, dtype=complex).ravel()
    polarity = PILOT_POLARITY[symbol_index % len(PILOT_POLARITY)]
    expected_pilots = PILOT_VALUES * polarity
    raw_pilots = grid[_PILOT_BINS] / _safe(channel[_PILOT_BINS])
    rotations = raw_pilots * np.conj(expected_pilots)
    common = np.sum(rotations)
    common_phase = float(np.angle(common)) if track_phase else 0.0
    data = grid[_DATA_BINS] / _safe(channel[_DATA_BINS])
    data = data * np.exp(-1j * common_phase)
    aligned = rotations * np.exp(-1j * common_phase)
    signal_power = float(np.mean(np.abs(aligned)) ** 2)
    noise_power = float(np.mean(np.abs(aligned - np.mean(aligned)) ** 2))
    pilot_snr = signal_power / max(noise_power, 1e-12)
    return data, common_phase, pilot_snr
