"""802.11 frame-synchronous scrambler (x^7 + x^4 + 1)."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.utils.validation import require

#: Period of the maximal-length x^7 + x^4 + 1 sequence.
PERIOD = 127


@lru_cache(maxsize=None)
def _period(seed: int) -> np.ndarray:
    """One period of the LFSR output from ``seed`` (read-only; cached for
    each of the 127 seeds)."""
    state = seed
    out = np.empty(PERIOD, dtype=np.uint8)
    for i in range(PERIOD):
        bit = ((state >> 6) ^ (state >> 3)) & 1
        state = ((state << 1) | bit) & 0x7F
        out[i] = bit
    out.setflags(write=False)
    return out


class Scrambler:
    """Length-127 self-synchronizing scrambler of IEEE 802.11-2012 §18.3.5.5.

    Scrambling and descrambling are the same XOR operation with the LFSR
    keystream, so one class provides both directions.
    """

    def __init__(self, seed: int = 0b1011101):
        require(0 < seed < 128, "scrambler seed must be a non-zero 7-bit value")
        self.seed = seed

    def keystream(self, n_bits: int) -> np.ndarray:
        """Generate ``n_bits`` of the scrambling sequence (its 127-bit
        period, tiled)."""
        return np.tile(_period(self.seed), -(-n_bits // PERIOD))[:n_bits]

    def scramble(self, bits: np.ndarray) -> np.ndarray:
        """XOR ``(..., n)`` data bits with the first ``n`` keystream bits."""
        bits = np.atleast_1d(np.asarray(bits, dtype=np.uint8))
        return bits ^ self.keystream(bits.shape[-1])

    # descrambling is identical
    descramble = scramble
