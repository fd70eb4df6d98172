"""802.11 block interleaver.

Two-permutation interleaver over one OFDM symbol's coded bits
(IEEE 802.11-2012 §18.3.5.7): the first permutation spreads adjacent coded
bits across non-adjacent subcarriers; the second rotates bits within a
subcarrier's constellation label so that long runs do not land on the
least-reliable QAM bit positions.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import require


class BlockInterleaver:
    """Interleave/deinterleave blocks of ``n_cbps`` coded bits per symbol.

    Args:
        n_cbps: Coded bits per OFDM symbol (48 * bits_per_subcarrier).
        bits_per_subcarrier: Modulation order exponent (1, 2, 4 or 6).
    """

    N_COLUMNS = 16

    def __init__(self, n_cbps: int, bits_per_subcarrier: int):
        require(n_cbps % self.N_COLUMNS == 0, "n_cbps must divide into 16 columns")
        self.n_cbps = n_cbps
        self.s = max(bits_per_subcarrier // 2, 1)
        k = np.arange(n_cbps)
        # first permutation
        i = (n_cbps // self.N_COLUMNS) * (k % self.N_COLUMNS) + k // self.N_COLUMNS
        # second permutation
        s = self.s
        j = s * (i // s) + (i + n_cbps - (self.N_COLUMNS * i) // n_cbps) % s
        self._forward = j  # bit k of input lands at position j[k]
        self._inverse = np.argsort(j)

    def interleave(self, bits: np.ndarray) -> np.ndarray:
        """Interleave whole symbol blocks along the last axis."""
        bits = np.asarray(bits)
        require(
            bits.ndim >= 1 and bits.shape[-1] % self.n_cbps == 0,
            "input must be whole symbol blocks",
        )
        out = np.empty(bits.shape, dtype=bits.dtype)
        out.reshape(-1, self.n_cbps)[:, self._forward] = bits.reshape(-1, self.n_cbps)
        return out

    def deinterleave(self, bits: np.ndarray) -> np.ndarray:
        """Invert :meth:`interleave` (works on soft values too)."""
        bits = np.asarray(bits)
        require(
            bits.ndim >= 1 and bits.shape[-1] % self.n_cbps == 0,
            "input must be whole symbol blocks",
        )
        out = np.empty(bits.shape, dtype=bits.dtype)
        out.reshape(-1, self.n_cbps)[:, self._inverse] = bits.reshape(-1, self.n_cbps)
        return out
