"""Rate-1/2 convolutional code with Viterbi decoding.

The industry-standard K=7 code with generators (133, 171) octal used by
802.11a/g/n.  Both directions are batch-first: ``encode`` maps
``(..., n_info)`` bits to ``(..., 2 * (n_info + K - 1))`` coded bits, and
``decode`` maps ``(..., n_coded)`` soft values back to ``(..., n_info)``
bits, running one add-compare-select pass for the whole batch.  Soft
(LLR correlation) and hard (+-1) metrics both work, and depunctured input
carries zero metric on its erased positions.
"""

from __future__ import annotations

import numpy as np

from repro.constants import CONV_G0, CONV_G1, CONV_K
from repro.utils.validation import require

#: Trellis steps whose branch metrics are built at once; one block of a
#: 4-codeword batch is 64 x 4 x 128 float64 = 256 KiB.  Larger blocks
#: decode no faster and raise the process's peak RSS.
BLOCK_STEPS = 64

#: Path metric of states the zero-started trellis has not reached yet.
_UNREACHED = -1e18


def _parity(x: np.ndarray) -> np.ndarray:
    """Bitwise parity of each element of an integer array."""
    x = x.copy()
    result = np.zeros_like(x)
    while np.any(x):
        result ^= x & 1
        x >>= 1
    return result


class ConvolutionalCode:
    """K=7 (133, 171) rate-1/2 convolutional encoder / Viterbi decoder.

    The encoder is zero-terminated: ``encode`` appends K-1 tail zeros so the
    trellis ends in state 0, which the decoder exploits for traceback.

    State ``s`` holds the last K-1 input bits, newest in the top bit, so
    input ``b`` moves ``s`` to ``(b << (K-2)) | (s >> 1)``.  The two
    predecessors of state ``ns`` are therefore ``2 * (ns % half) + {0, 1}``
    and both carry input bit ``ns >> (K-2)``: the path metrics, viewed as
    ``(half, 2)``, line up with each butterfly without a gather.
    """

    def __init__(self, constraint_length: int = CONV_K,
                 g0: int = CONV_G0, g1: int = CONV_G1):
        require(2 <= constraint_length <= 7,
                "decision words hold at most 64 states (K <= 7)")
        self.constraint_length = constraint_length
        self.n_states = 1 << (constraint_length - 1)
        self.g0 = g0
        self.g1 = g1
        # taps[c, d]: generator c taps the input d steps back
        delays = np.arange(constraint_length)
        self.taps = np.array(
            [(g >> (constraint_length - 1 - delays)) & 1 for g in (g0, g1)],
            dtype=bool,
        )
        # branch symbols (+-1 per coded bit c) into state ns = b * half + k
        # from predecessor 2k + j, as (j, c, ns)
        half = self.n_states // 2
        ns = np.arange(self.n_states)
        prev = 2 * (ns % half) + np.arange(2)[:, None]
        register = ((ns >> (constraint_length - 2)) << (constraint_length - 1)) | prev
        bits = np.stack([_parity(register & g0), _parity(register & g1)], axis=1)
        self._branch_symbols = 1.0 - 2.0 * bits

    # -- encoding ----------------------------------------------------------

    @property
    def n_tail_bits(self) -> int:
        """Number of zero tail bits appended by ``encode``."""
        return self.constraint_length - 1

    def encode(self, bits: np.ndarray) -> np.ndarray:
        """Encode ``(..., n)`` bits, appending K-1 tail zeros per codeword.

        Output is ``(..., 2 * (n + K - 1))``; the two coded bits per input
        bit are emitted g0-first, matching 802.11.  Each output stream is
        the mod-2 convolution of the input with its generator's taps.
        """
        bits = np.atleast_1d(np.asarray(bits, dtype=np.uint8))
        n_out = bits.shape[-1] + self.n_tail_bits
        pad = [(0, 0)] * (bits.ndim - 1) + [(self.n_tail_bits, self.n_tail_bits)]
        padded = np.pad(bits, pad)
        out = np.zeros(bits.shape[:-1] + (n_out, 2), dtype=np.uint8)
        for c in range(2):
            for d in np.flatnonzero(self.taps[c]):
                start = self.n_tail_bits - d
                out[..., c] ^= padded[..., start : start + n_out]
        return out.reshape(bits.shape[:-1] + (2 * n_out,))

    # -- decoding ----------------------------------------------------------

    def decode(self, llrs: np.ndarray, n_info_bits: int) -> np.ndarray:
        """Viterbi-decode ``(..., n_coded)`` soft input to ``(..., n_info_bits)``.

        Args:
            llrs: Soft values, one per coded bit, where positive favours
                bit 0 and negative favours bit 1.  Hard decisions can be fed
                as ``1 - 2*bit``.  Erased (punctured) positions must be 0.
                Leading axes are a batch of codewords decoded together; a
                1-D input is a batch of one.
            n_info_bits: Number of information bits to return per codeword
                (tail bits from the zero-terminated encoder are stripped).

        Returns:
            The maximum-likelihood information bits, one row per codeword.
            Equal path metrics keep the even predecessor.

        Raises:
            ValueError: On an odd-length codeword, one shorter than
                ``n_info_bits`` steps, or any non-finite LLR.
        """
        llrs = np.asarray(llrs, dtype=float)
        require(llrs.ndim >= 1, "llrs must have a coded-bit axis")
        batch_shape = llrs.shape[:-1]
        n_coded = llrs.shape[-1]
        require(n_coded % 2 == 0, "coded stream must contain bit pairs")
        n_steps = n_coded // 2
        require(
            n_steps >= n_info_bits,
            f"coded stream ({n_steps} steps) shorter than {n_info_bits} info bits",
        )
        require(bool(np.all(np.isfinite(llrs))), "llrs must be finite")
        n_words = int(np.prod(batch_shape, dtype=np.int64))
        # time-major (step, codeword, coded bit) pairs
        pairs = np.ascontiguousarray(llrs.reshape(n_words, n_steps, 2).transpose(1, 0, 2))
        words = self._forward_pass(pairs)
        bits = np.empty((n_words, n_steps), dtype=np.uint8)
        for w in range(n_words):
            bits[w] = np.frombuffer(self._traceback(words[:, w].tolist()), dtype=np.uint8)
        return bits[:, :n_info_bits].reshape(batch_shape + (n_info_bits,))

    def _forward_pass(self, pairs: np.ndarray) -> np.ndarray:
        """Add-compare-select over every step; returns (n_steps, n_words)
        uint64 decision words, bit ``ns`` set when state ``ns`` chose its
        odd predecessor."""
        n_steps, n_words, _ = pairs.shape
        half = self.n_states // 2
        metrics = np.full((n_words, self.n_states), _UNREACHED)
        metrics[:, 0] = 0.0
        # metric of predecessor 2k + j as (j, word, 1, k): one view serves
        # both input bits of butterfly k
        from_prev = metrics.reshape(n_words, half, 2).transpose(2, 0, 1)[:, :, None, :]
        survivors = metrics.reshape(n_words, 2, half)
        words = np.zeros((n_steps, n_words, 8), dtype=np.uint8)
        add, maximum = np.add, np.maximum
        for t0 in range(0, n_steps, BLOCK_STEPS):
            # candidates (step, j, word, b, k): the branch metric here, plus
            # the predecessor's path metric once the loop reaches the step
            cand = np.matmul(pairs[t0 : t0 + BLOCK_STEPS, None], self._branch_symbols)
            cand = cand.reshape(-1, 2, n_words, 2, half)
            even, odd = cand[:, 0], cand[:, 1]
            for step, from_even, from_odd in zip(cand, even, odd):
                add(step, from_prev, out=step)
                maximum(from_even, from_odd, out=survivors)
            decisions = (odd > even).reshape(-1, n_words, self.n_states)
            packed = np.packbits(decisions, axis=-1, bitorder="little")
            words[t0 : t0 + BLOCK_STEPS, :, : packed.shape[-1]] = packed
        return words.view("<u8")[..., 0]

    def _traceback(self, words: list) -> bytearray:
        """Input bits along the survivor path ending in state 0."""
        half_mask = self.n_states // 2 - 1
        top = self.constraint_length - 2
        out = bytearray(len(words))
        state = 0
        for t in range(len(words) - 1, -1, -1):
            out[t] = state >> top
            state = ((state & half_mask) << 1) | ((words[t] >> state) & 1)
        return out

    def decode_hard(self, coded_bits: np.ndarray, n_info_bits: int) -> np.ndarray:
        """Viterbi decode from hard bit decisions."""
        coded_bits = np.asarray(coded_bits, dtype=float)
        return self.decode(1.0 - 2.0 * coded_bits, n_info_bits)
