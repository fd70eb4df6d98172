"""Convolutional code, puncturing, interleaver, scrambler."""

import numpy as np
import pytest

from repro.phy.coding import (
    PUNCTURE_PATTERNS,
    BlockInterleaver,
    ConvolutionalCode,
    Puncturer,
    Scrambler,
)


@pytest.fixture(scope="module")
def code():
    return ConvolutionalCode()


class TestConvolutionalEncoder:
    def test_rate_half_with_tail(self, code):
        bits = np.zeros(100, dtype=np.uint8)
        assert code.encode(bits).size == 2 * (100 + code.n_tail_bits)

    def test_zero_input_gives_zero_output(self, code):
        assert not np.any(code.encode(np.zeros(50, dtype=np.uint8)))

    def test_impulse_response_weight_matches_generators(self, code):
        """A single 1 walks through both generators exactly once.

        The coded impulse response's g0 (even) positions must carry
        popcount(133o) = 5 ones and the g1 (odd) positions popcount(171o)
        = 5 ones, and the first pair is (1, 1) since both generators tap
        the input bit.
        """
        coded = code.encode(np.array([1], dtype=np.uint8))
        assert coded.size == 14
        assert coded[0] == 1 and coded[1] == 1
        assert int(coded[0::2].sum()) == bin(0o133).count("1")
        assert int(coded[1::2].sum()) == bin(0o171).count("1")

    def test_linearity(self, code):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 2, 64).astype(np.uint8)
        b = rng.integers(0, 2, 64).astype(np.uint8)
        assert np.array_equal(
            code.encode(a) ^ code.encode(b), code.encode(a ^ b)
        )


class TestViterbi:
    def test_clean_roundtrip(self, code):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, 300).astype(np.uint8)
        assert np.array_equal(code.decode_hard(code.encode(bits), 300), bits)

    def test_corrects_scattered_bit_errors(self, code):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, 200).astype(np.uint8)
        coded = code.encode(bits)
        corrupted = coded.copy()
        # flip well-separated coded bits (within free-distance correction)
        for pos in range(10, corrupted.size, 40):
            corrupted[pos] ^= 1
        assert np.array_equal(code.decode_hard(corrupted, 200), bits)

    def test_soft_beats_hard_at_same_noise(self, code):
        rng = np.random.default_rng(3)
        n_trials, n_bits = 20, 120
        soft_errors = hard_errors = 0
        for _ in range(n_trials):
            bits = rng.integers(0, 2, n_bits).astype(np.uint8)
            coded = code.encode(bits)
            tx = 1.0 - 2.0 * coded.astype(float)
            noisy = tx + rng.normal(0.0, 0.9, tx.size)
            soft = code.decode(noisy, n_bits)
            hard = code.decode_hard((noisy < 0).astype(np.uint8), n_bits)
            soft_errors += int(np.sum(soft != bits))
            hard_errors += int(np.sum(hard != bits))
        assert soft_errors < hard_errors

    def test_erasures_are_recoverable(self, code):
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, 150).astype(np.uint8)
        coded = code.encode(bits)
        llrs = 1.0 - 2.0 * coded.astype(float)
        llrs[::3] = 0.0  # erase a third of positions
        assert np.array_equal(code.decode(llrs, 150), bits)

    def test_rejects_odd_length(self, code):
        with pytest.raises(ValueError):
            code.decode(np.zeros(5), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_llrs(self, code, bad):
        """A NaN would otherwise lose every compare and decode silently."""
        llrs = 1.0 - 2.0 * code.encode(np.zeros(20, dtype=np.uint8)).astype(float)
        llrs[11] = bad
        with pytest.raises(ValueError, match="finite"):
            code.decode(llrs, 20)
        with pytest.raises(ValueError, match="finite"):
            code.decode(np.stack([np.ones_like(llrs), llrs]), 20)

    def test_empty_payload_edge(self, code):
        coded = code.encode(np.zeros(0, dtype=np.uint8))
        assert coded.size == 2 * code.n_tail_bits
        assert code.decode_hard(coded, 0).size == 0


class TestPuncturing:
    @pytest.mark.parametrize("rate", [(1, 2), (2, 3), (3, 4)])
    def test_roundtrip_through_decoder(self, code, rate):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, 240).astype(np.uint8)
        coded = code.encode(bits)
        p = Puncturer(rate)
        tx = p.puncture(coded)
        rx = p.depuncture(1.0 - 2.0 * tx.astype(float), coded.size)
        assert np.array_equal(code.decode(rx, 240), bits)

    @pytest.mark.parametrize("rate,frac", [((1, 2), 1.0), ((2, 3), 0.75), ((3, 4), 2 / 3)])
    def test_transmitted_fraction(self, rate, frac):
        p = Puncturer(rate)
        n = 1200
        assert p.punctured_length(n) == pytest.approx(n * frac)

    def test_punctured_length_partial_period(self):
        p = Puncturer((3, 4))
        # pattern 110110: first 4 entries keep 3
        assert p.punctured_length(4) == 3

    def test_depuncture_validates_length(self):
        p = Puncturer((2, 3))
        with pytest.raises(ValueError):
            p.depuncture(np.zeros(5), 100)

    def test_unknown_rate(self):
        with pytest.raises(KeyError):
            Puncturer((5, 6))

    def test_patterns_match_rates(self):
        # kept/total of the mother stream is (1/2) / (num/den)
        for (num, den), pattern in PUNCTURE_PATTERNS.items():
            assert pattern.sum() / pattern.size == pytest.approx((den / num) / 2)


class TestInterleaver:
    @pytest.mark.parametrize("bits_per_sc", [1, 2, 4, 6])
    def test_roundtrip(self, bits_per_sc):
        n_cbps = 48 * bits_per_sc
        il = BlockInterleaver(n_cbps, bits_per_sc)
        rng = np.random.default_rng(6)
        data = rng.integers(0, 2, n_cbps * 4).astype(np.uint8)
        assert np.array_equal(il.deinterleave(il.interleave(data)), data)

    def test_is_permutation(self):
        il = BlockInterleaver(192, 4)
        data = np.arange(192)
        out = il.interleave(data)
        assert sorted(out.tolist()) == data.tolist()

    def test_adjacent_bits_spread_apart(self):
        """Adjacent coded bits land on non-adjacent subcarriers."""
        il = BlockInterleaver(48, 1)
        positions = np.empty(48, dtype=int)
        for k in range(48):
            block = np.zeros(48)
            block[k] = 1
            positions[k] = int(np.argmax(il.interleave(block)))
        gaps = np.abs(np.diff(positions))
        assert np.min(gaps) >= 2

    def test_rejects_partial_blocks(self):
        il = BlockInterleaver(96, 2)
        with pytest.raises(ValueError):
            il.interleave(np.zeros(95))

    def test_works_on_soft_values(self):
        il = BlockInterleaver(96, 2)
        rng = np.random.default_rng(7)
        soft = rng.normal(size=96)
        assert np.allclose(il.deinterleave(il.interleave(soft)), soft)


class TestScrambler:
    def test_roundtrip(self):
        s = Scrambler()
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 2, 500).astype(np.uint8)
        assert np.array_equal(Scrambler().descramble(s.scramble(bits)), bits)

    def test_keystream_period_127(self):
        ks = Scrambler().keystream(254)
        assert np.array_equal(ks[:127], ks[127:])

    def test_keystream_is_balanced(self):
        ks = Scrambler().keystream(127)
        assert ks.sum() == 64  # 64 ones and 63 zeros per period (m-sequence)

    def test_different_seeds_differ(self):
        a = Scrambler(seed=0b1011101).keystream(64)
        b = Scrambler(seed=0b0000001).keystream(64)
        assert not np.array_equal(a, b)

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            Scrambler(seed=0)

    def test_breaks_long_runs(self):
        s = Scrambler()
        out = s.scramble(np.zeros(200, dtype=np.uint8))
        # scrambled all-zeros is the keystream itself: no run longer than 7
        runs, current = [], 1
        for i in range(1, out.size):
            if out[i] == out[i - 1]:
                current += 1
            else:
                runs.append(current)
                current = 1
        assert max(runs + [current]) <= 7
