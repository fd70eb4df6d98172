"""The batch-first PHY kernels against their sequential references.

Each kernel must reproduce ``tests/phy/reference.py`` bit for bit, and a
batch of B inputs must equal B single calls.
"""

import numpy as np
import pytest

from repro.constants import PILOT_POLARITY, SYMBOL_LENGTH
from repro.phy.coding import ConvolutionalCode, Puncturer, Scrambler
from repro.phy.coding.convolutional import BLOCK_STEPS
from repro.phy.frame import FrameConfig, PhyFrameDecoder, PhyFrameEncoder
from repro.phy.mcs import get_mcs
from repro.phy.ofdm import OfdmDemodulator, OfdmModulator

from tests.phy import reference as ref


@pytest.fixture(scope="module")
def code():
    return ConvolutionalCode()


def _bits(rng, *shape):
    return rng.integers(0, 2, shape).astype(np.uint8)


class TestEncoder:
    @pytest.mark.parametrize("n", [0, 1, 6, 7, 100, 1003])
    def test_matches_shift_register(self, code, n):
        bits = _bits(np.random.default_rng(n), n)
        assert np.array_equal(code.encode(bits), ref.shift_register_encode(bits))

    def test_batch_equals_rows(self, code):
        bits = _bits(np.random.default_rng(1), 2, 3, 50)
        coded = code.encode(bits)
        assert coded.shape == (2, 3, 2 * (50 + code.n_tail_bits))
        for idx in np.ndindex(2, 3):
            assert np.array_equal(coded[idx], ref.shift_register_encode(bits[idx]))


class TestViterbi:
    # lengths straddle the branch-metric block size
    LENGTHS = [1, 18, 200, BLOCK_STEPS - 6, BLOCK_STEPS - 5, 2 * BLOCK_STEPS + 37]

    @pytest.mark.parametrize("n", LENGTHS)
    def test_random_soft_llrs(self, code, n):
        rng = np.random.default_rng(n)
        coded = code.encode(_bits(rng, n))
        llrs = (1.0 - 2.0 * coded) + rng.normal(0.0, 1.2, coded.size)
        assert np.array_equal(code.decode(llrs, n), ref.sequential_viterbi(llrs, n))

    @pytest.mark.parametrize("n", LENGTHS)
    def test_hard_inputs_with_metric_ties(self, code, n):
        """+-1 inputs make many candidate metrics exactly equal."""
        rng = np.random.default_rng(100 + n)
        coded = code.encode(_bits(rng, n))
        flips = (rng.random(coded.size) < 0.08).astype(np.uint8)
        llrs = 1.0 - 2.0 * (coded ^ flips)
        assert np.array_equal(code.decode(llrs, n), ref.sequential_viterbi(llrs, n))

    def test_pure_noise_ties(self, code):
        llrs = np.random.default_rng(7).choice([-1.0, 0.0, 1.0], 2 * 400)
        assert np.array_equal(code.decode(llrs, 394), ref.sequential_viterbi(llrs, 394))

    @pytest.mark.parametrize("rate", [(1, 2), (2, 3), (3, 4)])
    def test_punctured_zeros(self, code, rate):
        rng = np.random.default_rng(sum(rate))
        coded = code.encode(_bits(rng, 300))
        p = Puncturer(rate)
        tx = p.puncture(coded)
        noisy = (1.0 - 2.0 * tx) + rng.normal(0.0, 0.8, tx.size)
        llrs = p.depuncture(noisy, coded.size)
        assert np.array_equal(code.decode(llrs, 300), ref.sequential_viterbi(llrs, 300))

    def test_zero_info_bits(self, code):
        llrs = np.random.default_rng(3).normal(size=2 * 40)
        out = code.decode(llrs, 0)
        assert out.shape == (0,)
        assert np.array_equal(out, ref.sequential_viterbi(llrs, 0))
        assert code.decode(np.zeros((3, 2 * code.n_tail_bits)), 0).shape == (3, 0)

    def test_batch_equals_single_decodes(self, code):
        rng = np.random.default_rng(11)
        n = BLOCK_STEPS + 90
        coded = code.encode(_bits(rng, 2, 3, n))
        llrs = (1.0 - 2.0 * coded) + rng.normal(0.0, 1.0, coded.shape)
        batch = code.decode(llrs, n)
        assert batch.shape == (2, 3, n)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(batch[idx], code.decode(llrs[idx], n))
            assert np.array_equal(batch[idx], ref.sequential_viterbi(llrs[idx], n))


class TestTiledMasks:
    """The tiled puncture masks and keystream against ``np.resize``, the
    form they replaced (it concatenates a tuple of one array per period)."""

    @pytest.mark.parametrize("rate", [(1, 2), (2, 3), (3, 4)])
    def test_puncture_mask(self, rate):
        p = Puncturer(rate)
        for n in range(2001):
            mask = np.resize(p.pattern, n)
            coded = np.arange(n)
            assert np.array_equal(p.puncture(coded), coded[mask])
            kept = mask.sum()
            values = np.arange(1.0, kept + 1.0)
            expected = np.zeros(n)
            expected[mask] = values
            assert np.array_equal(p.depuncture(values, n), expected)

    @pytest.mark.parametrize("seed", [1, 0b1011101, 127])
    def test_keystream(self, seed):
        period = ref.lfsr_keystream(seed, 127)
        for n in range(2001):
            keystream = Scrambler(seed).keystream(n)
            assert keystream.dtype == np.uint8
            assert np.array_equal(keystream, np.resize(period, n))


class TestKeystream:
    @pytest.mark.parametrize("seed", [1, 0b1011101, 127])
    @pytest.mark.parametrize("n", [0, 1, 126, 127, 128, 254, 255, 1000])
    def test_matches_lfsr(self, seed, n):
        assert np.array_equal(Scrambler(seed).keystream(n), ref.lfsr_keystream(seed, n))

    def test_batch_scramble_uses_one_keystream_per_row(self):
        bits = _bits(np.random.default_rng(5), 3, 300)
        out = Scrambler().scramble(bits)
        for row, scrambled in zip(bits, out):
            assert np.array_equal(scrambled, row ^ ref.lfsr_keystream(0b1011101, 300))


def _random_symbols(rng, *shape):
    return rng.normal(size=shape + (48,)) + 1j * rng.normal(size=shape + (48,))


class TestOfdm:
    def test_modulator_matches_one_ifft_per_symbol(self):
        rng = np.random.default_rng(0)
        data = _random_symbols(rng, 300)
        indices = 100 + np.arange(300)  # wraps the 127-entry polarity sequence
        samples = OfdmModulator().modulate_symbol(data, indices)
        for m in range(300):
            assert np.array_equal(samples[m], ref.modulate_symbol(data[m], indices[m]))

    @pytest.mark.parametrize("track_phase", [True, False])
    def test_demodulator_matches_per_symbol(self, track_phase):
        rng = np.random.default_rng(1)
        n = 2 * len(PILOT_POLARITY) + 5
        tx = OfdmModulator().modulate_symbol(_random_symbols(rng, n), np.arange(n))
        rx = tx * np.exp(0.3j) + 0.1 * (
            rng.normal(size=tx.shape) + 1j * rng.normal(size=tx.shape)
        )
        channel = rng.normal(size=64) + 1j * rng.normal(size=64)
        channel[[7, 21]] = 1e-12  # floored bins, one of them a pilot
        eq = OfdmDemodulator().demodulate_symbol(
            rx, channel, np.arange(n), track_phase=track_phase
        )
        for m in range(n):
            data, phase, snr = ref.demodulate_symbol(rx[m], channel, m, track_phase)
            assert np.array_equal(eq.data[m], data)
            assert eq.common_phase[m] == phase
            assert eq.pilot_snr[m] == snr

    def test_per_frame_channels_broadcast(self):
        rng = np.random.default_rng(2)
        samples = rng.normal(size=(3, 10, SYMBOL_LENGTH)) + 0j
        channels = rng.normal(size=(3, 64)) + 1j * rng.normal(size=(3, 64))
        eq = OfdmDemodulator().demodulate_symbol(
            samples, channels[:, None, :], np.arange(10)
        )
        assert eq.data.shape == (3, 10, 48) and eq.pilot_snr.shape == (3, 10)
        for b in range(3):
            for m in range(10):
                data, _, snr = ref.demodulate_symbol(samples[b, m], channels[b], m)
                assert np.array_equal(eq.data[b, m], data)
                assert eq.pilot_snr[b, m] == snr

    def test_single_symbol_gives_scalar_estimates(self):
        samples = OfdmModulator().modulate_symbol(_random_symbols(np.random.default_rng(3)))
        eq = OfdmDemodulator().demodulate_symbol(samples, np.ones(64))
        assert eq.data.shape == (48,)
        assert np.ndim(eq.common_phase) == 0 and np.ndim(eq.pilot_snr) == 0


class TestFrameDecoder:
    def test_batch_equals_single_decodes(self):
        """Frames of two (mcs, length) groups plus a garbled SIGNAL field."""
        config = FrameConfig(sample_rate=10e6)
        enc, dec = PhyFrameEncoder(config), PhyFrameDecoder(config)
        rng = np.random.default_rng(4)
        plan = [(0, 60), (2, 40), (0, 60), (2, 40), (0, 60)]
        frames = [enc.encode(rng.bytes(n), get_mcs(m)) for m, n in plan]
        n_sym = max(f.shape[0] for f in frames)
        batch = np.zeros((len(plan), n_sym, 48), dtype=complex)
        for i, f in enumerate(frames):
            batch[i, : f.shape[0]] = f
        batch += 0.2 * (rng.normal(size=batch.shape) + 1j * rng.normal(size=batch.shape))
        batch[4, 0] = 0.0  # SIGNAL field lost
        noise_var = np.array([0.04, 0.05, 0.06, 0.07, 0.08])
        decoded = dec.decode(batch, noise_var=noise_var)
        assert len(decoded) == len(plan)
        for i in range(len(plan)):
            assert decoded[i] == dec.decode(batch[i], noise_var=noise_var[i])
        assert [d.crc_ok for d in decoded] == [True, True, True, True, False]
