"""Performance benchmarks of the PHY substrate itself.

Each PHY stage is timed on its own over multiple rounds, reporting real
ops/sec — useful when optimizing the hot paths (Viterbi dominates; the
medium's receive synthesis is second).  The paper's figures and ablations
are checked by the claims table (``repro.sim.claims``) in the test suite.

    pytest benchmarks/ --benchmark-only
"""

import numpy as np
import pytest

from repro.channel.medium import Medium
from repro.channel.models import LinkChannel
from repro.channel.oscillator import Oscillator, OscillatorConfig
from repro.phy.coding import ConvolutionalCode
from repro.phy.frame import FrameConfig, PhyFrameDecoder, PhyFrameEncoder
from repro.phy.mcs import get_mcs
from repro.phy.ofdm import OfdmDemodulator, OfdmModulator


@pytest.fixture(scope="module")
def payload():
    return bytes(range(256)) * 2  # 512 B


def test_perf_convolutional_encode(benchmark):
    code = ConvolutionalCode()
    bits = np.random.default_rng(0).integers(0, 2, 4096).astype(np.uint8)
    out = benchmark(code.encode, bits)
    assert out.size == 2 * (4096 + 6)


def test_perf_viterbi_decode(benchmark):
    code = ConvolutionalCode()
    bits = np.random.default_rng(1).integers(0, 2, 1024).astype(np.uint8)
    llrs = 1.0 - 2.0 * code.encode(bits).astype(float)
    decoded = benchmark(code.decode, llrs, 1024)
    assert np.array_equal(decoded, bits)


def test_perf_frame_encode(benchmark, payload):
    encoder = PhyFrameEncoder(FrameConfig(sample_rate=10e6))
    mcs = get_mcs(7)
    frame = benchmark(encoder.encode_time_domain, payload, mcs)
    assert frame.size > 0


def test_perf_frame_decode(benchmark, payload):
    config = FrameConfig(sample_rate=10e6)
    encoder, decoder = PhyFrameEncoder(config), PhyFrameDecoder(config)
    mcs = get_mcs(7)
    symbols = encoder.encode(payload, mcs)
    result = benchmark(decoder.decode, symbols, 0.01)
    assert result.crc_ok


def test_perf_ofdm_symbol_roundtrip(benchmark):
    mod, demod = OfdmModulator(), OfdmDemodulator()
    rng = np.random.default_rng(2)
    data = np.exp(2j * np.pi * rng.uniform(size=48))
    channel = np.ones(64, dtype=complex)

    def roundtrip():
        samples = mod.modulate_symbol(data, symbol_index=3)
        return demod.demodulate_symbol(samples, channel, symbol_index=3)

    eq = benchmark(roundtrip)
    assert np.allclose(eq.data, data, atol=1e-9)


def test_perf_medium_receive(benchmark):
    m = Medium(10e6, noise_power=1.0, rng=3)
    for i in range(6):
        m.register_node(
            f"tx{i}", Oscillator(OscillatorConfig(ppm_offset=0.5 * i), rng=i)
        )
    m.register_node("rx", Oscillator(OscillatorConfig(), rng=99))
    rng = np.random.default_rng(4)
    for i in range(6):
        m.set_link(f"tx{i}", "rx", LinkChannel(taps=np.array([1.0 + 0.1j * i])))
        samples = rng.normal(size=4000) + 1j * rng.normal(size=4000)
        m.transmit(f"tx{i}", samples, 0.0)

    rx = benchmark(m.receive, "rx", 0.0, 4000)
    assert rx.size == 4000
