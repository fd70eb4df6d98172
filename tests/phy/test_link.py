"""Point-to-point packet transport."""

import pytest

from repro.channel.medium import Medium
from repro.channel.models import RicianChannel
from repro.channel.oscillator import Oscillator, OscillatorConfig
from repro.phy.link import PointToPointLink
from repro.phy.mcs import get_mcs


def build_medium(snr_db=25.0, noise=1.0, seed=0, ppm=(1.0, -1.5)):
    from repro.core.system import OFDM_SIGNAL_POWER
    from repro.utils.units import db_to_linear

    m = Medium(10e6, noise_power=noise, rng=seed)
    for name, p in zip(("tx", "rx"), ppm):
        m.register_node(
            name,
            Oscillator(OscillatorConfig(ppm_offset=p, phase_noise_rad2_per_s=0.25),
                       rng=seed),
        )
    gain = db_to_linear(snr_db) * noise / OFDM_SIGNAL_POWER
    m.set_link("tx", "rx", RicianChannel(k_factor=8.0).realize(gain, rng=seed))
    return m


class TestRoundtrip:
    def test_payload_delivered(self):
        m = build_medium()
        link = PointToPointLink(m)
        payload = b"control-plane feedback report" * 3
        decoded = link.exchange("tx", "rx", payload, start_time=1e-3)
        assert decoded.crc_ok
        assert decoded.payload == payload

    @pytest.mark.parametrize("mcs_index", [0, 2, 4])
    def test_various_rates(self, mcs_index):
        m = build_medium(snr_db=28.0, seed=2)
        link = PointToPointLink(m, mcs=get_mcs(mcs_index))
        decoded = link.exchange("tx", "rx", bytes(range(100)), start_time=1e-3)
        assert decoded.crc_ok

    def test_cfo_survives(self):
        """kHz-scale oscillator offsets are corrected by the preamble."""
        m = build_medium(seed=3, ppm=(2.0, -2.0))  # ~9.6 kHz relative
        link = PointToPointLink(m)
        decoded = link.exchange("tx", "rx", b"offset tolerant", start_time=1e-3)
        assert decoded.crc_ok

    def test_low_snr_fails_crc(self):
        m = build_medium(snr_db=-5.0, seed=4)
        link = PointToPointLink(m, mcs=get_mcs(4))
        decoded = link.exchange("tx", "rx", bytes(60), start_time=1e-3)
        assert not decoded.crc_ok

    def test_packet_length_helper(self):
        m = build_medium(seed=5)
        link = PointToPointLink(m)
        payload = bytes(77)
        packet = link.send("tx", payload, 1e-3)
        assert packet.n_samples == link.packet_samples(77)
