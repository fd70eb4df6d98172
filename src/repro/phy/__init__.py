"""802.11-style OFDM physical layer.

This subpackage is a from-scratch software PHY providing everything the
MegaMIMO protocol needs: constellation mapping, convolutional coding with
Viterbi decoding, block interleaving, scrambling, 64-point OFDM with pilots,
preamble generation (STS/LTS and the MegaMIMO sync header), packet framing,
carrier-frequency-offset estimation and least-squares channel estimation.
"""

from repro.phy.cfo import CfoTracker, apply_cfo, estimate_cfo_coarse, estimate_cfo_fine
from repro.phy.channel_est import average_channel_estimates, estimate_channel_lts
from repro.phy.frame import FrameConfig, PhyFrameDecoder, PhyFrameEncoder
from repro.phy.modulation import Modulation, get_modulation
from repro.phy.ofdm import OfdmDemodulator, OfdmModulator
from repro.phy.preamble import (
    SYNC_HEADER_LTS_REPEATS,
    long_training_sequence,
    short_training_sequence,
    sync_header,
)

__all__ = [
    "Modulation",
    "get_modulation",
    "OfdmModulator",
    "OfdmDemodulator",
    "short_training_sequence",
    "long_training_sequence",
    "sync_header",
    "SYNC_HEADER_LTS_REPEATS",
    "PhyFrameEncoder",
    "PhyFrameDecoder",
    "FrameConfig",
    "estimate_cfo_coarse",
    "estimate_cfo_fine",
    "apply_cfo",
    "CfoTracker",
    "estimate_channel_lts",
    "average_channel_estimates",
]
