"""MegaMIMO's link layer (§9): shared downlink queue over the wired
backend, lead election, joint-transmission grouping, weighted carrier
sense, effective-SNR rate selection and asynchronous acknowledgments."""

from repro.mac.arq import ArqController, PacketStatus
from repro.mac.csma import CsmaSimulator, Station
from repro.mac.queue import DownlinkQueue, Packet
from repro.mac.rate import EffectiveSnrRateSelector, effective_snr_db
from repro.mac.scheduler import JointScheduler, TransmissionGroup

__all__ = [
    "EffectiveSnrRateSelector",
    "effective_snr_db",
    "DownlinkQueue",
    "Packet",
    "JointScheduler",
    "TransmissionGroup",
    "CsmaSimulator",
    "Station",
    "ArqController",
    "PacketStatus",
]
