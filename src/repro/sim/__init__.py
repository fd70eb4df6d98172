"""Network simulation and experiment harness.

``fastsim`` is a frequency-domain fast path (per-subcarrier channel
matrices + calibrated phase-error model) for the paper's 20-topology
parameter sweeps; it is cross-validated against the sample-level protocol
in the integration tests.  ``experiments`` has one runner per paper figure.
"""

from repro.sim.fastsim import (
    SyncErrorModel,
    build_channel_tensor,
    diversity_snr_db,
    draw_band_snrs,
    joint_zf_sinr_db,
)
from repro.sim.metrics import cdf_points, median_gain
from repro.sim.network import NetworkScenario, ScenarioConfig

__all__ = [
    "SyncErrorModel",
    "build_channel_tensor",
    "joint_zf_sinr_db",
    "diversity_snr_db",
    "draw_band_snrs",
    "NetworkScenario",
    "ScenarioConfig",
    "cdf_points",
    "median_gain",
]
