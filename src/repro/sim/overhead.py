"""Protocol overhead and channel-staleness analysis.

§5: "a single channel measurement phase can be followed by multiple data
transmissions.  Channels only need to be recomputed on the order of the
coherence time of the channel, which is several hundreds of milliseconds".
§5.2b adds the failure mode this avoids: without per-packet phase
re-anchoring the system "would force ... measuring H every few
milliseconds, which means incurring the overhead of communicating the
channels from all clients to the APs almost every packet".

This module quantifies both effects:

* airtime overhead of the sounding phase (frame + CSI feedback) as a
  function of the re-sounding interval, and
* beamforming SINR degradation from *stale CSI* — the precoder built from
  H(0) applied to the decorrelated channel H(t) — using the Gauss-Markov
  fading model.

``run_overhead_experiment`` combines them into net throughput vs.
re-sounding interval, exposing the optimum the paper's design targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.channel.timevarying import channel_correlation
from repro.constants import COHERENCE_TIME_S, MAC_EFFICIENCY, PACKET_SIZE_BYTES, SAMPLE_RATE_USRP
from repro.core.sounding import SoundingPlan
from repro.mac.rate import EffectiveSnrRateSelector
from repro.sim.fastsim import build_channel_tensor, joint_zf_sinr_db
from repro.utils.rng import complex_normal, ensure_rng
from repro.utils.validation import require


def stale_channels(
    channels: np.ndarray, elapsed_s: float, coherence_time_s: float, rng
) -> np.ndarray:
    """The channel tensor after ``elapsed_s`` of Gauss-Markov decorrelation.

    ``H(t) = rho H(0) + sqrt(1 - rho^2) W`` with W matched to each entry's
    power — the innovation replaces what the old measurement no longer
    predicts.
    """
    rng = ensure_rng(rng)
    channels = np.asarray(channels, dtype=complex)
    rho = channel_correlation(elapsed_s, coherence_time_s)
    scale = np.sqrt(np.mean(np.abs(channels) ** 2, axis=0, keepdims=True))
    innovation = complex_normal(rng, channels.shape, 1.0) * scale
    return rho * channels + np.sqrt(1.0 - rho**2) * innovation


def sounding_airtime_s(
    n_aps: int,
    n_clients: int,
    sample_rate: float = SAMPLE_RATE_USRP,
    rounds: int = 4,
    feedback_bits_per_client: int = 52 * 2 * 16,
    feedback_rate_bps: float = 12e6,
) -> float:
    """Airtime consumed by one full channel-measurement phase.

    Sounding frame (header + CFO blocks + interleaved symbols) plus each
    client's CSI feedback (52 subcarriers x complex x 16-bit, sent "back to
    the transmitters over the wireless channel", §5.1b).
    """
    plan = SoundingPlan(n_aps=n_aps, n_rounds=rounds, sample_rate=sample_rate)
    frame_s = plan.frame_length / sample_rate
    feedback_s = n_clients * n_aps * feedback_bits_per_client / feedback_rate_bps
    return frame_s + feedback_s


def packet_airtime_s(
    bitrate_bps: float,
    packet_bytes: int = PACKET_SIZE_BYTES,
    sample_rate: float = SAMPLE_RATE_USRP,
) -> float:
    """Airtime of one data frame: sync header + turnaround + payload."""
    require(bitrate_bps > 0, "bitrate must be positive")
    from repro.constants import TRIGGER_TURNAROUND_S
    from repro.phy.preamble import sync_header_length

    overhead_s = sync_header_length() / sample_rate + TRIGGER_TURNAROUND_S
    payload_s = packet_bytes * 8 / bitrate_bps
    return overhead_s + payload_s


@dataclass
class OverheadResult:
    """Net throughput vs. re-sounding interval.

    Attributes:
        intervals_s: Probed re-sounding intervals.
        net_throughput_bps: {coherence_time_s: net throughput per interval}.
        best_interval_s: {coherence_time_s: argmax interval}.
    """

    intervals_s: np.ndarray
    net_throughput_bps: Dict[float, np.ndarray]

    @property
    def best_interval_s(self) -> Dict[float, float]:
        return {
            tc: float(self.intervals_s[int(np.argmax(curve))])
            for tc, curve in self.net_throughput_bps.items()
        }

    def format_table(self) -> str:
        tcs = sorted(self.net_throughput_bps)
        lines = [
            "interval(ms)  "
            + "  ".join(f"Tc={tc * 1e3:.0f}ms (Mbps)" for tc in tcs)
        ]
        for i, iv in enumerate(self.intervals_s):
            cells = "  ".join(
                f"{self.net_throughput_bps[tc][i] / 1e6:14.1f}" for tc in tcs
            )
            lines.append(f"{iv * 1e3:12.1f}  {cells}")
        lines.append(
            "optimal interval: "
            + ", ".join(
                f"Tc={tc * 1e3:.0f}ms -> {self.best_interval_s[tc] * 1e3:.0f}ms"
                for tc in tcs
            )
        )
        return "\n".join(lines)


def run_overhead_experiment(
    seed: int = 11,
    n_aps: int = 6,
    intervals_s: Sequence[float] = (2e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3),
    coherence_times_s: Sequence[float] = (50e-3, COHERENCE_TIME_S, 1.0),
    n_topologies: int = 8,
    snr_db: float = 22.0,
) -> OverheadResult:
    """Net throughput vs. re-sounding interval for several coherence times.

    For an interval T, packets throughout [0, T] use the H(0) precoder
    against progressively staler channels; net throughput folds in the
    sounding airtime amortized over the interval.  Short intervals waste
    airtime on sounding; long intervals decay into self-interference — the
    optimum sits near the coherence time, as §5 asserts.
    """
    require(n_topologies >= 1, "n_topologies must be >= 1")
    rng = ensure_rng(seed)
    selector = EffectiveSnrRateSelector(SAMPLE_RATE_USRP, mac_efficiency=MAC_EFFICIENCY)
    intervals_s = np.asarray(list(intervals_s), dtype=float)
    result: Dict[float, np.ndarray] = {}

    for tc in coherence_times_s:
        curve = np.zeros(intervals_s.size)
        for _ in range(n_topologies):
            snrs = np.full((n_aps, n_aps), snr_db) + rng.normal(0, 2, (n_aps, n_aps))
            h0 = build_channel_tensor(snrs, rng)
            for i, interval in enumerate(intervals_s):
                # evaluate staleness at a few epochs through the interval
                rates = []
                for frac in (0.25, 0.5, 0.75, 1.0):
                    ht = stale_channels(h0, frac * interval, tc, rng)
                    sinr = joint_zf_sinr_db(ht, est_channels=h0)
                    rates.append(
                        np.mean([selector.goodput(sinr[c]) for c in range(n_aps)])
                    )
                gross = float(np.mean(rates)) * n_aps  # all streams concurrent
                sounding = sounding_airtime_s(n_aps, n_aps)
                efficiency = interval / (interval + sounding)
                curve[i] += gross * efficiency
        result[float(tc)] = curve / n_topologies
    return OverheadResult(intervals_s=intervals_s, net_throughput_bps=result)
