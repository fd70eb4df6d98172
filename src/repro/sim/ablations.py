"""Ablation experiments for the design choices DESIGN.md calls out.

Each runner isolates one mechanism of the paper's design:

* **Sync strategy** (§5.2b, §5.3): direct per-packet phase measurement
  (MegaMIMO) vs. one-shot CFO extrapolation (the strawman) vs. no
  correction vs. a genie oracle — as a function of the time elapsed since
  sounding.
* **In-packet tracking** (§5.3 principle 1): with and without the averaged
  CFO ramp through the packet, as a function of packet duration.
* **Sounding layout** (§5.1a): interleaved vs. block-sequential channel
  measurement symbols.
* **CFO averaging** (§5.2b): EWMA coefficient of the long-term offset
  estimate vs. steady-state misalignment.
* **CSI feedback precision** (§5.1b, §9): per-component quantization width
  of the clients' channel reports vs. post-beamforming SINR and airtime.
* **Grouping heuristic** (§9's future work): FIFO admission vs. greedy
  sum-rate admission on topologies with a near-collinear client pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.channel.models import RicianChannel
from repro.constants import CP_LENGTH, FFT_SIZE, MAC_EFFICIENCY, SAMPLE_RATE_USRP
from repro.core.feedback import CsiFeedbackCodec, apply_feedback_quantization
from repro.core.sounding import (
    REFERENCE_OFFSET,
    SoundingPlan,
    estimate_at_client,
    interleaved_sounding_frame,
)
from repro.core.system import MegaMimoSystem, SystemConfig
from repro.mac.grouping import ThroughputAwareGrouping
from repro.mac.queue import DownlinkQueue
from repro.mac.rate import EffectiveSnrRateSelector
from repro.mac.scheduler import JointScheduler
from repro.phy.preamble import lts_grid, sync_header, sync_header_length
from repro.runtime import CellSpec, run_sweep
from repro.sim.fastsim import SyncErrorModel, build_channel_tensor, joint_zf_sinr_db
from repro.utils.rng import ensure_rng
from repro.utils.units import wrap_phase
from repro.utils.validation import require


# ---------------------------------------------------------------------------
# Sync-strategy ablation
# ---------------------------------------------------------------------------


@dataclass
class SyncAblationResult:
    """Mean slave misalignment per (strategy, elapsed time since sounding).

    Attributes:
        delays_s: Elapsed times probed.
        misalignment_rad: {strategy: mean |misalignment| per delay}.
    """

    delays_s: np.ndarray
    misalignment_rad: Dict[str, np.ndarray]

    def format_table(self) -> str:
        names = list(self.misalignment_rad)
        lines = ["elapsed(ms)  " + "  ".join(f"{n:>22}" for n in names)]
        for i, d in enumerate(self.delays_s):
            cells = "  ".join(
                f"{self.misalignment_rad[n][i]:22.4f}" for n in names
            )
            lines.append(f"{d * 1e3:11.1f}  {cells}")
        return "\n".join(lines)


def sync_ablation_kernel(params, seeds):
    """Sync-ablation trials: every strategy run on *one* shared system.

    The strategies are paired — the same system seed (channels,
    oscillators, placement) underlies each of them — so the comparison
    isolates the synchronization strategy, exactly as the original serial
    loop reused one seed list across strategies.  Returns
    ``{strategy: [|misalignment| per delay]}`` per seed.
    """
    return [_sync_ablation_trial(params, seed) for seed in seeds]


def _sync_ablation_trial(params, seed):
    """One trial of :func:`sync_ablation_kernel`."""
    rng = ensure_rng(seed)
    system_seed = int(rng.integers(1 << 31))
    delays_s = params["delays_s"]
    out = {}
    for strategy in params["strategies"]:
        config = SystemConfig(
            n_aps=2, n_clients=2, seed=system_seed, sync_strategy=strategy
        )
        system = MegaMimoSystem.create(
            config,
            client_snr_db=25.0,
            channel_model=RicianChannel(k_factor=8.0),
        )
        system.run_sounding(0.0)
        curve = []
        for delay in delays_s:
            report = system.joint_transmit(
                [b"A" * 16, b"B" * 16],
                __mcs0(),
                start_time=float(delay),
            )
            if strategy == "none":
                # genie misalignment of the uncorrected slave
                lead = system.medium.oscillator(system.lead_id)
                slave = system.medium.oscillator(system.ap_ids[1])
                tref = system.reference_time
                t = report.joint_start_time
                err = (
                    lead.phase_at([t])[0]
                    - slave.phase_at([t])[0]
                    - lead.phase_at([tref])[0]
                    + slave.phase_at([tref])[0]
                )
                curve.append(abs(wrap_phase(err)))
            else:
                curve.append(float(np.mean(list(report.misalignment_rad.values()))))
        out[strategy] = curve
    return out


def run_sync_strategy_ablation(
    seed: int = 7,
    strategies: Sequence[str] = ("megamimo", "naive", "none"),
    delays_s: Sequence[float] = (2e-3, 10e-3, 50e-3, 150e-3),
    n_systems: int = 4,
    workers: int = 1,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    backend: Optional[str] = None,
) -> SyncAblationResult:
    """Measure genie slave misalignment for each strategy and elapsed time.

    MegaMIMO's per-packet direct measurement keeps misalignment flat in
    elapsed time; the naive extrapolation grows linearly until it wraps;
    no correction drifts immediately.
    """
    require(n_systems >= 1, "n_systems must be >= 1")
    delays_s = np.asarray(list(delays_s), dtype=float)
    sweep = run_sweep(
        "ablation.sync",
        sync_ablation_kernel,
        [
            CellSpec(
                key="systems",
                params={
                    "strategies": tuple(strategies),
                    "delays_s": [float(d) for d in delays_s],
                },
                n_trials=n_systems,
            )
        ],
        master_seed=seed,
        workers=workers,
        checkpoint=checkpoint,
        resume=resume,
        backend=backend,
    )
    trials = sweep.results[0]
    result: Dict[str, np.ndarray] = {
        strategy: np.mean([t[strategy] for t in trials], axis=0)
        for strategy in strategies
    }
    return SyncAblationResult(delays_s=delays_s, misalignment_rad=result)


def __mcs0():
    from repro.phy.mcs import get_mcs

    return get_mcs(0)


# ---------------------------------------------------------------------------
# In-packet tracking ablation
# ---------------------------------------------------------------------------


@dataclass
class TrackingAblationResult:
    """End-of-packet misalignment with and without the in-packet CFO ramp.

    Attributes:
        packet_durations_s: Probed packet lengths.
        with_tracking / without_tracking: Mean |phase error| at packet end.
    """

    packet_durations_s: np.ndarray
    with_tracking: np.ndarray
    without_tracking: np.ndarray

    def format_table(self) -> str:
        lines = ["packet(us)  tracked(rad)  untracked(rad)"]
        for i, d in enumerate(self.packet_durations_s):
            lines.append(
                f"{d * 1e6:10.0f}  {self.with_tracking[i]:12.4f}  "
                f"{self.without_tracking[i]:14.4f}"
            )
        return "\n".join(lines)


def run_tracking_ablation(
    seed: int = 8,
    packet_durations_s: Sequence[float] = (100e-6, 400e-6, 1e-3, 2e-3),
    n_systems: int = 5,
    n_warmup: int = 4,
) -> TrackingAblationResult:
    """§5.3 principle 1: within a packet, the averaged CFO estimate is good
    enough to track phase; without it, error grows with packet duration.

    Measured directly on the synchronizer: after warm-up headers, compare
    the correction phasor at the *end* of a hypothetical packet against the
    genie rotation.
    """
    require(n_systems >= 1, "n_systems must be >= 1")
    rng = ensure_rng(seed)
    packet_durations_s = np.asarray(list(packet_durations_s), dtype=float)
    tracked = np.zeros(packet_durations_s.size)
    untracked = np.zeros(packet_durations_s.size)
    fs = SAMPLE_RATE_USRP
    header_len = sync_header_length()

    for _ in range(n_systems):
        config = SystemConfig(n_aps=2, n_clients=1, seed=int(rng.integers(1 << 31)))
        system = MegaMimoSystem.create(
            config, client_snr_db=25.0, channel_model=RicianChannel(k_factor=8.0)
        )
        system.run_sounding(0.0)
        slave = system.ap_ids[1]
        sync = system.synchronizers[slave]
        lead_osc = system.medium.oscillator(system.lead_id)
        slave_osc = system.medium.oscillator(slave)
        tref = system.reference_time

        obs = None
        for k in range(n_warmup + 1):
            t0 = round((1e-3 + k * 2e-3) * fs) / fs
            system.medium.clear()
            system.medium.transmit(system.lead_id, sync_header(), t0)
            rx = system.medium.receive(slave, t0, header_len)
            obs = sync.observe_header(rx, t0 + REFERENCE_OFFSET / fs)
        system.medium.clear()

        for i, duration in enumerate(packet_durations_s):
            t_end = np.array([obs.header_time + duration])
            ideal = (
                lead_osc.phase_at(t_end)[0]
                - slave_osc.phase_at(t_end)[0]
                - lead_osc.phase_at([tref])[0]
                + slave_osc.phase_at([tref])[0]
            )
            with_c = sync.correction(t_end, obs)[0]
            without_c = sync.correction_without_inpacket_tracking(t_end, obs)[0]
            tracked[i] += abs(wrap_phase(float(np.angle(with_c)) - ideal))
            untracked[i] += abs(wrap_phase(float(np.angle(without_c)) - ideal))

    return TrackingAblationResult(
        packet_durations_s=packet_durations_s,
        with_tracking=tracked / n_systems,
        without_tracking=untracked / n_systems,
    )


# ---------------------------------------------------------------------------
# Sounding-layout ablation
# ---------------------------------------------------------------------------


class SequentialSoundingPlan(SoundingPlan):
    """Block-sequential layout: each AP sends all its rounds back to back.

    The §5.1a strawman — per-AP measurements are far apart in time, so
    rotating them to the common reference time stretches the CFO estimate
    over longer spans and the snapshot consistency degrades.
    """

    def slot_start(self, ap_index: int, round_index: int) -> int:
        base = self.header_length + self.cfo_section_length
        return base + (ap_index * self.n_rounds + round_index) * (
            CP_LENGTH + FFT_SIZE
        )

    @property
    def round_period_samples(self) -> int:
        # consecutive rounds of one AP are adjacent slots
        return CP_LENGTH + FFT_SIZE


@dataclass
class SoundingAblationResult:
    """Cross-AP phase consistency of the measured snapshot per layout.

    Attributes:
        interleaved_rad / sequential_rad: Mean |relative-phase error| of the
            estimated snapshot vs. the genie snapshot.
    """

    interleaved_rad: float
    sequential_rad: float

    def format_table(self) -> str:
        return (
            "layout       snapshot phase error (rad)\n"
            f"interleaved  {self.interleaved_rad:26.4f}\n"
            f"sequential   {self.sequential_rad:26.4f}"
        )


def run_sounding_ablation(
    seed: int = 9, n_trials: int = 10, n_aps: int = 6, rounds: int = 4
) -> SoundingAblationResult:
    """Compare snapshot consistency of interleaved vs. sequential sounding.

    A client measures all APs with both layouts on identical channels and
    oscillators; the error metric is the phase error of each AP's estimate
    relative to AP 0's, against the genie channels at the reference time —
    exactly the quantity beamforming depends on.
    """
    require(n_trials >= 1, "n_trials must be >= 1")
    rng = ensure_rng(seed)
    errors = {"interleaved": [], "sequential": []}
    occupied = np.abs(lts_grid()) > 0

    for _ in range(n_trials):
        system_seed = int(rng.integers(1 << 31))
        for name, plan_cls in (
            ("interleaved", SoundingPlan),
            ("sequential", SequentialSoundingPlan),
        ):
            config = SystemConfig(n_aps=n_aps, n_clients=1, seed=system_seed)
            system = MegaMimoSystem.create(
                config, client_snr_db=22.0, channel_model=RicianChannel(k_factor=8.0)
            )
            plan = plan_cls(
                n_aps=n_aps, n_rounds=rounds, sample_rate=config.sample_rate
            )
            system.medium.clear()
            for i, ap in enumerate(system.ap_ids):
                system.medium.transmit(
                    ap, interleaved_sounding_frame(plan, i), 0.0
                )
            client = system.client_ids[0]
            rx = system.medium.receive(client, 0.0, plan.frame_length)
            est = estimate_at_client(rx, plan)
            system.medium.clear()

            tref = REFERENCE_OFFSET / config.sample_rate
            client_osc = system.medium.oscillator(client)
            genie = []
            for ap in system.ap_ids:
                link = system.medium.get_link(ap, client)
                osc = system.medium.oscillator(ap)
                rot = np.exp(
                    1j * (osc.phase_at([tref])[0] - client_osc.phase_at([tref])[0])
                )
                genie.append(link.taps[0] * rot)
            genie = np.asarray(genie)

            measured = np.array(
                [np.mean(est.channels[a][occupied]) for a in range(n_aps)]
            )
            rel_meas = np.angle(measured / measured[0])
            rel_genie = np.angle(genie / genie[0])
            err = np.abs(wrap_phase(rel_meas - rel_genie))[1:]
            errors[name].append(float(np.mean(err)))

    return SoundingAblationResult(
        interleaved_rad=float(np.mean(errors["interleaved"])),
        sequential_rad=float(np.mean(errors["sequential"])),
    )


# ---------------------------------------------------------------------------
# CFO-averaging ablation
# ---------------------------------------------------------------------------


@dataclass
class CfoAveragingResult:
    """Steady-state CFO error per EWMA coefficient.

    Attributes:
        alphas: EWMA coefficients probed.
        cfo_error_hz: Mean |estimate - truth| after convergence.
    """

    alphas: np.ndarray
    cfo_error_hz: np.ndarray

    def format_table(self) -> str:
        lines = ["alpha  steady-state CFO error (Hz)"]
        for a, e in zip(self.alphas, self.cfo_error_hz):
            lines.append(f"{a:5.2f}  {e:27.2f}")
        return "\n".join(lines)


def run_cfo_averaging_ablation(
    seed: int = 10,
    alphas: Sequence[float] = (1.0, 0.5, 0.2, 0.1, 0.05),
    n_headers: int = 20,
    n_systems: int = 4,
) -> CfoAveragingResult:
    """§5.2b's "long term average": smaller EWMA coefficients average out
    per-header estimation noise; alpha = 1 (no averaging) keeps the raw
    per-header error.

    Uses raw within-header CFO measurements only (the long-baseline
    cross-header refinement is disabled) to isolate the averaging effect.
    """
    from repro.core.phasesync import estimate_header_cfo

    require(n_headers >= 1, "n_headers must be >= 1")
    require(n_systems >= 1, "n_systems must be >= 1")
    rng = ensure_rng(seed)
    alphas = np.asarray(list(alphas), dtype=float)
    fs = SAMPLE_RATE_USRP
    header_len = sync_header_length()
    errors = np.zeros(alphas.size)

    for _ in range(n_systems):
        config = SystemConfig(n_aps=2, n_clients=1, seed=int(rng.integers(1 << 31)))
        system = MegaMimoSystem.create(
            config, client_snr_db=25.0, channel_model=RicianChannel(k_factor=8.0)
        )
        slave = system.ap_ids[1]
        true_cfo = (
            system.medium.oscillator(system.lead_id).frequency_offset_hz
            - system.medium.oscillator(slave).frequency_offset_hz
        )
        # collect raw per-header measurements once, reuse for every alpha
        measurements = []
        for k in range(n_headers):
            t0 = round((1e-3 + k * 2e-3) * fs) / fs
            system.medium.clear()
            system.medium.transmit(system.lead_id, sync_header(), t0)
            rx = system.medium.receive(slave, t0, header_len)
            measurements.append(estimate_header_cfo(rx, fs))
        system.medium.clear()

        for i, alpha in enumerate(alphas):
            estimate = measurements[0]
            for m in measurements[1:]:
                estimate += alpha * (m - estimate)
            errors[i] += abs(estimate - true_cfo)

    return CfoAveragingResult(alphas=alphas, cfo_error_hz=errors / n_systems)


# ---------------------------------------------------------------------------
# Placement-screening ablation (Fig. 9's conditioning assumption)
# ---------------------------------------------------------------------------


@dataclass
class ScreeningAblationResult:
    """Fig. 9 gains with and without the placement-conditioning screen.

    Attributes:
        n_aps: The AP counts compared.
        screened / unscreened: Median high-SNR gains per count.
    """

    n_aps: Sequence[int]
    screened: Dict[int, float]
    unscreened: Dict[int, float]

    def format_table(self) -> str:
        lines = ["n_aps  screened(<=2dB)  unscreened"]
        for n in self.n_aps:
            lines.append(
                f"{n:5d}  {self.screened[n]:15.2f}x  {self.unscreened[n]:9.2f}x"
            )
        return "\n".join(lines)


def run_screening_ablation(
    seed: int = 14,
    n_aps: Sequence[int] = (4, 8),
    n_topologies: int = 8,
    workers: int = 1,
    backend: Optional[str] = None,
) -> ScreeningAblationResult:
    """Fig. 9's placement screen on vs. off.

    The paper's testbed placement implicitly screened for well-conditioned
    topologies (its own gain model implies K ~ 1.5-2 dB); without the
    screen, raw i.i.d. fading draws keep the *linear scaling* but with a
    lower slope — the shape survives, the absolute gain drops.
    """
    from repro.sim.experiments import run_fig9

    require(n_topologies >= 1, "n_topologies must be >= 1")
    screened_run = run_fig9(
        seed=seed, n_aps=tuple(n_aps), n_topologies=n_topologies,
        max_penalty_db=2.0, workers=workers, backend=backend,
    )
    unscreened_run = run_fig9(
        seed=seed, n_aps=tuple(n_aps), n_topologies=n_topologies,
        max_penalty_db=None, workers=workers, backend=backend,
    )
    return ScreeningAblationResult(
        n_aps=list(n_aps),
        screened={n: screened_run.median_gain("high", n) for n in n_aps},
        unscreened={n: unscreened_run.median_gain("high", n) for n in n_aps},
    )


# ---------------------------------------------------------------------------
# CSI-feedback precision ablation
# ---------------------------------------------------------------------------


@dataclass
class FeedbackAblationResult:
    """Beamforming SINR and feedback airtime per CSI quantization width.

    Attributes:
        bits: Per-component quantization widths probed.
        sinr_db: Mean post-ZF SINR per width, all on one topology set.
        airtime_s: Airtime of the four clients' reports per width.
    """

    bits: np.ndarray
    sinr_db: np.ndarray
    airtime_s: np.ndarray

    def sinr_at(self, bits: int) -> float:
        return float(self.sinr_db[list(self.bits).index(bits)])

    def format_table(self) -> str:
        lines = ["bits/component  mean SINR (dB)  feedback airtime (ms)"]
        for b, sinr, airtime in zip(self.bits, self.sinr_db, self.airtime_s):
            lines.append(f"{b:14d}  {sinr:14.1f}  {airtime * 1e3:21.2f}")
        return "\n".join(lines)


def run_feedback_sweep(
    seed: int = 13,
    n_topologies: int = 8,
    bits: Sequence[int] = (3, 4, 6, 8, 12),
) -> FeedbackAblationResult:
    """Quantize the clients' channel reports at each width (4x4, 20 dB).

    8-bit CSI (the 802.11n-class default) is indistinguishable from ideal
    feedback, while very coarse reports create self-interference faster
    than they save airtime.  The channels and their noisy estimates are
    drawn once and every width quantizes that same set, so the widths
    differ only in their quantization.
    """
    require(n_topologies >= 1, "n_topologies must be >= 1")
    rng = ensure_rng(seed)
    error_model = SyncErrorModel()
    topologies = []
    for _ in range(n_topologies):
        channels = build_channel_tensor(np.full((4, 4), 20.0), rng)
        topologies.append((channels, error_model.corrupt_estimate(channels, 20.0, rng)))
    bits = np.asarray(list(bits), dtype=int)
    sinr_db = [
        np.mean([
            np.mean(joint_zf_sinr_db(ch, est_channels=apply_feedback_quantization(est, b)))
            for ch, est in topologies
        ])
        for b in bits
    ]
    airtime_s = [4 * CsiFeedbackCodec(bits_per_component=int(b)).airtime_s(52, 4) for b in bits]
    return FeedbackAblationResult(
        bits=bits, sinr_db=np.asarray(sinr_db), airtime_s=np.asarray(airtime_s)
    )


# ---------------------------------------------------------------------------
# Joint-transmission grouping ablation
# ---------------------------------------------------------------------------


@dataclass
class GroupingAblationResult:
    """Group sum rates of FIFO vs. throughput-aware admission per trial.

    Attributes:
        fifo_bps: Sum rate when all five clients are admitted.
        smart_bps: Sum rate of the greedy sum-rate group.
    """

    fifo_bps: np.ndarray
    smart_bps: np.ndarray

    def format_table(self) -> str:
        return (
            "heuristic          mean sum rate (Mbps)\n"
            f"FIFO (all 5)       {np.mean(self.fifo_bps) / 1e6:20.1f}\n"
            f"throughput-aware   {np.mean(self.smart_bps) / 1e6:20.1f}"
        )


def run_grouping_comparison(seed: int = 12, n_trials: int = 15) -> GroupingAblationResult:
    """FIFO vs. greedy sum-rate admission on collinear-pair topologies.

    Each 5x5 topology (20 dB links) gets one near-collinear client pair —
    two laptops side by side — the case where admitting everyone collapses
    the ZF power scalar for all streams.
    """
    require(n_trials >= 1, "n_trials must be >= 1")
    rng = ensure_rng(seed)
    selector = EffectiveSnrRateSelector(SAMPLE_RATE_USRP, mac_efficiency=MAC_EFFICIENCY)
    fifo_rates, smart_rates = [], []
    for _ in range(n_trials):
        channels = build_channel_tensor(np.full((5, 5), 20.0), rng)
        # client 4 keeps a -20 dB share of its own independent draw, so the
        # pair is near-collinear, not exactly collinear
        channels[:, 4, :] = channels[:, 2, :] * (1.0 + 0.03j) + 0.1 * channels[:, 4, :]
        grouping = ThroughputAwareGrouping(channels, selector)
        queue = DownlinkQueue(rng.uniform(15, 25, (5, 5)))
        for c in range(5):
            queue.enqueue(c)
        smart = JointScheduler(queue, max_streams=5, grouping=grouping).next_group()
        smart_rates.append(grouping.group_sum_rate(smart.clients))
        fifo_rates.append(grouping.group_sum_rate([0, 1, 2, 3, 4]))
    return GroupingAblationResult(
        fifo_bps=np.asarray(fifo_rates), smart_bps=np.asarray(smart_rates)
    )
