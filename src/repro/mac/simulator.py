"""Event-driven downlink simulator: the full MegaMIMO link layer over time.

Ties together every §9 mechanism — the shared downlink queue, lead
election, joint-transmission grouping, effective-SNR rate selection,
asynchronous ARQ — with the physical time axis: Clarke-fading channels
that decorrelate between soundings, periodic re-sounding with its airtime
cost, per-packet slave phase errors, and contention overhead.

The simulator advances packet by packet (transmissions serialize on the
single channel), so it is a faithful airtime accounting rather than an
abstract rate calculation:

    trace = DownlinkSimulator(LinkLayerConfig(n_aps=4, n_clients=4)).run()
    print(trace.format_summary())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.channel.timevarying import JakesLinkGrid, TimeVaryingLinkChannel
from repro.constants import (
    COHERENCE_TIME_S,
    MAC_EFFICIENCY,
    PACKET_SIZE_BYTES,
    SAMPLE_RATE_USRP,
    SNR_BANDS_DB,
)
from repro.core.beamforming import zero_forcing_precoder_wideband
from repro.mac.backhaul import EthernetBackhaul
from repro.mac.queue import DownlinkQueue
from repro.mac.rate import EffectiveSnrRateSelector
from repro.mac.scheduler import JointScheduler
from repro.obs import metrics, trace
from repro.phy.mcs import Mcs
from repro.sim.fastsim import SyncErrorModel, taps_to_channel_tensor, zf_sinr_db
from repro.sim.overhead import packet_airtime_s, sounding_airtime_s
from repro.utils.rng import ensure_rng
from repro.utils.units import db_to_linear, linear_to_db
from repro.utils.validation import require


@dataclass
class LinkLayerConfig:
    """Configuration of a downlink simulation run.

    Attributes:
        n_aps / n_clients: System size (streams = n_aps).
        duration_s: Simulated wall-clock time.
        arrival_rate_pps: Poisson packet arrivals per client per second;
            None for fully backlogged queues.
        resound_interval_s: Periodic channel-measurement interval.
        coherence_time_s: Clarke 50%-coherence time of the fading.
        snr_band: Link SNR band (dB) the deployment operates in.
        packet_bytes: Payload size (paper: 1500 bytes).
        contention_overhead_s: Mean DIFS + backoff cost per transmission.
        rate_backoff_db: Link margin subtracted before MCS selection —
            guards against staleness between soundings.
        rate_adaptation: Adapt the margin from delivery feedback (widen on
            bursts of stream failures, narrow after clean streaks) — the
            loss-driven complement of §9's effective-SNR selection.
        grouping: Joint-transmission selection rule — ``"fifo"`` (the
            default greedy-FIFO rule) or ``"throughput"`` (greedy sum-rate
            maximization over the sounded channels, §9's future work).
        backhaul: Wired-backend model; arriving packets become
            transmittable only after the backend has distributed them to
            every AP (§9: "all downlink packets are sent on the Ethernet
            to all MegaMIMO APs").  None = ideal (zero-delay) wire.
        feedback_bits: CSI report precision per real component; the sounded
            snapshot the precoder uses passes through this quantizer.
        seed: RNG seed.
    """

    n_aps: int
    n_clients: int
    duration_s: float = 1.0
    arrival_rate_pps: Optional[float] = None
    resound_interval_s: float = 25e-3
    coherence_time_s: float = COHERENCE_TIME_S
    snr_band: Tuple[float, float] = SNR_BANDS_DB["high"]
    packet_bytes: int = PACKET_SIZE_BYTES
    contention_overhead_s: float = 100e-6
    rate_backoff_db: float = 1.0
    rate_adaptation: bool = True
    grouping: str = "fifo"
    feedback_bits: int = 8
    backhaul: Optional["BackhaulConfig"] = None
    seed: Optional[int] = None

    def __post_init__(self):
        require(self.n_aps >= 1 and self.n_clients >= 1, "need APs and clients")
        require(self.duration_s > 0, "duration must be positive")
        require(self.grouping in ("fifo", "throughput"), "unknown grouping rule")


@dataclass
class DeliveredPacket:
    """Bookkeeping for one successfully delivered packet."""

    client: int
    arrival_time: float
    delivery_time: float
    retries: int

    @property
    def latency_s(self) -> float:
        return self.delivery_time - self.arrival_time


@dataclass
class SimEvent:
    """One timestamped link-layer event.

    Attributes:
        time: Simulation time (seconds).
        kind: "sound", "burst", "deliver", "fail" or "idle".
        detail: Event-specific payload (client index, MCS name, ...).
    """

    time: float
    kind: str
    detail: str


@dataclass
class SimulationTrace:
    """Everything a run produced.

    Attributes:
        delivered: Per-delivery records.
        per_client_goodput_bps: Delivered payload bits per second per client.
        airtime: Seconds spent in {"data", "sounding", "contention", "idle"}.
        n_transmissions / n_failures / n_soundings: Counters.
        events: Timestamped event log (capped; see DownlinkSimulator).
    """

    config: LinkLayerConfig
    delivered: List[DeliveredPacket]
    per_client_goodput_bps: np.ndarray
    airtime: Dict[str, float]
    n_transmissions: int
    n_failures: int
    n_soundings: int
    events: List[SimEvent] = field(default_factory=list)

    @property
    def total_goodput_bps(self) -> float:
        return float(np.sum(self.per_client_goodput_bps))

    @property
    def mean_latency_s(self) -> float:
        if not self.delivered:
            return float("nan")
        return float(np.mean([d.latency_s for d in self.delivered]))

    @property
    def loss_rate(self) -> float:
        attempts = self.n_transmissions
        return self.n_failures / attempts if attempts else 0.0

    def headline(self) -> Dict[str, float]:
        """Ledger/regression headline metrics of this run."""
        out = {
            "sim.goodput_mbps": self.total_goodput_bps / 1e6,
            "sim.loss_rate": float(self.loss_rate),
            "sim.n_soundings": float(self.n_soundings),
            "sim.data_airtime_frac": float(
                self.airtime.get("data", 0.0) / max(self.config.duration_s, 1e-12)
            ),
        }
        if self.delivered:
            out["sim.mean_latency_ms"] = self.mean_latency_s * 1e3
        return out

    def format_summary(self) -> str:
        lines = [
            f"simulated {self.config.duration_s * 1e3:.0f} ms, "
            f"{self.config.n_aps} APs x {self.config.n_clients} clients",
            f"total goodput: {self.total_goodput_bps / 1e6:.1f} Mbps",
            "per-client (Mbps): "
            + " ".join(f"{g / 1e6:.1f}" for g in self.per_client_goodput_bps),
            f"deliveries: {len(self.delivered)}, stream failures: "
            f"{self.n_failures} ({self.loss_rate:.1%}), "
            f"soundings: {self.n_soundings}",
            f"mean latency: {self.mean_latency_s * 1e3:.2f} ms",
            "airtime: "
            + ", ".join(
                f"{k} {v * 1e3:.1f} ms" for k, v in sorted(self.airtime.items())
            ),
        ]
        return "\n".join(lines)


class DownlinkSimulator:
    """Runs the MegaMIMO link layer over evolving channels."""

    N_BINS = 16  # frequency resolution of the MAC-level channel model

    def __init__(self, config: LinkLayerConfig):
        self.config = config
        self._rng = ensure_rng(config.seed)
        self.selector = EffectiveSnrRateSelector(
            SAMPLE_RATE_USRP, mac_efficiency=MAC_EFFICIENCY
        )
        self.error_model = SyncErrorModel()
        # physical links: time-varying, LOS-dominated
        lo, hi = config.snr_band
        self._links = [
            [
                TimeVaryingLinkChannel.create(
                    average_gain=float(db_to_linear(self._rng.uniform(lo, hi))),
                    coherence_time_s=config.coherence_time_s,
                    n_taps=2,
                    rician_k=7.0,
                    rng=self._rng,
                )
                for _ in range(config.n_aps)
            ]
            for _ in range(config.n_clients)
        ]
        snr_map = np.array(
            [
                [linear_to_db(self._links[c][a].gain) for a in range(config.n_aps)]
                for c in range(config.n_clients)
            ]
        )
        self._grid = JakesLinkGrid(self._links)
        self._snapshot_t, self._snapshot = None, None  # last instant evaluated
        self.queue = DownlinkQueue(snr_map)
        self.scheduler = JointScheduler(self.queue, max_streams=config.n_aps)
        self._arrival_times: Dict[int, float] = {}
        self._sounded_channels: Optional[np.ndarray] = None
        self._precoders: Optional[np.ndarray] = None
        self._mcs: Optional[Mcs] = None
        self._effective_snr_db: float = -np.inf
        self._extra_backoff_db: float = 0.0
        self._streak: int = 0  # >0 success streak, <0 failure streak
        # telemetry handles (cached once per simulator)
        self._m_queue_depth = metrics.histogram("mac.queue_depth")
        self._m_retries = metrics.counter("mac.arq.retries")
        self._m_deliveries = metrics.counter("mac.deliveries")
        self._m_failures = metrics.counter("mac.stream_failures")
        self._m_soundings = metrics.counter("mac.soundings")
        self._m_sinr = metrics.histogram("mac.effective_sinr_db")
        self._m_airtime = {
            kind: metrics.counter(f"mac.airtime.{kind}_s")
            for kind in ("data", "sounding", "contention", "idle")
        }
        # per-AP airtime share: every AP radiates in a joint burst and in
        # every sounding round, so each gets the full slot attributed
        self._m_ap_airtime = [
            metrics.counter(f"mac.airtime.ap{i}_s") for i in range(config.n_aps)
        ]

    # -- channel bookkeeping -------------------------------------------------

    def _channel_tensor(self, t: float) -> np.ndarray:
        """(N_BINS, n_clients, n_aps) channel snapshot at time ``t``; the
        streams of a burst share one instant, hence one snapshot."""
        if t != self._snapshot_t:
            taps = taps_to_channel_tensor(self._grid.taps_at(t), self.N_BINS)
            self._snapshot, self._snapshot_t = np.ascontiguousarray(taps), t
        return self._snapshot

    def _sound(self, t: float) -> None:
        """Run a channel-measurement phase: store estimates, pick the MCS."""
        cfg = self.config
        from repro.core.feedback import apply_feedback_quantization

        true = self._channel_tensor(t)
        link_snrs = linear_to_db(
            np.maximum(np.mean(np.abs(true) ** 2, axis=0), 1e-12)
        )
        estimated = self.error_model.corrupt_estimate(true, link_snrs, self._rng)
        self._sounded_channels = apply_feedback_quantization(
            estimated, cfg.feedback_bits
        )
        if cfg.grouping == "throughput":
            from repro.mac.grouping import ThroughputAwareGrouping

            self.scheduler.grouping = ThroughputAwareGrouping(
                self._sounded_channels, self.selector
            )
        self._precoders, k = zero_forcing_precoder_wideband(self._sounded_channels)
        self._effective_snr_db = float(linear_to_db(k**2)) - cfg.rate_backoff_db
        self._select_mcs()

    def _select_mcs(self) -> None:
        decision = self.selector.select(
            self._effective_snr_db - self._extra_backoff_db
        )
        self._mcs = decision.mcs

    def _record_outcome(self, success: bool) -> None:
        """Loss-driven margin adaptation (AMRR-style)."""
        if not self.config.rate_adaptation:
            return
        self._streak = self._streak + 1 if success else min(self._streak, 0) - 1
        if self._streak <= -3 and self._extra_backoff_db < 6.0:
            self._extra_backoff_db += 1.5
            self._streak = 0
            self._select_mcs()
        elif self._streak >= 30 and self._extra_backoff_db > 0.0:
            self._extra_backoff_db = max(0.0, self._extra_backoff_db - 1.5)
            self._streak = 0
            self._select_mcs()

    def _stream_success(self, t: float, client: int) -> bool:
        """Whether ``client``'s stream decodes, given staleness + sync error.

        Each call models one packet's distributed phase synchronization, so
        it emits one ``phase_sync`` span carrying the drawn slave phase
        errors and the resulting effective SINR.
        """
        if self._mcs is None:
            return False
        with trace.span("phase_sync", client=client, t=t) as span:
            true = self._channel_tensor(t)
            errors = self.error_model.phase_errors(self.config.n_aps, self._rng)
            sinr = zf_sinr_db(true, self._precoders, 1.0, errors)
            eff = float(np.mean(sinr[client]))
            success = eff >= self._mcs.min_snr_db
            self._m_sinr.observe(eff)
            span.record(
                max_phase_error_rad=float(np.max(np.abs(errors))),
                phase_errors_rad=errors,
                effective_sinr_db=eff,
                mcs=self._mcs.name,
                success=success,
            )
        return success

    # -- traffic ---------------------------------------------------------------

    def _generate_arrivals(self) -> List[Tuple[float, int, float]]:
        """(ready_time, client, born_time) triples, sorted by readiness.

        ``born_time`` is when the packet entered the distribution system
        (latency is measured from it); ``ready_time`` is when the backend
        has replicated it to every AP and it becomes transmittable.
        """
        cfg = self.config
        arrivals: List[Tuple[float, int, float]] = []
        if cfg.arrival_rate_pps is None:
            # backlogged: a deep initial backlog per client
            backlog = int(np.ceil(cfg.duration_s * 3000))
            for c in range(cfg.n_clients):
                arrivals.extend((0.0, c, 0.0) for _ in range(backlog))
        else:
            for c in range(cfg.n_clients):
                t = 0.0
                while True:
                    t += float(self._rng.exponential(1.0 / cfg.arrival_rate_pps))
                    if t >= cfg.duration_s:
                        break
                    arrivals.append((t, c, t))
        arrivals.sort()
        if cfg.backhaul is not None:
            wire = EthernetBackhaul(
                [f"ap{i}" for i in range(cfg.n_aps)], cfg.backhaul
            )
            delayed = []
            for t, c, born in arrivals:
                ready = wire.broadcast(t, None, cfg.packet_bytes)
                delayed.append((ready, c, born))
            delayed.sort()
            return delayed
        return arrivals

    # -- main loop ---------------------------------------------------------------

    def run(self) -> SimulationTrace:
        cfg = self.config
        with trace.span(
            "mac.run", n_aps=cfg.n_aps, n_clients=cfg.n_clients,
            duration_s=cfg.duration_s,
        ) as span:
            result = self._run()
            span.record(
                goodput_bps=result.total_goodput_bps,
                deliveries=len(result.delivered),
                failures=result.n_failures,
                soundings=result.n_soundings,
            )
        metrics.gauge("mac.queue_depth_final").set(len(self.queue))
        return result

    def _run(self) -> SimulationTrace:
        cfg = self.config
        arrivals = self._generate_arrivals()
        next_arrival = 0
        airtime = {"data": 0.0, "sounding": 0.0, "contention": 0.0, "idle": 0.0}
        events: List[SimEvent] = []
        max_events = 10_000

        def log(t, kind, detail=""):
            if len(events) < max_events:
                events.append(SimEvent(time=t, kind=kind, detail=detail))

        delivered: List[DeliveredPacket] = []
        delivered_bits = np.zeros(cfg.n_clients)
        n_tx = n_fail = n_soundings = 0
        now = 0.0
        next_sound = 0.0

        def admit_arrivals(up_to: float):
            nonlocal next_arrival
            while next_arrival < len(arrivals) and arrivals[next_arrival][0] <= up_to:
                _, client, born = arrivals[next_arrival]
                packet = self.queue.enqueue(client, size_bytes=cfg.packet_bytes)
                self._arrival_times[packet.seqno] = born
                next_arrival += 1

        while now < cfg.duration_s:
            # periodic re-sounding
            if now >= next_sound:
                cost = sounding_airtime_s(cfg.n_aps, cfg.n_clients)
                with trace.span("mac.sound", t=now, airtime_s=cost) as span:
                    self._sound(now)
                    span.record(
                        mcs=self._mcs.name if self._mcs else None,
                        effective_snr_db=self._effective_snr_db,
                    )
                log(now, "sound",
                    self._mcs.name if self._mcs else "below-MCS-floor")
                airtime["sounding"] += cost
                self._m_airtime["sounding"].inc(cost)
                for counter in self._m_ap_airtime:
                    counter.inc(cost)
                now += cost
                next_sound = now + cfg.resound_interval_s
                n_soundings += 1
                self._m_soundings.inc()
                continue

            admit_arrivals(now)
            self._m_queue_depth.observe(len(self.queue))
            group = self.scheduler.next_group()
            if group is None:
                # idle until the next arrival or sounding
                horizon = min(
                    next_sound,
                    arrivals[next_arrival][0]
                    if next_arrival < len(arrivals)
                    else cfg.duration_s,
                    cfg.duration_s,
                )
                idle = max(horizon - now, 1e-9)
                airtime["idle"] += idle
                self._m_airtime["idle"].inc(idle)
                now = max(horizon, now + 1e-9)
                continue

            if self._mcs is None:
                # channel can't sustain even the lowest rate: drop the burst
                for packet in group.packets:
                    self.queue.requeue(packet)
                    self._m_retries.inc()
                airtime["idle"] += 1e-3
                self._m_airtime["idle"].inc(1e-3)
                now += 1e-3
                continue

            bitrate = self._mcs.bitrate(SAMPLE_RATE_USRP)
            tx_time = packet_airtime_s(bitrate, cfg.packet_bytes)
            log(now, "burst",
                f"{group.n_streams} streams @ {self._mcs.name}")
            airtime["contention"] += cfg.contention_overhead_s
            airtime["data"] += tx_time
            self._m_airtime["contention"].inc(cfg.contention_overhead_s)
            self._m_airtime["data"].inc(tx_time)
            for counter in self._m_ap_airtime:
                counter.inc(tx_time)
            now += cfg.contention_overhead_s + tx_time

            with trace.span(
                "mac.burst", t=now, n_streams=group.n_streams,
                mcs=self._mcs.name, airtime_s=tx_time,
            ) as burst_span:
                n_delivered = 0
                for packet in group.packets:
                    n_tx += 1
                    success = self._stream_success(now, packet.client)
                    self._record_outcome(success)
                    log(now, "deliver" if success else "fail",
                        f"client{packet.client}")
                    if success:
                        n_delivered += 1
                        self._m_deliveries.inc()
                        delivered_bits[packet.client] += cfg.packet_bytes * 8
                        delivered.append(
                            DeliveredPacket(
                                client=packet.client,
                                arrival_time=self._arrival_times.get(packet.seqno, 0.0),
                                delivery_time=now,
                                retries=packet.retries,
                            )
                        )
                    else:
                        n_fail += 1
                        self._m_failures.inc()
                        self._m_retries.inc()
                        self.queue.requeue(packet)  # §9: unACKed -> future burst
                burst_span.record(delivered=n_delivered,
                                  failed=len(group.packets) - n_delivered)

        return SimulationTrace(
            config=cfg,
            delivered=delivered,
            per_client_goodput_bps=delivered_bits / cfg.duration_s,
            airtime=airtime,
            n_transmissions=n_tx,
            n_failures=n_fail,
            n_soundings=n_soundings,
            events=events,
        )
