"""End-to-end MegaMIMO system: sounding + joint transmission, sample level.

``MegaMimoSystem`` wires APs, clients, oscillators and links onto a shared
:class:`~repro.channel.medium.Medium` and runs the paper's protocol exactly
as §5 describes it:

1. **Sounding** (`run_sounding`): the lead emits the sync header, every AP
   transmits CFO blocks and interleaved channel-measurement symbols, clients
   estimate per-AP channels rotated to the common reference time and feed
   them back (modelled as an ideal control channel, like the paper's wired
   backend + wireless feedback), and each slave captures its reference
   channel h_lead(0).
2. **Joint transmission** (`joint_transmit`): the lead emits a sync header;
   slaves re-measure their phase offset and correct their precoded samples;
   all APs transmit the zero-forcing-beamformed frame simultaneously; each
   client CFO-locks to the lead, estimates its effective channel from the
   beamformed LTS and decodes its own stream.

Alternative slave synchronization strategies are selectable for ablations:
``"megamimo"`` (the paper's design), ``"megamimo-no-tracking"`` (no
within-packet CFO ramp), ``"naive"`` (pure CFO extrapolation from sounding
time — the §5.2b strawman), ``"none"`` and ``"oracle"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.medium import Medium
from repro.channel.models import ChannelModel, FlatRayleighChannel
from repro.channel.oscillator import Oscillator, OscillatorConfig
from repro.constants import CP_LENGTH, FFT_SIZE, SAMPLE_RATE_USRP, SYMBOL_LENGTH
from repro.core.beamforming import diversity_precoder, zero_forcing_precoder
from repro.core.phasesync import PhaseSynchronizer, SyncObservation
from repro.core.sounding import (
    REFERENCE_OFFSET,
    SoundingPlan,
    SoundingResult,
    estimate_at_client,
    estimate_single_ap,
    interleaved_sounding_frame,
)
from repro.obs import metrics, trace
from repro.phy.cfo import apply_cfo, combine_cfo, estimate_cfo_coarse, estimate_cfo_fine
from repro.phy.channel_est import average_channel_estimates, estimate_channel_lts
from repro.phy.frame import DecodedFrame, FrameConfig, PhyFrameDecoder, PhyFrameEncoder
from repro.phy.mcs import Mcs
from repro.phy.ofdm import OfdmDemodulator, OfdmModulator
from repro.phy.preamble import lts_grid, lts_symbol_offsets, sync_header, sync_header_length
from repro.radio.frontend import RadioFrontend
from repro.radio.timing import TimingConfig, TriggerTimer
from repro.utils.rng import ensure_rng
from repro.utils.units import db_to_linear, linear_to_db, wrap_phase
from repro.utils.validation import require

#: Average |sample|^2 of an OFDM symbol with unit-power constellation points
#: (52 occupied of 64 bins).  Used to calibrate link gains to target SNRs.
OFDM_SIGNAL_POWER = 52.0 / 64.0

_SYNC_STRATEGIES = ("megamimo", "megamimo-no-tracking", "naive", "none", "oracle")


@dataclass
class SystemConfig:
    """Configuration of a sample-level MegaMIMO deployment.

    Attributes:
        n_aps: Number of AP devices (AP 0 is the lead).
        n_clients: Number of single-antenna clients.
        antennas_per_ap: Antennas per AP device.  Antennas of one device
            share its oscillator ("connected via an external clock", §10b),
            so an N-device, M-antenna system delivers N*M streams while
            only N-1 phase synchronizations are needed.
        antennas_per_client: Antennas per client device.  Under full
            zero-forcing each client antenna is an independent stream
            endpoint (its card decodes each antenna's stream separately),
            which is how two 2-antenna APs serve two 2-antenna 802.11n
            clients with 4 streams (§10b, Fig. 12).
        sample_rate: Channel sample rate (10 MHz USRP testbed default).
        noise_power: Receiver noise power per complex sample.
        ap_ap_snr_db: SNR of the lead->slave links (APs are infrastructure
            mounted with line of sight to each other, so this is high).
        sounding_rounds: Interleaved repetitions in the sounding frame.
        max_ppm: Oscillator tolerance; offsets are drawn uniformly within
            +-max_ppm (2 ppm ~ USRP-class crystals; 20 ppm = 802.11 limit).
        phase_noise_rad2_per_s: Oscillator Wiener phase-noise intensity.
        sync_strategy: Slave phase-correction strategy (see module docs).
        model_sfo: Apply DAC sampling-clock skew on transmit.
        use_detection: Locate packets via STS/LTS detection instead of
            genie timing (realistic receive path; slightly slower).
        mixed_mode: §6.1 timing — slaves join immediately after the lead's
            legacy preamble (hardware-speed turnaround) instead of waiting
            the USRP implementation's 150 us software turnaround.  Shorter
            header-to-data gaps also shrink the CFO-extrapolation window.
        timing: Trigger-timing parameters (turnaround + jitter).
        seed: Master seed for all randomness.
    """

    n_aps: int
    n_clients: int
    antennas_per_ap: int = 1
    antennas_per_client: int = 1
    sample_rate: float = SAMPLE_RATE_USRP
    noise_power: float = 1.0
    ap_ap_snr_db: float = 30.0
    sounding_rounds: int = 4
    max_ppm: float = 2.0
    phase_noise_rad2_per_s: float = 0.25
    sync_strategy: str = "megamimo"
    model_sfo: bool = True
    use_detection: bool = False
    mixed_mode: bool = False
    timing: Optional[TimingConfig] = None
    seed: Optional[int] = None

    def __post_init__(self):
        require(self.n_aps >= 1, "need at least one AP")
        require(self.n_clients >= 1, "need at least one client")
        require(self.antennas_per_ap >= 1, "need at least one antenna per AP")
        require(
            self.antennas_per_client >= 1, "need at least one antenna per client"
        )
        require(
            self.sync_strategy in _SYNC_STRATEGIES,
            f"sync_strategy must be one of {_SYNC_STRATEGIES}",
        )


@dataclass
class ClientReception:
    """One client's view of a joint transmission.

    Attributes:
        decoded: PHY decode result (None payload if CRC failed).
        effective_snr_db: Post-equalization SNR estimated from pilots.
        evm_db: Error-vector magnitude of the equalized data symbols.
    """

    decoded: Optional[DecodedFrame]
    effective_snr_db: float
    evm_db: float


@dataclass
class JointTransmissionReport:
    """Outcome of one joint beamformed frame.

    Attributes:
        receptions: Per-client reception results (client order).
        misalignment_rad: Genie-measured slave phase error at the joint
            transmission start (slave id -> radians); empty for the lead.
        joint_start_time: Absolute start time of the beamformed part.
        precoder_gain: The per-bin diagonal gains k (mean across bins).
    """

    receptions: List[ClientReception]
    misalignment_rad: Dict[str, float]
    joint_start_time: float
    precoder_gain: float


class MegaMimoSystem:
    """A sample-level distributed-MIMO deployment on a simulated medium."""

    def __init__(self, config: SystemConfig, medium: Medium,
                 frontends: Dict[str, RadioFrontend], rng=None):
        self.config = config
        self.medium = medium
        self.frontends = frontends
        self._rng = ensure_rng(rng)
        self.ap_ids = [f"ap{i}" for i in range(config.n_aps)]
        self.client_ids = [f"client{i}" for i in range(config.n_clients)]
        self.lead_id = self.ap_ids[0]
        # antenna node ids; with one antenna per AP they equal the device ids
        if config.antennas_per_ap == 1:
            self.antenna_ids = list(self.ap_ids)
            self.antenna_device = list(range(config.n_aps))
        else:
            self.antenna_ids = [
                f"ap{i}.{j}"
                for i in range(config.n_aps)
                for j in range(config.antennas_per_ap)
            ]
            self.antenna_device = [
                i
                for i in range(config.n_aps)
                for _ in range(config.antennas_per_ap)
            ]
        self.lead_antenna = self.antenna_ids[0]
        #: the antenna node each slave device listens to the lead with
        self.listen_antenna = {
            self.ap_ids[d]: self.antenna_ids[d * config.antennas_per_ap]
            for d in range(config.n_aps)
        }
        # client antennas: each is an independent stream endpoint
        if config.antennas_per_client == 1:
            self.client_antenna_ids = list(self.client_ids)
            self.client_antenna_device = list(range(config.n_clients))
        else:
            self.client_antenna_ids = [
                f"client{i}.{j}"
                for i in range(config.n_clients)
                for j in range(config.antennas_per_client)
            ]
            self.client_antenna_device = [
                i
                for i in range(config.n_clients)
                for _ in range(config.antennas_per_client)
            ]
        self.timer = TriggerTimer(config.timing, rng=self._rng)
        self.synchronizers: Dict[str, PhaseSynchronizer] = {
            ap: PhaseSynchronizer(config.sample_rate) for ap in self.ap_ids[1:]
        }
        self._modulator = OfdmModulator()
        self._demodulator = OfdmDemodulator()
        self._frame_config = FrameConfig(sample_rate=config.sample_rate)
        self._encoder = PhyFrameEncoder(self._frame_config)
        self._decoder = PhyFrameDecoder(self._frame_config)
        self.sounding_result: Optional[SoundingResult] = None
        self._channel_tensor: Optional[np.ndarray] = None  # (64, n_client_antennas, n_tx_antennas)
        self._client_noise: Optional[np.ndarray] = None
        self.reference_time: Optional[float] = None
        self._sounding_cfos: Dict[str, float] = {}
        #: genie-fallback count when packet detection misses a header
        self.detection_failures = 0
        # telemetry handles (cached once per system)
        self._obs_snr = metrics.histogram("system.effective_snr_db")
        self._obs_evm = metrics.histogram("system.evm_db")
        self._obs_misalign = metrics.histogram("system.misalignment_rad")
        self._obs_decode_ok = metrics.counter("system.decode_ok")
        self._obs_decode_fail = metrics.counter("system.decode_fail")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        config: SystemConfig,
        client_snr_db,
        channel_model: ChannelModel = None,
        ap_channel_model: ChannelModel = None,
    ) -> "MegaMimoSystem":
        """Build a system with links calibrated to target direct-link SNRs.

        Args:
            config: Deployment configuration.
            client_snr_db: Target average SNR from each AP to each client —
                a scalar, a per-client vector, or an (n_clients, n_aps)
                matrix in dB.
            channel_model: Small-scale fading model for AP-client links
                (flat Rayleigh default).
            ap_channel_model: Fading model for the lead->slave links.  APs
                are ceiling-mounted infrastructure with line of sight to
                each other, so the default is strongly Rician (K = 10).
        """
        from repro.channel.models import RicianChannel

        rng = ensure_rng(config.seed)
        medium = Medium(config.sample_rate, noise_power=config.noise_power, rng=rng)
        model = channel_model or FlatRayleighChannel()
        ap_model = ap_channel_model or RicianChannel(k_factor=10.0)

        snr = np.asarray(client_snr_db, dtype=float)
        if snr.ndim == 0:
            snr = np.full((config.n_clients, config.n_aps), float(snr))
        elif snr.ndim == 1:
            require(snr.size == config.n_clients, "need one SNR per client")
            snr = np.tile(snr[:, None], (1, config.n_aps))
        require(
            snr.shape == (config.n_clients, config.n_aps),
            "client_snr_db must be scalar, (n_clients,) or (n_clients, n_aps)",
        )

        m = config.antennas_per_ap
        if m == 1:
            antenna_ids = [f"ap{i}" for i in range(config.n_aps)]
        else:
            antenna_ids = [
                f"ap{i}.{j}" for i in range(config.n_aps) for j in range(m)
            ]
        mc = config.antennas_per_client
        if mc == 1:
            client_antenna_ids = [f"client{i}" for i in range(config.n_clients)]
        else:
            client_antenna_ids = [
                f"client{i}.{j}" for i in range(config.n_clients) for j in range(mc)
            ]
        frontends: Dict[str, RadioFrontend] = {}

        def fresh_oscillator():
            return Oscillator(
                OscillatorConfig(
                    ppm_offset=float(rng.uniform(-config.max_ppm, config.max_ppm)),
                    phase_noise_rad2_per_s=config.phase_noise_rad2_per_s,
                    initial_phase=float(rng.uniform(-np.pi, np.pi)),
                ),
                rng=rng,
            )

        # one oscillator per AP *device*, shared by all its antennas
        for d in range(config.n_aps):
            osc = fresh_oscillator()
            for node in antenna_ids[d * m : (d + 1) * m]:
                medium.register_node(node, osc)
                frontends[node] = RadioFrontend(
                    node_id=node, oscillator=osc, model_sfo=config.model_sfo
                )
        for d in range(config.n_clients):
            osc = fresh_oscillator()
            for node in client_antenna_ids[d * mc : (d + 1) * mc]:
                medium.register_node(node, osc)
                frontends[node] = RadioFrontend(
                    node_id=node, oscillator=osc, model_sfo=config.model_sfo
                )

        # antenna -> client-antenna links at the target SNRs (per-device
        # target, independent fading per antenna pair)
        for ci, client_antenna in enumerate(client_antenna_ids):
            client_device = ci // mc
            for ai, antenna in enumerate(antenna_ids):
                device = ai // m
                gain = (
                    db_to_linear(snr[client_device, device])
                    * config.noise_power
                    / OFDM_SIGNAL_POWER
                )
                link = model.realize(float(gain), rng=rng)
                medium.set_link(antenna, client_antenna, link)
                # channel reciprocity: the uplink (CSI feedback) sees the
                # same propagation
                medium.set_link(client_antenna, antenna, link)

        # lead antenna -> each slave device's listening antenna
        lead_gain = db_to_linear(config.ap_ap_snr_db) * config.noise_power / OFDM_SIGNAL_POWER
        for d in range(1, config.n_aps):
            medium.set_link(
                antenna_ids[0],
                antenna_ids[d * m],
                ap_model.realize(float(lead_gain), rng=rng),
            )

        return cls(config, medium, frontends, rng=rng)

    # ------------------------------------------------------------------
    # sounding phase (§5.1)
    # ------------------------------------------------------------------

    def run_sounding(self, start_time: float = 0.0) -> SoundingResult:
        """Run the channel-measurement phase; stores the channel snapshot."""
        with trace.span("sounding", t=start_time):
            result = self._run_sounding(start_time)
        metrics.counter("system.soundings").inc()
        return result

    def _run_sounding(self, start_time: float) -> SoundingResult:
        cfg = self.config
        plan = SoundingPlan(
            n_aps=len(self.antenna_ids),
            n_rounds=cfg.sounding_rounds,
            sample_rate=cfg.sample_rate,
        )
        self.medium.clear()
        for i, antenna in enumerate(self.antenna_ids):
            frame = interleaved_sounding_frame(plan, i)
            frame = self.frontends[antenna].prepare_transmit(frame, enforce_power=False)
            self.medium.transmit(antenna, frame, start_time)

        reference_time = start_time + REFERENCE_OFFSET / cfg.sample_rate

        # slaves capture the reference channel from the lead header, and a
        # precise lead CFO from the lead's interleaved slots (the 80-sample
        # turn-taking gives them a long estimation baseline for free)
        for ap in self.ap_ids[1:]:
            listen = self.listen_antenna[ap]
            frame_rx = self.medium.receive(listen, start_time, plan.frame_length)
            self.synchronizers[ap].set_reference(frame_rx, reference_time)
            _, lead_cfo, _ = estimate_single_ap(frame_rx, plan, ap=0)
            self.synchronizers[ap].cfo_tracker.update(lead_cfo, weight=1.0)
            self._sounding_cfos[ap] = self.synchronizers[ap].cfo_tracker.estimate_hz

        # each client antenna estimates all channels and "feeds them back"
        estimates = []
        for client_antenna in self.client_antenna_ids:
            rx = self.medium.receive(client_antenna, start_time, plan.frame_length)
            estimates.append(estimate_at_client(rx, plan))

        self.medium.clear()
        self.sounding_result = SoundingResult(
            client_estimates=estimates, reference_time=reference_time
        )
        self._channel_tensor = self.sounding_result.channel_tensor()
        self._client_noise = np.array([e.noise_power for e in estimates])
        self.reference_time = reference_time
        return self.sounding_result

    # ------------------------------------------------------------------
    # joint transmission (§5.2)
    # ------------------------------------------------------------------

    def _occupied_bins(self) -> np.ndarray:
        return np.nonzero(np.abs(lts_grid()) > 0)[0]

    def _precoders_per_bin(
        self, streams: Sequence[int], antennas: Optional[Sequence[int]] = None
    ):
        """ZF precoders for the chosen client streams on every occupied bin.

        Args:
            streams: Client-antenna row indices to serve.
            antennas: Transmit-antenna column indices to use (default: all).
                Unused antennas get zero rows, so e.g. a single AP can serve
                its own clients as an ordinary (non-distributed) MIMO node.

        Returns:
            (bins, precoders, gains): precoders[b] is (n_antennas_total,
            n_streams) with zeros on unused antennas.
        """
        require(self._channel_tensor is not None, "run_sounding first")
        n_total = len(self.antenna_ids)
        if antennas is None:
            antennas = list(range(n_total))
        antennas = list(antennas)
        bins = self._occupied_bins()
        precoders = {}
        gains = np.empty(bins.size)
        for idx, b in enumerate(bins):
            h = self._channel_tensor[b][np.ix_(list(streams), antennas)]
            w, k = zero_forcing_precoder(h)
            full = np.zeros((n_total, len(streams)), dtype=complex)
            full[antennas, :] = w
            precoders[b] = full
            gains[idx] = k
        return bins, precoders, gains

    def _build_joint_samples(
        self,
        stream_grids: np.ndarray,
        bins: np.ndarray,
        precoders: Dict[int, np.ndarray],
    ) -> np.ndarray:
        """Precode per-stream symbol grids into per-AP time samples.

        Args:
            stream_grids: (n_streams, n_symbols, 64) frequency grids.
            bins: Occupied bin indices.
            precoders: bin -> (n_aps, n_streams) matrix.

        Returns:
            (n_aps, n_symbols * 80) time samples.
        """
        n_streams, n_symbols, _ = stream_grids.shape
        n_aps = len(self.antenna_ids)
        ap_grids = np.zeros((n_aps, n_symbols, FFT_SIZE), dtype=complex)
        for b in bins:
            w = precoders[b]  # (n_antennas, n_streams)
            # (n_antennas, n_symbols) = (n_antennas, n_streams) @ (n_streams, n_symbols)
            ap_grids[:, :, b] = w @ stream_grids[:, :, b]
        return self._modulator.modulate_grid(ap_grids).reshape(n_aps, -1)

    def _stream_grids(self, payloads: Sequence[bytes], mcs: Mcs) -> np.ndarray:
        """Per-stream grids: 2 beamformed LTS symbols + SIGNAL + data."""
        fd_symbols = [self._encoder.encode(payload, mcs) for payload in payloads]
        n_symbols = fd_symbols[0].shape[0]  # 1 + n_data
        require(
            all(symbols.shape[0] == n_symbols for symbols in fd_symbols),
            "all joint payloads must occupy the same number of symbols "
            "(MegaMIMO gives every client the same rate, §9)",
        )
        data = self._modulator.symbol_grid(np.stack(fd_symbols), np.arange(n_symbols))
        training = np.broadcast_to(lts_grid(), (len(payloads), 2, FFT_SIZE))
        return np.concatenate([training, data], axis=1)  # (n_streams, 2 + 1 + n_data, 64)

    def _slave_correction(
        self,
        slave: str,
        times: np.ndarray,
        observation: Optional[SyncObservation],
    ) -> np.ndarray:
        """Phase-correction phasor per transmit sample for one slave AP."""
        strategy = self.config.sync_strategy
        if strategy == "none":
            return np.ones(times.size, dtype=complex)
        if strategy == "oracle":
            lead_osc = self.medium.oscillator(self.lead_antenna)
            slave_osc = self.medium.oscillator(self.listen_antenna[slave])
            t_ref = self.reference_time
            now = lead_osc.phase_at(times) - slave_osc.phase_at(times)
            ref = lead_osc.phase_at([t_ref])[0] - slave_osc.phase_at([t_ref])[0]
            return np.exp(1j * (now - ref))
        if strategy == "naive":
            cfo = self._sounding_cfos[slave]
            return np.exp(2j * np.pi * cfo * (times - self.reference_time))
        sync = self.synchronizers[slave]
        require(observation is not None, "missing sync observation")
        if strategy == "megamimo-no-tracking":
            return sync.correction_without_inpacket_tracking(times, observation)
        return sync.correction(times, observation)

    def _genie_misalignment(self, slave: str, applied: complex, at_time: float) -> float:
        """True phase error of a slave's applied correction (diagnostic)."""
        lead_osc = self.medium.oscillator(self.lead_antenna)
        slave_osc = self.medium.oscillator(self.listen_antenna[slave])
        t_ref = self.reference_time
        ideal = (
            lead_osc.phase_at([at_time])[0]
            - slave_osc.phase_at([at_time])[0]
            - lead_osc.phase_at([t_ref])[0]
            + slave_osc.phase_at([t_ref])[0]
        )
        return abs(wrap_phase(float(np.angle(applied)) - ideal))

    def joint_transmit(
        self,
        payloads: Sequence[bytes],
        mcs: Mcs,
        start_time: float,
        streams: Sequence[int] = None,
        antennas: Sequence[int] = None,
    ) -> JointTransmissionReport:
        """Send one beamformed frame carrying ``payloads`` to the clients.

        Args:
            payloads: One payload per stream (same length -> same rate).
            mcs: Modulation and coding scheme (shared by all streams, §9).
            start_time: Absolute time of the lead sync header.
            streams: Client-antenna row indices served (defaults to the
                first len(payloads) rows); ``payloads[i]`` goes to
                ``streams[i]``.  With single-antenna clients rows coincide
                with client indices.
            antennas: Transmit-antenna column indices to use (default all).
                Restricting to one device's antennas yields an ordinary
                single-AP MIMO transmission — the 802.11n baseline of §11.5.

        Returns:
            A :class:`JointTransmissionReport`.
        """
        with trace.span(
            "joint_tx", n_streams=len(payloads), mcs=mcs.name, t=start_time
        ) as span:
            report = self._joint_transmit(payloads, mcs, start_time, streams, antennas)
            self._record_joint_report(report, span)
        return report

    def _joint_transmit(
        self,
        payloads: Sequence[bytes],
        mcs: Mcs,
        start_time: float,
        streams: Sequence[int] = None,
        antennas: Sequence[int] = None,
    ) -> JointTransmissionReport:
        cfg = self.config
        if streams is None:
            streams = list(range(len(payloads)))
        require(len(streams) == len(payloads), "one payload per stream")
        require(self._channel_tensor is not None, "run_sounding first")

        self.medium.clear()
        fs = cfg.sample_rate

        # 1. lead sync header (from the lead device's reference antenna)
        header = sync_header()
        header_tx = self.frontends[self.lead_antenna].prepare_transmit(
            header, enforce_power=False
        )
        self.medium.transmit(self.lead_antenna, header_tx, start_time)
        header_len = sync_header_length()
        header_time = start_time + REFERENCE_OFFSET / fs

        # 2. slaves observe the header
        observations: Dict[str, SyncObservation] = {}
        if cfg.sync_strategy in ("megamimo", "megamimo-no-tracking"):
            for ap in self.ap_ids[1:]:
                rx = self._capture_header(self.listen_antenna[ap], start_time)
                observations[ap] = self.synchronizers[ap].observe_header(rx, header_time)

        # 3. precode
        with trace.span("precoding"):
            bins, precoders, gains = self._precoders_per_bin(streams, antennas)
        with trace.span("ofdm_mod"):
            stream_grids = self._stream_grids(payloads, mcs)
            ap_samples = self._build_joint_samples(stream_grids, bins, precoders)
        active = (
            set(range(len(self.antenna_ids))) if antennas is None else set(antennas)
        )

        # 4. transmit jointly after the legacy preamble; with mixed-mode
        # (§6.1) hardware timing the slaves "join the lead AP's transmission
        # after the legacy symbols" with no software turnaround
        trigger_time = start_time + header_len / fs
        if cfg.mixed_mode:
            joint_start = trigger_time
        else:
            joint_start = self.timer.joint_start_time(trigger_time)
        # snap the nominal start to the sample grid; per-AP jitter stays
        joint_start = round(joint_start * fs) / fs
        misalignment: Dict[str, float] = {}
        # one trigger-timing jitter draw per *device* (shared clock)
        device_starts = [joint_start] + [
            joint_start + float(self._rng.normal(0.0, self.timer.config.jitter_std_s))
            for _ in self.ap_ids[1:]
        ]
        with trace.span("tx_frontend"):
            for i, antenna in enumerate(self.antenna_ids):
                if i not in active:
                    continue
                device = self.antenna_device[i]
                ap = self.ap_ids[device]
                tx = ap_samples[i]
                node_start = device_starts[device]
                if device != 0:
                    times = node_start + np.arange(tx.size) / fs
                    correction = self._slave_correction(ap, times, observations.get(ap))
                    tx = tx * correction
                    if ap not in misalignment:
                        misalignment[ap] = self._genie_misalignment(
                            ap, correction[0], node_start
                        )
                tx = self.frontends[antenna].prepare_transmit(tx, enforce_power=False)
                self.medium.transmit(antenna, tx, node_start)

        # 5. client antennas receive their streams, then decode them together
        clients = [self.client_antenna_ids[row_idx] for row_idx in streams]
        receptions = self._receive_and_decode(
            clients, start_time, joint_start, stream_grids.shape[1]
        )

        self.medium.clear()
        return JointTransmissionReport(
            receptions=receptions,
            misalignment_rad=misalignment,
            joint_start_time=joint_start,
            precoder_gain=float(np.mean(gains)),
        )

    def _record_joint_report(self, report: JointTransmissionReport, span) -> None:
        """Fold one joint transmission's outcome into metrics and the trace."""
        n_ok = 0
        for i, r in enumerate(report.receptions):
            ok = bool(r.decoded is not None and r.decoded.crc_ok)
            n_ok += ok
            (self._obs_decode_ok if ok else self._obs_decode_fail).inc()
            if np.isfinite(r.effective_snr_db):
                self._obs_snr.observe(r.effective_snr_db)
            if np.isfinite(r.evm_db):
                self._obs_evm.observe(r.evm_db)
            trace.event(
                "joint_tx.client",
                client=i,
                crc_ok=ok,
                effective_snr_db=r.effective_snr_db,
                evm_db=r.evm_db,
            )
        for value in report.misalignment_rad.values():
            self._obs_misalign.observe(value)
        span.record(
            decode_ok=n_ok,
            decode_fail=len(report.receptions) - n_ok,
            precoder_gain=report.precoder_gain,
            misalignment_rad=report.misalignment_rad,
        )

    #: noise-only samples captured before the expected packet when packet
    #: detection (rather than genie timing) locates the header
    DETECTION_PREROLL = 240

    def _detect_and_align(self, rx: np.ndarray) -> Optional[np.ndarray]:
        """Find the sync header in a captured stream and align to its start.

        Returns the stream starting at the header's first STS sample, or
        None when detection fails.
        """
        from repro.phy.detection import detect_packet, ideal_lts_offset

        detection = detect_packet(rx, threshold=0.7)
        if detection is None:
            return None
        header_start = detection.lts_start - ideal_lts_offset(0)
        if header_start < 0:
            return None
        return rx[header_start:]

    def _capture_header(self, node: str, start_time: float) -> np.ndarray:
        """Capture one sync header at ``node``, via detection if enabled.

        Falls back to the genie-aligned window (and counts the miss in
        ``detection_failures``) if the detector cannot find the header.
        """
        fs = self.config.sample_rate
        header_len = sync_header_length()
        if self.config.use_detection:
            preroll = self.DETECTION_PREROLL
            window_start = max(start_time - preroll / fs, 0.0)
            lead_in = int(round((start_time - window_start) * fs))
            capture = self.medium.receive(
                node, window_start, header_len + lead_in + preroll
            )
            aligned = self._detect_and_align(capture)
            if aligned is not None and aligned.size >= header_len:
                return aligned[:header_len]
            self.detection_failures += 1
        return self.medium.receive(node, start_time, header_len)

    def _receive(
        self,
        client: str,
        header_start: float,
        joint_start: float,
        n_symbols: int,
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Capture one client's joint frame and lock to the lead.

        Returns the CFO-corrected SIGNAL + data symbols as
        ``(n_symbols - 2, 80)`` samples and the effective channel estimated
        from the two beamformed LTS symbols, or None when packet detection
        misses the header.
        """
        cfg = self.config
        fs = cfg.sample_rate
        total = int(round((joint_start - header_start) * fs)) + n_symbols * SYMBOL_LENGTH
        if cfg.use_detection:
            # capture with a noise pre-roll and locate the header by its STS
            preroll = self.DETECTION_PREROLL
            with trace.span("channel_apply", node=client):
                capture = self.medium.receive(
                    client, header_start - preroll / fs, total + 2 * preroll
                )
            rx = self._detect_and_align(capture)
            if rx is None or rx.size < total:
                return None
            rx = rx[:total]
        else:
            with trace.span("channel_apply", node=client):
                rx = self.medium.receive(client, header_start, total)

        with trace.span("rx_sync", node=client):
            # CFO lock to the lead from its sync header
            coarse = estimate_cfo_coarse(rx[:160], fs)
            lts_off = lts_symbol_offsets()[0]
            fine = estimate_cfo_fine(rx[lts_off : lts_off + 2 * FFT_SIZE], fs)
            cfo = combine_cfo(coarse, fine, fs)
            rx = apply_cfo(rx, -cfo, fs)

            joint_off = int(round((joint_start - header_start) * fs))
            # effective channel from the two beamformed LTS symbols
            est = []
            for rep in range(2):
                s = joint_off + rep * SYMBOL_LENGTH + CP_LENGTH
                est.append(estimate_channel_lts(rx[s : s + FFT_SIZE]))
            effective = average_channel_estimates(est)
        data_start = joint_off + 2 * SYMBOL_LENGTH
        frame = rx[data_start : data_start + (n_symbols - 2) * SYMBOL_LENGTH]
        return frame.reshape(n_symbols - 2, SYMBOL_LENGTH), effective

    def _receive_and_decode(
        self,
        clients: Sequence[str],
        header_start: float,
        joint_start: float,
        n_symbols: int,
    ) -> List[ClientReception]:
        """Standard-OFDM receive chain of every client of one joint frame.

        Each client is captured and locked in turn (the medium draws its
        noise in this order); then every locked frame is demodulated with
        pilot phase tracking in one FFT and decoded in one batch.
        """
        captures = [
            self._receive(client, header_start, joint_start, n_symbols)
            for client in clients
        ]
        receptions = [
            ClientReception(
                decoded=DecodedFrame(payload=None, crc_ok=False, mcs=None),
                effective_snr_db=-np.inf,
                evm_db=np.nan,
            )
            for _ in clients
        ]
        locked = [i for i, capture in enumerate(captures) if capture is not None]
        if not locked:
            return receptions
        with trace.span("ofdm_demod", n_frames=len(locked)):
            eq = self._demodulator.demodulate_symbol(
                np.stack([captures[i][0] for i in locked]),
                np.stack([captures[i][1] for i in locked])[:, None, :],
                symbol_index=np.arange(n_symbols - 2),
            )
            noise_var = np.mean(1.0 / np.maximum(eq.pilot_snr, 1e-6), axis=-1)
        with trace.span("decode", n_frames=len(locked)):
            decoded = self._decoder.decode(eq.data, noise_var=noise_var)
        for i, frame, pilot_snrs in zip(locked, decoded, eq.pilot_snr):
            receptions[i] = ClientReception(
                decoded=frame,
                effective_snr_db=float(linear_to_db(np.mean(pilot_snrs))),
                evm_db=frame.evm_db,
            )
        return receptions

    # ------------------------------------------------------------------
    # diversity mode (§8)
    # ------------------------------------------------------------------

    def diversity_transmit(
        self, payload: bytes, mcs: Mcs, client_index: int, start_time: float
    ) -> JointTransmissionReport:
        """All APs beamform a single stream coherently to one client."""
        with trace.span(
            "diversity_tx", client=client_index, mcs=mcs.name, t=start_time
        ) as span:
            report = self._diversity_transmit(payload, mcs, client_index, start_time)
            self._record_joint_report(report, span)
        return report

    def _diversity_transmit(
        self, payload: bytes, mcs: Mcs, client_index: int, start_time: float
    ) -> JointTransmissionReport:
        cfg = self.config
        require(self._channel_tensor is not None, "run_sounding first")
        self.medium.clear()
        fs = cfg.sample_rate

        header = sync_header()
        self.medium.transmit(
            self.lead_antenna,
            self.frontends[self.lead_antenna].prepare_transmit(
                header, enforce_power=False
            ),
            start_time,
        )
        header_len = sync_header_length()
        header_time = start_time + REFERENCE_OFFSET / fs
        observations: Dict[str, SyncObservation] = {}
        if cfg.sync_strategy in ("megamimo", "megamimo-no-tracking"):
            for ap in self.ap_ids[1:]:
                rx = self._capture_header(self.listen_antenna[ap], start_time)
                observations[ap] = self.synchronizers[ap].observe_header(rx, header_time)

        bins = self._occupied_bins()
        precoders = {}
        for b in bins:
            row = self._channel_tensor[b][client_index, :]
            precoders[b] = diversity_precoder(row).reshape(-1, 1) / np.sqrt(
                len(self.antenna_ids)
            )
        stream_grids = self._stream_grids([payload], mcs)
        ap_samples = self._build_joint_samples(stream_grids, bins, precoders)

        trigger_time = start_time + header_len / fs
        joint_start = round(self.timer.joint_start_time(trigger_time) * fs) / fs
        misalignment: Dict[str, float] = {}
        for i, antenna in enumerate(self.antenna_ids):
            device = self.antenna_device[i]
            ap = self.ap_ids[device]
            tx = ap_samples[i]
            if device != 0:
                times = joint_start + np.arange(tx.size) / fs
                correction = self._slave_correction(ap, times, observations.get(ap))
                tx = tx * correction
                if ap not in misalignment:
                    misalignment[ap] = self._genie_misalignment(
                        ap, correction[0], joint_start
                    )
            tx = self.frontends[antenna].prepare_transmit(tx, enforce_power=False)
            self.medium.transmit(antenna, tx, joint_start)

        reception = self._receive_and_decode(
            [self.client_antenna_ids[client_index]],
            start_time,
            joint_start,
            stream_grids.shape[1],
        )[0]
        self.medium.clear()
        return JointTransmissionReport(
            receptions=[reception],
            misalignment_rad=misalignment,
            joint_start_time=joint_start,
            precoder_gain=1.0,
        )

    # ------------------------------------------------------------------
    # nulling / INR measurement (Fig. 8 methodology)
    # ------------------------------------------------------------------

    def measure_inr(
        self,
        nulled_client: int,
        start_time: float,
        payload_bytes: int = 100,
        mcs: Mcs = None,
    ) -> float:
        """Beamform to every client except one, nulling at that one, and
        return the (signal+noise)-to-noise ratio (dB) measured there.

        Perfect phase alignment gives 0 dB ("the ratio of the received
        signal power to noise should be 0 dB"); misalignment leaks the other
        clients' streams into the null and raises it.
        """
        from repro.phy.mcs import get_mcs

        cfg = self.config
        mcs = mcs or get_mcs(2)
        n_rows = len(self.client_antenna_ids)
        streams = [i for i in range(n_rows) if i != nulled_client]
        require(streams, "need at least one other client to transmit to")
        payloads = [bytes(payload_bytes) for _ in streams]

        self.medium.clear()
        fs = cfg.sample_rate
        header = sync_header()
        self.medium.transmit(
            self.lead_antenna,
            self.frontends[self.lead_antenna].prepare_transmit(
                header, enforce_power=False
            ),
            start_time,
        )
        header_len = sync_header_length()
        header_time = start_time + REFERENCE_OFFSET / fs
        observations: Dict[str, SyncObservation] = {}
        if cfg.sync_strategy in ("megamimo", "megamimo-no-tracking"):
            for ap in self.ap_ids[1:]:
                rx = self._capture_header(self.listen_antenna[ap], start_time)
                observations[ap] = self.synchronizers[ap].observe_header(rx, header_time)

        # Precoders come from the *full* channel matrix so the nulled
        # client's row is explicitly forced to zero for the other streams.
        all_rows = list(range(n_rows))
        bins, precoders, _ = self._precoders_per_bin(all_rows)
        reduced = {b: w[:, streams] for b, w in precoders.items()}
        stream_grids = self._stream_grids(payloads, mcs)
        ap_samples = self._build_joint_samples(stream_grids, bins, reduced)

        trigger_time = start_time + header_len / fs
        joint_start = round(self.timer.joint_start_time(trigger_time) * fs) / fs
        for i, antenna in enumerate(self.antenna_ids):
            device = self.antenna_device[i]
            ap = self.ap_ids[device]
            tx = ap_samples[i]
            if device != 0:
                times = joint_start + np.arange(tx.size) / fs
                tx = tx * self._slave_correction(ap, times, observations.get(ap))
            tx = self.frontends[antenna].prepare_transmit(tx, enforce_power=False)
            self.medium.transmit(antenna, tx, joint_start)

        client = self.client_antenna_ids[nulled_client]
        n = ap_samples.shape[1]
        rx = self.medium.receive(client, joint_start, n)
        power = float(np.mean(np.abs(rx) ** 2))
        self.medium.clear()
        return float(linear_to_db(power / cfg.noise_power))
