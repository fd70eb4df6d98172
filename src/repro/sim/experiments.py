"""One experiment runner per figure of the paper's evaluation (§11).

Each ``run_figN`` function reproduces the corresponding figure's methodology
and returns a small result object with the figure's series plus a
``format_table()`` that prints the same rows/curves the paper plots.  The
benchmark suite calls these runners; ``EXPERIMENTS.md`` records their output
against the paper's numbers.

The Monte Carlo figures (6, 8, 9/10, 11) are structured as pure,
batch-first ``kernel(params, seeds) -> [result per seed]`` functions
dispatched through the deterministic sweep engine (:mod:`repro.runtime`):
each trial draws from its own seed stream derived from
``(seed, figure, cell, trial)``, so the
aggregated results are bit-identical for any ``workers`` count and across
checkpoint/resume (see ``docs/parallelism.md``).  The sample-level
protocol figures (7, 12, 13) remain serial: they run a handful of
stateful full-waveform systems, not wide trial grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.models import RicianChannel, random_channel_matrix
from repro.constants import (
    CP_LENGTH,
    FFT_SIZE,
    MAC_EFFICIENCY,
    SAMPLE_RATE_80211,
    SAMPLE_RATE_USRP,
    SNR_BANDS_DB,
    SYMBOL_LENGTH,
)
from repro.core.beamforming import (
    snr_reduction_grid,
    zero_forcing_precoder_wideband,
)
from repro.core.sounding import REFERENCE_OFFSET
from repro.core.system import MegaMimoSystem, SystemConfig
from repro.mac.rate import EffectiveSnrRateSelector
from repro.obs import trace
from repro.phy.channel_est import estimate_channel_lts
from repro.phy.preamble import long_training_sequence, sync_header, sync_header_length
from repro.runtime import CellSpec, run_sweep
from repro.sim.fastsim import (
    SyncErrorModel,
    build_channel_tensor,
    diversity_snr_db,
    draw_band_snrs,
    joint_zf_sinr_db,
    mmse_stream_sinr_db,
    nulling_inr_db,
    unicast_snr_db,
)
from repro.sim.metrics import cdf_points, median_gain, percentile
from repro.utils.rng import ensure_rng
from repro.utils.units import db_to_linear, linear_to_db, wrap_phase

BAND_ORDER = ("high", "medium", "low")


def _master_seed(seed) -> int:
    """Root integer seed of a sweep; generators are collapsed to one draw."""
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    return int(ensure_rng(seed).integers(1 << 63))


# ---------------------------------------------------------------------------
# Figure 6 — SNR reduction vs. phase misalignment
# ---------------------------------------------------------------------------


@dataclass
class Fig6Result:
    """SNR loss vs. misalignment for a 2x2 distributed MIMO system.

    Attributes:
        misalignments_rad: The swept misalignment values.
        reduction_db: {snr_db: mean SNR reduction per misalignment}.
    """

    misalignments_rad: np.ndarray
    reduction_db: Dict[float, np.ndarray]

    def reduction_at(self, snr_db: float, misalignment_rad: float) -> float:
        idx = int(np.argmin(np.abs(self.misalignments_rad - misalignment_rad)))
        return float(self.reduction_db[snr_db][idx])

    def headline(self) -> Dict[str, float]:
        """Ledger/regression headline: SNR loss at the 0.1 rad operating point."""
        return {
            f"fig6.loss_0p10rad_{int(round(s))}db": self.reduction_at(s, 0.10)
            for s in self.reduction_db
        }

    def format_table(self) -> str:
        lines = ["misalignment(rad)  " + "  ".join(f"loss@{s:g}dB" for s in self.reduction_db)]
        for i, m in enumerate(self.misalignments_rad):
            cells = "  ".join(f"{self.reduction_db[s][i]:9.2f}" for s in self.reduction_db)
            lines.append(f"{m:17.3f}  {cells}")
        return "\n".join(lines)


def fig6_kernel(params, seeds):
    """Fig. 6 trials: each random 2x2 channel's loss over the (SNR,
    misalignment) grid, ``[[loss per misalignment] per SNR]`` per seed.

    Channel draws stay per-seed; the ZF precoders and the grid are then
    evaluated once over the stacked channel axis via
    :func:`snr_reduction_grid`.
    """
    channels = np.stack(
        [
            random_channel_matrix(params["n_rx"], params["n_tx"], rng=ensure_rng(seed))
            for seed in seeds
        ]
    )
    grid = snr_reduction_grid(
        channels,
        np.asarray(params["misalignments"], dtype=float),
        np.asarray(params["snrs_db"], dtype=float),
    )  # (n_trials, n_snrs, n_mis, n_clients)
    losses = np.mean(np.ascontiguousarray(grid), axis=-1)
    return [
        [[float(v) for v in row] for row in losses[t]] for t in range(len(seeds))
    ]


def run_fig6(
    seed: int = 1,
    n_channels: int = 100,
    misalignments: Optional[Sequence[float]] = None,
    snrs_db: Sequence[float] = (10.0, 20.0),
    workers: int = 1,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    backend: Optional[str] = None,
) -> Fig6Result:
    """Fig. 6 methodology: 2 TX, 2 RX, 100 random channel matrices,
    misalignments 0..0.5 rad, average SNR 10 and 20 dB."""
    if misalignments is None:
        misalignments = np.linspace(0.0, 0.5, 11)
    misalignments = np.asarray(misalignments, dtype=float)
    params = {
        "n_rx": 2,
        "n_tx": 2,
        "misalignments": [float(m) for m in misalignments],
        "snrs_db": [float(s) for s in snrs_db],
    }
    sweep = run_sweep(
        "fig6",
        fig6_kernel,
        [CellSpec(key="channels", params=params, n_trials=n_channels)],
        master_seed=_master_seed(seed),
        workers=workers,
        checkpoint=checkpoint,
        resume=resume,
        backend=backend,
    )
    per_channel = np.asarray(sweep.results[0])  # (n_channels, n_snrs, n_mis)
    reduction: Dict[float, np.ndarray] = {
        float(s): per_channel[:, i, :].mean(axis=0) for i, s in enumerate(snrs_db)
    }
    return Fig6Result(misalignments_rad=misalignments, reduction_db=reduction)


# ---------------------------------------------------------------------------
# Figure 7 — CDF of observed phase misalignment (sample-level)
# ---------------------------------------------------------------------------


@dataclass
class Fig7Result:
    """Observed misalignment distribution from the sample-level protocol.

    Attributes:
        misalignments_rad: All |deviation| samples.
        median_rad / p95_rad: Summary statistics the paper quotes.
    """

    misalignments_rad: np.ndarray

    @property
    def median_rad(self) -> float:
        return float(np.median(self.misalignments_rad))

    @property
    def p95_rad(self) -> float:
        return percentile(self.misalignments_rad, 95)

    def cdf(self):
        return cdf_points(self.misalignments_rad)

    def headline(self) -> Dict[str, float]:
        """Ledger/regression headline: the paper's quoted sync statistics."""
        return {"fig7.median_rad": self.median_rad, "fig7.p95_rad": self.p95_rad}

    def format_table(self) -> str:
        xs, fs = self.cdf()
        picks = np.linspace(0, xs.size - 1, min(11, xs.size)).astype(int)
        lines = ["misalignment(rad)  CDF"]
        lines += [f"{xs[i]:17.4f}  {fs[i]:.3f}" for i in picks]
        lines.append(f"median = {self.median_rad:.4f} rad, p95 = {self.p95_rad:.4f} rad")
        return "\n".join(lines)


def run_fig7(
    seed: int = 2,
    n_systems: int = 8,
    n_rounds: int = 25,
    client_snr_db: float = 22.0,
    round_spacing_s: float = 2e-3,
    warmup_rounds: int = 4,
) -> Fig7Result:
    """Fig. 7 methodology, run on the sample-level protocol.

    Two APs (random lead/slave roles are symmetric here) and one receiver;
    the slave runs MegaMIMO's phase sync; lead and slave alternate LTS
    symbols; the receiver computes the relative phase between their channel
    estimates and its deviation from the first round.  ``warmup_rounds``
    headers run before the reference measurement so the slave's long-term
    CFO average has converged, as it would in a continuously-operating
    deployment (§5.2b).
    """
    rng = ensure_rng(seed)
    deviations: List[float] = []
    fs = SAMPLE_RATE_USRP
    lts = long_training_sequence(repeats=1, cp_length=CP_LENGTH)  # 80 samples

    for s in range(n_systems):
        with trace.span("experiment.cell", figure=7, system=s, n_rounds=n_rounds):
            cfg = SystemConfig(n_aps=2, n_clients=1, seed=int(rng.integers(1 << 31)))
            # conference-room links have a line-of-sight component; without it,
            # occasional deep Rayleigh fades at the receiver would dominate the
            # measurement with estimation noise unrelated to phase sync
            system = MegaMimoSystem.create(
                cfg, client_snr_db=client_snr_db,
                channel_model=RicianChannel(k_factor=7.0),
            )
            system.run_sounding(0.0)
            lead, slave = system.ap_ids
            client = system.client_ids[0]
            sync = system.synchronizers[slave]
            header_len = sync_header_length()
            reference_phase = None

            for r in range(warmup_rounds + n_rounds):
                t0 = 1e-3 + r * round_spacing_s
                t0 = round(t0 * fs) / fs
                system.medium.clear()
                # lead sync header
                system.medium.transmit(lead, sync_header(), t0)
                hdr_rx = system.medium.receive(slave, t0, header_len)
                obs = sync.observe_header(hdr_rx, t0 + REFERENCE_OFFSET / fs)
                if r < warmup_rounds:
                    continue
                # alternating symbols: lead then slave, one symbol apart
                t_lead = t0 + (header_len + 1500) / fs  # ~150 us turnaround
                t_slave = t_lead + SYMBOL_LENGTH / fs
                system.medium.transmit(lead, lts, t_lead)
                times = t_slave + np.arange(lts.size) / fs
                corrected = lts * sync.correction(times, obs)
                system.medium.transmit(slave, corrected, t_slave)
                rx = system.medium.receive(client, t_lead, 2 * SYMBOL_LENGTH)
                h_lead = estimate_channel_lts(rx[CP_LENGTH : CP_LENGTH + FFT_SIZE])
                h_slave = estimate_channel_lts(
                    rx[SYMBOL_LENGTH + CP_LENGTH : SYMBOL_LENGTH + CP_LENGTH + FFT_SIZE]
                )
                relative = float(np.angle(np.sum(h_slave * np.conj(h_lead))))
                if reference_phase is None:
                    reference_phase = relative
                else:
                    deviations.append(abs(wrap_phase(relative - reference_phase)))
            system.medium.clear()
    return Fig7Result(misalignments_rad=np.asarray(deviations))


# ---------------------------------------------------------------------------
# Figure 8 — INR vs. number of receivers
# ---------------------------------------------------------------------------


@dataclass
class Fig8Result:
    """Average INR at nulled clients vs. system size and SNR band.

    Attributes:
        n_receivers: The swept system sizes.
        inr_db: {band: mean INR per size}.
    """

    n_receivers: np.ndarray
    inr_db: Dict[str, np.ndarray]

    def slope_db_per_pair(self, band: str) -> float:
        """Least-squares INR growth per added AP-client pair."""
        y = self.inr_db[band]
        return float(np.polyfit(self.n_receivers, y, 1)[0])

    def headline(self) -> Dict[str, float]:
        """Ledger/regression headline: per-band INR slope + largest-N INR."""
        out: Dict[str, float] = {}
        for band in self.inr_db:
            out[f"fig8.inr_slope_{band}"] = self.slope_db_per_pair(band)
            out[f"fig8.inr_db_{band}_n{int(self.n_receivers[-1])}"] = float(
                self.inr_db[band][-1]
            )
        return out

    def format_table(self) -> str:
        header = "n_receivers  " + "  ".join(f"{b:>8}" for b in self.inr_db)
        lines = [header]
        for i, n in enumerate(self.n_receivers):
            cells = "  ".join(f"{self.inr_db[b][i]:8.3f}" for b in self.inr_db)
            lines.append(f"{n:11d}  {cells}")
        return "\n".join(lines)


def fig8_kernel(params, seeds):
    """Fig. 8 trials: each topology's per-packet nulling INR samples (dB)."""
    n = params["n"]
    error_model = params["error_model"]
    out = []
    for seed in seeds:
        rng = ensure_rng(seed)
        snrs = draw_band_snrs(params["band"], n, n, rng)
        channels = build_channel_tensor(snrs, rng)
        est = error_model.corrupt_estimate(channels, snrs, rng)
        samples = []
        for _ in range(params["n_packets"]):
            errors = error_model.phase_errors(n, rng)
            nulled = int(rng.integers(0, n))
            samples.append(
                float(nulling_inr_db(channels, nulled, phase_errors=errors, est_channels=est))
            )
        out.append(samples)
    return out


def run_fig8(
    seed: int = 3,
    n_receivers: Sequence[int] = tuple(range(2, 11)),
    n_topologies: int = 10,
    n_packets: int = 5,
    error_model: Optional[SyncErrorModel] = None,
    workers: int = 1,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    backend: Optional[str] = None,
) -> Fig8Result:
    """Fig. 8 methodology: equal AP/client counts per SNR band; null at each
    client in turn; average the (leak+noise)/noise ratio."""
    error_model = error_model or SyncErrorModel()
    n_receivers = np.asarray(list(n_receivers), dtype=int)
    cells = [
        CellSpec(
            key=(band_name, int(n)),
            params={
                "band": SNR_BANDS_DB[band_name],
                "n": int(n),
                "n_packets": n_packets,
                "error_model": error_model,
            },
            n_trials=n_topologies,
        )
        for band_name in BAND_ORDER
        for n in n_receivers
    ]
    sweep = run_sweep(
        "fig8", fig8_kernel, cells, master_seed=_master_seed(seed),
        workers=workers, checkpoint=checkpoint, resume=resume, backend=backend,
    )
    result: Dict[str, np.ndarray] = {}
    for band_name in BAND_ORDER:
        curve = np.empty(n_receivers.size)
        for i, n in enumerate(n_receivers):
            with trace.span(
                "experiment.cell", figure=8, band=band_name, n=int(n)
            ) as cell:
                samples = [
                    s for trial in sweep.cell_results((band_name, int(n)))
                    for s in trial
                ]
                curve[i] = float(np.mean(samples))
                cell.record(n_samples=len(samples), mean_inr_db=curve[i])
        result[band_name] = curve
    return Fig8Result(n_receivers=n_receivers, inr_db=result)


# ---------------------------------------------------------------------------
# Figures 9 & 10 — throughput scaling and fairness
# ---------------------------------------------------------------------------


def zf_penalty_db(channels: np.ndarray):
    """The ZF power penalty of a channel shape: how far the per-stream
    effective SNR (k^2/N0) falls below the mean best-AP unicast SNR.

    Scale-invariant — scaling all links cancels out — so it is an intrinsic
    conditioning measure of the topology.  Takes (..., n_bins, n_rx, n_tx)
    channels and returns a (...,)-shaped penalty (a scalar for one tensor).
    """
    channels = np.asarray(channels, dtype=complex)
    _, k = zero_forcing_precoder_wideband(channels)
    link_gain = np.mean(np.abs(channels) ** 2, axis=-3)  # (..., n_rx, n_tx)
    best = np.mean(np.max(link_gain, axis=-1), axis=-1)
    return linear_to_db(best) - linear_to_db(k**2)


def draw_screened_channels(
    n: int, rngs, max_penalty_db: Optional[float], max_attempts: int = 100
) -> np.ndarray:
    """Draw one n x n channel shape per generator in ``rngs``, mirroring the
    paper's placement screen.

    The paper re-places clients until "all clients obtain an effective SNR
    in the desired range" (§11.2); topologies whose ZF conditioning penalty
    is too large cannot satisfy that and get re-placed.  (The paper's own
    gain model implies a screened penalty of K ~ 1.5-2 dB: from the 8.1x
    gain at 10 APs and low SNR, N(1 - log K / log SNR) gives K ~ 1.5.)

    The screen runs in rounds: each round draws one candidate *per
    still-unscreened trial* from that trial's own generator, so every
    generator consumes the same draws whatever the batch, and scores all
    candidates in one stacked ZF pass.  A trial that exhausts
    ``max_attempts`` keeps its least-penalized candidate.  Pass
    ``max_penalty_db=None`` to disable screening (ablation).

    Returns:
        (len(rngs), n_bins, n, n) channel shapes.
    """
    # each trial's least-penalized candidate so far; a passing candidate
    # always beats the failed ones before it
    best: List[Optional[np.ndarray]] = [None] * len(rngs)
    best_penalty = np.full(len(rngs), np.inf)
    active = list(range(len(rngs)))
    for _attempt in range(max_attempts):
        if not active:
            break
        cand = np.stack(
            [
                build_channel_tensor(
                    draw_band_snrs((19.0, 21.0), n, n, rngs[t]), rngs[t]
                )
                for t in active
            ]
        )  # (n_active, n_bins, n, n)
        if max_penalty_db is None:
            return cand
        penalty = zf_penalty_db(cand)
        still_active = []
        for i, t in enumerate(active):
            if penalty[i] < best_penalty[t]:
                best[t], best_penalty[t] = cand[i], penalty[i]
            if not penalty[i] <= max_penalty_db:
                still_active.append(t)
        active = still_active
    return np.stack(best)


@dataclass
class ScalingCell:
    """Per-(band, N) results across topologies.

    Attributes:
        megamimo_bps: Total MegaMIMO throughput per topology.
        baseline_bps: Total 802.11 throughput per topology.
        per_client_gains: Flattened per-client gain samples (for Fig. 10).
    """

    megamimo_bps: np.ndarray
    baseline_bps: np.ndarray
    per_client_gains: np.ndarray


@dataclass
class Fig9Result:
    """Throughput scaling with AP count for each SNR band.

    Attributes:
        n_aps: Swept AP counts (receivers match).
        cells: {(band, n): ScalingCell}.
    """

    n_aps: np.ndarray
    cells: Dict[Tuple[str, int], ScalingCell]

    def mean_megamimo_mbps(self, band: str) -> np.ndarray:
        return np.array(
            [np.mean(self.cells[(band, n)].megamimo_bps) / 1e6 for n in self.n_aps]
        )

    def mean_baseline_mbps(self, band: str) -> np.ndarray:
        return np.array(
            [np.mean(self.cells[(band, n)].baseline_bps) / 1e6 for n in self.n_aps]
        )

    def median_gain(self, band: str, n: int) -> float:
        cell = self.cells[(band, n)]
        return median_gain(cell.megamimo_bps, cell.baseline_bps)

    def headline(self) -> Dict[str, float]:
        """Ledger/regression headline: per-band median gain at the largest N."""
        n_max = int(self.n_aps[-1])
        out: Dict[str, float] = {}
        for band in BAND_ORDER:
            if (band, n_max) in self.cells:
                out[f"fig9.median_gain_{band}_n{n_max}"] = self.median_gain(
                    band, n_max
                )
                out[f"fig9.megamimo_mbps_{band}_n{n_max}"] = float(
                    np.mean(self.cells[(band, n_max)].megamimo_bps) / 1e6
                )
        return out

    def format_table(self) -> str:
        lines = []
        for band in BAND_ORDER:
            lines.append(f"[{band} SNR]")
            lines.append("n_aps  802.11(Mbps)  MegaMIMO(Mbps)  median gain")
            mm = self.mean_megamimo_mbps(band)
            bl = self.mean_baseline_mbps(band)
            for i, n in enumerate(self.n_aps):
                g = self.median_gain(band, int(n))
                lines.append(f"{n:5d}  {bl[i]:12.2f}  {mm[i]:14.2f}  {g:11.2f}x")
        return "\n".join(lines)


def fig9_kernel(params, seeds):
    """Fig. 9 trials: each screened topology's MegaMIMO and 802.11 totals.

    Returns ``{"megamimo_bps", "baseline_bps", "gains"}`` per seed; the
    runner aggregates trial lists into :class:`ScalingCell`s.  Every draw
    (placement screen, band target, estimation noise, phase errors) comes
    from the trial's own generator; the screen's penalties, the SINR
    evaluation and the effective-SNR rate walk
    (:meth:`EffectiveSnrRateSelector.goodput_batch`) run once over the
    stacked trial axis.
    """
    n = int(params["n"])
    band = params["band"]
    error_model = params["error_model"]
    selector = EffectiveSnrRateSelector(
        params["sample_rate"], mac_efficiency=MAC_EFFICIENCY
    )
    rngs = [ensure_rng(seed) for seed in seeds]
    n_trials = len(rngs)
    channels = draw_screened_channels(n, rngs, params["max_penalty_db"])

    # scale each trial so the effective (post-ZF) SNR hits its band target
    _, k = zero_forcing_precoder_wideband(channels)
    targets = np.array([float(rng.uniform(band[0], band[1])) for rng in rngs])
    scale = np.sqrt(db_to_linear(targets) / k**2)
    channels = channels * scale[:, None, None, None]
    link_snrs_db = linear_to_db(np.mean(np.abs(channels) ** 2, axis=-3))

    est = np.stack(
        [
            error_model.corrupt_estimate(channels[t], link_snrs_db[t], rngs[t])
            for t in range(n_trials)
        ]
    )
    errors = np.stack([error_model.phase_errors(n, rngs[t]) for t in range(n_trials)])

    sinr_db = joint_zf_sinr_db(channels, phase_errors=errors, est_channels=est)
    stream_rates = selector.goodput_batch(sinr_db)  # (n_trials, n)
    best_ap = np.argmax(link_snrs_db, axis=-1)  # (n_trials, n)
    uni = np.stack(
        [
            np.stack(
                [unicast_snr_db(channels[t], c, int(best_ap[t, c])) for c in range(n)]
            )
            for t in range(n_trials)
        ]
    )  # (n_trials, n, n_bins)
    unicast_rates = selector.goodput_batch(uni)

    out = []
    for t in range(n_trials):
        baseline_per_client = unicast_rates[t] / n
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.where(
                baseline_per_client > 0,
                stream_rates[t] / np.maximum(baseline_per_client, 1e-9),
                np.nan,
            )
        out.append(
            {
                "megamimo_bps": float(np.sum(stream_rates[t])),
                "baseline_bps": float(np.mean(unicast_rates[t])),
                "gains": g[np.isfinite(g)].tolist(),
            }
        )
    return out


def run_fig9(
    seed: int = 4,
    n_aps: Sequence[int] = tuple(range(2, 11)),
    n_topologies: int = 20,
    error_model: Optional[SyncErrorModel] = None,
    sample_rate: float = SAMPLE_RATE_USRP,
    max_penalty_db: float = 2.0,
    workers: int = 1,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    backend: Optional[str] = None,
) -> Fig9Result:
    """Figs. 9/10 methodology: N APs and N clients placed per SNR band;
    measure total throughput with 802.11 (equal medium shares from the best
    AP) and MegaMIMO (all streams concurrent); 20 topologies per cell.

    Placement follows the paper: clients are placed "such that all clients
    obtain an *effective SNR* in the desired range" — the effective SNR of
    the joint transmission, k^2/N0 (which §9 shows is equal at every
    client).  We realize this by drawing a channel shape and scaling it so
    the post-beamforming gain k^2 hits a target inside the band; the 802.11
    baseline then sees the (higher) unicast link SNR that physically
    coexists with that placement — which is exactly why the paper's gains
    are slightly sub-N, and lower at low SNR (9.4x high vs. 8.1x low at 10
    APs): the ZF power penalty is hidden by MCS saturation at high SNR but
    not at low SNR.
    """
    error_model = error_model or SyncErrorModel()
    n_aps = np.asarray(list(n_aps), dtype=int)
    grid = [
        CellSpec(
            key=(band_name, int(n)),
            params={
                "band": SNR_BANDS_DB[band_name],
                "n": int(n),
                "error_model": error_model,
                "sample_rate": sample_rate,
                "max_penalty_db": max_penalty_db,
            },
            n_trials=n_topologies,
        )
        for band_name in BAND_ORDER
        for n in n_aps
    ]
    sweep = run_sweep(
        "fig9", fig9_kernel, grid, master_seed=_master_seed(seed),
        workers=workers, checkpoint=checkpoint, resume=resume, backend=backend,
    )
    cells: Dict[Tuple[str, int], ScalingCell] = {}
    for band_name in BAND_ORDER:
        for n in n_aps:
            with trace.span(
                "experiment.cell", figure=9, band=band_name, n=int(n),
                n_topologies=n_topologies,
            ):
                trials = sweep.cell_results((band_name, int(n)))
            cells[(band_name, int(n))] = ScalingCell(
                megamimo_bps=np.asarray([t["megamimo_bps"] for t in trials]),
                baseline_bps=np.asarray([t["baseline_bps"] for t in trials]),
                per_client_gains=np.asarray(
                    [g for t in trials for g in t["gains"]]
                ),
            )
    return Fig9Result(n_aps=n_aps, cells=cells)


@dataclass
class Fig10Result:
    """Per-client throughput-gain CDFs (fairness)."""

    gains: Dict[Tuple[str, int], np.ndarray]

    def cdf(self, band: str, n: int):
        return cdf_points(self.gains[(band, n)])

    def headline(self) -> Dict[str, float]:
        """Ledger/regression headline: fairness floor at the largest grid."""
        if not self.gains:
            return {}
        band, n = max(self.gains, key=lambda key: key[1])
        g = self.gains[(band, n)]
        return {
            f"fig10.p10_gain_{band}_n{n}": percentile(g, 10),
            f"fig10.median_gain_{band}_n{n}": float(np.median(g)),
        }

    def format_table(self) -> str:
        lines = []
        for (band, n), g in sorted(self.gains.items()):
            lines.append(
                f"[{band} SNR, {n} APs] per-client gain: "
                f"p10={percentile(g, 10):.2f}x median={np.median(g):.2f}x "
                f"p90={percentile(g, 90):.2f}x"
            )
        return "\n".join(lines)


def run_fig10(
    fig9: Optional[Fig9Result] = None,
    n_aps: Sequence[int] = (2, 6, 10),
    **fig9_kwargs,
) -> Fig10Result:
    """Fig. 10 reuses the Fig. 9 runs: CDFs of per-client gain."""
    if fig9 is None:
        fig9 = run_fig9(**fig9_kwargs)
    gains = {}
    for band in BAND_ORDER:
        for n in n_aps:
            if (band, int(n)) in fig9.cells:
                gains[(band, int(n))] = fig9.cells[(band, int(n))].per_client_gains
    return Fig10Result(gains=gains)


# ---------------------------------------------------------------------------
# Figure 11 — diversity throughput vs. SNR
# ---------------------------------------------------------------------------


@dataclass
class Fig11Result:
    """Diversity-mode throughput vs. single-link SNR for several AP counts.

    Attributes:
        snr_db: Swept single-AP link SNRs.
        throughput_mbps: {n_aps: mean throughput per SNR}; key 1 is the
            802.11 single-transmitter baseline.
    """

    snr_db: np.ndarray
    throughput_mbps: Dict[int, np.ndarray]

    def headline(self) -> Dict[str, float]:
        """Ledger/regression headline: top-SNR throughput, largest vs. baseline."""
        n_max = max(self.throughput_mbps)
        snr = int(round(float(self.snr_db[-1])))
        out = {
            f"fig11.mbps_n{n_max}_{snr}db": float(self.throughput_mbps[n_max][-1])
        }
        if 1 in self.throughput_mbps:
            out[f"fig11.mbps_n1_{snr}db"] = float(self.throughput_mbps[1][-1])
        return out

    def format_table(self) -> str:
        keys = sorted(self.throughput_mbps)
        lines = ["SNR(dB)  " + "  ".join(f"{k:>2}AP(Mbps)" for k in keys)]
        for i, s in enumerate(self.snr_db):
            cells = "  ".join(f"{self.throughput_mbps[k][i]:9.2f}" for k in keys)
            lines.append(f"{s:7.1f}  {cells}")
        return "\n".join(lines)


def fig11_kernel(params, seeds):
    """Fig. 11 trials: each fading draw's per-SNR throughput (bps).

    ``n_aps == 1`` is the 802.11 single-transmitter baseline; otherwise all
    APs beamform the same stream coherently (§8).
    """
    n = params["n_aps"]
    error_model = params["error_model"]
    selector = EffectiveSnrRateSelector(
        params["sample_rate"], mac_efficiency=MAC_EFFICIENCY
    )
    out = []
    for seed in seeds:
        rng = ensure_rng(seed)
        rates = []
        for s in params["snr_db"]:
            if n == 1:
                snrs = np.full((1, 1), s)
                channels = build_channel_tensor(snrs, rng)
                rates.append(float(selector.goodput(unicast_snr_db(channels, 0, 0))))
            else:
                snrs = np.full((1, n), s) + rng.normal(0, 1.0, (1, n))
                channels = build_channel_tensor(snrs, rng)  # (bins, 1, n)
                errors = error_model.phase_errors(n, rng)
                div = diversity_snr_db(channels[:, 0, :], phase_errors=errors)
                rates.append(float(selector.goodput(div)))
        out.append(rates)
    return out


def run_fig11(
    seed: int = 5,
    n_aps_list: Sequence[int] = (2, 4, 6, 8, 10),
    snr_db: Optional[Sequence[float]] = None,
    n_draws: int = 30,
    error_model: Optional[SyncErrorModel] = None,
    sample_rate: float = SAMPLE_RATE_USRP,
    workers: int = 1,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    backend: Optional[str] = None,
) -> Fig11Result:
    """Fig. 11 methodology: one client with roughly equal SNR to all APs;
    all APs beamform the same stream coherently (§8)."""
    error_model = error_model or SyncErrorModel()
    if snr_db is None:
        snr_db = np.arange(-5.0, 26.0, 2.5)
    snr_db = np.asarray(snr_db, dtype=float)

    # cell key 1 is the 802.11 single-transmitter baseline
    sizes = [1] + [int(n) for n in n_aps_list if int(n) != 1]
    cells = [
        CellSpec(
            key=n,
            params={
                "n_aps": n,
                "snr_db": [float(s) for s in snr_db],
                "error_model": error_model,
                "sample_rate": sample_rate,
            },
            n_trials=n_draws,
        )
        for n in sizes
    ]
    sweep = run_sweep(
        "fig11", fig11_kernel, cells, master_seed=_master_seed(seed),
        workers=workers, checkpoint=checkpoint, resume=resume, backend=backend,
    )
    result: Dict[int, np.ndarray] = {}
    for n in sizes:
        trials = np.asarray(sweep.cell_results(n))  # (n_draws, n_snrs)
        result[n] = trials.mean(axis=0) / 1e6
    return Fig11Result(snr_db=snr_db, throughput_mbps=result)


# ---------------------------------------------------------------------------
# Figures 12 & 13 — 802.11n compatibility testbed
# ---------------------------------------------------------------------------


@dataclass
class Fig12Result:
    """2x(2-antenna AP) -> 2x(2-antenna 802.11n client) throughput.

    Attributes:
        bands: Band order.
        baseline_mbps / megamimo_mbps: Mean totals per band.
        per_client_gains: {band: flattened gain samples} (for Fig. 13).
    """

    bands: Tuple[str, ...]
    baseline_mbps: Dict[str, float]
    megamimo_mbps: Dict[str, float]
    per_client_gains: Dict[str, np.ndarray]

    def mean_gain(self, band: str) -> float:
        return float(self.megamimo_mbps[band] / self.baseline_mbps[band])

    def headline(self) -> Dict[str, float]:
        """Ledger/regression headline: per-band 802.11n-compat mean gain."""
        return {f"fig12.mean_gain_{band}": self.mean_gain(band) for band in self.bands}

    def format_table(self) -> str:
        lines = ["band    802.11n(Mbps)  MegaMIMO(Mbps)  gain"]
        for band in self.bands:
            lines.append(
                f"{band:6}  {self.baseline_mbps[band]:13.1f}  "
                f"{self.megamimo_mbps[band]:14.1f}  {self.mean_gain(band):.2f}x"
            )
        return "\n".join(lines)


def draw_screened_80211n_channels(
    rng,
    device_of: np.ndarray,
    client_of: np.ndarray,
    max_penalty_db: float,
    max_attempts: int = 200,
) -> np.ndarray:
    """Draw a 4x4 (2 AP x 2 client, 2 antennas each) channel shape where
    both systems operate in their normal regime.

    Mirrors the paper's placement: locations where either the joint 4x4
    beamforming or a client's own 2x2 802.11n link is badly conditioned
    would not produce an in-band effective SNR and get re-placed.  Requires
    the 4x4 ZF penalty and every client's best-AP 2x2 MMSE loss to be at
    most ``max_penalty_db``.
    """
    best, best_score = None, np.inf
    for _ in range(max_attempts):
        shape_snrs = draw_band_snrs((19.0, 21.0), 4, 4, rng)
        channels = build_channel_tensor(shape_snrs, rng)
        penalty = zf_penalty_db(channels)
        link_gain = np.mean(np.abs(channels) ** 2, axis=0)
        worst_mmse_loss = 0.0
        for c in range(2):
            rx_rows = np.nonzero(client_of == c)[0]
            losses = []
            for a in range(2):
                tx_cols = np.nonzero(device_of == a)[0]
                sub = channels[np.ix_(range(channels.shape[0]), rx_rows, tx_cols)]
                stream_sinr = mmse_stream_sinr_db(sub)
                link_db = linear_to_db(
                    np.mean(link_gain[np.ix_(rx_rows, tx_cols)])
                )
                losses.append(link_db - float(np.mean(stream_sinr)))
                worst_mmse_loss = max(worst_mmse_loss, min(losses))
        # the client's own 2x2 link must be clean (802.11n operates in its
        # normal regime: ~1 dB), while the joint 4x4 system tolerates a
        # slightly larger conditioning penalty — which is precisely why the
        # paper's measured gains are 1.67-1.83x instead of 2x
        score = max(penalty - (max_penalty_db + 1.0), worst_mmse_loss - 1.0)
        if score <= 0:
            return channels
        if score < best_score:
            best, best_score = channels, score
    return best


def run_fig12(
    seed: int = 6,
    n_topologies: int = 20,
    error_model: Optional[SyncErrorModel] = None,
    max_penalty_db: float = 2.0,
) -> Fig12Result:
    """Figs. 12/13 methodology: two 2-antenna APs jointly beamform 4 streams
    to two 2-antenna 802.11n clients on a 20 MHz channel; the baseline gives
    each client 2-stream service from its best AP with equal airtime.

    As in Fig. 9, placement targets the *effective* SNR of the joint
    transmission, and the 802.11n baseline operates on the physically
    coexisting (higher) unicast links — which is why the measured gains are
    1.67-1.83x rather than the full theoretical 2x.
    """
    rng = ensure_rng(seed)
    error_model = error_model or SyncErrorModel()
    selector = EffectiveSnrRateSelector(SAMPLE_RATE_80211, mac_efficiency=MAC_EFFICIENCY)
    device_of = np.array([0, 0, 1, 1])  # tx antennas -> AP device
    client_of = np.array([0, 0, 1, 1])  # rx antennas -> client

    baseline_mbps: Dict[str, float] = {}
    megamimo_mbps: Dict[str, float] = {}
    gains: Dict[str, np.ndarray] = {}
    for band_name in BAND_ORDER:
        band = SNR_BANDS_DB[band_name]
        mm_totals, bl_totals, gain_samples = [], [], []
        for _ in range(n_topologies):
            channels = draw_screened_80211n_channels(
                rng, device_of, client_of, max_penalty_db
            )
            _, k = zero_forcing_precoder_wideband(channels)
            target_db = float(rng.uniform(band[0], band[1]))
            channels = channels * np.sqrt(db_to_linear(target_db) / k**2)
            link_snrs_db = linear_to_db(np.mean(np.abs(channels) ** 2, axis=0))

            est = error_model.corrupt_estimate(channels, link_snrs_db, rng)
            errors = error_model.phase_errors(4, rng, device_of=device_of)
            sinr_db = joint_zf_sinr_db(channels, phase_errors=errors, est_channels=est)
            stream_rates = np.array([selector.goodput(sinr_db[a]) for a in range(4)])
            mm_client = np.array(
                [stream_rates[client_of == c].sum() for c in range(2)]
            )

            # baseline: best AP per client, 2x2 SU-MIMO (ZF), half airtime
            bl_client = np.empty(2)
            for c in range(2):
                rx_rows = np.nonzero(client_of == c)[0]
                ap_mean = [
                    np.mean(link_snrs_db[np.ix_(rx_rows, np.nonzero(device_of == a)[0])])
                    for a in range(2)
                ]
                best_ap = int(np.argmax(ap_mean))
                tx_cols = np.nonzero(device_of == best_ap)[0]
                sub = channels[np.ix_(range(channels.shape[0]), rx_rows, tx_cols)]
                # off-the-shelf 802.11n: direct-mapped streams with an MMSE
                # receiver, and rate adaptation falls back to single-stream
                # (2-antenna MRC) when the 2x2 channel is ill-conditioned
                sub_sinr = mmse_stream_sinr_db(sub)
                two_stream = sum(
                    selector.goodput(sub_sinr[i]) for i in range(len(tx_cols))
                )
                one_stream = max(
                    selector.goodput(
                        linear_to_db(np.sum(np.abs(sub[:, :, j]) ** 2, axis=1))
                    )
                    for j in range(len(tx_cols))
                )
                bl_client[c] = max(two_stream, one_stream) / 2.0
            mm_totals.append(mm_client.sum())
            bl_totals.append(bl_client.sum())
            valid = bl_client > 0
            gain_samples.extend((mm_client[valid] / bl_client[valid]).tolist())
        baseline_mbps[band_name] = float(np.mean(bl_totals)) / 1e6
        megamimo_mbps[band_name] = float(np.mean(mm_totals)) / 1e6
        gains[band_name] = np.asarray(gain_samples)
    return Fig12Result(
        bands=BAND_ORDER,
        baseline_mbps=baseline_mbps,
        megamimo_mbps=megamimo_mbps,
        per_client_gains=gains,
    )


@dataclass
class Fig13Result:
    """CDF of per-client 802.11n-compat throughput gains across all runs."""

    gains: np.ndarray

    @property
    def median(self) -> float:
        return float(np.median(self.gains))

    def headline(self) -> Dict[str, float]:
        """Ledger/regression headline: the Fig. 13 median per-node gain."""
        return {"fig13.median_gain": self.median}

    def cdf(self):
        return cdf_points(self.gains)

    def format_table(self) -> str:
        return (
            f"per-node gain: p5={percentile(self.gains, 5):.2f}x "
            f"median={self.median:.2f}x p95={percentile(self.gains, 95):.2f}x"
        )


def run_fig13(fig12: Optional[Fig12Result] = None, **fig12_kwargs) -> Fig13Result:
    """Fig. 13 reuses the Fig. 12 runs: gain CDF across all nodes/SNRs."""
    if fig12 is None:
        fig12 = run_fig12(**fig12_kwargs)
    all_gains = np.concatenate([fig12.per_client_gains[b] for b in fig12.bands])
    return Fig13Result(gains=all_gains)


# ---------------------------------------------------------------------------
# Figure 12, sample level — full-waveform verification of the §6 pipeline
# ---------------------------------------------------------------------------


@dataclass
class Fig12SampleLevelResult:
    """Measured (not modelled) 802.11n-compat gains from real waveforms.

    Attributes:
        gains: Per-topology MegaMIMO/baseline throughput ratios.
        megamimo_bps / baseline_bps: Per-topology absolute numbers.
    """

    gains: np.ndarray
    megamimo_bps: np.ndarray
    baseline_bps: np.ndarray

    @property
    def mean_gain(self) -> float:
        return float(np.mean(self.gains))

    def format_table(self) -> str:
        lines = ["topology  802.11n(Mbps)  MegaMIMO(Mbps)   gain"]
        for i, (g, m, b) in enumerate(
            zip(self.gains, self.megamimo_bps, self.baseline_bps)
        ):
            lines.append(f"{i:8d}  {b / 1e6:13.1f}  {m / 1e6:14.1f}  {g:5.2f}x")
        lines.append(f"mean gain: {self.mean_gain:.2f}x (paper: 1.67-1.83x)")
        return "\n".join(lines)


def run_fig12_sample_level(
    seed: int = 15,
    n_topologies: int = 4,
    snr_db: float = 28.0,
    payload_bytes: int = 60,
    rate_backoff_db: float = 5.0,
) -> Fig12SampleLevelResult:
    """Fig. 12 with real waveforms: §6 stitched sounding, 4-stream joint
    transmission, and a single-AP 2-stream baseline — every packet modulated,
    transmitted through the medium and decoded.

    Small-topology-count verification of the fast-path Fig. 12; absolute
    rates use each transmission's effective-SNR-selected MCS and count only
    CRC-verified deliveries.
    """
    from repro.channel.models import RicianChannel
    from repro.core.beamforming import zero_forcing_precoder_wideband
    from repro.core.compat_sampling import SampleLevelCompatSounder
    from repro.mac.rate import EffectiveSnrRateSelector
    from repro.phy.preamble import lts_grid

    rng = ensure_rng(seed)
    selector = EffectiveSnrRateSelector(SAMPLE_RATE_USRP, mac_efficiency=MAC_EFFICIENCY)
    occupied = None
    gains, mm_list, bl_list = [], [], []

    for topo in range(n_topologies):
        # placement screening, as in the fast-path Fig. 12 and the paper's
        # methodology: re-place until the joint effective SNR (k^2) lands in
        # the high band — ill-conditioned draws would never satisfy the
        # "effective SNR in the desired range" placement criterion
        system = None
        tensor = None
        for _attempt in range(12):
            config = SystemConfig(
                n_aps=2,
                n_clients=2,
                antennas_per_ap=2,
                antennas_per_client=2,
                seed=int(rng.integers(1 << 31)),
            )
            candidate = MegaMimoSystem.create(
                config, client_snr_db=snr_db,
                channel_model=RicianChannel(k_factor=10.0),
            )
            SampleLevelCompatSounder(candidate).measure(0.0)
            if occupied is None:
                occupied = np.nonzero(np.abs(lts_grid()) > 0)[0]
            cand_tensor = candidate._channel_tensor[occupied]
            _, k_cand = zero_forcing_precoder_wideband(cand_tensor)
            if float(linear_to_db(k_cand**2)) >= 19.0:
                system, tensor = candidate, cand_tensor
                break
        if system is None:
            continue

        # --- MegaMIMO: 4 streams at the effective-SNR-selected rate.
        # The stitched snapshot carries ~0.1 rad of per-entry phase error,
        # which floors the post-ZF SINR near 20 dB regardless of k^2 — the
        # backoff keeps the selected MCS below that self-interference floor.
        # Frequency-selective residual interference can still defeat the
        # scalar prediction on ill-conditioned draws, so like a real card
        # the transmitter steps the MCS down on a failed burst (§9 rate
        # adaptation + retransmission).
        from repro.phy.mcs import get_mcs as _get_mcs

        _, k = zero_forcing_precoder_wideband(tensor)
        decision = selector.select(
            min(float(linear_to_db(k**2)) - rate_backoff_db, 19.0)
        )
        if decision.mcs is None:
            continue
        payloads = [bytes([topo * 4 + i]) * payload_bytes for i in range(4)]
        mm_bps = 0.0
        t_mm = 10e-3
        mcs_index = decision.mcs.index
        while mcs_index >= 0:
            mcs = _get_mcs(mcs_index)
            report = system.joint_transmit(payloads, mcs, start_time=t_mm)
            delivered = sum(
                r.decoded.payload == p for r, p in zip(report.receptions, payloads)
            )
            if delivered >= 3 or mcs_index == 0:
                # all streams fly concurrently at the per-stream rate
                mm_bps = delivered * mcs.bitrate(SAMPLE_RATE_USRP) * MAC_EFFICIENCY
                break
            mcs_index -= 2
            t_mm += 4e-3

        # --- baseline: best AP serves each client alone, half airtime -----
        bl_client = []
        t = 14e-3
        for c in range(2):
            rows = [i for i, d in enumerate(system.client_antenna_device) if d == c]
            ap_scores = []
            for a in range(2):
                cols = [i for i, d in enumerate(system.antenna_device) if d == a]
                ap_scores.append(
                    float(np.mean(np.abs(tensor[np.ix_(range(52), rows, cols)]) ** 2))
                )
            best = int(np.argmax(ap_scores))
            cols = [i for i, d in enumerate(system.antenna_device) if d == best]
            sub = tensor[np.ix_(range(52), rows, cols)]
            _, k_sub = zero_forcing_precoder_wideband(sub)
            sub_decision = selector.select(
                min(float(linear_to_db(k_sub**2)) - rate_backoff_db, 19.0)
            )
            if sub_decision.mcs is None:
                bl_client.append(0.0)
                continue
            sub_payloads = [bytes([100 + c * 2 + i]) * payload_bytes for i in range(2)]
            rate = 0.0
            mcs_index = sub_decision.mcs.index
            while mcs_index >= 0:
                mcs = _get_mcs(mcs_index)
                sub_report = system.joint_transmit(
                    sub_payloads, mcs, start_time=t, streams=rows, antennas=cols,
                )
                t += 4e-3
                ok = sum(
                    r.decoded.payload == p
                    for r, p in zip(sub_report.receptions, sub_payloads)
                )
                if ok == 2 or mcs_index == 0:
                    rate = ok * mcs.bitrate(SAMPLE_RATE_USRP) * MAC_EFFICIENCY / 2.0
                    break
                mcs_index -= 2
            bl_client.append(rate)
        # each client's burst occupies half the airtime; the network total
        # is the sum of the per-client (already halved) throughputs
        bl_bps = float(np.sum(bl_client))

        if bl_bps > 0:
            gains.append(mm_bps / bl_bps)
            mm_list.append(mm_bps)
            bl_list.append(bl_bps)

    return Fig12SampleLevelResult(
        gains=np.asarray(gains),
        megamimo_bps=np.asarray(mm_list),
        baseline_bps=np.asarray(bl_list),
    )
