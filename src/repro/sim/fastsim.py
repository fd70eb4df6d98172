"""Frequency-domain fast simulation path for large parameter sweeps.

The sample-level system in :mod:`repro.core.system` runs the full protocol
but costs seconds per packet; the paper's evaluation sweeps 20 topologies x
9 AP counts x 3 SNR bands.  This module reproduces the *physics that
matters for throughput* directly in the frequency domain:

* per-subcarrier channel matrices drawn from the fading models,
* zero-forcing precoding with the paper's per-AP power normalization,
* channel-estimation error (sounding noise) and residual slave phase
  misalignment, both calibrated against the sample-level path (Fig. 7), and
* per-subcarrier SINR -> effective-SNR rate selection [13].

Integration tests verify that this path and the sample-level path agree on
post-beamforming SINR for matched configurations.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.channel.models import ChannelModel, RicianChannel
from repro.core.beamforming import zero_forcing_precoder_wideband
from repro.obs import metrics
from repro.utils.rng import complex_normal, ensure_rng
from repro.utils.units import db_to_linear, linear_to_db
from repro.utils.validation import require

#: Number of occupied OFDM subcarriers modelled per link.
N_BINS = 52

#: Environment variable multiplying every SyncErrorModel's phase sigma.
#: A fault-injection knob: setting it to 2 simulates a sync degradation
#: that must fail the ``budget`` claim of `repro obs regress` and fire the
#: §7.3 budget alert rules (see docs/observability.md).  Unset or "1"
#: leaves the calibrated model untouched.
PHASE_SIGMA_SCALE_ENV = "REPRO_PHASE_SIGMA_SCALE"

# module-level telemetry handles: these functions are the fast path of the
# 20-topology figure sweeps, so the handles are resolved exactly once.  The
# histogram holds one sample per slave per draw; its ring is what the §7.3
# budget alert rules read at the end of every run command (pool workers'
# samples come home in the sweep engine's chunk envelopes).
_OBS_PHASE_ERR = metrics.histogram("fastsim.phase_error_rad")
_OBS_DRAWS = metrics.counter("fastsim.phase_error_draws")
_OBS_ESTIMATES = metrics.counter("fastsim.estimates_corrupted")


@dataclass
class SyncErrorModel:
    """Calibrated imperfections of the distributed synchronization.

    Attributes:
        phase_sigma_rad: Std of each slave's residual phase misalignment per
            packet.  Default 0.015 rad matches the sample-level protocol's
            converged behaviour (Fig. 7: observed median ~0.013-0.017 rad,
            which also folds in receiver-side measurement noise) and
            reproduces the paper's Fig. 8 INR slope of ~0.13 dB per added
            AP-client pair at high SNR.
        estimation_snr_boost_db: How much better the sounding channel
            estimate is than one raw symbol at link SNR (round averaging +
            the 52-bin estimation gain); sets H_est = H + noise.
        lead_is_perfect: The lead defines the phase reference, so its own
            "misalignment" is zero by construction.
    """

    phase_sigma_rad: float = 0.015
    estimation_snr_boost_db: float = 15.0
    lead_is_perfect: bool = True

    def __post_init__(self):
        scale = os.environ.get(PHASE_SIGMA_SCALE_ENV)
        if scale is not None and scale.strip():
            self.phase_sigma_rad = float(self.phase_sigma_rad) * float(scale)

    def phase_errors(
        self, n_tx: int, rng, device_of: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Draw per-TX-antenna phase errors for one joint transmission.

        Antennas sharing a device (``device_of``) share one error — they are
        driven by one oscillator.  Device 0 is the lead.  Each slave
        device's |error| is one ``fastsim.phase_error_rad`` sample: the
        §7.3 budget is stated per slave.
        """
        rng = ensure_rng(rng)
        if device_of is None:
            device_of = np.arange(n_tx)
        device_of = np.asarray(device_of)
        n_devices = int(device_of.max()) + 1
        per_device = rng.normal(0.0, self.phase_sigma_rad, n_devices)
        slaves = per_device
        if self.lead_is_perfect:
            per_device[0] = 0.0
            slaves = per_device[1:]
        _OBS_DRAWS.inc()
        for err in np.abs(slaves).tolist():
            _OBS_PHASE_ERR.observe(err)
        return per_device[device_of]

    def corrupt_estimate(self, channels: np.ndarray, snr_db, rng) -> np.ndarray:
        """Add estimation noise to a channel tensor.

        Args:
            channels: (..., n_bins, n_rx, n_tx) true channels (leading batch
                axes allowed).
            snr_db: Per-entry link SNR (scalar, (n_rx, n_tx) or with the
                same leading axes as ``channels``); estimation SNR is this
                plus ``estimation_snr_boost_db``.
        """
        rng = ensure_rng(rng)
        channels = np.asarray(channels, dtype=complex)
        snr = db_to_linear(np.asarray(snr_db, dtype=float) + self.estimation_snr_boost_db)
        snr = np.broadcast_to(snr, channels.shape[:-3] + channels.shape[-2:])
        scale = np.abs(channels) / np.sqrt(snr)[..., None, :, :]
        noise = complex_normal(rng, channels.shape, 1.0) * scale
        _OBS_ESTIMATES.inc()
        return channels + noise


def run_slave_phase_errors(seed: int = 5, n_aps: int = 3, n_draws: int = 1000) -> np.ndarray:
    """|phase error| of every slave over ``n_draws`` joint transmissions.

    The draws of the §7.3 budget claim (:mod:`repro.sim.claims`): the
    lead's error is zero by construction, so it is left out, as the
    budget is stated per slave.
    """
    require(n_aps >= 2, "n_aps must be >= 2 (one lead, at least one slave)")
    require(n_draws >= 1, "n_draws must be >= 1")
    rng = ensure_rng(seed)
    model = SyncErrorModel()
    return np.abs(np.stack([model.phase_errors(n_aps, rng)[1:] for _ in range(n_draws)])).ravel()


def draw_band_snrs(band: Tuple[float, float], n_clients: int, n_aps: int, rng,
                   ap_spread_db: float = 2.0) -> np.ndarray:
    """Per-(client, AP) link SNRs with each client's base SNR in the band.

    Reproduces the paper's placement procedure ("place ... nodes in random
    client locations such that all clients obtain an effective SNR in the
    desired range", §11.2): a base SNR per client uniform in the band plus a
    small per-AP variation.
    """
    rng = ensure_rng(rng)
    lo, hi = band
    base = rng.uniform(lo, hi, n_clients)
    spread = rng.normal(0.0, ap_spread_db, (n_clients, n_aps))
    return base[:, None] + spread


def taps_to_channel_tensor(taps: np.ndarray, n_bins: int = N_BINS) -> np.ndarray:
    """Frequency responses of a stack of link impulse responses.

    Args:
        taps: (..., n_rx, n_tx, n_taps) per-link impulse responses.
        n_bins: Occupied subcarriers to keep; the FFT grid is
            ``max(n_bins, 64)`` as in :meth:`LinkChannel.frequency_response`.

    Returns:
        (..., n_bins, n_rx, n_tx) complex channel tensor.  Each link's row
        FFT is bit-identical to a scalar per-link
        ``LinkChannel.frequency_response`` call, so stacking trials does not
        perturb the channel values.
    """
    taps = np.asarray(taps, dtype=complex)
    require(taps.ndim >= 3, "need (..., n_rx, n_tx, n_taps)")
    fft_size = max(n_bins, 64)
    require(taps.shape[-1] <= fft_size, "impulse response longer than FFT")
    padded = np.zeros(taps.shape[:-1] + (fft_size,), dtype=complex)
    padded[..., : taps.shape[-1]] = taps
    response = np.fft.fft(padded, axis=-1)[..., :n_bins]
    return np.moveaxis(response, -1, -3)


def build_channel_tensor(
    snr_db: np.ndarray,
    rng,
    model: ChannelModel = None,
    noise_power: float = 1.0,
    n_bins: int = N_BINS,
) -> np.ndarray:
    """Per-subcarrier channel tensor for an (..., n_rx, n_tx) SNR map.

    Args:
        snr_db: (..., n_rx, n_tx) average link SNRs (leading batch axes
            allowed — e.g. a trial axis — sharing one RNG stream).
        model: Fading model (see :func:`draw_link_taps`).

    Returns:
        (..., n_bins, n_rx, n_tx) complex channels with E|H|^2 = SNR * noise:
        :func:`taps_to_channel_tensor` of :func:`draw_link_taps`.
    """
    return taps_to_channel_tensor(draw_link_taps(snr_db, rng, model, noise_power), n_bins)


def draw_link_taps(
    snr_db: np.ndarray, rng, model: ChannelModel = None, noise_power: float = 1.0
) -> np.ndarray:
    """Impulse responses of an (..., n_rx, n_tx) SNR map's links.

    Args:
        snr_db: (..., n_rx, n_tx) average link SNRs.
        model: Fading model.  Default is Rician K=7 — conference-room links
            (ceiling APs, line of sight) have a strong specular component,
            which is also what keeps the paper's channel matrices "random
            and well conditioned" (§11.2).  Its single tap makes every
            link flat across subcarriers.

    Returns:
        (..., n_rx, n_tx, n_taps) taps with E|h|^2 = SNR * noise.

    All links are drawn through one vectorized
    :meth:`ChannelModel.realize_taps` call (array-sized RNG draws rather
    than the per-link scalar draws of earlier revisions), so the serial
    sweep kernels and the batched backend consume per-trial streams
    identically.
    """
    rng = ensure_rng(rng)
    model = model or RicianChannel(k_factor=7.0)
    snr_db = np.asarray(snr_db, dtype=float)
    require(snr_db.ndim >= 2, "snr_db must be (..., n_rx, n_tx)")
    gains = db_to_linear(snr_db) * noise_power
    return model.realize_taps(gains, rng=rng)


def joint_zf_sinr_db(
    channels: np.ndarray,
    noise_power: float = 1.0,
    phase_errors: Optional[np.ndarray] = None,
    est_channels: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-client, per-subcarrier SINR (dB) after joint ZF beamforming.

    Args:
        channels: (..., n_bins, n_rx, n_tx) true channels at transmission
            time (leading batch axes allowed, e.g. a trial axis).
        noise_power: Receiver noise power.
        phase_errors: (..., n_tx) per-antenna misalignment (radians).
        est_channels: Channels the precoder is built from (estimation error);
            defaults to the true channels.

    Returns:
        (..., n_rx, n_bins) C-contiguous SINR in dB: the ZF precoders of
        ``est_channels`` applied through :func:`zf_sinr_db`.
    """
    est = channels if est_channels is None else est_channels
    precoders, _ = zero_forcing_precoder_wideband(est)
    return zf_sinr_db(channels, precoders, noise_power, phase_errors)


def zf_sinr_db(
    channels: np.ndarray,
    precoders: np.ndarray,
    noise_power: float = 1.0,
    phase_errors: Optional[np.ndarray] = None,
) -> np.ndarray:
    """:func:`joint_zf_sinr_db` for given (..., n_bins, n_tx, n_rx) precoders,
    e.g. ones computed once per sounding and reused for every packet.

    One broadcast-matmul pass serves a tensor and a stack alike, so batched
    results are bit-identical to unbatched ones; the result is C-contiguous
    so that reductions over it sum in the same order for any batch shape.
    """
    channels = np.asarray(channels, dtype=complex)
    phases = np.zeros(channels.shape[-1]) if phase_errors is None else phase_errors
    rotation = np.exp(1j * np.asarray(phases, dtype=float))
    eff = (channels * rotation[..., None, None, :]) @ precoders
    signal = np.abs(np.diagonal(eff, axis1=-2, axis2=-1)) ** 2  # (..., B, R)
    interference = np.sum(np.abs(eff) ** 2, axis=-1) - signal
    sinr = signal / (interference + noise_power)
    return linear_to_db(np.ascontiguousarray(np.moveaxis(sinr, -1, -2)))


def nulling_inr_db(
    channels: np.ndarray,
    nulled_client: int,
    noise_power: float = 1.0,
    phase_errors: Optional[np.ndarray] = None,
    precoders: Optional[np.ndarray] = None,
):
    """Fig. 8 metric: (leakage + noise) / noise, in dB, at a nulled client.

    The leakage is the nulled client's power from the other clients'
    streams, averaged over subcarriers.  ``precoders`` are the
    (..., n_bins, n_tx, n_rx) precoders in use, e.g. the ZF precoders of a
    sounded estimate solved once for every packet; None means the ZF
    precoders of ``channels`` (perfect CSI).  One broadcast-matmul pass maps
    a (..., n_bins, n_rx, n_tx) batch to a (...,) array, one tensor to a float.
    """
    channels = np.asarray(channels, dtype=complex)
    if precoders is None:
        precoders, _ = zero_forcing_precoder_wideband(channels)
    phases = np.zeros(channels.shape[-1]) if phase_errors is None else phase_errors
    rotation = np.exp(1j * np.asarray(phases, dtype=float))
    rotated = channels[..., :, nulled_client, :] * rotation[..., None, :]
    rows = (rotated[..., :, None, :] @ precoders)[..., 0, :]  # (..., B, R)
    others = np.ones(channels.shape[-2], dtype=bool)
    others[nulled_client] = False
    leak = np.mean(np.sum(np.abs(rows[..., others]) ** 2, axis=-1), axis=-1)
    inr = linear_to_db((leak + noise_power) / noise_power)
    return float(inr) if channels.ndim == 3 else inr


def diversity_snr_db(
    channels_to_client: np.ndarray,
    noise_power: float = 1.0,
    phase_errors: Optional[np.ndarray] = None,
    per_ap_power: float = 1.0,
) -> np.ndarray:
    """Per-subcarrier SNR (dB) of coherent diversity beamforming (§8).

    Each AP transmits ``h^*/|h| x`` at its full power, so amplitudes add:
    N equal-SNR APs yield an N^2 SNR gain.

    Args:
        channels_to_client: (..., n_bins, n_aps) channels to the single
            client (leading batch axes allowed).
        phase_errors: (..., n_aps) per-AP misalignment.

    Returns:
        (..., n_bins) SNR in dB.
    """
    channels_to_client = np.asarray(channels_to_client, dtype=complex)
    n_aps = channels_to_client.shape[-1]
    rotation = (
        np.exp(1j * np.asarray(phase_errors, dtype=float))
        if phase_errors is not None
        else np.ones(n_aps)
    )
    amplitude = np.abs(channels_to_client)  # post-conjugation contribution
    combined = np.abs(np.sum(amplitude * rotation[..., None, :], axis=-1)) ** 2
    return linear_to_db(per_ap_power * combined / noise_power)


def mmse_stream_sinr_db(
    channels: np.ndarray,
    noise_power: float = 1.0,
    per_stream_power: float = 1.0,
) -> np.ndarray:
    """Per-stream, per-subcarrier SINR (dB) of direct-mapped spatial streams
    with an MMSE receiver — the standard 802.11n SU-MIMO link model.

    An 802.11n AP transmits one stream per antenna with no CSI at the
    transmitter; the client's MIMO equalizer separates them.  The MMSE
    per-stream SINR is ``1 / [(I + (P/N0) H^H H)^-1]_ii - 1``.

    Args:
        channels: (..., n_bins, n_rx, n_tx) channels of the link (leading
            batch axes allowed).

    Returns:
        (..., n_tx, n_bins) per-stream SINRs in dB.
    """
    channels = np.asarray(channels, dtype=complex)
    n_rx, n_tx = channels.shape[-2], channels.shape[-1]
    require(n_rx >= n_tx, "MMSE separation needs n_rx >= n_tx streams")
    snr_scale = per_stream_power / noise_power
    eye = np.eye(n_tx)
    gram = eye + snr_scale * (np.conj(np.swapaxes(channels, -1, -2)) @ channels)
    inv_diag = np.real(np.diagonal(np.linalg.inv(gram), axis1=-2, axis2=-1))
    sinr = 1.0 / np.maximum(inv_diag, 1e-12) - 1.0  # (..., B, n_tx)
    # C-contiguous, like the per-bin loop this replaced: callers reduce the
    # whole array, and a sum follows memory order
    return np.ascontiguousarray(
        linear_to_db(np.maximum(np.moveaxis(sinr, -1, -2), 1e-12))
    )


def unicast_snr_db(channels: np.ndarray, client: int, ap: int,
                   noise_power: float = 1.0) -> np.ndarray:
    """Per-subcarrier single-AP unicast SNR (the 802.11 baseline link)."""
    channels = np.asarray(channels, dtype=complex)
    return linear_to_db(np.abs(channels[:, client, ap]) ** 2 / noise_power)
