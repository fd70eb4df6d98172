"""Distributed phase synchronization (paper §4, §5.2, §5.3).

Each slave AP keeps a **reference channel** — its measurement of the
lead->slave channel taken at the reference time of the last sounding phase.
Before every joint data transmission the lead emits a sync header; the slave
re-measures the lead channel and *divides the two measurements*:

    h_lead(t) / h_lead(0)  =  e^{j (w_lead - w_slave) t}

a direct phase observation with **no accumulated error**, unlike multiplying
a CFO estimate by elapsed time (§5.2b's 100 Hz -> pi rad in 20 ms example).
The slave multiplies its transmit signal by this rotation, then extrapolates
*within* the packet using a long-term averaged CFO estimate — accurate
enough over packet durations (§5.3, principle 1) though never across packets
(principle 2).

``NaiveCfoExtrapolator`` implements the strawman the paper argues against,
used by the ablations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.constants import FFT_SIZE
from repro.obs import metrics, trace
from repro.phy.cfo import CfoTracker, estimate_cfo_fine
from repro.phy.channel_est import (
    average_channel_estimates,
    channel_rotation,
    estimate_channel_lts,
)
from repro.phy.preamble import SYNC_HEADER_LTS_REPEATS, lts_symbol_offsets
from repro.utils.validation import require

#: Phase-error budget of the distributed sync, in radians (paper §7.3/§11).
#: Fig. 7 measures the deployed protocol's misalignment at a ~0.018-rad
#: median scale; Fig. 6 shows misalignment up to ~0.05 rad costs under
#: ~1 dB of SNR at 20 dB.  Both are per slave: the ``budget`` claim of
#: :mod:`repro.sim.claims` checks them on the fast path's draws, and the
#: §7.3 alert rules (:func:`repro.obs.alerts.builtin_rules`) raise a
#: ledger alarm when a run's per-slave median or p95 exceeds them —
#: beyond them, rate selection starts paying real throughput for sync error.
PHASE_ERROR_BUDGET_MEDIAN_RAD = 0.018
PHASE_ERROR_BUDGET_P95_RAD = 0.05


@dataclass
class ReferenceChannel:
    """A slave's snapshot of the lead->slave channel at the reference time.

    Attributes:
        estimate: 64-bin complex channel estimate h_lead(0).
        reference_time: Absolute time the snapshot refers to (the start of
            the sounding sync header).
    """

    estimate: np.ndarray
    reference_time: float


@dataclass
class SyncObservation:
    """What a slave learns from one lead sync header.

    Attributes:
        rotation: Unit phasor e^{j (w_lead - w_slave)(t - t_ref)} mapping the
            reference channel onto the current one.
        cfo_hz: Instantaneous lead-slave CFO measured inside this header.
        header_time: Absolute time of the header (phase measurement instant).
        channel: The fresh 64-bin lead->slave channel estimate.
    """

    rotation: complex
    cfo_hz: float
    header_time: float
    channel: np.ndarray


def estimate_header_channel(
    header_samples: np.ndarray, lts_repeats: int = SYNC_HEADER_LTS_REPEATS
) -> np.ndarray:
    """Average LS channel estimates over the sync header's LTS copies.

    ``header_samples`` must be aligned to the header start (slave APs get
    alignment from packet detection on the STS).
    """
    header_samples = np.asarray(header_samples, dtype=complex).ravel()
    offsets = lts_symbol_offsets(lts_repeats)
    require(
        header_samples.size >= offsets[-1] + FFT_SIZE,
        "header sample buffer too short for its LTS copies",
    )
    estimates = [
        estimate_channel_lts(header_samples[off : off + FFT_SIZE]) for off in offsets
    ]
    return average_channel_estimates(estimates)


def estimate_header_cfo(
    header_samples: np.ndarray,
    sample_rate: float,
    lts_repeats: int = SYNC_HEADER_LTS_REPEATS,
) -> float:
    """Instantaneous CFO from the header's repeated LTS copies (Hz)."""
    offsets = lts_symbol_offsets(lts_repeats)
    start = offsets[0]
    return estimate_cfo_fine(
        np.asarray(header_samples, dtype=complex)[start : start + 2 * FFT_SIZE],
        sample_rate,
    )


class PhaseSynchronizer:
    """Runs on a slave AP: tracks phase alignment to the lead.

    Usage::

        sync = PhaseSynchronizer(sample_rate)
        sync.set_reference(header_samples, header_time)   # sounding phase
        obs = sync.observe_header(header_samples, t)      # every data frame
        corr = sync.correction(times, obs)                # per-sample phasor
        tx_samples *= corr

    Args:
        sample_rate: Channel sample rate.
        cfo_alpha: EWMA coefficient for the long-term CFO average.
    """

    def __init__(self, sample_rate: float, cfo_alpha: float = 0.1):
        self.sample_rate = float(sample_rate)
        self.reference: Optional[ReferenceChannel] = None
        self.cfo_tracker = CfoTracker(alpha=cfo_alpha)
        self._last_rotation_phase: Optional[float] = None
        self._last_rotation_time: Optional[float] = None
        # telemetry handles (cached once; updates are attribute arithmetic)
        self._obs_headers = metrics.counter("phasesync.headers")
        self._obs_phase = metrics.histogram("phasesync.phase_offset_rad")
        self._obs_cfo = metrics.histogram("phasesync.cfo_estimate_hz")
        self._obs_cfo_residual = metrics.histogram("phasesync.cfo_residual_hz")

    # -- sounding phase -----------------------------------------------------

    def set_reference(self, header_samples: np.ndarray, header_time: float) -> ReferenceChannel:
        """Capture h_lead(0) from the sounding sync header (§5.1c)."""
        estimate = estimate_header_channel(header_samples)
        self.reference = ReferenceChannel(estimate=estimate, reference_time=float(header_time))
        self.cfo_tracker.update(estimate_header_cfo(header_samples, self.sample_rate))
        self._last_rotation_phase = None
        self._last_rotation_time = None
        metrics.counter("phasesync.references").inc()
        trace.event(
            "phase_sync.set_reference",
            t=float(header_time),
            cfo_estimate_hz=float(self.cfo_tracker.estimate_hz),
        )
        return self.reference

    # -- data transmission phase ---------------------------------------------

    def observe_header(self, header_samples: np.ndarray, header_time: float) -> SyncObservation:
        """Measure the current phase offset from a data-frame sync header.

        Computes the rotation h_lead(t)/h_lead(0) (§5.2b) and refreshes the
        long-term CFO average from the header's LTS pair, plus — when a
        previous header is recent enough to be phase-unambiguous — from the
        rotation drift between headers.

        Each observation lands in the telemetry layer: a
        ``phase_sync.observe_header`` span with the measured phase offset
        and CFO residual, and the ``phasesync.*`` histograms.
        """
        with trace.span("phase_sync.observe_header", t=header_time) as span:
            observation = self._observe_header(header_samples, header_time, span)
        return observation

    def _observe_header(
        self, header_samples: np.ndarray, header_time: float, span
    ) -> SyncObservation:
        require(self.reference is not None, "no reference channel; run sounding first")
        channel = estimate_header_channel(header_samples)
        rotation = channel_rotation(self.reference.estimate, channel)
        phase = float(np.angle(rotation))

        # Within-header CFO (two LTS copies, 6.4 us baseline) is noisy —
        # ~100 Hz std at realistic AP-AP SNRs.  The long inter-header
        # baseline is far more precise but phase-wraps; the tracker's
        # current estimate resolves the wrap (the paper's "continuously
        # averaged estimate ... across multiple transmissions", §5.2b).
        header_cfo = estimate_header_cfo(header_samples, self.sample_rate)
        # once precise long-baseline estimates flow in, stop letting the
        # noisy (~100 Hz) within-header measurements perturb the average
        raw_weight = self.cfo_tracker.alpha if self._last_rotation_phase is None else 0.02
        self.cfo_tracker.update(header_cfo, weight=raw_weight)
        if self._last_rotation_phase is not None:
            dt = float(header_time) - self._last_rotation_time
            if dt > 0:
                expected = 2.0 * np.pi * self.cfo_tracker.estimate_hz * dt
                measured = phase - self._last_rotation_phase
                wraps = np.round((expected - measured) / (2.0 * np.pi))
                refined = (measured + 2.0 * np.pi * wraps) / (2.0 * np.pi * dt)
                # long-baseline estimates are ~100x more precise than the
                # 6.4 us within-header estimate; weight them accordingly
                self.cfo_tracker.update(refined, weight=0.5)

        self._last_rotation_phase = phase
        self._last_rotation_time = float(header_time)
        cfo_residual = header_cfo - float(self.cfo_tracker.estimate_hz)
        self._obs_headers.inc()
        self._obs_phase.observe(phase)
        self._obs_cfo.observe(float(self.cfo_tracker.estimate_hz))
        self._obs_cfo_residual.observe(cfo_residual)
        span.record(
            phase_offset_rad=phase,
            cfo_estimate_hz=float(self.cfo_tracker.estimate_hz),
            cfo_residual_hz=cfo_residual,
        )
        return SyncObservation(
            rotation=rotation,
            cfo_hz=float(self.cfo_tracker.estimate_hz),
            header_time=float(header_time),
            channel=channel,
        )

    def correction(self, times: np.ndarray, observation: SyncObservation) -> np.ndarray:
        """Per-sample transmit phase correction for a joint transmission.

        The slave multiplies its transmitted signal by
        ``rotation * exp(j 2 pi cfo_avg (t - t_header))`` — the direct phase
        measurement re-anchors the phase; the averaged CFO keeps it aligned
        through the packet (bounding accumulation to one packet duration).
        """
        times = np.asarray(times, dtype=float)
        elapsed = times - observation.header_time
        ramp = np.exp(2j * np.pi * observation.cfo_hz * elapsed)
        return observation.rotation * ramp

    def correction_without_inpacket_tracking(
        self, times: np.ndarray, observation: SyncObservation
    ) -> np.ndarray:
        """Ablation: re-anchor at the header but don't track within the packet."""
        times = np.asarray(times, dtype=float)
        return np.full(times.shape, observation.rotation, dtype=complex)


class NaiveCfoExtrapolator:
    """The strawman of §5.2b: predict phase as (measured CFO) x (elapsed time).

    One initial CFO measurement with error ``cfo_error_hz`` is used to
    extrapolate the phase correction forever.  The phase error grows as
    ``2 pi * cfo_error * t`` — 100 Hz of error costs pi radians within 20 ms,
    which is why MegaMIMO re-measures phase at every packet instead.
    """

    def __init__(self, true_cfo_hz: float, cfo_error_hz: float, reference_time: float = 0.0):
        self.estimated_cfo_hz = float(true_cfo_hz) + float(cfo_error_hz)
        self.true_cfo_hz = float(true_cfo_hz)
        self.reference_time = float(reference_time)

    def correction(self, times: np.ndarray) -> np.ndarray:
        """Extrapolated phase correction at the given absolute times."""
        times = np.asarray(times, dtype=float)
        return np.exp(
            2j * np.pi * self.estimated_cfo_hz * (times - self.reference_time)
        )

    def phase_error(self, times: np.ndarray) -> np.ndarray:
        """Accumulated misalignment (radians) of the extrapolation."""
        times = np.asarray(times, dtype=float)
        return (
            2.0
            * np.pi
            * (self.estimated_cfo_hz - self.true_cfo_hz)
            * (times - self.reference_time)
        )
