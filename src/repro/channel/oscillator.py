"""Free-running oscillator model: carrier offset, phase noise, sampling drift.

This is the component whose physics motivates the entire paper.  Every node
(AP or client) owns an independent oscillator with

* a **carrier frequency offset** drawn from the device's ppm tolerance — two
  802.11 oscillators at 2.4 GHz may disagree by up to ~96 kHz;
* **phase noise**, modelled as a Wiener (random-walk) process, which bounds
  how well any one-shot frequency estimate predicts future phase; and
* a **sampling frequency offset** locked to the same crystal, so the ppm
  error also skews the ADC/DAC clock (§5.2 "any practical wireless system
  has to also account for the sampling frequency offsets").

The phase-noise walk is generated lazily on a fixed grid and interpolated,
so repeated queries at the same instant return identical phase — necessary
because one transmission is observed by many receivers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import CARRIER_FREQUENCY
from repro.utils.rng import ensure_rng
from repro.utils.units import ppm_to_hz
from repro.utils.validation import require


@dataclass
class OscillatorConfig:
    """Physical parameters of a node's crystal oscillator.

    Attributes:
        ppm_offset: Fractional frequency error in parts per million.  The
            802.11 tolerance is +-20 ppm; real cards are typically within a
            few ppm of nominal.
        phase_noise_rad2_per_s: Variance growth rate of the Wiener phase
            noise.  The default 0.25 rad^2/s is calibrated so the end-to-end
            misalignment distribution of the full protocol matches the
            paper's Fig. 7 (median 0.017 rad, p95 0.05 rad) for
            USRP2/RFX2400-class hardware.
        carrier_frequency: Nominal RF carrier the ppm error applies to.
        initial_phase: Carrier phase at t = 0 (radians).
    """

    ppm_offset: float = 0.0
    phase_noise_rad2_per_s: float = 0.25
    carrier_frequency: float = CARRIER_FREQUENCY
    initial_phase: float = 0.0


class Oscillator:
    """A free-running oscillator queried for carrier phase at absolute times.

    The total carrier phase is ``2*pi*df*t + phi0 + W(t)`` where ``df`` is
    the ppm-derived offset and ``W`` the Wiener phase noise.  ``phase_at``
    accepts arbitrary (not necessarily monotonic) query times.
    """

    #: Phase-noise grid spacing (seconds).  Fine enough that linear
    #: interpolation error is negligible relative to the walk itself.
    GRID_DT = 20e-6

    def __init__(self, config: OscillatorConfig = None, rng=None):
        self.config = config or OscillatorConfig()
        self._rng = ensure_rng(rng)
        self.frequency_offset_hz = ppm_to_hz(
            self.config.ppm_offset, self.config.carrier_frequency
        )
        #: cumulative Wiener samples on the grid; index i is W(i * GRID_DT)
        self._walk = np.zeros(1)
        self._sigma_step = float(
            np.sqrt(self.config.phase_noise_rad2_per_s * self.GRID_DT)
        )

    @property
    def ppm_offset(self) -> float:
        return self.config.ppm_offset

    @property
    def sampling_ratio(self) -> float:
        """Actual-to-nominal sample clock ratio (shares the crystal's ppm)."""
        return 1.0 + self.config.ppm_offset * 1e-6

    def _extend_walk(self, n_points: int) -> None:
        if n_points <= self._walk.size:
            return
        extra = n_points - self._walk.size
        steps = self._rng.normal(0.0, self._sigma_step, extra)
        new = self._walk[-1] + np.cumsum(steps)
        self._walk = np.concatenate([self._walk, new])

    def phase_noise_at(self, times) -> np.ndarray:
        """Wiener phase-noise value at the given absolute times (>= 0)."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        require(bool(np.all(times >= 0.0)), "oscillator times must be >= 0")
        if self._sigma_step == 0.0:  # repro: noqa[NUM001] exact zero = noise disabled
            return np.zeros_like(times)
        idx = times / self.GRID_DT
        hi = int(np.ceil(idx.max())) + 1
        self._extend_walk(hi + 1)
        lo_idx = np.floor(idx).astype(int)
        frac = idx - lo_idx
        return self._walk[lo_idx] * (1 - frac) + self._walk[lo_idx + 1] * frac

    def phase_at(self, times) -> np.ndarray:
        """Total carrier phase (radians) at the given absolute times."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        deterministic = (
            2.0 * np.pi * self.frequency_offset_hz * times + self.config.initial_phase
        )
        return deterministic + self.phase_noise_at(times)

    def rotation_at(self, times) -> np.ndarray:
        """``exp(j * phase)`` at the given times."""
        return np.exp(1j * self.phase_at(times))
