"""The shared wireless medium: superposition of concurrent transmissions.

The medium holds scheduled transmissions (complex baseband sample streams
with absolute start times) and synthesizes what any receiver observes over a
time window:

    y_rx(t) = sum_tx  (h_tx,rx * x_tx)(t - d_tx,rx)
                      * exp(j (theta_tx(t) - theta_rx(t)))  +  n(t)

i.e. per-link multipath convolution, sub-sample propagation/trigger delay via
frequency-domain fractional delay, the *relative oscillator rotation* between
transmitter and receiver — the term that breaks naive distributed
beamforming — and additive white Gaussian noise at the receiver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.channel.models import LinkChannel
from repro.channel.oscillator import Oscillator
from repro.utils.rng import complex_normal, ensure_rng
from repro.utils.validation import require


@dataclass
class Transmission:
    """One scheduled transmission on the medium.

    Attributes:
        transmitter: Node identifier of the sender.
        samples: Complex baseband samples at the medium sample rate.
        start_time: Absolute time (seconds) of the first sample as emitted by
            an ideal clock.  Trigger-timing jitter is folded in here.
    """

    transmitter: str
    samples: np.ndarray
    start_time: float


def fast_fft_length(n: int) -> int:
    """The smallest 2·3·5-smooth integer ``>= n`` (at least 1).

    numpy's pocketfft transforms such lengths with its mixed-radix kernels;
    a length with a large prime factor falls back to Bluestein's algorithm,
    8-14x slower at the 10321 and 20321 points of a 1500-B packet.
    """
    best = 1 << max(n - 1, 0).bit_length()  # the power of two
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # smallest power-of-two multiple of p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _delay_ramp(n: int, frac: float) -> np.ndarray:
    """``exp(-2j pi fftfreq(n) frac)``, the linear-phase ramp of a ``frac``
    sample delay, to within a few ulp.

    Bin ``k`` of the ramp is ``w**k`` with ``w = exp(-2j pi frac / n)``, times
    ``exp(2j pi frac)`` on the negative-frequency half.  ``w**k`` is the
    outer product of two ``ceil(sqrt(n))``-point exponential tables, so the
    ramp costs ~2 sqrt(n) complex exponentials instead of ``n``.
    """
    step = int(np.ceil(np.sqrt(n)))
    k = np.arange(step)
    w = -2j * np.pi * frac / n
    ramp = np.multiply.outer(np.exp(w * step * k), np.exp(w * k)).ravel()[:n]
    ramp[(n + 1) // 2 :] *= np.exp(2j * np.pi * frac)
    return ramp


def fractional_delay(samples: np.ndarray, delay_samples: float) -> np.ndarray:
    """Delay a sample stream by a (possibly fractional) number of samples.

    Integer part via zero-prepend, fractional part via a frequency-domain
    linear-phase ramp.  Used for sub-sample propagation delays (tens of ns,
    well inside the cyclic prefix — §5.2 footnote 3).  The transform runs
    over the stream zero-padded to :func:`fast_fft_length` of ``n + 1``:
    at least one zero of guard, so less of the delayed tail's ringing wraps
    onto the first samples, at a length numpy transforms without
    Bluestein's algorithm.
    """
    samples = np.asarray(samples, dtype=complex)
    n_int = int(np.floor(delay_samples))
    frac = float(delay_samples - n_int)
    if frac > 1e-9:
        original = samples.size
        n = fast_fft_length(original + 1)
        spectrum = np.fft.fft(samples, n)
        spectrum *= _delay_ramp(n, frac)
        samples = np.fft.ifft(spectrum)[:original]
    if n_int > 0:
        samples = np.concatenate([np.zeros(n_int, dtype=complex), samples])
    elif n_int < 0:
        samples = samples[-n_int:]
    return samples


class Medium:
    """Synthesizes received baseband streams from scheduled transmissions.

    Args:
        sample_rate: Channel sample rate in Hz.
        noise_power: AWGN power per complex sample at every receiver (the
            "noise floor"; link gains are chosen relative to it to set SNR).
        rng: Seed/generator for the noise process.
    """

    def __init__(self, sample_rate: float, noise_power: float = 1.0, rng=None):
        require(sample_rate > 0, "sample rate must be positive")
        self.sample_rate = float(sample_rate)
        self.noise_power = float(noise_power)
        self._rng = ensure_rng(rng)
        self._links: Dict[Tuple[str, str], LinkChannel] = {}
        self._oscillators: Dict[str, Oscillator] = {}
        self._transmissions: List[Transmission] = []

    # -- configuration ------------------------------------------------------

    def register_node(self, node_id: str, oscillator: Oscillator) -> None:
        """Attach a node and its oscillator to the medium."""
        self._oscillators[node_id] = oscillator

    def set_link(self, transmitter: str, receiver: str, link: LinkChannel) -> None:
        """Define the propagation channel from ``transmitter`` to ``receiver``."""
        self._links[(transmitter, receiver)] = link

    def get_link(self, transmitter: str, receiver: str) -> Optional[LinkChannel]:
        return self._links.get((transmitter, receiver))

    def oscillator(self, node_id: str) -> Oscillator:
        return self._oscillators[node_id]

    @property
    def nodes(self) -> List[str]:
        return list(self._oscillators)

    # -- traffic ------------------------------------------------------------

    def transmit(self, transmitter: str, samples: np.ndarray, start_time: float) -> None:
        """Schedule a transmission; it becomes audible to all linked receivers."""
        require(transmitter in self._oscillators, f"unknown node {transmitter!r}")
        self._transmissions.append(
            Transmission(
                transmitter=transmitter,
                samples=np.asarray(samples, dtype=complex),
                start_time=float(start_time),
            )
        )

    def clear(self) -> None:
        """Drop all scheduled transmissions (between experiment phases)."""
        self._transmissions.clear()

    # -- reception ----------------------------------------------------------

    def receive(
        self,
        receiver: str,
        start_time: float,
        n_samples: int,
        include_noise: bool = True,
        exclude_own: bool = True,
    ) -> np.ndarray:
        """What ``receiver`` hears over [start_time, start_time + n/fs).

        Applies, per overlapping transmission: multipath convolution,
        propagation delay, and the relative TX-RX oscillator rotation
        evaluated at the receiver's sample instants.
        """
        require(receiver in self._oscillators, f"unknown node {receiver!r}")
        out = np.zeros(n_samples, dtype=complex)
        rx_osc = self._oscillators[receiver]
        window_times = start_time + np.arange(n_samples) / self.sample_rate
        rx_phase = rx_osc.phase_at(window_times)

        for tx in self._transmissions:
            if exclude_own and tx.transmitter == receiver:
                continue
            link = self._links.get((tx.transmitter, receiver))
            if link is None:
                continue
            # convolve and delay at the medium rate; time-varying links are
            # frozen at the packet start (packets are orders of magnitude
            # shorter than the channel coherence time)
            if hasattr(link, "apply_at"):
                convolved = link.apply_at(tx.samples, tx.start_time)
            else:
                convolved = link.apply(tx.samples)
            delay_samples = link.delay_s * self.sample_rate
            arrival_time = tx.start_time
            # split total delay into the stream shift; start_time plus
            # propagation delay positions the first sample
            total_offset = (arrival_time - start_time) * self.sample_rate + delay_samples
            shifted = fractional_delay(convolved, total_offset - np.floor(total_offset))
            first = int(np.floor(total_offset))

            # overlap [first, first + len) with [0, n_samples)
            lo = max(first, 0)
            hi = min(first + shifted.size, n_samples)
            if hi <= lo:
                continue
            segment = shifted[lo - first : hi - first]
            seg_times = window_times[lo:hi]
            tx_phase = self._oscillators[tx.transmitter].phase_at(seg_times)
            rotation = np.exp(1j * (tx_phase - rx_phase[lo:hi]))
            out[lo:hi] += segment * rotation

        if include_noise and self.noise_power > 0:
            out += complex_normal(self._rng, n_samples, scale=np.sqrt(self.noise_power))
        return out

    def transmission_end_time(self) -> float:
        """Absolute time when the last scheduled transmission finishes."""
        if not self._transmissions:
            return 0.0
        return max(
            tx.start_time + tx.samples.size / self.sample_rate
            for tx in self._transmissions
        )
