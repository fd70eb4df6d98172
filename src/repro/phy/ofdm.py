"""64-point OFDM modulation with pilot-aided phase tracking.

Maps 48 data symbols plus 4 scrambled pilots onto the 802.11 subcarrier
grid, performs the IFFT and prepends the cyclic prefix.  The demodulator
strips the prefix, FFTs, equalizes against a channel estimate, and applies
common-phase-error correction derived from the pilots — which is exactly how
MegaMIMO clients "track the phase of the lead AP symbol by symbol" (§5.3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import (
    CP_LENGTH,
    DATA_SUBCARRIERS,
    FFT_SIZE,
    N_DATA_SUBCARRIERS,
    PILOT_POLARITY,
    PILOT_SUBCARRIERS,
    PILOT_VALUES,
    SYMBOL_LENGTH,
)
from repro.utils.validation import require


def subcarrier_to_fft_index(subcarriers: np.ndarray) -> np.ndarray:
    """Map signed subcarrier indices (-26..26) to FFT bin indices (0..63)."""
    subcarriers = np.asarray(subcarriers)
    return np.where(subcarriers >= 0, subcarriers, subcarriers + FFT_SIZE)


_DATA_BINS = subcarrier_to_fft_index(DATA_SUBCARRIERS)
_PILOT_BINS = subcarrier_to_fft_index(PILOT_SUBCARRIERS)


@dataclass
class EqualizedSymbol:
    """Result of demodulating OFDM symbols (one or a batch).

    Attributes:
        data: ``(..., 48)`` equalized data-subcarrier values.
        common_phase: ``(...)`` pilot-derived common phase error removed.
        pilot_snr: ``(...)`` crude SNR estimate from pilot dispersion
            (linear).

    For a single symbol the two estimates are scalars.
    """

    data: np.ndarray
    common_phase: np.ndarray
    pilot_snr: np.ndarray


def _pilots(symbol_index) -> np.ndarray:
    """``(..., 4)`` pilot values for an array of symbol indices."""
    polarity = PILOT_POLARITY[np.asarray(symbol_index) % len(PILOT_POLARITY)]
    return PILOT_VALUES * polarity[..., None]


class OfdmModulator:
    """Map frequency-domain data symbols to cyclic-prefixed time samples.

    Every method is batch-first: leading axes are symbols (and streams)
    transformed together in one IFFT.
    """

    def __init__(self):
        self.fft_size = FFT_SIZE
        self.cp_length = CP_LENGTH

    def symbol_grid(self, data_symbols: np.ndarray, symbol_index=0) -> np.ndarray:
        """The 64-bin frequency grids of symbols: data + scrambled pilots.

        Args:
            data_symbols: ``(..., 48)`` complex constellation points.
            symbol_index: Index (or array of indices, broadcast against
                the leading axes) into the pilot polarity sequence (the
                SIGNAL symbol is index 0 in 802.11; data symbols continue
                from 1).

        Returns:
            ``(..., 64)`` frequency grids.
        """
        data_symbols = np.asarray(data_symbols, dtype=complex)
        require(
            data_symbols.ndim >= 1 and data_symbols.shape[-1] == N_DATA_SUBCARRIERS,
            f"need {N_DATA_SUBCARRIERS} data symbols per OFDM symbol, "
            f"got shape {data_symbols.shape}",
        )
        grid = np.zeros(data_symbols.shape[:-1] + (FFT_SIZE,), dtype=complex)
        grid[..., _DATA_BINS] = data_symbols
        grid[..., _PILOT_BINS] = _pilots(symbol_index)
        return grid

    def modulate_grid(self, grid: np.ndarray) -> np.ndarray:
        """Modulate ``(..., 64)`` frequency grids to ``(..., 80)`` samples."""
        grid = np.asarray(grid, dtype=complex)
        require(grid.ndim >= 1 and grid.shape[-1] == FFT_SIZE, "grid must have 64 bins")
        time = np.fft.ifft(grid, axis=-1) * np.sqrt(FFT_SIZE)
        return np.concatenate([time[..., -CP_LENGTH:], time], axis=-1)

    def modulate_symbol(self, data_symbols: np.ndarray, symbol_index=0) -> np.ndarray:
        """Build ``(..., 80)``-sample OFDM symbols from ``(..., 48)`` data."""
        return self.modulate_grid(self.symbol_grid(data_symbols, symbol_index))

    def modulate_frame(self, data_symbols: np.ndarray, first_symbol_index: int = 0) -> np.ndarray:
        """Concatenate many OFDM symbols; ``data_symbols`` is (n_sym, 48)."""
        data_symbols = np.asarray(data_symbols, dtype=complex)
        require(data_symbols.ndim == 2, "expected a (n_symbols, 48) array")
        indices = first_symbol_index + np.arange(data_symbols.shape[0])
        return self.modulate_symbol(data_symbols, indices).reshape(-1)


class OfdmDemodulator:
    """Strip CP, FFT, equalize and phase-track received OFDM symbols."""

    def __init__(self):
        self.fft_size = FFT_SIZE
        self.cp_length = CP_LENGTH

    def fft_symbol(self, samples: np.ndarray) -> np.ndarray:
        """FFT ``(..., 80)``-sample OFDM symbols to ``(..., 64)`` grids."""
        samples = np.asarray(samples, dtype=complex)
        require(
            samples.ndim >= 1 and samples.shape[-1] == SYMBOL_LENGTH,
            f"need {SYMBOL_LENGTH} samples per OFDM symbol",
        )
        return np.fft.fft(samples[..., CP_LENGTH:], axis=-1) / np.sqrt(FFT_SIZE)

    def demodulate_symbol(
        self,
        samples: np.ndarray,
        channel: np.ndarray,
        symbol_index=0,
        track_phase: bool = True,
    ) -> EqualizedSymbol:
        """Equalize received OFDM symbols with one FFT.

        Args:
            samples: ``(..., 80)`` time-domain samples (with CP); leading
                axes are a batch of symbols.
            channel: Complex channel estimate over the 64 FFT bins,
                ``(64,)`` or broadcastable against the batch as ``(..., 64)``.
            symbol_index: Pilot polarity index of each symbol, an int or an
                array broadcastable against the batch.
            track_phase: Remove pilot-derived common phase error (residual
                CFO/SFO) before slicing.

        Returns:
            An :class:`EqualizedSymbol` with equalized data values.
        """
        grid = self.fft_symbol(samples)
        channel = np.asarray(channel, dtype=complex)
        require(channel.shape[-1:] == (FFT_SIZE,), "channel estimate must cover 64 bins")

        raw_pilots = grid[..., _PILOT_BINS] / _safe(channel[..., _PILOT_BINS])
        rotations = raw_pilots * np.conj(_pilots(symbol_index))
        common = np.sum(rotations, axis=-1)
        if track_phase:
            common_phase = np.angle(common)
        else:
            common_phase = np.zeros(common.shape)
        derotate = np.exp(-1j * common_phase)[..., None]

        data = grid[..., _DATA_BINS] / _safe(channel[..., _DATA_BINS])
        data = data * derotate

        # pilot dispersion around the common rotation -> noise estimate
        aligned = rotations * derotate
        # C pow(), as a float64 scalar's ``** 2`` is: an array's ``** 2``
        # squares, which rounds differently in the last bit
        signal_power = np.float_power(np.mean(np.abs(aligned), axis=-1), 2)
        spread = aligned - np.mean(aligned, axis=-1, keepdims=True)
        noise_power = np.mean(np.abs(spread) ** 2, axis=-1)
        pilot_snr = signal_power / np.maximum(noise_power, 1e-12)
        return EqualizedSymbol(
            data=data, common_phase=common_phase[()], pilot_snr=pilot_snr[()]
        )


def _safe(values: np.ndarray, floor: float = 1e-9) -> np.ndarray:
    """Avoid dividing by (near-)zero channel bins."""
    values = np.asarray(values, dtype=complex).copy()
    small = np.abs(values) < floor
    values[small] = floor
    return values
