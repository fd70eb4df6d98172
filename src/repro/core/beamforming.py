"""Multi-user beamforming: zero-forcing precoding and coherent diversity.

Implements the paper's §4 math.  With channel matrix H (clients x antennas)
the APs transmit ``W x`` where ``W = k H^{-1}``; the scalar ``k`` enforces
the per-antenna power constraint (§9: "APs multiply the signals by kH^-1 (k
accounts for the maximum power constraint at APs)"), so each client sees the
diagonal effective channel ``k I`` and a signal strength of ``k^2``.

Also provides the analysis used by the Fig. 6 microbenchmark: the SNR
reduction caused by a phase misalignment at one (or more) transmitters.
"""

from __future__ import annotations

import numpy as np

from repro.utils.units import linear_to_db
from repro.utils.validation import require


def zero_forcing_precoder(channel: np.ndarray, max_power_per_antenna: float = 1.0):
    """Zero-forcing precoder with the paper's power normalization.

    Args:
        channel: (n_clients, n_antennas) channel matrix H; square in the
            paper's setting (as many streams as total AP antennas), but a
            wide matrix (more antennas than clients) is accepted and handled
            with the right pseudo-inverse.
        max_power_per_antenna: Per-antenna average power limit.

    Returns:
        (precoder, k): ``precoder`` is (n_antennas, n_clients) so the antenna
        signal vector is ``precoder @ x``; ``k`` is the effective diagonal
        gain each client sees.  A stack of matrices (leading batch axes) is
        accepted and returns a stacked precoder plus an array ``k`` — the
        stacked ``np.linalg`` results are bit-identical to matrix-at-a-time
        calls, which the backend-equivalence harness relies on.

    Raises:
        np.linalg.LinAlgError: If the channel matrix is singular.
    """
    inverses, k = _zero_forcing(channel, max_power_per_antenna, n_bin_axes=0)
    return _scaled(inverses, k), k


def zero_forcing_precoder_wideband(
    channels: np.ndarray, max_power_per_antenna: float = 1.0
):
    """Per-subcarrier ZF precoders sharing one frame-wide power scalar k.

    The per-AP power constraint is physical: it caps each AP's *average*
    transmit power over the OFDM frame, i.e. across subcarriers — not per
    subcarrier.  Normalizing with a single k chosen so the worst AP's
    average power hits the limit lets well-conditioned subcarriers make up
    for deeply-faded ones, which is what a real wideband transmitter does
    (and §9's "k accounts for the maximum power constraint at APs" — one k,
    known "in each subcarrier", giving signal strength k^2 everywhere).

    Args:
        channels: (n_bins, n_clients, n_antennas) channel tensor, or a stack
            of them with leading batch axes (e.g. a trial axis).

    Returns:
        (precoders, k): precoders is (..., n_bins, n_antennas, n_clients);
        the effective channel on every bin is ``k I``.  ``k`` is a float for
        a single tensor and a (...,)-shaped array for a stack.

    Raises:
        np.linalg.LinAlgError: If any subcarrier's matrix is singular.
    """
    inverses, k = _zero_forcing(channels, max_power_per_antenna, n_bin_axes=1)
    return _scaled(inverses, k), k


def zero_forcing_gain_wideband(channels: np.ndarray, max_power_per_antenna: float = 1.0):
    """The ``k`` of :func:`zero_forcing_precoder_wideband` alone, bit for bit,
    without building the scaled precoders: each stream's SNR is k^2/N0."""
    return _zero_forcing(channels, max_power_per_antenna, n_bin_axes=1)[1]


def _zero_forcing(channels: np.ndarray, max_power_per_antenna: float, n_bin_axes: int):
    """The ZF body every precoder shares: stacked right inverses plus k.

    ``channels`` is (..., [n_bins,] n_clients, n_antennas); with
    ``n_bin_axes=1`` the per-antenna power is averaged over the bin axis
    before the worst antenna sets k.  Returns the *unscaled* inverses and
    k (a float for one matrix or tensor).  Stacked ``inv``/``pinv`` results
    are bit-identical to one call per matrix (the per-bin reference loop in
    tests/core/test_beamforming.py pins this).

    A stack whose bins all hold bin 0's matrix bit for bit (single-tap
    fading is flat across subcarriers) is solved on bin 0 alone: LAPACK
    returns the same bits for the same matrix, so the result is unchanged.
    """
    channels = np.asarray(channels, dtype=complex)
    require(channels.ndim >= 2 + n_bin_axes, "need (..., [n_bins,] n_clients, n_antennas)")
    n_clients, n_antennas = channels.shape[-2], channels.shape[-1]
    require(
        n_antennas >= n_clients,
        f"need at least as many antennas ({n_antennas}) as clients ({n_clients})",
    )
    if n_bin_axes and _flat_across_bins(channels):
        first = _right_inverses(channels[..., :1, :, :])
        # both copied out C-contiguous, not left stride-0 views: the bin
        # mean below then reduces in the same order as after a full solve
        shape = channels.shape[:-2] + (n_antennas,)
        inverses = np.ascontiguousarray(np.broadcast_to(first, shape + (n_clients,)))
        per_antenna = np.ascontiguousarray(np.broadcast_to(_row_power(first), shape))
    else:
        inverses = _right_inverses(channels)
        per_antenna = _row_power(inverses)
    if n_bin_axes:
        per_antenna = np.mean(per_antenna, axis=-2)
    worst = np.max(per_antenna, axis=-1)
    require(bool(np.all(worst > 0)), "degenerate channel")
    k = np.sqrt(max_power_per_antenna / worst)
    return inverses, float(k) if k.ndim == 0 else k


def _flat_across_bins(channels: np.ndarray) -> bool:
    """Whether every bin of a (..., n_bins, n, m) stack is bin 0's matrix,
    compared bit for bit.  Bin 1 goes first, so a frequency-selective stack
    is turned away after one bin's comparison."""
    if channels.shape[-3] < 2:
        return False
    bits = [part.view(np.int64) for part in (channels.real, channels.imag)]
    return all(
        np.array_equal(b[..., 1:2, :, :], b[..., :1, :, :]) for b in bits
    ) and all(np.all(b[..., 2:, :, :] == b[..., :1, :, :]) for b in bits)


def _row_power(inverses: np.ndarray) -> np.ndarray:
    """Per-antenna transmit power for unit-power streams: row norms squared."""
    return np.sum(np.abs(inverses) ** 2, axis=-1)


def _right_inverses(channels: np.ndarray) -> np.ndarray:
    """Stacked ``inv`` of square matrices, or checked ``pinv`` of wide ones."""
    if channels.shape[-1] == channels.shape[-2]:
        return np.linalg.inv(channels)
    inverses = np.linalg.pinv(channels)
    _check_right_inverse(channels, inverses)
    return inverses


def _scaled(inverses: np.ndarray, k):
    """The precoders ``k * inverses``, k broadcast over each stack entry."""
    return np.reshape(k, np.shape(k) + (1,) * (inverses.ndim - np.ndim(k))) * inverses


def _check_right_inverse(channel: np.ndarray, inverse: np.ndarray) -> None:
    """Reject precoders that do not actually diagonalize the channel.

    ``np.linalg.pinv`` "succeeds" on rank-deficient wide matrices (e.g. two
    collinear clients) but the result is a least-squares fit, not a right
    inverse — beamforming with it would silently mix the streams.
    """
    residual = channel @ inverse - np.eye(channel.shape[-2])
    if np.max(np.abs(residual)) > 1e-6:
        raise np.linalg.LinAlgError(
            "channel matrix is (numerically) rank deficient; streams cannot "
            "be separated by zero-forcing"
        )


def diversity_precoder(channel_row: np.ndarray, max_power_per_antenna: float = 1.0) -> np.ndarray:
    """Coherent-diversity beamforming weights for a single client (§8).

    Each AP i transmits ``h_i^* / |h_i| * x`` — full per-AP power with the
    conjugate phase, so all signals add coherently at the client.

    Args:
        channel_row: (n_antennas,) channel from each AP antenna to the client.

    Returns:
        (n_antennas,) weight vector.
    """
    channel_row = np.asarray(channel_row, dtype=complex).ravel()
    magnitude = np.abs(channel_row)
    weights = np.zeros_like(channel_row)
    nonzero = magnitude > 1e-15
    weights[nonzero] = np.conj(channel_row[nonzero]) / magnitude[nonzero]
    return weights * np.sqrt(max_power_per_antenna)


def effective_channel(
    channel: np.ndarray,
    precoder: np.ndarray,
    phase_errors: np.ndarray = None,
) -> np.ndarray:
    """The channel clients actually experience: ``H diag(e^{j err}) W``.

    Args:
        channel: (n_clients, n_antennas) true channel at transmission time.
        precoder: (n_antennas, n_clients) beamforming matrix.
        phase_errors: Per-antenna phase misalignment in radians (0 = perfect
            sync).  This models slave APs whose phase correction is off.
    """
    channel = np.asarray(channel, dtype=complex)
    precoder = np.asarray(precoder, dtype=complex)
    if phase_errors is None:
        return channel @ precoder
    phase_errors = np.asarray(phase_errors, dtype=float).ravel()
    require(
        phase_errors.size == channel.shape[1],
        "need one phase error per transmit antenna",
    )
    rotation = np.exp(1j * phase_errors)
    return (channel * rotation[None, :]) @ precoder


def sinr_after_beamforming(
    channel: np.ndarray,
    precoder: np.ndarray,
    noise_power: float,
    phase_errors: np.ndarray = None,
) -> np.ndarray:
    """Per-client SINR given (possibly misaligned) joint beamforming.

    The diagonal of the effective channel carries each client's signal; the
    off-diagonal leakage caused by misalignment is interference.
    """
    require(noise_power > 0, "noise power must be positive")
    eff = effective_channel(channel, precoder, phase_errors)
    signal = np.abs(np.diag(eff)) ** 2
    interference = np.sum(np.abs(eff) ** 2, axis=1) - signal
    return signal / (interference + noise_power)


def snr_reduction_from_misalignment(
    channel: np.ndarray,
    misalignment_rad: float,
    snr_db: float,
    misaligned_antenna: int = -1,
) -> np.ndarray:
    """Fig. 6 analysis: per-client SNR loss (dB) from one slave's phase error.

    Computes ZF SINR with and without a phase error of ``misalignment_rad``
    at one antenna, with noise set so the aligned system runs at ``snr_db``.

    Returns:
        Per-client SNR reduction in dB (positive = loss).
    """
    channel = np.asarray(channel, dtype=complex)
    precoder, k = zero_forcing_precoder(channel)
    noise_power = k**2 / 10.0 ** (snr_db / 10.0)
    aligned = sinr_after_beamforming(channel, precoder, noise_power)
    errors = np.zeros(channel.shape[1])
    errors[misaligned_antenna] = misalignment_rad
    misaligned = sinr_after_beamforming(channel, precoder, noise_power, errors)
    return linear_to_db(aligned) - linear_to_db(misaligned)


def snr_reduction_grid(
    channels: np.ndarray,
    misalignments: np.ndarray,
    snrs_db: np.ndarray,
    misaligned_antenna: int = -1,
) -> np.ndarray:
    """Batched Fig. 6 grid: SNR loss for every (channel, snr, misalignment).

    Vectorized equivalent of calling :func:`snr_reduction_from_misalignment`
    for each (snr_db, misalignment) pair on each channel of a stack: the ZF
    precoder is computed once per channel (stacked), then one broadcast
    matmul evaluates every misalignment on every channel.  Because the
    scalar helper recomputes the *same* precoder deterministically per call,
    the grid is bit-identical to the scalar nest.

    Args:
        channels: (..., n_clients, n_antennas) channel matrix stack.
        misalignments: (M,) phase errors in radians.
        snrs_db: (S,) aligned-system SNR operating points.

    Returns:
        (..., S, M, n_clients) per-client SNR reduction in dB.
    """
    channels = np.asarray(channels, dtype=complex)
    mis = np.atleast_1d(np.asarray(misalignments, dtype=float))
    snrs = np.atleast_1d(np.asarray(snrs_db, dtype=float))
    precoder, k = zero_forcing_precoder(channels)
    k = np.asarray(k, dtype=float)
    # the scalar helper's float arithmetic, element by element: libm's
    # pow(k, 2) there differs from numpy's k * k in the last bit now and then
    noise = np.array(
        [[kk**2 / 10.0 ** (s / 10.0) for s in snrs.tolist()] for kk in k.ravel().tolist()]
    ).reshape(k.shape + snrs.shape)  # (..., S)

    eff0 = channels @ precoder  # (..., C, C)
    sig0 = np.abs(np.diagonal(eff0, axis1=-2, axis2=-1)) ** 2
    intf0 = np.sum(np.abs(eff0) ** 2, axis=-1) - sig0
    aligned = sig0[..., None, :] / (intf0[..., None, :] + noise[..., :, None])

    n_antennas = channels.shape[-1]
    errors = np.zeros((mis.size, n_antennas))
    errors[:, misaligned_antenna] = mis
    rotation = np.exp(1j * errors)  # (M, A)
    rotated = channels[..., None, :, :] * rotation[:, None, :]  # (..., M, C, A)
    eff = rotated @ precoder[..., None, :, :]  # (..., M, C, C)
    sig = np.abs(np.diagonal(eff, axis1=-2, axis2=-1)) ** 2  # (..., M, C)
    intf = np.sum(np.abs(eff) ** 2, axis=-1) - sig
    misaligned = (
        sig[..., None, :, :]
        / (intf[..., None, :, :] + noise[..., :, None, None])
    )  # (..., S, M, C)
    return linear_to_db(aligned)[..., :, None, :] - linear_to_db(misaligned)
