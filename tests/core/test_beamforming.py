"""Zero-forcing and diversity beamforming math (§4, §8)."""

import numpy as np
import pytest

from repro.channel.models import random_channel_matrix
from repro.core.beamforming import (
    diversity_precoder,
    effective_channel,
    sinr_after_beamforming,
    snr_reduction_from_misalignment,
    zero_forcing_gain_wideband,
    zero_forcing_precoder,
    zero_forcing_precoder_wideband,
)
from repro.sim.fastsim import nulling_inr_db


@pytest.fixture
def channel_2x2():
    return random_channel_matrix(2, 2, rng=5)


class TestZeroForcing:
    def test_effective_channel_is_diagonal(self, channel_2x2):
        w, k = zero_forcing_precoder(channel_2x2)
        eff = effective_channel(channel_2x2, w)
        assert np.allclose(eff, k * np.eye(2), atol=1e-12)

    def test_diagonal_gains_equal_k(self):
        h = random_channel_matrix(4, 4, rng=6)
        w, k = zero_forcing_precoder(h)
        eff = effective_channel(h, w)
        assert np.allclose(np.diag(eff), k)

    def test_per_antenna_power_respected(self):
        h = random_channel_matrix(3, 3, rng=7)
        w, _ = zero_forcing_precoder(h, max_power_per_antenna=1.0)
        row_power = np.sum(np.abs(w) ** 2, axis=1)
        assert np.all(row_power <= 1.0 + 1e-12)
        # the binding antenna transmits at exactly the limit
        assert np.max(row_power) == pytest.approx(1.0)

    def test_power_limit_scales_k(self, channel_2x2):
        _, k1 = zero_forcing_precoder(channel_2x2, max_power_per_antenna=1.0)
        _, k4 = zero_forcing_precoder(channel_2x2, max_power_per_antenna=4.0)
        assert k4 == pytest.approx(2 * k1)

    def test_wide_matrix_pseudo_inverse(self):
        h = random_channel_matrix(2, 4, rng=8)
        w, k = zero_forcing_precoder(h)
        assert w.shape == (4, 2)
        eff = effective_channel(h, w)
        assert np.allclose(eff, k * np.eye(2), atol=1e-12)

    def test_more_clients_than_antennas_rejected(self):
        with pytest.raises(ValueError):
            zero_forcing_precoder(random_channel_matrix(3, 2, rng=9))

    def test_singular_channel_raises(self):
        h = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        with pytest.raises(np.linalg.LinAlgError):
            zero_forcing_precoder(h)


class TestWidebandZeroForcing:
    def test_all_bins_share_k(self):
        rng = np.random.default_rng(10)
        channels = np.stack([random_channel_matrix(3, 3, rng=rng) for _ in range(8)])
        precoders, k = zero_forcing_precoder_wideband(channels)
        for b in range(8):
            eff = channels[b] @ precoders[b]
            assert np.allclose(eff, k * np.eye(3), atol=1e-10)

    def test_average_power_constraint(self):
        rng = np.random.default_rng(11)
        channels = np.stack([random_channel_matrix(3, 3, rng=rng) for _ in range(16)])
        precoders, _ = zero_forcing_precoder_wideband(channels, max_power_per_antenna=1.0)
        per_ap = np.mean(np.sum(np.abs(precoders) ** 2, axis=2), axis=0)
        assert np.all(per_ap <= 1.0 + 1e-12)
        assert np.max(per_ap) == pytest.approx(1.0)

    @pytest.mark.parametrize("extra_antennas", [0, 1, 3])
    def test_matches_per_bin_reference_loop_bitwise(self, extra_antennas):
        """The stacked solve equals one inverse per subcarrier, bit for bit
        (square and wide), k included — §4's per-subcarrier math."""
        rng = np.random.default_rng(20 + extra_antennas)
        for n in range(2, 11):
            n_tx = n + extra_antennas
            channels = (rng.standard_normal((12, n, n_tx))
                        + 1j * rng.standard_normal((12, n, n_tx)))
            inverses = np.empty((12, n_tx, n), dtype=complex)
            for b in range(12):
                if n_tx == n:
                    inverses[b] = np.linalg.inv(channels[b])
                else:
                    inverses[b] = np.linalg.pinv(channels[b])
            per_antenna = np.mean(np.sum(np.abs(inverses) ** 2, axis=-1), axis=-2)
            k_ref = float(np.sqrt(1.0 / np.max(per_antenna, axis=-1)))
            precoders, k = zero_forcing_precoder_wideband(channels)
            assert k == k_ref
            np.testing.assert_array_equal(precoders, k_ref * inverses)

    def test_gain_alone_matches_precoder_k_bitwise(self):
        rng = np.random.default_rng(30)
        stack = (rng.standard_normal((5, 12, 4, 6))
                 + 1j * rng.standard_normal((5, 12, 4, 6)))
        _, k = zero_forcing_precoder_wideband(stack)
        np.testing.assert_array_equal(zero_forcing_gain_wideband(stack), k)
        k0 = zero_forcing_gain_wideband(stack[0])
        assert isinstance(k0, float)
        assert k0 == zero_forcing_precoder_wideband(stack[0])[1]

    @pytest.mark.parametrize("n", [2, 5, 10])
    @pytest.mark.parametrize("extra_antennas", [0, 2])
    def test_flat_stack_solves_bin_0_and_matches_per_bin_loop(
        self, n, extra_antennas, monkeypatch
    ):
        """Single-tap channels repeat one matrix on every bin: that matrix
        is inverted once per stack entry, with the per-bin loop's bits."""
        rng = np.random.default_rng(40 + n + extra_antennas)
        channels = np.repeat(_complex_normal(rng, (3, 1, n, n + extra_antennas)), 12, axis=-3)
        inverses_ref, k_ref = _per_bin_reference(channels)
        shapes = _spy_on_solver(monkeypatch, extra_antennas)
        precoders, k = zero_forcing_precoder_wideband(channels)
        assert shapes == [(3, 1, n, n + extra_antennas)]
        np.testing.assert_array_equal(k, k_ref)
        np.testing.assert_array_equal(precoders, k_ref[:, None, None, None] * inverses_ref)
        assert precoders.flags.c_contiguous
        np.testing.assert_array_equal(zero_forcing_gain_wideband(channels), k_ref)

    def test_mixed_stack_takes_full_path(self, monkeypatch):
        """One frequency-selective entry sends the whole stack through the
        per-bin solve; the flat entry's result is unchanged."""
        rng = np.random.default_rng(50)
        flat = np.repeat(_complex_normal(rng, (1, 1, 4, 4)), 12, axis=-3)
        selective = _complex_normal(rng, (1, 12, 4, 4))
        channels = np.concatenate([flat, selective])
        inverses_ref, k_ref = _per_bin_reference(channels)
        shapes = _spy_on_solver(monkeypatch, 0)
        precoders, k = zero_forcing_precoder_wideband(channels)
        assert shapes == [(2, 12, 4, 4)]
        np.testing.assert_array_equal(k, k_ref)
        np.testing.assert_array_equal(precoders, k_ref[:, None, None, None] * inverses_ref)
        assert zero_forcing_gain_wideband(flat)[0] == k[0]

    def test_last_bin_differing_takes_full_path(self, monkeypatch):
        rng = np.random.default_rng(51)
        channels = np.repeat(_complex_normal(rng, (2, 1, 3, 3)), 12, axis=-3)
        channels[1, -1, 2, 0] += 1e-9
        inverses_ref, k_ref = _per_bin_reference(channels)
        shapes = _spy_on_solver(monkeypatch, 0)
        precoders, k = zero_forcing_precoder_wideband(channels)
        assert shapes == [(2, 12, 3, 3)]
        np.testing.assert_array_equal(k, k_ref)
        np.testing.assert_array_equal(precoders, k_ref[:, None, None, None] * inverses_ref)

    def test_singular_flat_tensor_raises(self):
        h = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        with pytest.raises(np.linalg.LinAlgError):
            zero_forcing_precoder_wideband(np.repeat(h[None], 12, axis=0))

    def test_rank_deficient_wide_flat_tensor_rejected(self):
        """pinv "succeeds" on collinear clients; the right-inverse check on
        the one solved bin still rejects the tensor."""
        h = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]], dtype=complex)
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
            zero_forcing_gain_wideband(np.repeat(h[None], 12, axis=0))

    def test_wideband_k_at_least_worst_bin(self):
        """Averaging the constraint across bins can only help vs. the worst
        single bin's normalization."""
        rng = np.random.default_rng(12)
        channels = np.stack([random_channel_matrix(3, 3, rng=rng) for _ in range(8)])
        _, k_wide = zero_forcing_precoder_wideband(channels)
        k_worst = min(zero_forcing_precoder(channels[b])[1] for b in range(8))
        assert k_wide >= k_worst - 1e-12


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _per_bin_reference(channels):
    """One inverse per (stack entry, bin) and the frame-wide k, by loop."""
    n, n_tx = channels.shape[-2:]
    inverses = np.empty(channels.shape[:-2] + (n_tx, n), dtype=complex)
    for index in np.ndindex(channels.shape[:-2]):
        solve = np.linalg.inv if n_tx == n else np.linalg.pinv
        inverses[index] = solve(channels[index])
    per_antenna = np.mean(np.sum(np.abs(inverses) ** 2, axis=-1), axis=-2)
    return inverses, np.sqrt(1.0 / np.max(per_antenna, axis=-1))


def _spy_on_solver(monkeypatch, extra_antennas):
    """Record the shape of every stack handed to ``inv`` (or ``pinv``)."""
    name = "inv" if extra_antennas == 0 else "pinv"
    solver, shapes = getattr(np.linalg, name), []

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return solver(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spy)
    return shapes


class TestMisalignment:
    def test_zero_misalignment_no_interference(self, channel_2x2):
        w, k = zero_forcing_precoder(channel_2x2)
        sinr = sinr_after_beamforming(channel_2x2, w, noise_power=k**2 / 100)
        assert np.allclose(sinr, 100.0, rtol=1e-9)

    def test_misalignment_reduces_sinr(self, channel_2x2):
        w, k = zero_forcing_precoder(channel_2x2)
        noise = k**2 / 100
        clean = sinr_after_beamforming(channel_2x2, w, noise)
        dirty = sinr_after_beamforming(
            channel_2x2, w, noise, phase_errors=np.array([0.0, 0.3])
        )
        assert np.all(dirty < clean)

    def test_reduction_grows_with_misalignment(self, channel_2x2):
        losses = [
            np.mean(snr_reduction_from_misalignment(channel_2x2, m, 20.0))
            for m in (0.0, 0.1, 0.3, 0.5)
        ]
        assert losses == sorted(losses)
        assert losses[0] == pytest.approx(0.0, abs=1e-9)

    def test_reduction_worse_at_high_snr(self):
        """Fig. 6: 'phase misalignment causes a greater reduction in SNR when
        the system is at higher SNR'."""
        rng = np.random.default_rng(13)
        loss10 = loss20 = 0.0
        for _ in range(50):
            h = random_channel_matrix(2, 2, rng=rng)
            loss10 += np.mean(snr_reduction_from_misalignment(h, 0.35, 10.0))
            loss20 += np.mean(snr_reduction_from_misalignment(h, 0.35, 20.0))
        assert loss20 > loss10

    def test_paper_fig6_operating_point(self):
        """Fig. 6: 0.35 rad at 20 dB costs ~8 dB."""
        rng = np.random.default_rng(14)
        losses = [
            np.mean(snr_reduction_from_misalignment(
                random_channel_matrix(2, 2, rng=rng), 0.35, 20.0))
            for _ in range(200)
        ]
        assert np.mean(losses) == pytest.approx(8.0, abs=1.5)


class TestDiversity:
    def test_weights_unit_modulus(self):
        rng = np.random.default_rng(15)
        row = rng.normal(size=5) + 1j * rng.normal(size=5)
        w = diversity_precoder(row)
        assert np.allclose(np.abs(w), 1.0)

    def test_coherent_combining(self):
        rng = np.random.default_rng(16)
        row = rng.normal(size=5) + 1j * rng.normal(size=5)
        w = diversity_precoder(row)
        combined = row @ w
        assert combined.imag == pytest.approx(0.0, abs=1e-12)
        assert combined.real == pytest.approx(np.sum(np.abs(row)))

    def test_n_squared_snr_gain_with_equal_links(self):
        """§11.4: coherent diversity gives a multiplicative N^2 SNR gain."""
        n = 10
        row = np.ones(n, dtype=complex)
        w = diversity_precoder(row)
        assert abs(row @ w) ** 2 == pytest.approx(n**2)

    def test_zero_entries_handled(self):
        w = diversity_precoder(np.array([1.0 + 0j, 0.0]))
        assert w[1] == 0.0


class TestNulling:
    """Fig. 8's metric, (leakage + noise) / noise in dB, on one bin."""

    def test_perfect_alignment_no_leakage(self):
        h = random_channel_matrix(3, 3, rng=17)
        inr_db = nulling_inr_db(
            h[None], nulled_client=1, noise_power=1.0, phase_errors=np.zeros(3)
        )
        assert inr_db == pytest.approx(0.0, abs=1e-12)

    def test_misalignment_leaks_into_null(self):
        h = random_channel_matrix(3, 3, rng=18)
        inr_db = nulling_inr_db(
            h[None], nulled_client=0, noise_power=1e-3,
            phase_errors=np.array([0.0, 0.05, -0.04]),
        )
        assert inr_db > 10 * np.log10(1.1)  # leakage above 0.1x the noise
