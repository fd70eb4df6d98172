"""Frequency-domain fast simulation path."""

import numpy as np
import pytest

from repro.core.beamforming import zero_forcing_precoder_wideband
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
from repro.utils.units import linear_to_db


class TestChannelTensor:
    def test_shape_and_gain(self):
        rng = np.random.default_rng(0)
        snrs = np.full((3, 4), 20.0)
        gains = []
        for _ in range(50):
            ch = build_channel_tensor(snrs, rng)
            gains.append(np.mean(np.abs(ch) ** 2))
        assert build_channel_tensor(snrs, rng).shape == (52, 3, 4)
        assert np.mean(gains) == pytest.approx(100.0, rel=0.15)

    def test_band_draw_within_spread(self):
        rng = np.random.default_rng(1)
        snrs = draw_band_snrs((10.0, 14.0), 6, 6, rng, ap_spread_db=0.0)
        assert np.all(snrs >= 10.0) and np.all(snrs <= 14.0)
        # all APs equal when spread is zero
        assert np.allclose(snrs, snrs[:, :1])


class TestJointZf:
    def test_perfect_sync_gives_flat_sinr(self):
        rng = np.random.default_rng(2)
        ch = build_channel_tensor(np.full((3, 3), 20.0), rng)
        sinr = joint_zf_sinr_db(ch)
        # with shared wideband k the per-bin SINR is k^2/noise everywhere
        assert np.std(sinr) < 0.01

    def test_phase_errors_reduce_sinr(self):
        rng = np.random.default_rng(3)
        ch = build_channel_tensor(np.full((3, 3), 20.0), rng)
        clean = joint_zf_sinr_db(ch)
        dirty = joint_zf_sinr_db(ch, phase_errors=np.array([0.0, 0.3, -0.3]))
        assert np.mean(dirty) < np.mean(clean) - 3.0

    def test_estimation_error_reduces_sinr(self):
        rng = np.random.default_rng(4)
        ch = build_channel_tensor(np.full((3, 3), 20.0), rng)
        noisy_est = SyncErrorModel(estimation_snr_boost_db=0.0).corrupt_estimate(
            ch, 20.0, rng
        )
        clean = joint_zf_sinr_db(ch)
        dirty = joint_zf_sinr_db(ch, est_channels=noisy_est)
        assert np.mean(dirty) < np.mean(clean)

    def test_lead_error_ignored_when_only_lead(self):
        """A global phase rotation (lead included) is invisible to SINR."""
        rng = np.random.default_rng(5)
        ch = build_channel_tensor(np.full((2, 2), 20.0), rng)
        common = joint_zf_sinr_db(ch, phase_errors=np.array([0.2, 0.2]))
        clean = joint_zf_sinr_db(ch)
        assert np.allclose(common, clean, atol=1e-6)


def per_bin_reference(channels, est, errors, noise_power=1.0):
    """The per-subcarrier loop joint_zf_sinr_db used for 3-D inputs."""
    rotation = np.exp(1j * errors)
    precoders, _ = zero_forcing_precoder_wideband(est)
    n_bins, n_rx, _ = channels.shape
    sinr = np.empty((n_rx, n_bins))
    for b in range(n_bins):
        eff = (channels[b] * rotation[None, :]) @ precoders[b]
        signal = np.abs(np.diag(eff)) ** 2
        interference = np.sum(np.abs(eff) ** 2, axis=1) - signal
        sinr[:, b] = signal / (interference + noise_power)
    return linear_to_db(sinr)


class TestJointZfLayout:
    """One stacked formula serves single tensors and batches, bit for bit."""

    @pytest.fixture(params=[2, 4, 8], ids=lambda n: f"n{n}")
    def case(self, request):
        n = request.param
        rng = np.random.default_rng(10 + n)
        snrs = draw_band_snrs((18.0, 22.0), n, n, rng)
        ch = build_channel_tensor(snrs, rng)  # a strided (moveaxis) view
        est = SyncErrorModel().corrupt_estimate(ch, snrs, rng)
        errors = SyncErrorModel().phase_errors(n, rng)
        return ch, est, errors

    def test_3d_equals_batch_of_one(self, case):
        ch, est, errors = case
        single = joint_zf_sinr_db(ch, phase_errors=errors, est_channels=est)
        batch = joint_zf_sinr_db(ch[None], phase_errors=errors[None],
                                 est_channels=est[None])
        np.testing.assert_array_equal(single, batch[0])

    def test_result_is_c_contiguous(self, case):
        ch, est, errors = case
        for out in (joint_zf_sinr_db(ch, phase_errors=errors, est_channels=est),
                    joint_zf_sinr_db(ch[None], phase_errors=errors[None],
                                     est_channels=est[None])):
            assert out.flags.c_contiguous

    @pytest.mark.parametrize("contiguous", [False, True])
    def test_matches_per_bin_reference(self, case, contiguous):
        ch, est, errors = case
        if contiguous:  # the simulator's snapshots are C-contiguous
            ch = np.ascontiguousarray(ch)
        np.testing.assert_array_equal(
            joint_zf_sinr_db(ch, phase_errors=errors, est_channels=est),
            per_bin_reference(ch, est, errors),
        )


class TestNulling:
    def test_zero_inr_with_perfect_sync(self):
        rng = np.random.default_rng(6)
        ch = build_channel_tensor(np.full((3, 3), 20.0), rng)
        assert nulling_inr_db(ch, nulled_client=0) == pytest.approx(0.0, abs=1e-6)

    def test_inr_grows_with_phase_error(self):
        rng = np.random.default_rng(7)
        ch = build_channel_tensor(np.full((3, 3), 20.0), rng)
        small = nulling_inr_db(ch, 0, phase_errors=np.array([0.0, 0.01, 0.01]))
        large = nulling_inr_db(ch, 0, phase_errors=np.array([0.0, 0.2, 0.2]))
        assert large > small


class TestDiversity:
    def test_n_squared_gain(self):
        ch = np.ones((52, 10))  # 10 equal unit links
        snr = diversity_snr_db(ch)
        assert np.allclose(snr, 20.0)  # 10*log10(100)

    def test_misalignment_erodes_gain(self):
        rng = np.random.default_rng(8)
        ch = np.ones((52, 4))
        clean = diversity_snr_db(ch)
        dirty = diversity_snr_db(ch, phase_errors=np.array([0, 0.8, -0.8, 0.8]))
        assert np.mean(dirty) < np.mean(clean)


class TestMmse:
    def test_orthogonal_channel_no_loss(self):
        ch = np.tile(np.eye(2)[None, :, :], (52, 1, 1)).astype(complex) * 10.0
        sinr = mmse_stream_sinr_db(ch)
        assert np.allclose(sinr, 20.0, atol=0.1)

    def test_correlated_channel_loses(self):
        base = np.array([[1.0, 0.95], [0.95, 1.0]], dtype=complex) * 10.0
        ch = np.tile(base[None, :, :], (52, 1, 1))
        sinr = mmse_stream_sinr_db(ch)
        assert np.mean(sinr) < 15.0

    def test_rx_count_validated(self):
        with pytest.raises(ValueError):
            mmse_stream_sinr_db(np.ones((5, 1, 2), dtype=complex))


class TestSyncErrorModel:
    def test_lead_error_is_zero(self):
        model = SyncErrorModel()
        errors = model.phase_errors(5, np.random.default_rng(9))
        assert errors[0] == 0.0

    def test_shared_device_shares_error(self):
        model = SyncErrorModel()
        errors = model.phase_errors(
            4, np.random.default_rng(10), device_of=[0, 0, 1, 1]
        )
        assert errors[0] == errors[1] == 0.0
        assert errors[2] == errors[3] != 0.0

    def test_sigma_controls_spread(self):
        rng = np.random.default_rng(11)
        small = np.std([SyncErrorModel(0.01).phase_errors(10, rng)[1:] for _ in range(200)])
        large = np.std([SyncErrorModel(0.05).phase_errors(10, rng)[1:] for _ in range(200)])
        assert large > 3 * small

    def test_corrupt_estimate_scales_with_boost(self):
        rng = np.random.default_rng(12)
        ch = build_channel_tensor(np.full((2, 2), 20.0), rng)
        tight = SyncErrorModel(estimation_snr_boost_db=30.0).corrupt_estimate(ch, 20.0, rng)
        loose = SyncErrorModel(estimation_snr_boost_db=0.0).corrupt_estimate(ch, 20.0, rng)
        assert np.mean(np.abs(tight - ch)) < np.mean(np.abs(loose - ch)) / 5


class TestUnicast:
    def test_matches_link_gain(self):
        ch = np.full((52, 2, 2), 3.0, dtype=complex)
        snr = unicast_snr_db(ch, client=0, ap=1)
        assert np.allclose(snr, 10 * np.log10(9.0))
