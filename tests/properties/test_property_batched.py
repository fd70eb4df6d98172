"""Property-based tests of the batch-first (vectorized) kernel paths.

Batch-first sweep kernels rest on four families of invariants:

* **batch-of-1 equivalence** — feeding a physics function a stack of
  trials yields, per trial slice, exactly what the unbatched (3-D) call
  produces.  Everything except :func:`nulling_inr_db` is bitwise; nulling
  keeps a per-subcarrier gemv loop for 3-D input beside a batched gemm
  and is pinned at tight tolerance instead;
* **shape/dtype invariants** — batch axes pass through untouched and
  outputs are real float arrays whatever the topology dimensions;
* **permutation invariance** — trials own independent seed streams, so
  permuting the seed list permutes the per-trial results (and leaves any
  aggregate over trials unchanged);
* **chunk-geometry invariance** — every sweep kernel's result for a seed
  is the same, bit for bit, whatever batch the seed runs in.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.constants import SAMPLE_RATE_USRP, SNR_BANDS_DB
from repro.core.beamforming import (
    snr_reduction_from_misalignment,
    snr_reduction_grid,
    zero_forcing_precoder_wideband,
)
from repro.mac.rate import EffectiveSnrRateSelector
from repro.runtime import seed_sequence
from repro.sim.ablations import sync_ablation_kernel
from repro.sim.experiments import fig6_kernel, fig8_kernel, fig9_kernel, fig11_kernel
from repro.sim.fastsim import (
    SyncErrorModel,
    diversity_snr_db,
    joint_zf_sinr_db,
    mmse_stream_sinr_db,
    nulling_inr_db,
)
from repro.utils.units import linear_to_db

dims = st.integers(min_value=2, max_value=4)
batch_sizes = st.integers(min_value=1, max_value=3)
bins = st.integers(min_value=2, max_value=5)
seeds = st.integers(min_value=0, max_value=2**31)


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _stack(seed, batch, n_bins, n_rx, n_tx):
    rng = np.random.default_rng(seed)
    channels = _complex(rng, (batch, n_bins, n_rx, n_tx))
    phases = rng.uniform(-np.pi, np.pi, n_tx)
    return channels, phases


def _mmse_per_bin(channels, noise_power=1.0, per_stream_power=1.0):
    """Reference MMSE per-stream SINR (dB): one 2-D inverse per subcarrier."""
    n_bins, _, n_tx = channels.shape
    eye = np.eye(n_tx)
    sinr = np.empty((n_tx, n_bins))
    for b in range(n_bins):
        h = channels[b]
        gram = eye + (per_stream_power / noise_power) * (h.conj().T @ h)
        inv_diag = np.real(np.diag(np.linalg.inv(gram)))
        sinr[:, b] = 1.0 / np.maximum(inv_diag, 1e-12) - 1.0
    return linear_to_db(np.maximum(sinr, 1e-12))


class TestBatchOfOneMatchesScalar:
    @given(seed=seeds, batch=batch_sizes, n=dims, n_bins=bins)
    @settings(max_examples=25, deadline=None)
    def test_joint_zf_bitwise(self, seed, batch, n, n_bins):
        channels, phases = _stack(seed, batch, n_bins, n, n)
        est = channels + 0.01 * _complex(np.random.default_rng(seed + 1),
                                         channels.shape)
        batched = joint_zf_sinr_db(channels, phase_errors=phases,
                                   est_channels=est)
        for t in range(batch):
            scalar = joint_zf_sinr_db(channels[t], phase_errors=phases,
                                      est_channels=est[t])
            np.testing.assert_array_equal(batched[t], scalar)

    @given(seed=seeds, batch=batch_sizes, n=dims, n_bins=bins)
    @settings(max_examples=25, deadline=None)
    def test_nulling_tight_tolerance(self, seed, batch, n, n_bins):
        channels, phases = _stack(seed, batch, n_bins, n, n)
        nulled = seed % n
        batched = nulling_inr_db(channels, nulled, phase_errors=phases)
        assert np.shape(batched) == (batch,)
        for t in range(batch):
            scalar = nulling_inr_db(channels[t], nulled, phase_errors=phases)
            np.testing.assert_allclose(batched[t], scalar,
                                       rtol=1e-12, atol=1e-12)

    @given(seed=seeds, batch=batch_sizes, n=dims, n_bins=bins)
    @settings(max_examples=25, deadline=None)
    def test_mmse_bitwise(self, seed, batch, n, n_bins):
        channels, _ = _stack(seed, batch, n_bins, n, n)
        batched = mmse_stream_sinr_db(channels, noise_power=0.5)
        for t in range(batch):
            scalar = mmse_stream_sinr_db(channels[t], noise_power=0.5)
            np.testing.assert_array_equal(batched[t], scalar)

    @given(seed=seeds, batch=batch_sizes, n=dims, n_bins=bins)
    @settings(max_examples=25, deadline=None)
    def test_mmse_matches_per_bin_reference(self, seed, batch, n, n_bins):
        channels, _ = _stack(seed, batch, n_bins, n, n)
        for t in range(batch):
            out = mmse_stream_sinr_db(channels[t], noise_power=0.5)
            assert out.flags.c_contiguous
            np.testing.assert_array_equal(
                out, _mmse_per_bin(channels[t], noise_power=0.5)
            )

    @given(seed=seeds, batch=batch_sizes, n_aps=dims, n_bins=bins)
    @settings(max_examples=25, deadline=None)
    def test_diversity_bitwise(self, seed, batch, n_aps, n_bins):
        rng = np.random.default_rng(seed)
        channels = _complex(rng, (batch, n_bins, n_aps))
        phases = rng.uniform(-np.pi, np.pi, n_aps)
        batched = diversity_snr_db(channels, phase_errors=phases)
        for t in range(batch):
            scalar = diversity_snr_db(channels[t], phase_errors=phases)
            np.testing.assert_array_equal(batched[t], scalar)

    @given(seed=seeds, batch=batch_sizes, n=dims, n_bins=bins)
    @settings(max_examples=25, deadline=None)
    def test_wideband_precoder_bitwise(self, seed, batch, n, n_bins):
        channels, _ = _stack(seed, batch, n_bins, n, n)
        precoders, scale = zero_forcing_precoder_wideband(channels)
        for t in range(batch):
            ref_p, ref_k = zero_forcing_precoder_wideband(channels[t])
            np.testing.assert_array_equal(precoders[t], ref_p)
            np.testing.assert_array_equal(np.asarray(scale)[t], ref_k)

    @given(seed=seeds, batch=batch_sizes, n=dims)
    @example(seed=7562, batch=3, n=4)  # libm pow(k, 2) != k * k in the last bit
    @settings(max_examples=25, deadline=None)
    def test_snr_reduction_grid_bitwise(self, seed, batch, n):
        rng = np.random.default_rng(seed)
        channels = _complex(rng, (batch, n, n))
        misalignments = rng.uniform(0.0, 0.5, 3)
        snrs_db = np.array([10.0, 20.0])
        grid = snr_reduction_grid(channels, misalignments, snrs_db)
        assert grid.shape == (batch, 2, 3, n)
        for t in range(batch):
            for s, snr in enumerate(snrs_db):
                for m, mis in enumerate(misalignments):
                    ref = snr_reduction_from_misalignment(channels[t], mis, snr)
                    np.testing.assert_array_equal(grid[t, s, m], ref)

    @given(seed=seeds, batch=batch_sizes, n_bins=bins)
    @settings(max_examples=25, deadline=None)
    def test_goodput_batch_bitwise(self, seed, batch, n_bins):
        rng = np.random.default_rng(seed)
        rows = rng.uniform(-10.0, 40.0, (batch, n_bins))
        selector = EffectiveSnrRateSelector(10e6, mac_efficiency=0.75)
        batched = selector.goodput_batch(rows)
        assert batched.shape == (batch,)
        for t in range(batch):
            np.testing.assert_array_equal(batched[t], selector.goodput(rows[t]))


class TestShapeDtypeInvariants:
    @given(seed=seeds, batch=batch_sizes, n_rx=dims,
           extra_tx=st.integers(0, 2), n_bins=bins)
    @settings(max_examples=25, deadline=None)
    def test_joint_zf_shapes(self, seed, batch, n_rx, extra_tx, n_bins):
        n_tx = n_rx + extra_tx  # ZF needs at least as many antennas as clients
        rng = np.random.default_rng(seed)
        channels = _complex(rng, (batch, n_bins, n_rx, n_tx))
        out = joint_zf_sinr_db(channels)
        assert out.shape == (batch, n_rx, n_bins)
        assert out.dtype == np.float64
        assert np.all(np.isfinite(out))

    @given(seed=seeds, batch=batch_sizes, n=dims, n_bins=bins)
    @settings(max_examples=25, deadline=None)
    def test_mmse_shapes(self, seed, batch, n, n_bins):
        rng = np.random.default_rng(seed)
        channels = _complex(rng, (batch, n_bins, n, n))
        out = mmse_stream_sinr_db(channels)
        assert out.shape == (batch, n, n_bins)
        assert out.dtype == np.float64

    @given(seed=seeds, batch=batch_sizes, n_aps=dims, n_bins=bins)
    @settings(max_examples=25, deadline=None)
    def test_diversity_shapes(self, seed, batch, n_aps, n_bins):
        rng = np.random.default_rng(seed)
        channels = _complex(rng, (batch, n_bins, n_aps))
        out = diversity_snr_db(channels)
        assert out.shape == (batch, n_bins)
        assert out.dtype == np.float64


#: Every sweep kernel with a tiny parameter set.
KERNELS = {
    "fig6": (fig6_kernel, {
        "n_rx": 2, "n_tx": 2, "misalignments": [0.0, 0.25], "snrs_db": [10.0],
    }),
    "fig8": (fig8_kernel, {
        "band": SNR_BANDS_DB["high"], "n": 3, "n_packets": 2,
        "error_model": SyncErrorModel(),
    }),
    "fig9": (fig9_kernel, {
        "band": SNR_BANDS_DB["low"], "n": 3, "error_model": SyncErrorModel(),
        "sample_rate": SAMPLE_RATE_USRP, "max_penalty_db": 2.0,
    }),
    "fig11": (fig11_kernel, {
        "n_aps": 2, "snr_db": [0.0, 10.0], "error_model": SyncErrorModel(),
        "sample_rate": SAMPLE_RATE_USRP,
    }),
    "sync_ablation": (sync_ablation_kernel, {
        "strategies": ("megamimo", "none"), "delays_s": [2e-3],
    }),
}


class TestTrialPermutationInvariance:
    PARAMS = KERNELS["fig9"][1]

    @given(master=seeds, order_seed=seeds, n_trials=st.integers(2, 6))
    @settings(max_examples=10, deadline=None)
    def test_permuting_seeds_permutes_results(self, master, order_seed,
                                              n_trials):
        trial_seeds = [master + i for i in range(n_trials)]
        results = fig9_kernel(self.PARAMS, trial_seeds)
        perm = np.random.default_rng(order_seed).permutation(n_trials)
        permuted = fig9_kernel(
            self.PARAMS, [trial_seeds[i] for i in perm]
        )
        assert permuted == [results[i] for i in perm]
        # fsum is correctly rounded, hence order-invariant — the aggregate
        # over trials is untouched by the permutation, bit for bit.
        agg = math.fsum(r["megamimo_bps"] for r in results) / n_trials
        assert math.fsum(r["megamimo_bps"] for r in permuted) / n_trials == agg

    @given(master=seeds, n_trials=st.integers(1, 4))
    @settings(max_examples=10, deadline=None)
    def test_batch_matches_scalar_map(self, master, n_trials):
        """Chunk-geometry invariance: for every sweep kernel, one call over
        a chunk of seeds equals the concatenated batch-of-one calls."""
        trial_seeds = [seed_sequence(master, "prop", 0, t) for t in range(n_trials)]
        for name, (kernel, params) in KERNELS.items():
            batched = kernel(params, trial_seeds)
            assert len(batched) == n_trials, name
            assert batched == [
                r for s in trial_seeds for r in kernel(params, [s])
            ], name
