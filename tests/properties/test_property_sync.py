"""Property-based tests of the phase-sync and sounding invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.phasesync import (
    PhaseSynchronizer,
    estimate_header_cfo,
    estimate_header_channel,
)
from repro.core.sounding import SoundingPlan
from repro.phy.cfo import apply_cfo
from repro.phy.preamble import lts_grid, sync_header

FS = 10e6


def header_through_channel(cfo_hz, channel, start_time=0.0):
    return channel * apply_cfo(sync_header(), cfo_hz, FS, start_time=start_time)


class TestHeaderInvariants:
    @given(cfo=st.floats(-40e3, 40e3))
    @settings(max_examples=40, deadline=None)
    def test_cfo_estimator_unbiased(self, cfo):
        rx = header_through_channel(cfo, 1.0 + 0j)
        assert estimate_header_cfo(rx, FS) == pytest.approx(cfo, abs=0.5)

    @given(
        cfo=st.floats(-20e3, 20e3),
        mag=st.floats(0.1, 5.0),
        phase=st.floats(-3.0, 3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_channel_estimate_scales(self, cfo, mag, phase):
        h = mag * np.exp(1j * phase)
        rx = header_through_channel(cfo, h)
        est = estimate_header_channel(rx)
        occupied = np.abs(lts_grid()) > 0
        # the averaged estimate carries the mid-header CFO rotation; its
        # magnitude must match the channel up to the (physical) coherent
        # combining loss cos(pi*df*T) of averaging two rotated copies
        loss = abs(np.cos(np.pi * cfo * 64 / FS))
        assert np.mean(np.abs(est[occupied])) == pytest.approx(
            mag * loss, rel=0.05
        )

    @given(
        cfo=st.floats(-15e3, 15e3),
        t=st.floats(1e-4, 0.2),
    )
    @settings(max_examples=40, deadline=None)
    def test_rotation_equals_elapsed_phase(self, cfo, t):
        """The §5.2b identity h(t)/h(0) = e^{j 2 pi df t}, for any offset
        and any elapsed time — the reason error does not accumulate."""
        sync = PhaseSynchronizer(FS)
        sync.set_reference(header_through_channel(cfo, 0.8 + 0.3j), 0.0)
        obs = sync.observe_header(
            header_through_channel(cfo, 0.8 + 0.3j, start_time=t), t
        )
        expected = np.exp(2j * np.pi * cfo * t)
        assert np.angle(obs.rotation * np.conj(expected)) == pytest.approx(
            0.0, abs=5e-3
        )


class TestSoundingPlanInvariants:
    @given(n_aps=st.integers(1, 12), rounds=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_slots_disjoint_and_ordered(self, n_aps, rounds):
        plan = SoundingPlan(n_aps=n_aps, n_rounds=rounds, sample_rate=FS)
        starts = sorted(
            plan.slot_start(a, r) for a in range(n_aps) for r in range(rounds)
        )
        # all distinct, non-overlapping, inside the frame
        assert len(set(starts)) == n_aps * rounds
        for a, b in zip(starts, starts[1:]):
            assert b - a >= 80
        assert starts[0] >= plan.header_length
        assert starts[-1] + 80 <= plan.frame_length

    @given(n_aps=st.integers(2, 12))
    @settings(max_examples=30, deadline=None)
    def test_round_period(self, n_aps):
        plan = SoundingPlan(n_aps=n_aps, n_rounds=3, sample_rate=FS)
        assert (
            plan.slot_start(0, 1) - plan.slot_start(0, 0)
            == plan.round_period_samples
        )


class TestFeedbackSerializationProperties:
    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_quantization_idempotent(self, seed):
        """Quantizing an already-quantized report changes nothing."""
        from repro.core.feedback import quantize_csi

        rng = np.random.default_rng(seed)
        ch = rng.normal(size=(16, 3)) + 1j * rng.normal(size=(16, 3))
        once = quantize_csi(ch, 6)
        twice = quantize_csi(once, 6)
        assert np.allclose(once, twice, atol=1e-12)
