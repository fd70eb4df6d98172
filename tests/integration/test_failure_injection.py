"""Failure injection: the system's behaviour when things go wrong.

The most important claim exercised here is §9's loss decoupling: "if APs
have stale channel information to a client, only the packet to that client
is affected, and packets at other clients will still be received
correctly."

The sweep-runtime classes inject the other kind of failure — a kernel that
raises, and a worker process that dies mid-chunk — and assert the engine's
degrade-to-serial contract: the sweep still completes with results
bit-identical to a clean serial run, and the recovery is visible in the
``runtime.*`` obs counters.
"""

import os
import signal

import numpy as np

from repro import MegaMimoSystem, SystemConfig, get_mcs
from repro.channel.models import RicianChannel
from repro.mac.simulator import DownlinkSimulator, LinkLayerConfig
from repro.obs import metrics
from repro.phy.preamble import lts_grid
from repro.runtime import WORKER_ENV_FLAG, CellSpec, run_sweep


def make_system(seed, n=3, **overrides):
    config = SystemConfig(n_aps=n, n_clients=n, seed=seed, **overrides)
    return MegaMimoSystem.create(
        config, client_snr_db=25.0, channel_model=RicianChannel(k_factor=8.0)
    )


class TestStaleCsiDecoupling:
    def test_corrupted_feedback_hurts_only_that_client(self):
        """Corrupt one client's fed-back CSI: that client's stream breaks,
        the others keep decoding (§9)."""
        others_ok = 0
        victim_fail = 0
        for seed in (51, 52, 53):
            system = make_system(seed)
            system.run_sounding(0.0)
            # client 0's feedback arrives corrupted: its row of the channel
            # snapshot is replaced by a random (wrong) channel
            rng = np.random.default_rng(seed)
            occupied = np.abs(lts_grid()) > 0
            row = system._channel_tensor[:, 0, :]
            scale = np.mean(np.abs(row[occupied]))
            system._channel_tensor[:, 0, :] = scale * (
                rng.normal(size=row.shape) + 1j * rng.normal(size=row.shape)
            ) / np.sqrt(2)

            payloads = [b"A" * 25, b"B" * 25, b"C" * 25]
            report = system.joint_transmit(payloads, get_mcs(2), start_time=1e-3)
            delivered = [
                r.decoded.payload == p
                for r, p in zip(report.receptions, payloads)
            ]
            victim_fail += int(not delivered[0])
            others_ok += sum(delivered[1:])
        assert victim_fail >= 2  # the victim's stream is (almost) always lost
        assert others_ok >= 5  # the other clients are essentially unaffected


class TestDegradedSlaveLink:
    def test_weak_lead_slave_link_degrades_sync(self):
        """A slave that can barely hear the lead mis-measures its phase."""
        strong = make_system(61, n=2, ap_ap_snr_db=30.0)
        weak = make_system(61, n=2, ap_ap_snr_db=3.0)
        mis = {}
        for name, system in (("strong", strong), ("weak", weak)):
            system.run_sounding(0.0)
            report = system.joint_transmit(
                [b"A" * 20, b"B" * 20], get_mcs(0), start_time=1e-3
            )
            mis[name] = np.mean(list(report.misalignment_rad.values()))
        assert mis["weak"] > 2 * mis["strong"]


class TestInterferer:
    def test_foreign_transmission_corrupts_frames(self):
        """A non-MegaMIMO interferer talking over the joint frame causes CRC
        failures — and a quiet retry succeeds."""
        from repro.channel.models import FlatRayleighChannel
        from repro.channel.oscillator import Oscillator, OscillatorConfig

        system = make_system(71, n=2)
        system.run_sounding(0.0)
        # add a rogue node audible at both clients
        rogue_osc = Oscillator(OscillatorConfig(ppm_offset=1.0), rng=0)
        system.medium.register_node("rogue", rogue_osc)
        for client in system.client_ids:
            system.medium.set_link(
                "rogue", client, FlatRayleighChannel().realize(300.0, rng=1)
            )

        payloads = [b"A" * 25, b"B" * 25]

        # interfered transmission: rogue blasts noise over the data frame
        rng = np.random.default_rng(2)
        jam = 2.0 * (rng.normal(size=4000) + 1j * rng.normal(size=4000)) / np.sqrt(2)

        # transmit jam covering the joint frame window
        t0 = 1e-3
        system.medium.clear()
        # run the protocol manually so the jam overlaps the data:
        # joint_transmit clears the medium first, so inject via a wrapper
        original_transmit = system.medium.transmit

        def transmit_and_jam(node, samples, start):
            original_transmit(node, samples, start)
            if node == system.lead_id and samples.size > 400:
                original_transmit("rogue", jam, start)

        system.medium.transmit = transmit_and_jam
        report = system.joint_transmit(payloads, get_mcs(2), start_time=t0)
        system.medium.transmit = original_transmit
        assert not all(r.decoded.crc_ok for r in report.receptions)

        # clean retry succeeds
        retry = system.joint_transmit(payloads, get_mcs(2), start_time=t0 + 3e-3)
        assert all(r.decoded.crc_ok for r in retry.receptions)


class TestSimulatorUnderStress:
    def test_rate_adaptation_cuts_losses(self):
        """With fast fading and sparse sounding, loss-driven margin
        adaptation trades rate for reliability."""
        base = dict(
            n_aps=3,
            n_clients=3,
            duration_s=0.25,
            coherence_time_s=0.04,
            resound_interval_s=60e-3,
            seed=81,
        )
        fixed = DownlinkSimulator(LinkLayerConfig(rate_adaptation=False, **base)).run()
        adaptive = DownlinkSimulator(LinkLayerConfig(rate_adaptation=True, **base)).run()
        assert adaptive.loss_rate < fixed.loss_rate

    def test_hopeless_channel_no_crash(self):
        trace = DownlinkSimulator(
            LinkLayerConfig(
                n_aps=2,
                n_clients=2,
                duration_s=0.05,
                snr_band=(-10.0, -5.0),
                seed=91,
            )
        ).run()
        assert trace.total_goodput_bps >= 0.0


# ---------------------------------------------------------------------------
# Sweep-runtime fault tolerance
# ---------------------------------------------------------------------------


def draw_kernel(params, seeds):
    """Well-behaved picklable kernel for the reference serial runs."""
    return [float(np.random.default_rng(seed).standard_normal()) for seed in seeds]


def raising_in_worker_kernel(params, seeds):
    """Raises inside pool workers only; clean when retried in the parent."""
    if os.environ.get(WORKER_ENV_FLAG):
        raise RuntimeError("injected kernel failure")
    return draw_kernel(params, seeds)


def worker_suicide_kernel(params, seeds):
    """SIGKILLs the hosting pool worker; clean when retried in the parent.

    Killing -9 breaks the whole ProcessPoolExecutor (BrokenProcessPool on
    every outstanding future), which is exactly the degradation path under
    test.
    """
    if os.environ.get(WORKER_ENV_FLAG):
        os.kill(os.getpid(), signal.SIGKILL)
    return draw_kernel(params, seeds)


CELLS = [CellSpec(key=n, params=None, n_trials=6) for n in range(3)]


class TestSweepFaultTolerance:
    def _reference(self):
        return run_sweep("faulty", draw_kernel, CELLS, master_seed=5)

    def test_raising_kernel_retried_serially(self):
        retries = metrics.counter("runtime.serial_retries")
        failures = metrics.counter("runtime.chunk_failures")
        before = (retries.value, failures.value)
        r = run_sweep("faulty", raising_in_worker_kernel, CELLS,
                      master_seed=5, workers=2)
        assert r.results == self._reference().results
        assert r.chunk_failures > 0
        assert retries.value == before[0] + r.chunk_failures
        assert failures.value == before[1] + r.chunk_failures

    def test_killed_worker_degrades_to_serial(self):
        retries = metrics.counter("runtime.serial_retries")
        before = retries.value
        r = run_sweep("faulty", worker_suicide_kernel, CELLS,
                      master_seed=5, workers=2)
        assert r.results == self._reference().results
        assert r.chunk_failures > 0
        assert retries.value > before

    def test_failures_leave_checkpoint_complete(self, tmp_path):
        ck = tmp_path / "faulty.jsonl"
        r = run_sweep("faulty", raising_in_worker_kernel, CELLS,
                      master_seed=5, workers=2, checkpoint=str(ck))
        resumed = run_sweep("faulty", raising_in_worker_kernel, CELLS,
                            master_seed=5, workers=2, checkpoint=str(ck),
                            resume=True)
        assert resumed.resumed_chunks > 0
        assert resumed.chunk_failures == 0  # nothing left to run
        assert resumed.results == r.results
