"""End-to-end observability: instrumented stack, profile, overhead bound."""

import json
import time

import numpy as np
import pytest

from repro.obs import metrics, trace
from repro.obs.events import iter_events
from repro.obs.profile import format_spans, profile_trace


def run_short_sim(duration_s=0.05, **kwargs):
    from repro.mac.simulator import DownlinkSimulator, LinkLayerConfig

    config = LinkLayerConfig(
        n_aps=2, n_clients=2, duration_s=duration_s, seed=3, **kwargs
    )
    return DownlinkSimulator(config).run()


class TestSimulatorTrace:
    def test_jsonl_roundtrip_of_short_run(self, tmp_path):
        path = tmp_path / "sim.jsonl"
        trace.configure(str(path))
        try:
            result = run_short_sim()
        finally:
            trace.close()
        records = list(iter_events(str(path)))
        assert records[0]["type"] == "meta"
        names = {r["name"] for r in records if r["type"] == "span"}
        assert {"mac.run", "mac.sound", "mac.burst", "phase_sync"} <= names
        # one phase_sync span per transmitted stream (per-packet telemetry)
        n_sync = sum(
            1 for r in records if r["type"] == "span" and r["name"] == "phase_sync"
        )
        assert n_sync == result.n_transmissions
        # phase_sync spans nest under bursts and carry the drawn errors
        bursts = {r["span_id"] for r in records
                  if r["type"] == "span" and r["name"] == "mac.burst"}
        syncs = [r for r in records
                 if r["type"] == "span" and r["name"] == "phase_sync"]
        assert all(s["parent_id"] in bursts for s in syncs)
        assert all("phase_errors_rad" in s["attrs"] for s in syncs)

    def test_metrics_counters_populated(self):
        metrics.reset()
        result = run_short_sim()
        snapshot = metrics.to_dict()
        assert snapshot["mac.deliveries"]["value"] == len(result.delivered)
        assert snapshot["mac.stream_failures"]["value"] == result.n_failures
        assert snapshot["mac.soundings"]["value"] == result.n_soundings
        assert snapshot["mac.airtime.data_s"]["value"] == pytest.approx(
            result.airtime["data"]
        )
        assert snapshot["mac.airtime.ap0_s"]["value"] > 0
        assert snapshot["mac.queue_depth"]["count"] > 0
        assert snapshot["mac.arq.retries"]["value"] >= result.n_failures

    def test_summary_of_sim_trace(self, tmp_path):
        path = tmp_path / "sim.jsonl"
        trace.configure(str(path))
        try:
            run_short_sim()
        finally:
            trace.close()
        profile = profile_trace(str(path))
        assert profile.spans["mac.run"].count == 1
        # self time never exceeds total, totals are positive
        for stats in profile.spans.values():
            assert 0.0 <= stats.total_self_s <= stats.total_wall_s + 1e-12
        table = format_spans(profile, top_k=5)
        assert "phase_sync" in table


class TestSampleLevelTrace:
    def test_joint_tx_spans_and_phase_probes(self, tmp_path):
        from repro import MegaMimoSystem, SystemConfig, get_mcs
        from repro.channel.models import RicianChannel

        path = tmp_path / "phy.jsonl"
        metrics.reset()
        trace.configure(str(path))
        try:
            system = MegaMimoSystem.create(
                SystemConfig(n_aps=2, n_clients=2, seed=7),
                client_snr_db=25.0,
                channel_model=RicianChannel(k_factor=8.0),
            )
            system.run_sounding(0.0)
            system.joint_transmit(
                [b"abc", b"def"], get_mcs(2), start_time=1e-3
            )
        finally:
            trace.close()
        records = list(iter_events(str(path)))
        names = {r["name"] for r in records if r["type"] == "span"}
        assert {"sounding", "joint_tx", "precoding", "ofdm_mod",
                "channel_apply", "ofdm_demod", "decode",
                "phase_sync.observe_header"} <= names
        (sync,) = [r for r in records if r["type"] == "span"
                   and r["name"] == "phase_sync.observe_header"]
        assert "phase_offset_rad" in sync["attrs"]
        assert "cfo_residual_hz" in sync["attrs"]
        snapshot = metrics.to_dict()
        assert snapshot["phasesync.headers"]["value"] == 1
        assert snapshot["phasesync.phase_offset_rad"]["count"] == 1
        assert snapshot["system.decode_ok"]["value"] == 2


class TestCliWiring:
    def test_simulate_writes_trace_and_metrics(self, tmp_path, capsys):
        from repro.cli import main

        t_path, m_path = tmp_path / "t.jsonl", tmp_path / "m.json"
        rc = main([
            "simulate", "--n-aps", "2", "--n-clients", "2",
            "--duration", "0.05", "--seed", "3",
            "--trace", str(t_path), "--metrics", str(m_path),
        ])
        assert rc == 0
        assert "goodput" in capsys.readouterr().out
        names = {r.get("name") for r in iter_events(str(t_path))}
        assert "phase_sync" in names and "mac.burst" in names
        snapshot = json.loads(m_path.read_text())
        assert "mac.arq.retries" in snapshot
        assert "mac.airtime.data_s" in snapshot


class TestNullOverhead:
    def test_disabled_span_overhead_is_negligible(self):
        """The null backend must cost well under 5% on a PHY microbench.

        Mirrors ``benchmarks/test_perf_phy.py``'s OFDM symbol round-trip.
        The per-span cost is timed directly, over many disabled spans with
        an empty body against a matched empty loop, and set against the
        round-trip's own cost: ``1 + per_span / per_roundtrip``.  Timing two
        round-trip loops and dividing their difference would bury a
        ~0.2 us span under the round-trip's own run-to-run jitter.  Each
        loop keeps the fastest of its repetitions, alternating with its
        match, so a machine slowdown lasting a few repetitions hits both
        alike.  The absolute-cost bound (< 5 us per disabled span, ~25x the
        typical cost) keeps the assertion robust on a loaded CI machine.
        """
        from repro.phy.ofdm import OfdmDemodulator, OfdmModulator

        assert not trace.enabled
        mod, demod = OfdmModulator(), OfdmDemodulator()
        rng = np.random.default_rng(2)
        data = np.exp(2j * np.pi * rng.uniform(size=48))
        channel = np.ones(64, dtype=complex)
        n_roundtrips, n_spans = 150, 20_000

        def roundtrips():
            for _ in range(n_roundtrips):
                samples = mod.modulate_symbol(data, symbol_index=3)
                demod.demodulate_symbol(samples, channel, symbol_index=3)

        def empty():
            for _ in range(n_spans):
                pass

        def spans():
            for _ in range(n_spans):
                with trace.span("phy.roundtrip", symbol_index=3):
                    pass

        def timed(fn):
            t0 = time.perf_counter()
            fn()
            return time.perf_counter() - t0

        roundtrips()  # warm caches before timing anything
        t_roundtrips = t_empty = t_spans = float("inf")
        for _ in range(7):
            t_roundtrips = min(t_roundtrips, timed(roundtrips))
            t_empty = min(t_empty, timed(empty))
            t_spans = min(t_spans, timed(spans))
        per_roundtrip = t_roundtrips / n_roundtrips
        per_span = max(t_spans - t_empty, 0.0) / n_spans
        ratio = 1.0 + per_span / per_roundtrip
        assert ratio < 1.05 or per_span < 5e-6, (
            f"null-span overhead too high: {ratio:.3f}x "
            f"({per_span * 1e6:.2f} us/span)"
        )
