"""Event-driven downlink simulator."""

import numpy as np
import pytest

from repro.mac.simulator import DownlinkSimulator, LinkLayerConfig


def run(duration=0.15, **kwargs):
    defaults = dict(n_aps=3, n_clients=3, duration_s=duration, seed=5)
    defaults.update(kwargs)
    return DownlinkSimulator(LinkLayerConfig(**defaults)).run()


class TestBacklogged:
    def test_goodput_positive_and_bounded(self):
        trace = run()
        # 3 concurrent streams at <= 27 Mbps PHY each
        assert 3e6 < trace.total_goodput_bps < 3 * 27e6

    def test_all_clients_served(self):
        trace = run()
        assert np.all(trace.per_client_goodput_bps > 0)

    def test_airtime_accounted(self):
        trace = run()
        total = sum(trace.airtime.values())
        assert total == pytest.approx(trace.config.duration_s, rel=0.15)
        assert trace.airtime["data"] > trace.airtime["sounding"]

    def test_periodic_soundings_happen(self):
        trace = run(resound_interval_s=20e-3)
        assert trace.n_soundings >= 5

    def test_failures_requeued_and_retried(self):
        # light load so a requeued packet reaches the head again quickly;
        # short coherence + sparse sounding forces some failures
        trace = run(
            arrival_rate_pps=150.0,
            duration_s=0.4,
            coherence_time_s=0.05,
            resound_interval_s=60e-3,
            seed=21,
        )
        assert trace.n_failures > 0
        retried = [d for d in trace.delivered if d.retries > 0]
        assert retried  # lost packets eventually delivered


class TestScalingWithAps:
    def test_more_aps_more_goodput(self):
        small = run(n_aps=2, n_clients=2, seed=7)
        large = run(n_aps=5, n_clients=5, seed=7)
        assert large.total_goodput_bps > 1.5 * small.total_goodput_bps


class TestStaleness:
    def test_sparser_sounding_more_failures(self):
        fresh = run(resound_interval_s=10e-3, coherence_time_s=0.08, seed=9)
        stale = run(resound_interval_s=80e-3, coherence_time_s=0.08, seed=9)
        assert stale.loss_rate > fresh.loss_rate

    def test_static_channel_rarely_fails(self):
        trace = run(coherence_time_s=10.0, resound_interval_s=50e-3, seed=11)
        assert trace.loss_rate < 0.1


class TestPoissonTraffic:
    def test_light_load_low_latency(self):
        trace = run(arrival_rate_pps=200.0, duration_s=0.3, seed=13)
        assert trace.mean_latency_s < 20e-3
        assert trace.airtime["idle"] > 0

    def test_goodput_matches_offered_load(self):
        cfg_rate = 300.0
        trace = run(arrival_rate_pps=cfg_rate, duration_s=0.4, seed=15)
        offered = 3 * cfg_rate * 1500 * 8  # 3 clients
        assert trace.total_goodput_bps == pytest.approx(offered, rel=0.35)


class TestValidation:
    def test_bad_config(self):
        with pytest.raises(ValueError):
            LinkLayerConfig(n_aps=0, n_clients=1)
        with pytest.raises(ValueError):
            LinkLayerConfig(n_aps=1, n_clients=1, duration_s=0.0)

    def test_summary_renders(self):
        trace = run(duration=0.05)
        text = trace.format_summary()
        assert "goodput" in text and "airtime" in text


class TestGroupingAndFeedbackOptions:
    def test_throughput_grouping_runs(self):
        trace = run(grouping="throughput", duration=0.1, seed=31)
        assert trace.total_goodput_bps > 0

    def test_unknown_grouping_rejected(self):
        with pytest.raises(ValueError):
            LinkLayerConfig(n_aps=2, n_clients=2, grouping="magic")

    def test_coarse_feedback_hurts(self):
        fine = run(feedback_bits=8, duration=0.12, seed=33)
        coarse = run(feedback_bits=3, duration=0.12, seed=33)
        assert coarse.total_goodput_bps < fine.total_goodput_bps

    def test_backhaul_delays_light_traffic(self):
        from repro.mac.backhaul import BackhaulConfig

        fast = run(arrival_rate_pps=150.0, duration=0.2, seed=41)
        slow = run(
            arrival_rate_pps=150.0,
            duration=0.2,
            seed=41,
            backhaul=BackhaulConfig(bandwidth_bps=5e6, latency_s=2e-3),
        )
        assert slow.mean_latency_s > fast.mean_latency_s

    def test_gige_backhaul_negligible(self):
        from repro.mac.backhaul import BackhaulConfig

        ideal = run(arrival_rate_pps=200.0, duration=0.2, seed=43)
        gige = run(
            arrival_rate_pps=200.0,
            duration=0.2,
            seed=43,
            backhaul=BackhaulConfig(),
        )
        assert abs(gige.total_goodput_bps - ideal.total_goodput_bps) < max(
            0.25 * ideal.total_goodput_bps, 2e6
        )


class TestEventTrace:
    def test_events_recorded_in_time_order(self):
        trace = run(duration=0.06, seed=51)
        times = [e.time for e in trace.events]
        assert times == sorted(times)
        kinds = {e.kind for e in trace.events}
        assert "sound" in kinds and "burst" in kinds

    def test_every_burst_has_outcomes(self):
        trace = run(duration=0.06, seed=53)
        bursts = sum(e.kind == "burst" for e in trace.events)
        outcomes = sum(e.kind in ("deliver", "fail") for e in trace.events)
        assert bursts > 0
        assert outcomes >= bursts  # >= one stream outcome per burst

    def test_deliver_fail_counts_match(self):
        trace = run(duration=0.06, seed=55)
        fails = sum(e.kind == "fail" for e in trace.events)
        delivers = sum(e.kind == "deliver" for e in trace.events)
        assert fails == trace.n_failures
        assert delivers == len(trace.delivered)


#: Exact outputs of 4 AP x 4 client runs, recorded with the single-deque
#: queue that rebuilt the channel tensor and ZF precoders for every stream.
#: The per-client queue, the one-snapshot-per-burst channel model and the
#: precoders reused from the sounding must reproduce them bit for bit.
PINNED_RUNS = {
    "backlog_s3": (
        dict(duration_s=0.1, seed=3),
        dict(
            n_transmissions=120, n_failures=7, n_soundings=4,
            goodput=[3000000.0, 3600000.0, 3360000.0, 3600000.0],
            airtime={
                "contention": 0.0029999999999999988,
                "data": 0.08946000000000004,
                "idle": 0.0,
                "sounding": 0.009770666666666665,
            },
            latency_sum=7.09892133333334,
        ),
    ),
    "backlog_s7": (
        dict(duration_s=0.1, seed=7),
        dict(
            n_transmissions=284, n_failures=0, n_soundings=4,
            goodput=[8520000.0, 8520000.0, 8520000.0, 8520000.0],
            airtime={
                "contention": 0.007100000000000006,
                "data": 0.0839220000000001,
                "idle": 0.0,
                "sounding": 0.009770666666666665,
            },
            latency_sum=14.709557333333336,
        ),
    ),
    "poisson_s3": (
        dict(duration_s=0.2, arrival_rate_pps=300.0, seed=3),
        dict(
            n_transmissions=239, n_failures=13, n_soundings=8,
            goodput=[3240000.0, 3360000.0, 4020000.0, 2940000.0],
            airtime={
                "contention": 0.007700000000000007,
                "data": 0.14734733333333327,
                "idle": 0.025943711598760993,
                "sounding": 0.01954133333333333,
            },
            latency_sum=4.009950755847212,
        ),
    ),
    "poisson_s7": (
        dict(duration_s=0.2, arrival_rate_pps=300.0, seed=7),
        dict(
            n_transmissions=237, n_failures=8, n_soundings=8,
            goodput=[3420000.0, 3000000.0, 3720000.0, 3600000.0],
            airtime={
                "contention": 0.01239999999999998,
                "data": 0.1535680000000003,
                "idle": 0.015198465064626895,
                "sounding": 0.01954133333333333,
            },
            latency_sum=0.6086482405111349,
        ),
    ),
    "throughput_s5": (
        dict(duration_s=0.1, grouping="throughput", seed=5),
        dict(
            n_transmissions=201, n_failures=6, n_soundings=4,
            goodput=[7800000.0, 7560000.0, 8040000.0, 0.0],
            airtime={
                "contention": 0.0067000000000000046,
                "data": 0.08452733333333344,
                "idle": 0.0,
                "sounding": 0.009770666666666665,
            },
            latency_sum=10.497688666666669,
        ),
    ),
}


class TestBitIdentityPins:
    @pytest.mark.parametrize("name", sorted(PINNED_RUNS))
    def test_outputs_match_pins(self, name):
        overrides, expected = PINNED_RUNS[name]
        trace = DownlinkSimulator(
            LinkLayerConfig(n_aps=4, n_clients=4, **overrides)
        ).run()
        assert trace.n_transmissions == expected["n_transmissions"]
        assert trace.n_failures == expected["n_failures"]
        assert trace.n_soundings == expected["n_soundings"]
        assert trace.per_client_goodput_bps.tolist() == expected["goodput"]
        assert dict(sorted(trace.airtime.items())) == expected["airtime"]
        assert sum(d.latency_s for d in trace.delivered) == expected["latency_sum"]
