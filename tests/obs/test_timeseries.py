"""Series ring (the history inside every histogram): ring semantics, the
rollup the alert rules read, and how the registry snapshot renders."""

import threading

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import DEFAULT_CAPACITY, Series


class TestSeriesRing:
    def test_points_are_ordered_oldest_first(self):
        s = Series("t", capacity=8)
        for i in range(5):
            s.record(float(i))
        assert s.latest(5).tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert s.latest(2).tolist() == [3.0, 4.0]
        assert s.latest(99).tolist() == s.latest(5).tolist()  # clipped
        assert len(s) == 5
        assert s.total == 5

    def test_wraparound_keeps_newest_capacity_points(self):
        s = Series("t", capacity=4)
        for i in range(10):
            s.record(float(i))
        assert len(s) == 4
        assert s.latest(4).tolist() == [6.0, 7.0, 8.0, 9.0]
        assert sorted(s.values().tolist()) == [6.0, 7.0, 8.0, 9.0]
        # total still counts everything ever recorded: loss is detectable
        assert s.total == 10

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Series("t", capacity=0)

    def test_reset_in_place_keeps_handle_valid(self):
        s = Series("t", capacity=4)
        s.record(1.0)
        s.reset()
        assert len(s) == 0 and s.total == 0 and s.latest(4).size == 0
        s.record(2.0)  # the cached handle still publishes
        assert s.latest(4).tolist() == [2.0]

    def test_default_capacity_is_4096(self):
        # a histogram's percentiles cover its most recent 4,096 samples
        assert DEFAULT_CAPACITY == 4096
        assert Series("t").capacity == 4096

    def test_concurrent_appends_lose_nothing(self):
        s = Series("t", capacity=4096)
        def pump():
            for i in range(500):
                s.record(float(i))
        threads = [threading.Thread(target=pump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert s.total == 2000
        assert len(s) == 2000


class TestRollup:
    def test_empty_series_rolls_up_to_count_zero(self):
        assert Series("t").rollup() == {"count": 0}

    def test_window_statistics(self):
        s = Series("t", capacity=16)
        for v in [1.0, 2.0, 3.0, 4.0, 100.0]:
            s.record(v)
        r = s.rollup()
        assert r["count"] == 5
        assert r["last"] == 100.0
        assert r["min"] == 1.0 and r["max"] == 100.0
        assert r["mean"] == pytest.approx(22.0)
        assert r["p50"] == pytest.approx(3.0)
        assert r["p95"] > 4.0

    def test_rollup_covers_the_ring_after_wraparound(self):
        s = Series("t", capacity=4)
        for v in [1000.0, 1.0, 2.0, 3.0, 4.0]:  # the spike left the ring
            s.record(v)
        r = s.rollup()
        assert r["count"] == 4
        assert r["max"] == 4.0 and r["last"] == 4.0


class TestSampleRegistry:
    def test_counters_gauges_histograms_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("runtime.chunks").inc(3)
        reg.gauge("sim.goodput").set(36.0)
        reg.gauge("never.set")
        hist = reg.histogram("mac.err")
        for v in (0.01, 0.02, 0.03):
            hist.observe(v)
        view = reg.to_dict()
        assert view["runtime.chunks"] == {"type": "counter", "value": 3.0}
        assert view["sim.goodput"] == {"type": "gauge", "value": 36.0}
        assert view["never.set"] == {"type": "gauge", "value": None}
        # histograms render derived statistics over their ring, not raw draws
        err = view["mac.err"]
        assert err["type"] == "histogram"
        assert err["count"] == 3
        assert err["mean"] == pytest.approx(0.02)
        assert err["p50"] == pytest.approx(0.02)
        assert 0.02 < err["p95"] <= 0.03

    def test_empty_histogram_contributes_nothing(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h")
        assert hist.series.latest(10).size == 0
        assert reg.to_dict() == {"h": {"type": "histogram", "count": 0}}
        assert reg.delta(reg.mark()) == {}
