"""Metrics registry: counters, gauges, ring histograms, cross-process deltas."""

import json

import numpy as np
import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_inc(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_reset(self):
        c = Counter("c")
        c.inc(7)
        c.reset()
        assert c.value == 0.0


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge("g")
        assert g.value is None
        g.set(3)
        g.set(5)
        assert g.value == 5.0


class TestHistogram:
    def test_percentile_exact_below_capacity(self):
        h = Histogram("h", capacity=1024)
        data = np.arange(1000, dtype=float)
        for x in data:
            h.observe(x)
        for q in (1, 25, 50, 90, 99):
            assert h.percentile(q) == pytest.approx(np.percentile(data, q))
        assert h.count == 1000
        assert h.mean == pytest.approx(np.mean(data))
        assert h.min == 0.0 and h.max == 999.0

    def test_running_stats_exact_past_capacity(self):
        h = Histogram("h", capacity=64)
        rng = np.random.default_rng(5)
        data = rng.normal(10.0, 2.0, 5000)
        for x in data:
            h.observe(x)
        # count/mean/min/max are exact regardless of ring overflow
        assert h.count == 5000
        assert h.mean == pytest.approx(np.mean(data))
        assert h.min == pytest.approx(np.min(data))
        assert h.max == pytest.approx(np.max(data))

    def test_reservoir_percentile_approximates_distribution(self):
        h = Histogram("h", capacity=512)
        rng = np.random.default_rng(6)
        data = rng.uniform(0.0, 1.0, 20000)
        for x in data:
            h.observe(x)
        # the most recent 512 draws of a stationary stream pin the median
        assert h.percentile(50) == pytest.approx(0.5, abs=0.08)

    def test_percentiles_past_capacity_cover_the_most_recent_samples(self):
        h = Histogram("h", capacity=4)
        for x in (100.0, 200.0, 1.0, 2.0, 3.0, 4.0):
            h.observe(x)
        assert h.percentile(100) == 4.0  # 100 and 200 left the ring
        assert h.max == 200.0  # running stats stay exact
        assert h.to_dict()["p50"] == pytest.approx(2.5)

    def test_empty(self):
        h = Histogram("h")
        assert np.isnan(h.percentile(50))
        assert np.isnan(h.mean)
        assert h.to_dict() == {"type": "histogram", "count": 0}

    def test_percentile_vector(self):
        h = Histogram("h")
        for x in range(101):
            h.observe(x)
        out = h.percentile([50, 95])
        assert list(out) == [50.0, 95.0]


class TestRegistry:
    def test_get_or_create_identity(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_reset_preserves_handles(self):
        reg = MetricsRegistry()
        c = reg.counter("a")
        h = reg.histogram("h")
        c.inc(3)
        h.observe(1.0)
        reg.reset()
        assert c.value == 0.0 and h.count == 0
        # the registry still serves the same objects post-reset
        assert reg.counter("a") is c

    def test_to_json_roundtrip(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("mac.retries").inc(2)
        reg.gauge("queue").set(7)
        for x in range(10):
            reg.histogram("snr").observe(float(x))
        path = tmp_path / "m.json"
        reg.write_json(str(path))
        loaded = json.loads(path.read_text())
        assert loaded["mac.retries"] == {"type": "counter", "value": 2.0}
        assert loaded["queue"]["value"] == 7.0
        assert loaded["snr"]["count"] == 10
        assert loaded["snr"]["p50"] == pytest.approx(4.5)

    def test_global_helpers(self):
        from repro.obs import metrics

        c = metrics.counter("test.global.counter")
        c.reset()
        c.inc()
        assert metrics.get_registry().get("test.global.counter").value == 1.0
        assert "test.global.counter" in metrics.to_dict()


class TestDelta:
    """A pool worker's registry delta, folded into the parent's registry."""

    def test_delta_holds_new_samples_and_increments_only(self):
        reg = MetricsRegistry()
        reg.histogram("h").observe(1.0)
        reg.counter("c").inc(2)
        reg.gauge("g").set(5.0)
        mark = reg.mark()
        reg.histogram("h").observe(2.0)
        reg.histogram("h").observe(3.0)
        reg.histogram("new").observe(7.0)
        reg.counter("c").inc(0.5)
        reg.counter("untouched")
        reg.gauge("g").set(6.0)
        delta = reg.delta(mark)
        assert set(delta) == {"h", "new", "c"}  # gauges never travel
        assert delta["h"].dtype == np.float64
        assert delta["h"].tolist() == [2.0, 3.0]
        assert delta["new"].tolist() == [7.0]
        assert delta["c"] == 0.5

    def test_merge_folds_a_delta_into_another_registry(self):
        worker, parent = MetricsRegistry(), MetricsRegistry()
        parent.histogram("h").observe(1.0)
        parent.counter("c").inc()
        mark = worker.mark()
        for x in (2.0, 3.0):
            worker.histogram("h").observe(x)
        worker.counter("c").inc(4)
        parent.merge(worker.delta(mark))
        assert parent.histogram("h").count == 3
        assert sorted(parent.histogram("h").series.values().tolist()) == [1.0, 2.0, 3.0]
        assert parent.histogram("h").max == 3.0
        assert parent.counter("c").value == 5.0
