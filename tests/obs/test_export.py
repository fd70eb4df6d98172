"""OpenMetrics: the /metrics rendering and its validator."""

from repro.obs.export import (
    metrics_to_openmetrics,
    openmetrics_name,
    validate_openmetrics,
)
from repro.obs.metrics import MetricsRegistry


class TestOpenMetricsNames:
    def test_dots_fold_to_underscores(self):
        assert openmetrics_name("fastsim.phase_error_rad") == "fastsim_phase_error_rad"

    def test_leading_digit_gets_prefix(self):
        assert openmetrics_name("95th.pct") == "_95th_pct"


class TestOpenMetricsText:
    def _registry(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("runtime.chunks_run").inc(3)
        reg.gauge("sim.goodput_mbps").set(36.0)
        hist = reg.histogram("fastsim.phase_error_rad")
        for v in (0.01, 0.02, 0.03, 0.04):
            hist.observe(v)
        return reg

    def test_counter_gauge_histogram_rendering(self):
        text = metrics_to_openmetrics(self._registry())
        assert "# TYPE runtime_chunks_run counter" in text
        assert "runtime_chunks_run_total 3" in text
        assert "sim_goodput_mbps 36" in text
        assert "# TYPE fastsim_phase_error_rad summary" in text
        assert 'fastsim_phase_error_rad{quantile="0.95"}' in text
        assert "fastsim_phase_error_rad_count 4" in text
        assert text.endswith("# EOF\n")

    def test_accepts_snapshot_dict(self):
        # the same shape a --metrics JSON file contains
        snapshot = self._registry().to_dict()
        assert metrics_to_openmetrics(snapshot) == metrics_to_openmetrics(
            self._registry()
        )

    def test_unset_gauge_is_skipped(self):
        reg = MetricsRegistry()
        reg.gauge("never.set")
        text = metrics_to_openmetrics(reg)
        assert "never_set" not in text

    def test_every_family_has_help_metadata(self):
        # scrapers (promtool check metrics) reject families without HELP
        text = metrics_to_openmetrics(self._registry())
        assert "# HELP runtime_chunks_run repro counter runtime.chunks_run" in text
        assert "# HELP sim_goodput_mbps repro gauge sim.goodput_mbps" in text
        assert "# HELP fastsim_phase_error_rad repro histogram" in text
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                family = line.split(" ")[2]
                assert f"# HELP {family} " in text

    def test_help_precedes_type_for_each_family(self):
        lines = metrics_to_openmetrics(self._registry()).splitlines()
        for i, line in enumerate(lines):
            if line.startswith("# TYPE "):
                family = line.split(" ")[2]
                assert lines[i - 1].startswith(f"# HELP {family} ")


class TestValidateOpenMetrics:
    def _registry(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("runtime.chunks_run").inc(3)
        reg.gauge("sim.goodput_mbps").set(36.0)
        reg.histogram("fastsim.phase_error_rad").observe(0.01)
        return reg

    def test_rendered_exposition_is_valid(self):
        text = metrics_to_openmetrics(self._registry())
        assert validate_openmetrics(text) == []

    def test_empty_registry_exposition_is_valid(self):
        assert validate_openmetrics(metrics_to_openmetrics({})) == []

    def test_missing_eof_is_reported(self):
        problems = validate_openmetrics("# TYPE a gauge\n# HELP a x\na 1\n")
        assert any("# EOF" in p for p in problems)

    def test_content_after_eof_is_reported(self):
        problems = validate_openmetrics("# EOF\nstray 1\n")
        assert any("after" in p for p in problems)

    def test_sample_without_metadata_is_reported(self):
        problems = validate_openmetrics("orphan_metric 1\n# EOF\n")
        assert any("orphan_metric" in p for p in problems)

    def test_missing_help_is_reported(self):
        problems = validate_openmetrics("# TYPE a gauge\na 1\n# EOF\n")
        assert any("HELP" in p for p in problems)

    def test_duplicate_type_is_reported(self):
        text = "# HELP a x\n# TYPE a gauge\n# TYPE a gauge\na 1\n# EOF\n"
        problems = validate_openmetrics(text)
        assert any("duplicate" in p for p in problems)

    def test_non_numeric_value_is_reported(self):
        text = "# HELP a x\n# TYPE a gauge\na oops\n# EOF\n"
        problems = validate_openmetrics(text)
        assert any("non-numeric" in p for p in problems)

    def test_blank_line_is_reported(self):
        problems = validate_openmetrics("\n# EOF\n")
        assert any("blank" in p for p in problems)

    def test_counter_total_suffix_matches_family(self):
        text = (
            "# HELP c repro counter c\n# TYPE c counter\nc_total 2\n# EOF\n"
        )
        assert validate_openmetrics(text) == []
