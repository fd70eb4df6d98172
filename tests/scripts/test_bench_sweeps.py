"""Smoke tests of scripts/bench_sweeps.py, including the batched gate.

The ``--check-batched-speedup`` gate compares the fastsim SINR grid's
batched backend with serial, in-process.  An absolute speedup floor does
not hold across machines (and falls as the serial path gets faster), so
these tests check the gate's mechanics at a 1x floor; end-to-end speed
is measured by ``bench/run.py``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def load_script():
    spec = importlib.util.spec_from_file_location(
        "bench_sweeps", REPO_ROOT / "scripts" / "bench_sweeps.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def script():
    return load_script()


class TestBatchedGate:
    @pytest.fixture(scope="class")
    def gate_run(self, script, tmp_path_factory):
        """One gated quick run of the fastsim grid, shared by the asserts."""
        out = tmp_path_factory.mktemp("bench") / "bench.json"
        rc = script.main([
            "--quick", "--workloads", "fastsim_grid", "--no-ledger",
            "--skip-parallel", "--repeats", "2", "--check-batched-speedup",
            "--min-batched-speedup", "1.0", "--output", str(out),
        ])
        doc = json.loads(out.read_text())
        return rc, doc["runs"][-1]["workloads"][0]

    def test_gate_passes(self, gate_run):
        rc, entry = gate_run
        assert rc == 0
        assert entry["batched_speedup"] >= 1.0

    def test_record_fields(self, gate_run):
        _, entry = gate_run
        assert entry["workload"] == "fastsim_grid"
        assert entry["repeats"] == 2
        assert entry["serial_s"] > 0
        assert 0 < entry["batched_s"] < entry["serial_s"]
        # --skip-parallel leaves the pool leg unmeasured, not zeroed
        assert entry["parallel_s"] is None and entry["speedup"] is None
        assert entry["result_sha256"]

    def test_batched_overhead_breakdown(self, gate_run):
        _, entry = gate_run
        overhead = entry["batched_overhead"]
        assert overhead["sweeps"] >= 1
        assert 0 < overhead["utilization"] <= 1.0
        assert 0 <= overhead["dispatch_frac"] < 1.0
        assert 0 <= overhead["serialization_frac"] < 1.0

    def test_ledger_metrics_include_batched(self, script, gate_run):
        _, entry = gate_run
        metrics = script.ledger_metrics({"workloads": [entry]})
        assert metrics["bench.fastsim_grid.batched_s"] == entry["batched_s"]
        assert (metrics["bench.fastsim_grid.batched_speedup"]
                == entry["batched_speedup"])
        assert "bench.fastsim_grid.batched_utilization" in metrics
        assert "bench.fastsim_grid.batched_dispatch_frac" in metrics
        # no parallel leg ran, so no parallel metrics may appear
        assert "bench.fastsim_grid.parallel_s" not in metrics
        assert "bench.fastsim_grid.speedup" not in metrics


class TestGateFailureModes:
    def test_gate_fails_below_floor(self, script, tmp_path):
        rc = script.main([
            "--quick", "--workloads", "fastsim_grid", "--no-ledger",
            "--skip-parallel", "--check-batched-speedup",
            "--min-batched-speedup", "1e9",
            "--output", str(tmp_path / "bench.json"),
        ])
        assert rc == 1

    def test_gate_requires_grid_workload(self, script, tmp_path, capsys):
        rc = script.main([
            "--quick", "--workloads", "fig6", "--no-ledger",
            "--skip-parallel", "--check-batched-speedup",
            "--output", str(tmp_path / "bench.json"),
        ])
        assert rc == 2
        assert "not run" in capsys.readouterr().err
