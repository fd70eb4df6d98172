"""Worker watchdog: deadlines, hang-fault injection, stall recovery.

The integration tests arm ``REPRO_FAULT_HANG_CHUNK`` (a cooperative hang
inside one chunk) with a sub-second ``REPRO_WATCHDOG_TIMEOUT_S`` and
assert the contract end-to-end on each backend: the sweep terminates,
the stalled chunk is recovered through the serial-retry path with
bit-identical results, and a ``runs/crash-<runid>/`` forensics bundle
plus the ``runtime.watchdog_stall`` critical alert document the event.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.obs import blackbox
from repro.obs.alerts import AlertEngine, builtin_rules
from repro.obs.flightrec import get_recorder
from repro.obs.metrics import get_registry
from repro.runtime import CellSpec, run_sweep
from repro.runtime import faults, watchdog
from repro.runtime.faults import HANG_CHUNK_ENV, parse_hang_spec
from repro.runtime.watchdog import (
    DEFAULT_FLOOR_S,
    TIMEOUT_ENV,
    WATCHDOG_ENV,
    ChunkWatchdog,
    duration_percentile,
    timeout_override_s,
    watchdog_enabled,
)


@pytest.fixture(autouse=True)
def _fault_hygiene():
    """Re-arm the fault machinery and drain forensics state around each test."""
    faults.reset()
    get_recorder().clear()
    blackbox.drain_bundles()
    yield
    faults.reset()
    get_recorder().clear()
    blackbox.drain_bundles()


def mean_kernel(params, seeds):
    """Picklable toy kernel: one seeded draw per seed, scaled by the
    cell's params."""
    return [
        float(params["scale"] * np.random.default_rng(seed).standard_normal())
        for seed in seeds
    ]


CELLS = [
    CellSpec(key="a", params={"scale": 1.0}, n_trials=6),
    CellSpec(key="b", params={"scale": 2.0}, n_trials=4),
]


class TestKnobs:
    def test_watchdog_enabled_env(self, monkeypatch):
        monkeypatch.delenv(WATCHDOG_ENV, raising=False)
        assert watchdog_enabled()
        monkeypatch.setenv(WATCHDOG_ENV, "0")
        assert not watchdog_enabled()
        assert ChunkWatchdog.create("s", "batched") is None

    def test_timeout_override_parsing(self, monkeypatch):
        monkeypatch.delenv(TIMEOUT_ENV, raising=False)
        assert timeout_override_s() is None
        monkeypatch.setenv(TIMEOUT_ENV, "2.5")
        assert timeout_override_s() == 2.5
        monkeypatch.setenv(TIMEOUT_ENV, "forever")
        assert timeout_override_s() is None
        monkeypatch.setenv(TIMEOUT_ENV, "-1")
        assert timeout_override_s() is None


class TestDeadline:
    def test_percentile_interpolates(self):
        assert duration_percentile([1.0], 95.0) == 1.0
        assert duration_percentile([1.0, 3.0], 50.0) == 2.0
        with pytest.raises(ValueError):
            duration_percentile([], 95.0)

    def test_floor_until_enough_samples(self, monkeypatch):
        monkeypatch.delenv(TIMEOUT_ENV, raising=False)
        dog = ChunkWatchdog("s", "process")
        for i in range(watchdog.MIN_DURATION_SAMPLES - 1):
            dog.completed((0, i, 0, 1), wall_s=100.0)
        assert dog.deadline_s == DEFAULT_FLOOR_S

    def test_derived_deadline_tracks_p95(self, monkeypatch):
        monkeypatch.delenv(TIMEOUT_ENV, raising=False)
        dog = ChunkWatchdog("s", "process")
        for i in range(10):
            dog.completed((0, i, 0, 1), wall_s=50.0)
        assert dog.deadline_s == pytest.approx(
            watchdog.DEADLINE_MULTIPLIER * 50.0
        )
        # ...but never below the floor for fast chunks
        fast = ChunkWatchdog("s", "process")
        for i in range(10):
            fast.completed((0, i, 0, 1), wall_s=0.01)
        assert fast.deadline_s == DEFAULT_FLOOR_S

    def test_override_wins(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "1.5")
        dog = ChunkWatchdog("s", "process")
        for i in range(10):
            dog.completed((0, i, 0, 1), wall_s=50.0)
        assert dog.deadline_s == 1.5

    def test_accounting_and_abandon(self):
        dog = ChunkWatchdog("s", "process")
        dog.submitted((0, 0, 0, 2))
        dog.submitted((1, 0, 0, 2))
        dog.completed((0, 0, 0, 2), wall_s=0.1)
        assert dog.abandon_all() == [(1, 0, 0, 2)]
        assert dog.abandon_all() == []


class TestHangFault:
    def test_parse_hang_spec(self):
        assert parse_hang_spec("30") == (None, None, 30.0)
        assert parse_hang_spec(" 0:1:2.5 ") == (0, 1, 2.5)
        assert parse_hang_spec("") is None
        assert parse_hang_spec("a:b:c") is None
        assert parse_hang_spec("1:2") is None

    def test_noop_without_env(self, monkeypatch):
        monkeypatch.delenv(HANG_CHUNK_ENV, raising=False)
        faults.maybe_hang_chunk(0, 0, 4)  # returns immediately

    def test_natural_timeout_returns(self, monkeypatch):
        monkeypatch.setenv(HANG_CHUNK_ENV, "0")
        faults.maybe_hang_chunk(0, 0, 4)  # 0-second hang: just resumes

    def test_cancel_raises_and_disarms(self, monkeypatch):
        monkeypatch.setenv(HANG_CHUNK_ENV, "0:1:60")
        faults.cancel_hangs()
        # cancelled before the hang starts: the retry runs through clean
        faults.maybe_hang_chunk(0, 0, 4)
        faults.reset()
        faults.maybe_hang_chunk(1, 0, 4)  # other cell: not targeted

    def test_targeted_chunk_only(self, monkeypatch):
        monkeypatch.setenv(HANG_CHUNK_ENV, "0:5:60")
        faults.maybe_hang_chunk(0, 0, 4)  # trial 5 not in [0, 4)
        faults.maybe_hang_chunk(1, 4, 8)  # wrong cell


def _assert_recovered(result, reference, runs_dir):
    assert result.results == reference.results
    assert result.watchdog_stalls == 1
    assert result.chunk_failures >= 1
    bundles = [p for p in Path(runs_dir).iterdir()
               if p.name.startswith("crash-")]
    assert len(bundles) == 1
    manifest = json.loads((bundles[0] / "bundle.json").read_text())
    assert manifest["reason"] == "watchdog_stall"
    assert manifest["detail"]["stalled_chunks"] >= 1
    assert "Thread" in (bundles[0] / "stacks.txt").read_text()


class TestStallRecovery:
    """End-to-end: injected hang -> watchdog fire -> serial-retry recovery."""

    @pytest.fixture
    def reference(self):
        return run_sweep("wd", mean_kernel, CELLS, master_seed=7, chunk_size=2)

    @pytest.fixture
    def hang(self, monkeypatch):
        monkeypatch.setenv(HANG_CHUNK_ENV, "0:1:60")
        monkeypatch.setenv(TIMEOUT_ENV, "0.6")

    def test_serial_backend_recovers(self, reference, hang):
        # the in-parent backend: the hang blocks the main thread itself
        r = run_sweep("wd", mean_kernel, CELLS, master_seed=7,
                      chunk_size=2, backend="batched")
        _assert_recovered(r, reference, os.environ["REPRO_RUNS_DIR"])

    def test_process_backend_recovers(self, reference, hang):
        r = run_sweep("wd", mean_kernel, CELLS, master_seed=7,
                      chunk_size=2, workers=2, backend="process")
        _assert_recovered(r, reference, os.environ["REPRO_RUNS_DIR"])

    def test_stall_telemetry_and_builtin_alert(self, reference, hang):
        run_sweep("wd", mean_kernel, CELLS, master_seed=7,
                  chunk_size=2, workers=2, backend="process")
        # the monitor thread recorded the stall on the flight recorder...
        (event,) = get_recorder().snapshot(kind="runtime.watchdog")
        assert event["data"]["sweep"] == "wd"
        assert event["data"]["mode"] == "process"
        # ...and bumped the stall counter, which the builtin critical
        # rule declares in the end-of-run judging pass
        engine = AlertEngine(builtin_rules())
        fired = engine.evaluate(get_registry())
        stall = [a for a in fired if a["rule"] == "runtime.watchdog_stall"]
        assert stall and stall[0]["value"] >= 1.0
        assert stall[0]["severity"] == "critical"

    def test_disabled_watchdog_leaves_hang_alone(self, monkeypatch, reference):
        # short *natural* hang, watchdog off: the chunk is merely slow
        monkeypatch.setenv(HANG_CHUNK_ENV, "0:1:0.4")
        monkeypatch.setenv(WATCHDOG_ENV, "0")
        r = run_sweep("wd", mean_kernel, CELLS, master_seed=7,
                      chunk_size=2, workers=2, backend="process")
        assert r.results == reference.results
        assert r.watchdog_stalls == 0
        assert r.chunk_failures == 0
