"""Sweep progress: progress events, rendering modes, fault paths."""

import io
import math
import os

import pytest

from repro.obs.events import read_events
from repro.obs.progress import SweepProgress, _progress_mode
from repro.obs.tracer import trace
from repro.runtime import CellSpec, run_sweep
from repro.runtime.engine import WORKER_ENV_FLAG


def steady_kernel(params, seeds):
    return [float(params["value"])] * len(seeds)


def fail_in_worker_kernel(params, seeds):
    """Raises inside pool workers; succeeds on the parent's serial retry."""
    if os.environ.get(WORKER_ENV_FLAG):
        raise RuntimeError("injected worker failure")
    return steady_kernel(params, seeds)


CELLS = [
    CellSpec(key="a", params={"value": 1.0}, n_trials=5),
    CellSpec(key="b", params={"value": 2.0}, n_trials=7),
]


def progress_events(tmp_path, **sweep_kwargs):
    """Run a sweep with tracing on; return its runtime.progress events."""
    path = tmp_path / "trace.jsonl"
    trace.configure(str(path))
    try:
        result = run_sweep(**sweep_kwargs)
    finally:
        trace.close()
    events = [
        e["attrs"] for e in read_events(str(path))
        if e.get("type") == "event" and e.get("name") == "runtime.progress"
    ]
    return result, events


class TestProgressEvents:
    def test_serial_event_stream_is_monotonic_and_complete(self, tmp_path):
        result, events = progress_events(
            tmp_path, name="unit", kernel=steady_kernel, cells=CELLS,
            master_seed=0, chunk_size=3,
        )
        assert events, "a sweep must emit progress events"
        done = [e["done_chunks"] for e in events]
        assert done == sorted(done)
        trials = [e["done_trials"] for e in events]
        assert trials == sorted(trials)
        final = events[-1]
        assert final["final"] is True
        # cell a: 5 trials -> 2 chunks; cell b: 7 trials -> 3 chunks
        assert final["done_chunks"] == final["total_chunks"] == 5
        assert final["done_trials"] == final["total_trials"] == 12
        assert final["failures"] == 0 and final["retries"] == 0
        assert final["workers_busy"] == 0

    def test_pool_event_ordering_with_injected_failures(self, tmp_path):
        """workers>1 + every chunk failing in the pool: counts stay
        monotonic, every failure is retried, and the final event accounts
        for all work."""
        result, events = progress_events(
            tmp_path, name="unit", kernel=fail_in_worker_kernel, cells=CELLS,
            master_seed=0, chunk_size=3, workers=2,
        )
        done = [e["done_chunks"] for e in events]
        assert done == sorted(done)
        final = events[-1]
        assert final["final"] is True
        assert final["done_chunks"] == final["total_chunks"] == 5
        assert final["done_trials"] == final["total_trials"] == 12
        assert final["failures"] == 5
        assert final["retries"] == 5
        # the sweep still produced the serial-identical result
        assert result.chunk_failures == 5
        serial = run_sweep("unit", steady_kernel, CELLS, master_seed=0,
                           chunk_size=3)
        assert result.results == serial.results

    def test_resumed_work_counts_from_the_start(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        run_sweep("unit", steady_kernel, CELLS, master_seed=0, chunk_size=3,
                  checkpoint=str(ck))
        _, events = progress_events(
            tmp_path, name="unit", kernel=steady_kernel, cells=CELLS,
            master_seed=0, chunk_size=3, checkpoint=str(ck), resume=True,
        )
        assert events[0]["done_chunks"] == 5  # everything resumed


class TestRendering:
    def _tracker(self, monkeypatch, mode_env, **kwargs) -> tuple:
        if mode_env is None:
            monkeypatch.delenv("REPRO_PROGRESS", raising=False)
        else:
            monkeypatch.setenv("REPRO_PROGRESS", mode_env)
        stream = io.StringIO()
        defaults = dict(name="s", total_chunks=4, total_trials=8, workers=2,
                        stream=stream, min_interval_s=0.0,
                        noninteractive_interval_s=0.0)
        defaults.update(kwargs)
        return SweepProgress(**defaults), stream

    def test_off_mode_writes_nothing(self, monkeypatch):
        tracker, stream = self._tracker(monkeypatch, "0")
        tracker.chunk_done(2)
        tracker.close()
        assert stream.getvalue() == ""

    def test_forced_tty_mode_repaints_one_line(self, monkeypatch):
        tracker, stream = self._tracker(monkeypatch, "1")
        for _ in range(4):
            tracker.chunk_done(2)
        tracker.close()
        out = stream.getvalue()
        assert "\r" in out
        assert out.endswith("\n")
        assert "4/4 chunks" in out
        assert "8/8 trials" in out

    def test_plain_mode_writes_full_lines(self, monkeypatch):
        tracker, stream = self._tracker(monkeypatch, None)  # StringIO: no tty
        tracker.chunk_done(2)
        tracker.chunk_failed()
        tracker.retry_done()
        tracker.chunk_done(2)
        tracker.close()
        lines = stream.getvalue().splitlines()
        assert all("\r" not in line for line in lines)
        assert "retries 1/1" in lines[-1]
        assert "done in" in lines[-1]

    def test_mode_detection(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROGRESS", "0")
        assert _progress_mode(io.StringIO()) == "off"
        monkeypatch.setenv("REPRO_PROGRESS", "1")
        assert _progress_mode(io.StringIO()) == "tty"
        monkeypatch.delenv("REPRO_PROGRESS")
        assert _progress_mode(io.StringIO()) == "plain"

    def test_derived_quantities(self, monkeypatch):
        tracker, _ = self._tracker(monkeypatch, "0", resumed_chunks=1,
                                   resumed_trials=2)
        assert tracker.done_chunks == 1
        assert tracker.workers_busy == 2  # 3 chunks left, 2 workers
        tracker.chunk_done(2)
        tracker.chunk_done(2)
        tracker.chunk_done(2)
        assert tracker.workers_busy == 0
        assert tracker.eta_s == pytest.approx(0.0, abs=1e-6)
        assert tracker.trials_per_s > 0


class TestDerivedGuards:
    """Rates and ETAs stay finite in every degenerate corner."""

    def _tracker(self, monkeypatch, **kwargs) -> SweepProgress:
        monkeypatch.setenv("REPRO_PROGRESS", "0")
        defaults = dict(name="s", total_chunks=4, total_trials=8, workers=2,
                        stream=io.StringIO(), min_interval_s=0.0,
                        noninteractive_interval_s=0.0)
        defaults.update(kwargs)
        return SweepProgress(**defaults)

    def test_instant_finish_has_no_inf_or_nan(self, monkeypatch):
        tracker = self._tracker(monkeypatch)
        tracker._t0 = tracker._t0 - 0.0  # zero elapsed is the worst case
        for _ in range(4):
            tracker.chunk_done(2)
        assert math.isfinite(tracker.trials_per_s)
        assert tracker.eta_s == 0.0  # done: ETA is zero even with rate 0
        tracker.close()

    def test_no_fresh_work_reports_zero_rate(self, monkeypatch):
        # everything resumed from a checkpoint: nothing was computed now
        tracker = self._tracker(monkeypatch, resumed_chunks=4,
                                resumed_trials=8)
        assert tracker.trials_per_s == 0.0
        assert tracker.eta_s == 0.0

    def test_unknowable_eta_is_none_not_inf(self, monkeypatch):
        tracker = self._tracker(monkeypatch)
        # work remains but no fresh trial has finished: rate 0, ETA unknown
        assert tracker.trials_per_s == 0.0
        assert tracker.eta_s is None

    def test_rendered_line_never_contains_inf_or_nan(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROGRESS", "1")
        stream = io.StringIO()
        tracker = SweepProgress("s", total_chunks=1, total_trials=2,
                                workers=1, stream=stream, min_interval_s=0.0)
        tracker.chunk_done(2)
        tracker.close()
        out = stream.getvalue()
        assert "inf" not in out and "nan" not in out


class TestLivePublication:
    def test_serverless_run_never_imports_the_http_layer(self, monkeypatch):
        # progress is a stderr line and runtime.progress events: a sweep
        # never drags an HTTP server into the process
        import subprocess
        import sys as _sys

        code = (
            "import io, sys\n"
            "from repro.obs.progress import SweepProgress\n"
            "t = SweepProgress('s', 1, 1, stream=io.StringIO(),\n"
            "                  min_interval_s=0.0,\n"
            "                  noninteractive_interval_s=0.0)\n"
            "t.chunk_done(1); t.close()\n"
            "assert 'http.server' not in sys.modules\n"
        )
        proc = subprocess.run(
            [_sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": "src"}, cwd=os.getcwd(),
        )
        assert proc.returncode == 0, proc.stderr
