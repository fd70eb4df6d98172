"""Crash-forensics bundles: contents, run linkage, signal guard, CLI runs."""

import json
import os
import signal

import pytest

from repro.cli import main
from repro.obs import blackbox
from repro.obs.blackbox import (
    BUNDLE_SCHEMA,
    drain_bundles,
    pending_bundles,
    set_run_context,
    signal_guard,
    write_crash_bundle,
)
from repro.obs.flightrec import get_recorder


def manifests(runs_dir):
    """Every bundle manifest under ``runs_dir``, read straight from disk."""
    return [json.loads((d / "bundle.json").read_text())
            for d in sorted(runs_dir.glob("crash-*"))]


@pytest.fixture(autouse=True)
def _clean_state():
    blackbox.clear_run_context()
    drain_bundles()
    get_recorder().clear()
    yield
    blackbox.clear_run_context()
    drain_bundles()
    get_recorder().clear()


class TestWriteBundle:
    def test_bundle_contents(self, tmp_path):
        get_recorder().record("runtime.progress", {"done_chunks": 3,
                                                   "total_chunks": 9})
        path = write_crash_bundle(
            "sweep_error", error=ValueError("boom"), runs_dir=tmp_path,
        )
        assert path is not None and path.name.startswith("crash-")
        names = {p.name for p in path.iterdir()}
        assert names == {"bundle.json", "flightrec.json", "progress.json",
                         "environment.json", "stacks.txt"}
        with open(path / "bundle.json") as f:
            manifest = json.load(f)
        assert manifest["schema"] == BUNDLE_SCHEMA
        assert manifest["reason"] == "sweep_error"
        assert manifest["error"] == {"type": "ValueError", "message": "boom"}
        assert "config_hash" in manifest["provenance"]
        assert sorted(manifest["files"]) == sorted(names)
        with open(path / "progress.json") as f:
            progress = json.load(f)
        assert progress["data"]["done_chunks"] == 3
        assert "Current thread" in (path / "stacks.txt").read_text()

    def test_run_context_names_the_bundle(self, tmp_path):
        set_run_context(run_id="20260807-120000-aaaa", command="figure",
                        argv=["figure", "7"])
        path = write_crash_bundle("unhandled_exception", runs_dir=tmp_path)
        assert path.name == "crash-20260807-120000-aaaa"
        (manifest,) = manifests(tmp_path)
        assert manifest["run_id"] == "20260807-120000-aaaa"
        assert manifest["command"] == "figure"

    def test_collision_suffixes(self, tmp_path):
        set_run_context(run_id="rid")
        first = write_crash_bundle("signal", runs_dir=tmp_path)
        second = write_crash_bundle("signal", runs_dir=tmp_path)
        assert first.name == "crash-rid"
        assert second.name == "crash-rid-2"

    def test_never_raises(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file where the runs dir must go")
        assert write_crash_bundle("signal", runs_dir=target) is None

    def test_drain_and_pending(self, tmp_path):
        assert pending_bundles() == 0
        write_crash_bundle("sweep_error", runs_dir=tmp_path)
        assert pending_bundles() == 1
        (alarm,) = drain_bundles()
        assert alarm["kind"] == "crash_bundle"
        assert alarm["severity"] == "critical"
        assert alarm["reason"] == "sweep_error"
        assert pending_bundles() == 0 and drain_bundles() == []


class TestSignalGuard:
    def test_sigint_writes_bundle_then_interrupts(self, tmp_path):
        with pytest.raises(KeyboardInterrupt):
            with signal_guard(runs_dir=tmp_path):
                os.kill(os.getpid(), signal.SIGINT)
        (manifest,) = manifests(tmp_path)
        assert manifest["reason"] == "signal"
        assert manifest["detail"]["signal"] == "SIGINT"

    def test_handlers_restored_on_exit(self, tmp_path):
        before = signal.getsignal(signal.SIGTERM)
        with signal_guard(runs_dir=tmp_path):
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before


class TestCli:
    def test_run_crash_leaves_bundle_and_alarm(self, tmp_path, monkeypatch):
        """A failing run command writes a bundle linked from its ledger row."""
        from repro.obs.ledger import Ledger

        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))

        def explode(args, ctx):
            raise RuntimeError("kernel exploded")

        monkeypatch.setattr("repro.cli._run_figure", explode)
        with pytest.raises(RuntimeError):
            main(["figure", "7", "--scale", "0.2"])
        bundles = manifests(tmp_path)
        assert [m["reason"] for m in bundles] == ["unhandled_exception"]
        assert bundles[0]["error"]["message"] == "kernel exploded"
        records = list(Ledger(tmp_path).records())
        assert records, "the crashed run must still be recorded"
        alarms = records[-1].alarms
        crash = [a for a in alarms if a.get("kind") == "crash_bundle"]
        assert crash and crash[0]["bundle_id"] == bundles[0]["bundle_id"]
        assert records[-1].run_id == bundles[0]["run_id"]
