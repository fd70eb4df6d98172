"""Crash-forensics bundles: ``runs/crash-<runid>/`` post-mortem snapshots.

A long sweep that dies — a ``SweepError``, an unhandled exception, a
SIGTERM from the scheduler, a watchdog kill, a critical alert — used to
leave nothing behind but whatever happened to be on stderr.  This module
turns each of those moments into a *bundle*: one directory under the
runs dir holding everything needed to reconstruct the final seconds:

========================  ==================================================
``bundle.json``           Manifest: reason, run id, error, provenance
                          (git sha / config hash / platform), file list.
``flightrec.json``        The flight-recorder ring dump
                          (:mod:`repro.obs.flightrec`).
``progress.json``         The last ``runtime.progress`` tick the recorder
                          saw (null when the run never swept).
``stacks.txt``            ``faulthandler`` dump of every thread at bundle
                          time — for a watchdog stall this includes the
                          hung kernel's stack.
``environment.json``      ``REPRO_*`` environment + platform snapshot.
========================  ==================================================

Bundles are written *best-effort* (never raise into the failing path)
and from any thread — the watchdog monitor writes one while the main
thread is still hung, which is the whole black-box point.  Each bundle
is also queued on a process-global list; the CLI drains that list into
the run's ledger alarms so ``repro obs runs show`` links to the bundle.
Every file is plain JSON or text: read a bundle straight from its
directory.
"""

from __future__ import annotations

import faulthandler
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs import provenance
from repro.obs.events import jsonable
from repro.obs.flightrec import get_recorder
from repro.obs.ledger import default_runs_dir, new_run_id
from repro.obs.logging import get_logger

logger = get_logger("obs.blackbox")

#: Version stamped into each bundle manifest.
BUNDLE_SCHEMA = 1

#: Bundle directory prefix under the runs dir.
BUNDLE_PREFIX = "crash-"

#: The triggers a bundle records (free-form, but these are the built-ins).
REASONS = (
    "sweep_error",
    "unhandled_exception",
    "signal",
    "watchdog_stall",
    "critical_alert",
)


@dataclass
class RunBlackboxContext:
    """Identity of the current run, shared by every bundle trigger."""

    run_id: Optional[str] = None
    command: Optional[str] = None
    argv: List[str] = field(default_factory=list)
    config: Dict[str, Any] = field(default_factory=dict)
    runs_dir: Optional[str] = None


_CONTEXT = RunBlackboxContext()
_BUNDLES: List[Dict[str, Any]] = []
_LOCK = threading.Lock()


def set_run_context(
    run_id: Optional[str] = None,
    command: Optional[str] = None,
    argv: Optional[List[str]] = None,
    config: Optional[Dict[str, Any]] = None,
    runs_dir: Union[str, Path, None] = None,
) -> None:
    """Stamp the current run's identity (CLI entry calls this early).

    Bundles written later — from any layer, any thread — link back to
    the same run id the ledger record will carry.
    """
    if run_id is not None:
        _CONTEXT.run_id = run_id
    if command is not None:
        _CONTEXT.command = command
    if argv is not None:
        _CONTEXT.argv = list(argv)
    if config is not None:
        _CONTEXT.config = dict(config)
    if runs_dir is not None:
        # e.g. --ledger DIR: bundles written by layers that never see the
        # CLI args (the watchdog monitor thread) land next to the ledger
        _CONTEXT.runs_dir = str(runs_dir)


def clear_run_context() -> None:
    """Reset the run context (tests; end of a CLI invocation)."""
    global _CONTEXT
    _CONTEXT = RunBlackboxContext()


def current_run_id() -> Optional[str]:
    return _CONTEXT.run_id


def drain_bundles() -> List[Dict[str, Any]]:
    """Ledger-alarm dicts for bundles written since the last drain."""
    with _LOCK:
        out = list(_BUNDLES)
        _BUNDLES.clear()
    return out


def pending_bundles() -> int:
    """Bundles written since the last drain, without draining them."""
    with _LOCK:
        return len(_BUNDLES)


def _environment_snapshot() -> Dict[str, Any]:
    return {
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith("REPRO_")},
        "cwd": os.getcwd(),
        "argv": list(sys.argv),
        "pid": os.getpid(),
    }


def _bundle_dir(runs_dir: Path, run_id: str) -> Path:
    """A fresh bundle directory: ``crash-<runid>``, suffixed on collision."""
    base = runs_dir / f"{BUNDLE_PREFIX}{run_id}"
    if not base.exists():
        return base
    n = 2
    while (runs_dir / f"{BUNDLE_PREFIX}{run_id}-{n}").exists():
        n += 1
    return runs_dir / f"{BUNDLE_PREFIX}{run_id}-{n}"


def _write_json(path: Path, obj: Any) -> None:
    with open(path, "w") as f:
        json.dump(jsonable(obj), f, indent=2, sort_keys=True)
        f.write("\n")


def write_crash_bundle(
    reason: str,
    error: Optional[BaseException] = None,
    runs_dir: Union[str, Path, None] = None,
    detail: Optional[Dict[str, Any]] = None,
) -> Optional[Path]:
    """Write one ``runs/crash-<runid>/`` bundle; returns its path.

    Best-effort: any failure is logged and swallowed — forensics must
    never make the crash it documents worse.  Safe from any thread.
    """
    try:
        return _write_crash_bundle(reason, error, runs_dir, detail)
    except Exception:
        logger.exception("could not write crash bundle (reason=%s)", reason)
        return None


def _write_crash_bundle(
    reason: str,
    error: Optional[BaseException],
    runs_dir: Union[str, Path, None],
    detail: Optional[Dict[str, Any]],
) -> Path:
    now = time.time()
    run_id = _CONTEXT.run_id or new_run_id(now)
    if runs_dir is None:
        runs_dir = _CONTEXT.runs_dir
    base = Path(runs_dir) if runs_dir is not None else default_runs_dir()
    bundle = _bundle_dir(base, run_id)
    bundle.mkdir(parents=True, exist_ok=True)

    recorder = get_recorder()
    recorder.dump_json(bundle / "flightrec.json")
    progress = recorder.last("runtime.progress")
    _write_json(bundle / "progress.json", progress)
    _write_json(bundle / "environment.json", _environment_snapshot())
    with open(bundle / "stacks.txt", "w") as f:
        f.write(f"# all-thread tracebacks at {now:.3f} (reason={reason})\n")
        f.flush()
        faulthandler.dump_traceback(file=f, all_threads=True)

    manifest: Dict[str, Any] = {
        "schema": BUNDLE_SCHEMA,
        "bundle_id": bundle.name,
        "run_id": run_id,
        "ts": now,
        "reason": reason,
        "command": _CONTEXT.command,
        "argv": list(_CONTEXT.argv),
        "pid": os.getpid(),
        "error": None if error is None else {
            "type": type(error).__name__,
            "message": str(error),
        },
        "detail": detail or {},
        "provenance": provenance.collect(_CONTEXT.config),
        "files": sorted(p.name for p in bundle.iterdir()) + ["bundle.json"],
    }
    _write_json(bundle / "bundle.json", manifest)

    with _LOCK:
        _BUNDLES.append({
            "kind": "crash_bundle",
            "rule": None,
            "reason": reason,
            "bundle_id": bundle.name,
            "path": str(bundle),
            "severity": "critical",
        })
    logger.error("crash bundle written to %s (reason=%s)", bundle, reason)
    return bundle


# ---------------------------------------------------------------------------
# Signal hooks (SIGTERM / SIGINT write a bundle before the default action)
# ---------------------------------------------------------------------------


class signal_guard:
    """Context manager: bundle-on-SIGTERM/SIGINT for the guarded region.

    On entry, installs handlers that write a ``signal`` bundle and then
    re-raise through the previous handler (so ctrl-c still interrupts
    and SIGTERM still terminates).  On exit, restores the previous
    handlers — required for in-process CLI tests.  Outside the main
    thread (where ``signal.signal`` raises) the guard is a no-op.
    """

    def __init__(self, runs_dir: Union[str, Path, None] = None):
        self.runs_dir = runs_dir
        self._previous: Dict[int, Any] = {}

    def __enter__(self) -> "signal_guard":
        import signal as _signal

        def handler(signum: int, frame: Any) -> None:
            name = _signal.Signals(signum).name
            write_crash_bundle(
                "signal", runs_dir=self.runs_dir, detail={"signal": name},
            )
            previous = self._previous.get(signum)
            _signal.signal(signum, previous or _signal.SIG_DFL)
            os.kill(os.getpid(), signum)

        for signum in (_signal.SIGTERM, _signal.SIGINT):
            try:
                self._previous[signum] = _signal.signal(signum, handler)
            except ValueError:  # not the main thread: leave signals alone
                self._previous.pop(signum, None)
                break
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        import signal as _signal

        for signum, previous in self._previous.items():
            try:
                _signal.signal(signum, previous)
            except (ValueError, TypeError):
                pass  # repro: noqa[OBS005] — restoring outside the main thread
        self._previous = {}
