#!/usr/bin/env python3
"""CI smoke test for the watchdog + crash-forensics pipeline.

Runs a quick figure sweep with a deliberately hung chunk
(``REPRO_FAULT_HANG_CHUNK``) under a tight watchdog deadline
(``REPRO_WATCHDOG_TIMEOUT_S``) and asserts the whole black-box story
end-to-end:

* the sweep does **not** hang — the watchdog declares the stall and the
  run still exits 0 because the abandoned chunk is re-run through the
  serial-retry path;
* the stall leaves a ``runs/crash-<runid>/`` forensics bundle whose
  manifest (``bundle.json``) names the ``watchdog_stall`` reason and at
  least one stalled chunk;
* the bundle's own files hold the forensics, read straight from the
  directory: a ``runtime.watchdog`` record in ``flightrec.json``, the
  last progress tick in ``progress.json`` and the captured threads in
  ``stacks.txt``;
* the run's ledger record links the bundle (same ``bundle_id`` and
  ``path``) as a critical alarm.

    python scripts/blackbox_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

RUNS_DIR = Path("blackbox_runs")
SWEEP = [
    "figure", "6", "--scale", "0.2", "--workers", "2", "--backend", "process",
    "--ledger", str(RUNS_DIR),
]

#: Hang the chunk of cell 0 holding trial 0 for far longer than the run;
#: only the watchdog can get the sweep past it.
HANG_SPEC = "0:0:300"
WATCHDOG_DEADLINE_S = "2"

#: Hard cap on the faulted run: generous against slow CI runners, but a
#: fraction of the injected hang, so a dead watchdog fails loudly here.
RUN_TIMEOUT_S = 180


def run(args: list, env: dict | None = None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "repro", *args]
    print("+", " ".join(cmd), flush=True)
    return subprocess.run(
        cmd, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )


def read_json(path: Path):
    return json.loads(path.read_text())


def check_bundle(bundle: Path) -> list:
    """Failures found in one bundle directory and its ledger linkage."""
    failures = []
    manifest = read_json(bundle / "bundle.json")
    if manifest.get("reason") != "watchdog_stall":
        failures.append(f"bundle reason {manifest.get('reason')!r}, "
                        "want 'watchdog_stall'")
    if manifest.get("detail", {}).get("stalled_chunks", 0) < 1:
        failures.append("bundle detail records no stalled chunks")
    print(f"bundle {bundle.name}: reason={manifest.get('reason')}, "
          f"{len(manifest.get('files', []))} files")

    records = read_json(bundle / "flightrec.json").get("records", [])
    kinds = {r.get("kind") for r in records}
    if "runtime.watchdog" not in kinds:
        failures.append(f"bundle flight recorder has no runtime.watchdog "
                        f"event: {sorted(k for k in kinds if k)}")
    if "Current thread" not in (bundle / "stacks.txt").read_text():
        failures.append("bundle stacks.txt captured no threads")
    progress = (read_json(bundle / "progress.json") or {}).get("data") or {}
    print(f"bundle run {manifest.get('run_id')}: {len(records)} flight "
          f"records, last progress {progress.get('done_chunks')}/"
          f"{progress.get('total_chunks')} chunks")

    ledger = [json.loads(line) for line in
              (RUNS_DIR / "ledger.jsonl").read_text().splitlines()
              if line.strip()]
    crash_alarms = [a for r in ledger for a in r.get("alarms", [])
                    if a.get("kind") == "crash_bundle"]
    if not crash_alarms:
        failures.append("no ledger record links the crash bundle")
    elif (crash_alarms[0].get("bundle_id"), crash_alarms[0].get("path")) != (
        bundle.name, str(bundle)
    ):
        failures.append(f"ledger alarm names {crash_alarms[0]}, not the "
                        f"bundle at {bundle}")
    else:
        print(f"ledger links the bundle: {crash_alarms[0]['bundle_id']}")
    return failures


def main() -> int:
    failures = []
    env = dict(os.environ)
    env["REPRO_FAULT_HANG_CHUNK"] = HANG_SPEC
    env["REPRO_WATCHDOG_TIMEOUT_S"] = WATCHDOG_DEADLINE_S

    try:
        sweep = run(SWEEP, env=env)
    except subprocess.TimeoutExpired:
        print(f"FAIL: faulted sweep still running after {RUN_TIMEOUT_S}s — "
              "the watchdog never recovered the hung chunk")
        return 1
    if sweep.returncode != 0:
        sys.stderr.write(sweep.stderr)
        failures.append(f"faulted sweep exited {sweep.returncode}, want 0")
    if "watchdog" not in sweep.stderr:
        failures.append("run stderr never mentioned the watchdog stall")
    else:
        print("sweep completed despite the injected hang (watchdog fired)")

    bundles = sorted(RUNS_DIR.glob("crash-*")) if RUNS_DIR.is_dir() else []
    if len(bundles) != 1:
        failures.append(f"want exactly 1 crash bundle, found "
                        f"{[b.name for b in bundles]}")
    else:
        failures += check_bundle(bundles[0])

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print("blackbox smoke OK: stall declared, chunk recovered serially, "
          "bundle written and linked")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
