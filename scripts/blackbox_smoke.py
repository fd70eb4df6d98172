#!/usr/bin/env python3
"""CI smoke test for the watchdog + crash-forensics pipeline (ISSUE 9).

Runs a quick figure sweep with a deliberately hung chunk
(``REPRO_FAULT_HANG_CHUNK``) under a tight watchdog deadline
(``REPRO_WATCHDOG_TIMEOUT_S``) and asserts the whole black-box story
end-to-end:

* the sweep does **not** hang — the watchdog declares the stall and the
  run still exits 0 because the abandoned chunk is re-run through the
  serial-retry path;
* the stall leaves a ``runs/crash-<runid>/`` forensics bundle whose
  manifest names the ``watchdog_stall`` reason;
* ``repro obs blackbox list`` sees the bundle and ``repro obs blackbox
  show --json`` round-trips it (flight-recorder records, all-thread
  stacks and the last progress snapshot included);
* the run's ledger record links the bundle as a critical alarm.

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
        manifest = json.loads((bundles[0] / "bundle.json").read_text())
        if manifest.get("reason") != "watchdog_stall":
            failures.append(f"bundle reason {manifest.get('reason')!r}, "
                            "want 'watchdog_stall'")
        print(f"bundle {bundles[0].name}: reason={manifest.get('reason')}, "
              f"{len(manifest.get('files', []))} files")

    listing = run(["obs", "blackbox", "list", "--ledger", str(RUNS_DIR)])
    if listing.returncode != 0 or "watchdog_stall" not in listing.stdout:
        failures.append("`repro obs blackbox list` did not show the bundle")

    show = run(["obs", "blackbox", "show", "--json",
                "--ledger", str(RUNS_DIR)])
    if show.returncode != 0:
        failures.append(f"`repro obs blackbox show` exited {show.returncode}")
    else:
        doc = json.loads(show.stdout)
        if doc.get("detail", {}).get("stalled_chunks", 0) < 1:
            failures.append("bundle detail records no stalled chunks")
        kinds = {r.get("kind") for r in doc.get("flightrec", {}).get("records", [])}
        if "runtime.watchdog" not in kinds:
            failures.append(f"bundle flight recorder has no runtime.watchdog "
                            f"event: {sorted(k for k in kinds if k)}")
        if "Current thread" not in doc.get("stacks", ""):
            failures.append("bundle stacks.txt captured no threads")
        progress = doc.get("progress") or {}
        print(f"blackbox show: run {doc.get('run_id')}, "
              f"{len(doc['flightrec']['records'])} flight records, "
              f"last progress {((progress.get('data') or {}).get('done_chunks'))}"
              f"/{((progress.get('data') or {}).get('total_chunks'))} chunks")

        ledger_path = RUNS_DIR / "ledger.jsonl"
        records = [json.loads(line) for line in
                   ledger_path.read_text().splitlines() if line.strip()]
        crash_alarms = [a for r in records for a in r.get("alarms", [])
                        if a.get("kind") == "crash_bundle"]
        if not crash_alarms:
            failures.append("no ledger record links the crash bundle")
        elif crash_alarms[0].get("bundle_id") != doc.get("bundle_id"):
            failures.append("ledger alarm names a different bundle than "
                            "`blackbox show` resolved")
        else:
            print(f"ledger links the bundle: {crash_alarms[0]['bundle_id']}")

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print("blackbox smoke OK: stall declared, chunk recovered serially, "
          "bundle round-trips")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
