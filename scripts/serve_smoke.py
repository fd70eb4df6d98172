#!/usr/bin/env python3
"""CI smoke test for the live telemetry endpoint (``--serve-port``).

Launches a quick traced figure sweep serving live telemetry, probes
every endpoint *while the sweep is still running*, and asserts:

* ``/metrics`` is valid OpenMetrics (HELP/TYPE metadata, ``# EOF``) per
  :func:`repro.obs.export.validate_openmetrics` — a python stand-in for
  ``promtool check metrics``;
* ``/timeseries`` carries the sweep's live progress (the
  ``runtime.trials_done`` counter and the ``runtime.worker_utilization``
  histogram);
* ``/alerts`` answers with the rule states;
* the sweep's progress reached a reader after the fact too: the
  ``--trace`` JSONL holds its ``runtime.progress`` events;
* the run shuts the server down cleanly and exits 0.

The sweep is fig9 at half scale (a few seconds of wall clock) rather
than the sub-second fig6: the probe window is the sweep's own runtime,
and a sub-second window is a CI flake waiting to happen.  ``--serve-port
0`` binds an ephemeral port; the script reads the announced URL from the
run's stderr, so nothing races for a fixed port number.

    python scripts/serve_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request

from repro.obs.events import read_events
from repro.obs.export import validate_openmetrics

SWEEP = ["figure", "9", "--scale", "0.5", "--workers", "2"]
ANNOUNCE = "serving live telemetry on "
STARTUP_TIMEOUT_S = 60.0


def probe(url: str, results: dict, key: str, proc: subprocess.Popen,
          until=None) -> None:
    """GET ``url`` into ``results[key]``, retrying while the run lives.

    With ``until``, keeps re-fetching (and keeping the latest body) until
    the predicate accepts it — e.g. until the sweep has published its
    first progress sample — or the run exits.
    """
    while True:
        try:
            with urllib.request.urlopen(url, timeout=2.0) as resp:
                results[key] = resp.read().decode()
                results[key + ".content_type"] = resp.headers["Content-Type"]
                if until is None or until(results[key]):
                    return
        except OSError as exc:
            if proc.poll() is not None:
                if key not in results:
                    results[key + ".error"] = f"{url}: {exc} (run already over)"
                return
        if proc.poll() is not None:
            return
        time.sleep(0.02)


def progressed(body: str) -> bool:
    """True once ``/timeseries`` shows finished trials and a utilization sample."""
    series = json.loads(body)["series"]
    done = series.get("runtime.trials_done", {}).get("last") or 0
    ticks = series.get("runtime.worker_utilization", {}).get("count") or 0
    return done > 0 and ticks > 0


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        return smoke(os.path.join(tmp, "trace.jsonl"))


def smoke(trace_path: str) -> int:
    cmd = [sys.executable, "-m", "repro", *SWEEP, "--serve-port", "0",
           "--trace", trace_path]
    print("+", " ".join(cmd), flush=True)
    proc = subprocess.Popen(
        cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    url = None
    stderr_tail = []
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    while time.monotonic() < deadline:
        line = proc.stderr.readline()
        if not line:
            break
        stderr_tail.append(line)
        if ANNOUNCE in line:
            url = line.split(ANNOUNCE, 1)[1].strip()
            break
    if url is None:
        proc.kill()
        sys.stderr.writelines(stderr_tail)
        print("FAIL: the run never announced its telemetry URL")
        return 1
    print(f"serving on {url}")

    # probe every endpoint concurrently, starting inside the run's window
    results: dict = {}
    threads = [
        threading.Thread(target=probe, args=(url + "/metrics", results, "metrics", proc)),
        threading.Thread(target=probe, args=(url + "/timeseries", results, "timeseries", proc),
                         kwargs={"until": progressed}),
        threading.Thread(target=probe, args=(url + "/alerts", results, "alerts", proc)),
    ]
    for t in threads:
        t.start()
    # drain stderr so the run can't block on a full pipe, then reap it
    drained = proc.stderr.read()
    code = proc.wait()
    for t in threads:
        t.join(timeout=30.0)

    failures = []
    for key in ("metrics", "timeseries", "alerts"):
        if key not in results:
            failures.append(results.get(f"{key}.error", f"/{key}: no response"))
    if "metrics" in results:
        problems = validate_openmetrics(results["metrics"])
        if problems:
            failures += [f"/metrics invalid OpenMetrics: {p}" for p in problems]
        if not results["metrics.content_type"].startswith(
            "application/openmetrics-text"
        ):
            failures.append(
                f"/metrics content type: {results['metrics.content_type']}"
            )
        n_families = results["metrics"].count("# TYPE ")
        print(f"/metrics: valid OpenMetrics, {n_families} families")
    if "timeseries" in results:
        series = json.loads(results["timeseries"])["series"]
        if not progressed(results["timeseries"]):
            failures.append(
                "/timeseries never showed sweep progress: "
                f"{series.get('runtime.trials_done')}, "
                f"{series.get('runtime.worker_utilization')}"
            )
        print(f"/timeseries: {len(series)} metrics, "
              f"trials_done={series.get('runtime.trials_done', {}).get('last')}")
    if "alerts" in results:
        alerts = json.loads(results["alerts"])
        if "rules" not in alerts or "firing" not in alerts:
            failures.append(f"/alerts malformed: {sorted(alerts)}")
        else:
            print(f"/alerts: {len(alerts['rules'])} rules, "
                  f"{len(alerts['firing'])} firing")
    try:
        events = [r["name"] for r in read_events(trace_path)
                  if r.get("type") == "event"]
    except (OSError, ValueError) as exc:
        failures.append(f"trace unreadable: {exc}")
    else:
        n_progress = events.count("runtime.progress")
        print(f"trace: {len(events)} events, {n_progress} runtime.progress")
        if not n_progress:
            failures.append(
                f"trace: no runtime.progress event in {sorted(set(events))}"
            )
    if code != 0:
        sys.stderr.write(drained)
        failures.append(f"run exited {code}, want 0 (clean shutdown)")

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print(f"serve smoke OK: run exited {code} after a clean shutdown")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
