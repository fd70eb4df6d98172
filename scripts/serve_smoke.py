#!/usr/bin/env python3
"""CI smoke test for the live telemetry endpoint (``--serve-port``).

Launches a quick figure sweep serving live telemetry, probes every
endpoint *while the sweep is still running*, and asserts:

* ``/metrics`` is valid OpenMetrics (HELP/TYPE metadata, ``# EOF``) per
  :func:`repro.obs.export.validate_openmetrics` — a python stand-in for
  ``promtool check metrics``;
* ``/timeseries`` carries the sweep's live progress (the
  ``runtime.trials_done`` counter and the ``runtime.worker_utilization``
  histogram);
* ``/alerts`` answers with the rule states;
* ``/events`` delivers the ``hello`` frame and the sweep's events;
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
import subprocess
import sys
import threading
import time
import urllib.request

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


def probe_sse(url: str, results: dict, proc: subprocess.Popen) -> None:
    """Read SSE frames from ``/events`` until the server closes the stream."""
    frames = []
    try:
        with urllib.request.urlopen(url, timeout=30.0) as resp:
            results["sse.content_type"] = resp.headers["Content-Type"]
            while True:
                line = resp.readline().decode()
                if not line:
                    break  # clean shutdown closes the stream
                if line.startswith("event: "):
                    kind = line[len("event: "):].strip()
                    data = resp.readline().decode()
                    frames.append((kind, data[len("data: "):].strip()))
    except OSError as exc:
        if not frames:
            results["sse.error"] = f"{url}: {exc}"
    results["sse.frames"] = frames


def progressed(body: str) -> bool:
    """True once ``/timeseries`` shows finished trials and a utilization sample."""
    series = json.loads(body)["series"]
    done = series.get("runtime.trials_done", {}).get("last") or 0
    ticks = series.get("runtime.worker_utilization", {}).get("count") or 0
    return done > 0 and ticks > 0


def main() -> int:
    cmd = [sys.executable, "-m", "repro", *SWEEP, "--serve-port", "0"]
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
        threading.Thread(target=probe_sse, args=(url + "/events", results, proc)),
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
    frames = results.get("sse.frames", [])
    if not frames:
        failures.append(results.get("sse.error", "/events: no SSE frame seen"))
    else:
        kinds = [k for k, _ in frames]
        print(f"/events: {len(frames)} SSE frames ({', '.join(sorted(set(kinds)))})")
        if kinds[0] != "hello":
            failures.append(f"/events: first frame was {kinds[0]!r}, not 'hello'")
        if "runtime.progress" not in kinds:
            failures.append(f"/events: no runtime.progress frame in {sorted(set(kinds))}")
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
