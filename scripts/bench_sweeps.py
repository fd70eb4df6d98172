#!/usr/bin/env python3
"""Benchmark the parallel sweep engine: serial vs. process-pool wall clock.

Runs canned Monte-Carlo workloads (fig6, fig9, fastsim SINR grid) once with
``workers=1`` and once with ``--workers N``, verifies the two runs produce
bit-identical aggregates (SHA-256 over the canonical JSON of the results),
and appends a machine-readable record to ``BENCH_sweeps.json``:

    {"schema": 1, "runs": [{"ts": ..., "cpu_count": ..., "workloads": [...]}]}

Each run also lands in the run ledger (``runs/ledger.jsonl``; see
``docs/observability.md``) as a ``command="bench"`` record whose headline
metrics are ``bench.<workload>.{serial_s,parallel_s,speedup}`` — which is
what ``python -m repro obs bench trend`` tabulates.  ``--no-ledger``
skips that.

Every workload with a registered batched kernel twin is additionally run
through the in-parent ``batched`` backend; its timing, digest (checked
equal to serial) and overhead breakdown land in the same record as
``batched_s`` / ``batched_speedup`` / ``batched_overhead``.

    python scripts/bench_sweeps.py                    # full workloads
    python scripts/bench_sweeps.py --quick --workers 4
    python scripts/bench_sweeps.py --quick --check-speedup --min-speedup 1.5
    python scripts/bench_sweeps.py --quick --skip-parallel --repeats 2 \
        --workloads fastsim_grid --check-batched-speedup

``--check-speedup`` exits non-zero when the fig9 parallel speedup falls
below ``--min-speedup`` — but only on machines with at least 2 usable
cores; on a single-core box it records the timings and warns instead,
because a real speedup is physically impossible there (CI enforces the
floor on multi-core runners).

``--check-batched-speedup`` exits non-zero when the fastsim SINR-grid
*batched* speedup falls below ``--min-batched-speedup`` (default 5).  The
batched backend runs in-process, so this gate is cores-independent, but the
ratio varies by machine; it is a local check, not a CI gate (CI runs
``bench/run.py`` for end-to-end speed).  ``--repeats N`` times each
leg N times and keeps the fastest (de-noises the gate); ``--skip-parallel``
drops the process-pool leg entirely (pointless on one core).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs import setup_logging  # noqa: E402
from repro.obs.events import jsonable  # noqa: E402
from repro.runtime import drain_overheads  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_sweeps.json"


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def digest(result) -> str:
    """Canonical SHA-256 of a result payload — equality check across runs."""
    blob = json.dumps(jsonable(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Workloads: name -> (callable(workers) -> digestable result, params dict)
# ---------------------------------------------------------------------------


def workload_fig6(quick: bool):
    from repro.sim.experiments import run_fig6

    n_channels = 24 if quick else 100

    def run(workers: int, backend: str | None = None):
        r = run_fig6(seed=1, n_channels=n_channels, workers=workers,
                     backend=backend)
        return {str(snr): list(curve) for snr, curve in r.reduction_db.items()}

    return run, {"n_channels": n_channels}


def workload_fig9(quick: bool):
    from repro.sim.experiments import run_fig9

    n_aps = (2, 4, 6) if quick else (2, 4, 6, 8, 10)
    n_topologies = 4 if quick else 10

    def run(workers: int, backend: str | None = None):
        r = run_fig9(seed=4, n_aps=n_aps, n_topologies=n_topologies,
                     workers=workers, backend=backend)
        return {
            f"{band}/{n}": {
                "megamimo_bps": list(cell.megamimo_bps),
                "baseline_bps": list(cell.baseline_bps),
                "gains": list(cell.per_client_gains),
            }
            for (band, n), cell in sorted(r.cells.items())
        }

    return run, {"n_aps": list(n_aps), "n_topologies": n_topologies}


def workload_fastsim_grid(quick: bool):
    from repro.sim.fastsim import run_sinr_grid

    sizes = (2, 4) if quick else (2, 4, 8)
    n_trials = 48 if quick else 64

    def run(workers: int, backend: str | None = None):
        return run_sinr_grid(seed=12, sizes=sizes, n_trials=n_trials,
                             workers=workers, backend=backend)

    return run, {"sizes": list(sizes), "n_trials": n_trials}


WORKLOADS = {
    "fig6": workload_fig6,
    "fig9": workload_fig9,
    "fastsim_grid": workload_fastsim_grid,
}


def _workload_kernel(name: str):
    """The scalar sweep kernel behind a workload (for batched-twin lookup)."""
    from repro.sim.experiments import fig6_kernel, fig9_kernel
    from repro.sim.fastsim import sinr_grid_kernel

    return {
        "fig6": fig6_kernel,
        "fig9": fig9_kernel,
        "fastsim_grid": sinr_grid_kernel,
    }.get(name)


def summarize_overheads(overheads: list) -> dict | None:
    """Aggregate per-sweep overhead breakdowns into one workload summary.

    A workload may run several sweeps (one per grid size); totals are
    worker-second weighted so the fractions stay shares of pool capacity.
    """
    if not overheads:
        return None
    capacity = sum(o["workers"] * o["wall_s"] for o in overheads)
    totals = {
        key: sum(o[key] for o in overheads)
        for key in ("wall_s", "compute_s", "dispatch_s", "serialization_s",
                    "idle_s")
    }
    return {
        "sweeps": len(overheads),
        **{key: round(value, 4) for key, value in totals.items()},
        "utilization": round(totals["compute_s"] / capacity, 4) if capacity else 0.0,
        "dispatch_frac": round(totals["dispatch_s"] / capacity, 4)
        if capacity else 0.0,
        "serialization_frac": round(totals["serialization_s"] / capacity, 4)
        if capacity else 0.0,
    }


def _timed(fn, repeats: int):
    """Run ``fn`` ``repeats`` times; keep the fastest leg's timing/overheads.

    Min-of-N suppresses one-off noise (first-touch allocator and BLAS
    warm-up, scheduler hiccups on shared CI runners) that would otherwise
    make a hard speedup gate flaky.  The result is taken from the fastest
    repetition — every repetition is bit-identical anyway.
    """
    best_s, overhead, result = None, None, None
    for _ in range(max(repeats, 1)):
        drain_overheads()  # discard breakdowns from earlier runs
        t0 = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - t0
        if best_s is None or elapsed < best_s:
            best_s = elapsed
            overhead = summarize_overheads(drain_overheads())
            result = out
    return result, best_s, overhead


def _require_equal(name: str, what: str, serial_digest: str, other: str) -> None:
    if serial_digest != other:
        raise SystemExit(
            f"{name}: serial and {what} results differ "
            f"({serial_digest[:12]} != {other[:12]}) — determinism regression"
        )


def bench_workload(name: str, quick: bool, workers: int, repeats: int = 1,
                   skip_parallel: bool = False) -> dict:
    from repro.runtime import batched_kernel_for

    run, params = WORKLOADS[name](quick)
    serial, serial_s, serial_overhead = _timed(lambda: run(1), repeats)
    serial_digest = digest(serial)

    entry = {
        "workload": name,
        "params": params,
        "workers": workers,
        "repeats": repeats,
        "serial_s": round(serial_s, 4),
        "parallel_s": None,
        "speedup": None,
        "result_sha256": serial_digest,
        # the parallel/batched breakdowns are what explain the speedup
        # numbers; the serial one is the compute-only baseline they are
        # judged against
        "overhead": None,
        "serial_overhead": serial_overhead,
    }

    if not skip_parallel:
        parallel, parallel_s, parallel_overhead = _timed(
            lambda: run(workers), repeats
        )
        _require_equal(name, f"{workers}-worker", serial_digest, digest(parallel))
        entry["parallel_s"] = round(parallel_s, 4)
        entry["speedup"] = (
            round(serial_s / parallel_s, 3) if parallel_s > 0 else None
        )
        entry["overhead"] = parallel_overhead

    kernel = _workload_kernel(name)
    if kernel is not None and batched_kernel_for(kernel) is not None:
        batched, batched_s, batched_overhead = _timed(
            lambda: run(1, backend="batched"), repeats
        )
        _require_equal(name, "batched", serial_digest, digest(batched))
        entry["batched_s"] = round(batched_s, 4)
        entry["batched_speedup"] = (
            round(serial_s / batched_s, 3) if batched_s > 0 else None
        )
        entry["batched_overhead"] = batched_overhead
    return entry


def ledger_metrics(record: dict) -> dict:
    """Flatten a bench record's workloads into ledger headline metrics."""
    out = {}
    for entry in record["workloads"]:
        name = entry["workload"]
        out[f"bench.{name}.serial_s"] = entry["serial_s"]
        if entry["parallel_s"] is not None:
            out[f"bench.{name}.parallel_s"] = entry["parallel_s"]
        if entry["speedup"] is not None:
            out[f"bench.{name}.speedup"] = entry["speedup"]
        overhead = entry.get("overhead")
        if overhead:
            out[f"bench.{name}.utilization"] = overhead["utilization"]
            out[f"bench.{name}.dispatch_frac"] = overhead["dispatch_frac"]
            out[f"bench.{name}.serialization_frac"] = (
                overhead["serialization_frac"]
            )
        if entry.get("batched_s") is not None:
            out[f"bench.{name}.batched_s"] = entry["batched_s"]
        if entry.get("batched_speedup") is not None:
            out[f"bench.{name}.batched_speedup"] = entry["batched_speedup"]
        batched_overhead = entry.get("batched_overhead")
        if batched_overhead:
            out[f"bench.{name}.batched_utilization"] = (
                batched_overhead["utilization"]
            )
            out[f"bench.{name}.batched_dispatch_frac"] = (
                batched_overhead["dispatch_frac"]
            )
    return out


def append_ledger_record(args, record: dict, started: float,
                         duration_s: float) -> None:
    """Best-effort append of this bench run to the run ledger."""
    from repro.obs import ledger as L
    from repro.obs import provenance

    config = {
        "workers": args.workers,
        "quick": args.quick,
        "workloads": list(args.workloads),
    }
    prov = provenance.collect(config)
    run = L.RunRecord(
        run_id=L.new_run_id(started),
        ts=started,
        command="bench",
        argv=sys.argv[1:],
        duration_s=duration_s,
        git_sha=prov["git_sha"],
        git_dirty=prov["git_dirty"],
        config_hash=prov["config_hash"],
        config=config,
        platform={
            k: prov[k]
            for k in ("platform", "python", "numpy", "cpu_count", "hostname")
        },
        metrics=ledger_metrics(record),
        artifacts={"bench": str(args.output)},
    )
    try:
        path = L.Ledger(args.ledger).append(run)
    except OSError as exc:
        print(f"warning: could not append ledger record: {exc}",
              file=sys.stderr)
        return
    print(f"run {run.run_id} appended to {path}")


def append_record(output: Path, record: dict) -> None:
    doc = {"schema": 1, "runs": []}
    if output.exists():
        try:
            loaded = json.loads(output.read_text())
            if isinstance(loaded, dict) and isinstance(loaded.get("runs"), list):
                doc = loaded
        except json.JSONDecodeError:
            print(f"warning: {output} is corrupt; starting fresh", file=sys.stderr)
    doc["runs"].append(record)
    output.write_text(json.dumps(doc, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=4,
                        help="worker count for the parallel runs (default 4)")
    parser.add_argument("--quick", action="store_true",
                        help="reduced problem sizes (CI smoke)")
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                        default=sorted(WORKLOADS),
                        help="subset of workloads to run")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"results file (default {DEFAULT_OUTPUT.name})")
    parser.add_argument("--repeats", type=int, default=1,
                        help="time each leg N times, keep the fastest "
                             "(default 1; 2 de-noises the gates)")
    parser.add_argument("--skip-parallel", action="store_true",
                        help="skip the process-pool leg (e.g. on single-core "
                             "machines where it cannot win)")
    parser.add_argument("--check-speedup", action="store_true",
                        help="fail if the fig9 speedup is below --min-speedup "
                             "(skipped on single-core machines)")
    parser.add_argument("--min-speedup", type=float, default=1.5)
    parser.add_argument("--check-batched-speedup", action="store_true",
                        help="fail if the fastsim_grid batched speedup is "
                             "below --min-batched-speedup (cores-independent)")
    parser.add_argument("--min-batched-speedup", type=float, default=5.0)
    parser.add_argument("--ledger", metavar="DIR", default=None,
                        help="runs directory for the ledger record "
                             "(default: $REPRO_RUNS_DIR or ./runs)")
    parser.add_argument("--no-ledger", action="store_true",
                        help="do not append this run to the run ledger")
    args = parser.parse_args(argv)
    setup_logging(verbosity=0)

    started = time.time()
    t0 = time.perf_counter()
    cpu_count = _usable_cpus()
    record = {
        "ts": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cpu_count": cpu_count,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "quick": args.quick,
        "workloads": [],
    }
    for name in args.workloads:
        print(f"benchmarking {name} (workers={args.workers}, "
              f"quick={args.quick}, repeats={args.repeats}) ...", flush=True)
        entry = bench_workload(name, args.quick, args.workers,
                               repeats=args.repeats,
                               skip_parallel=args.skip_parallel)
        record["workloads"].append(entry)
        line = f"  serial {entry['serial_s']:.2f}s"
        if entry["parallel_s"] is not None:
            line += (f"  parallel {entry['parallel_s']:.2f}s  "
                     f"speedup {entry['speedup']}x")
        if entry.get("batched_s") is not None:
            line += (f"  batched {entry['batched_s']:.2f}s  "
                     f"batched speedup {entry['batched_speedup']}x")
        print(line + "  (results identical)")
        if entry["overhead"]:
            o = entry["overhead"]
            print(f"  parallel breakdown: utilization {o['utilization']:.0%}  "
                  f"dispatch {o['dispatch_frac']:.1%}  "
                  f"serialization {o['serialization_frac']:.1%}")
        if entry.get("batched_overhead"):
            o = entry["batched_overhead"]
            print(f"  batched breakdown: utilization {o['utilization']:.0%}  "
                  f"dispatch {o['dispatch_frac']:.1%}  "
                  f"serialization {o['serialization_frac']:.1%}")

    append_record(args.output, record)
    print(f"appended run record to {args.output}")
    if not args.no_ledger:
        append_ledger_record(args, record, started,
                             time.perf_counter() - t0)

    if args.check_speedup:
        fig9 = next((w for w in record["workloads"] if w["workload"] == "fig9"),
                    None)
        if fig9 is None:
            print("--check-speedup: fig9 workload not run", file=sys.stderr)
            return 2
        if cpu_count < 2:
            print(f"--check-speedup: only {cpu_count} usable core(s); "
                  f"recorded speedup {fig9['speedup']}x but skipping the "
                  f">= {args.min_speedup}x gate (needs a multi-core machine)",
                  file=sys.stderr)
        elif fig9["speedup"] is None or fig9["speedup"] < args.min_speedup:
            print(f"--check-speedup: fig9 speedup {fig9['speedup']}x is below "
                  f"the {args.min_speedup}x floor", file=sys.stderr)
            return 1
        else:
            print(f"--check-speedup: fig9 speedup {fig9['speedup']}x >= "
                  f"{args.min_speedup}x")

    if args.check_batched_speedup:
        grid = next((w for w in record["workloads"]
                     if w["workload"] == "fastsim_grid"), None)
        if grid is None:
            print("--check-batched-speedup: fastsim_grid workload not run",
                  file=sys.stderr)
            return 2
        batched = grid.get("batched_speedup")
        if batched is None or batched < args.min_batched_speedup:
            print(f"--check-batched-speedup: fastsim_grid batched speedup "
                  f"{batched}x is below the {args.min_batched_speedup}x floor",
                  file=sys.stderr)
            return 1
        print(f"--check-batched-speedup: fastsim_grid batched speedup "
              f"{batched}x >= {args.min_batched_speedup}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
