#!/usr/bin/env python3
"""Run the benchmark and print its metrics.

    python bench/run.py                        # every workload, seed 1
    python bench/run.py --workload sim_poisson --seed 3 --seconds 10
    python bench/run.py --trace                # per-layer metrics instead

Each workload runs in fresh interpreters (``bench/workloads.py``): three
set-up samples, each timed from interpreter start through imports, input
construction and one reduced warm-up op, then one measured run that
repeats the workload's unit of work for ``--seconds``.  Without
``--trace`` the metrics are the ``end_to_end`` ones of ``BENCHMARK.json``;
with ``--trace`` (``--trace 1``) they are the ``per_layer`` ones.  Each
workload's result, with every unit's time and the machine fingerprint, is
written to ``--out`` (default ``.bench_out/``); ``bench/compare.py``
compares two such directories.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
CHILD = os.path.join(BENCH, "workloads.py")
DIGESTS = os.path.join(BENCH, "digests.json")

DEFAULT_SEED = 1
#: Set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: A single workload's run must end within this many seconds.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _kill(proc: subprocess.Popen) -> None:
    """Stop a child and everything it started (its own process group)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _child(args: List[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, CHILD, *args], cwd=ROOT, stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )


def _last_json(text: str) -> Dict[str, Any]:
    for line in reversed(text.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise BenchError("workload process printed no result")


def setup_sample(workload: str, seed: int, deadline: float) -> Dict[str, float]:
    """One fresh interpreter through imports, inputs and the warm-up op."""
    start = time.perf_counter()
    proc = _child(["--workload", workload, "--seed", str(seed), "--mode", "setup"])
    try:
        for line in proc.stdout:
            if line.startswith("{"):
                total = time.perf_counter() - start
                sample = json.loads(line)
                break
        else:
            raise BenchError(f"set-up of {workload} printed no result")
        proc.stdout.read()
        proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except BaseException:
        _kill(proc)
        raise
    if proc.returncode != 0:
        raise BenchError(f"set-up of {workload} exited with {proc.returncode}")
    sample["total_s"] = total
    return sample


def measured_run(workload: str, seed: int, seconds: float, trace: bool,
                 trace_dir: str, deadline: float) -> Dict[str, Any]:
    proc = _child(["--workload", workload, "--seed", str(seed), "--mode", "measure",
                   "--seconds", repr(seconds), "--trace", str(int(trace)),
                   "--trace-dir", trace_dir])
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except BaseException:
        _kill(proc)
        raise
    if proc.returncode != 0:
        raise BenchError(f"measured run of {workload} exited with {proc.returncode}")
    return _last_json(out)


def run_workload(spec: Dict[str, Any], workload: str, seed: int, seconds: float,
                 trace: bool, out_dir: str) -> Dict[str, Any]:
    """Set-up samples plus the measured run of one workload; writes and
    returns its result record."""
    deadline = time.monotonic() + RUN_BUDGET_S
    stamp = time.time_ns()
    tag = f"{workload}-s{seed}-t{int(trace)}-{stamp}"
    trace_dir = os.path.join(out_dir, f"trace-{tag}")
    setups = [setup_sample(workload, seed, deadline) for _ in range(SETUP_SAMPLES)]
    run = measured_run(workload, seed, seconds, trace, trace_dir, deadline)

    computed = {
        "setup_s": statistics.median(s["total_s"] for s in setups),
        "peak_rss_mb": run["peak_rss_mb"],
        "ops_per_s": run["ops_per_s"],
    }
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        computed.update(run["per_layer"])
        for part in ("import_s", "inputs_s", "warmup_s"):
            computed[f"setup.{part}"] = statistics.median(s[part] for s in setups)
    missing = [m["name"] for m in declared if m["name"] not in computed]
    if missing:
        raise BenchError(f"{workload}: no value for declared metrics {missing}")
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
               for m in declared}

    reference = next(u for u in run["units"] if not u["traced"])["digest"]
    digests = _load_json(DIGESTS) or {}
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "started_ns": stamp,
        "correct": run["failed"] == 0 and not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "error_frac": run["failed"] / run["attempted"],
        "metrics": metrics,
        "digest": reference,
        "bit_identical": (reference == digests.get(workload)
                          if seed == DEFAULT_SEED and workload in digests else None),
        "setup": setups,
        **{k: v for k, v in run.items()
           if k not in ("attempted", "failed", "ops_per_s", "per_layer", "peak_rss_mb")},
    }
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{tag}.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    return record


def _load_json(path: str) -> Optional[Dict[str, Any]]:
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return None


def summary_line(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The result line: one record as is, several with prefixed metrics."""
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": value
                   for r in records for name, value in r["metrics"].items()}
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the benchmark's workloads and print their metrics.")
    parser.add_argument("--workload", default=None,
                        help="one workload of BENCHMARK.json (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_out"),
                        help="directory for the result files")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no package sources under {ROOT}/src", file=sys.stderr)
        return 2
    spec = _load_json(SPEC)
    if spec is None:
        print(f"error: {SPEC} is missing", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    seconds = float(args.seconds if args.seconds is not None else spec["run_seconds"])

    records = []
    try:
        for name in [args.workload] if args.workload else names:
            record = run_workload(spec, name, args.seed, seconds, bool(args.trace),
                                  os.path.abspath(args.out))
            values = ", ".join(f"{k}={v['value']:.6g} {v['unit']}"
                               for k, v in list(record["metrics"].items())[:4])
            print(f"{name}: {values}, failed {record['failed']}/{record['attempted']}",
                  file=sys.stderr)
            records.append(record)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary_line(records)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
