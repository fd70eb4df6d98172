"""The benchmark's workloads, and the subprocess that runs one of them.

Each workload is a fixed *unit* of work made through the package's public
API and repeated until the run's time is used up.  ``bench/run.py``
starts this file in a fresh interpreter, once per set-up sample::

    python bench/workloads.py --workload NAME --seed S --mode setup

which imports the modules, builds the inputs, runs one reduced warm-up op
and prints its timings, and once for the measured run::

    python bench/workloads.py --workload NAME --seed S --mode measure \\
        --seconds T --trace 0|1 --trace-dir DIR

which prints one JSON object: every unit's wall time, op count, failed
checks and output digest, the peak RSS and, with ``--trace 1``, the
per-layer metrics of :mod:`layers`.  A traced run alternates untraced
and traced units, so the tracing overhead is measured on the same inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"error: no package sources at {SRC}/repro")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: repro imported from {repro.__file__}, not {SRC}")


def digest(obj: Any) -> str:
    """Digest of a JSON-able output; floats keep every digit."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class Unit:
    """One unit of work as measured.

    Attributes:
        elapsed_s: Wall time of the timed part.
        ops: Items the throughput counts (packets, transmissions, trials).
        checked: Operations whose output was checked.
        failed: Checked operations that raised or failed their check.
        digest: Digest of the unit's outputs.
        info: Workload-specific details (check values, resolved backends).
        overheads: ``repro.runtime.drain_overheads()`` after the unit.
    """

    elapsed_s: float
    ops: int
    checked: int
    failed: int
    digest: str
    info: Dict[str, Any] = field(default_factory=dict)
    overheads: List[Dict[str, Any]] = field(default_factory=list)
    traced: bool = False


#: Largest share of streams a run may lose, in the simulator's
#: ``loss_rate`` and in the joint workloads' CRC failures alike.  A stream
#: lost to CRC is normal operation (the MAC resends it, §9); a broken
#: receiver loses nearly all of them.
MAX_LOSS_RATE = 0.3

# ---------------------------------------------------------------------------
# sample-level joint transmissions (paper §5-§7)
# ---------------------------------------------------------------------------

N_AP = 4
CLIENT_SNR_DB = 25.0
#: Placement screen of the joint workloads' topologies: the ZF power
#: penalty of the sounded channel, as ``repro.sim.experiments
#: .zf_penalty_db`` defines it.  At 25 dB, 4x4 Rician K=8 topologies above
#: ~2 dB lose MCS 4-5 packets on most seeds.
MAX_PENALTY_DB = 2.0
SCREEN_ATTEMPTS = 100


class JointPhy:
    """``MegaMimoSystem`` joint transmissions to 4 clients.

    A unit builds the system from the screened seed, sounds, and sends
    ``len(mcs)`` joint transmissions of ``payload_bytes`` per client; only
    the transmissions are timed.  MCS 5-7 are left out: at 25 dB, MCS 5
    fails CRC on ~3% of receptions even on screened topologies.
    """

    modules = ("repro.core.system", "repro.channel.models", "repro.phy.mcs")

    def __init__(self, payload_bytes: int, mcs: Sequence[int], spacing_s: float):
        self.payload_bytes = payload_bytes
        self.mcs = tuple(mcs)
        self.spacing_s = spacing_s
        self.nominal_checked = len(self.mcs)

    @staticmethod
    def _system(seed: int):
        from repro.channel.models import RicianChannel
        from repro.core.system import MegaMimoSystem, SystemConfig

        system = MegaMimoSystem.create(
            SystemConfig(n_aps=N_AP, n_clients=N_AP, seed=seed),
            client_snr_db=CLIENT_SNR_DB,
            channel_model=RicianChannel(k_factor=8.0),
        )
        system.run_sounding(0.0)
        return system

    @staticmethod
    def _penalty_db(system) -> float:
        import numpy as np
        from repro.core.beamforming import zero_forcing_precoder_wideband
        from repro.phy.preamble import lts_grid

        occupied = np.nonzero(np.abs(lts_grid()) > 0)[0]
        channels = system.sounding_result.channel_tensor()[occupied]
        _, k = zero_forcing_precoder_wideband(channels)
        best = np.mean(np.max(np.mean(np.abs(channels) ** 2, axis=0), axis=1))
        return float(10 * np.log10(best / k**2))

    def inputs(self, seed: int) -> Dict[str, Any]:
        import numpy as np

        rng = np.random.default_rng(seed)
        best_seed, best_penalty = None, np.inf
        for _ in range(SCREEN_ATTEMPTS):
            candidate = int(rng.integers(1 << 31))
            penalty = self._penalty_db(self._system(candidate))
            if penalty < best_penalty:
                best_seed, best_penalty = candidate, penalty
            if penalty <= MAX_PENALTY_DB:
                break
        payloads = [
            [rng.bytes(self.payload_bytes) for _ in range(N_AP)] for _ in self.mcs
        ]
        return {"system_seed": best_seed, "penalty_db": best_penalty,
                "payloads": payloads}

    def warmup(self, inp: Dict[str, Any]) -> None:
        from repro.phy.mcs import get_mcs

        system = self._system(inp["system_seed"])
        system.joint_transmit([bytes(100)] * N_AP, get_mcs(0), start_time=1e-3)

    def run(self, inp: Dict[str, Any]) -> Unit:
        from repro.phy.mcs import get_mcs

        system = self._system(inp["system_seed"])
        start = time.perf_counter()
        reports = [
            system.joint_transmit(payloads, get_mcs(m),
                                  start_time=1e-3 + k * self.spacing_s)
            for k, (payloads, m) in enumerate(zip(inp["payloads"], self.mcs))
        ]
        elapsed = time.perf_counter() - start
        return self.check(inp["payloads"], reports, elapsed)

    def check(self, sent: Sequence[Sequence[bytes]], reports, elapsed: float) -> Unit:
        """A transmission fails if a CRC-OK payload differs from the one sent
        or no client decodes; all fail if the unit loses
        :data:`MAX_LOSS_RATE` of its streams or more.

        Even on screened topologies some streams fail CRC: ~0.5% of 1500-B
        receptions, and on some seeds a QPSK transmission loses 2 of 4
        clients at 22 dB pilot SNR, so "every client decodes" does not hold
        on every seed.
        """
        failed = decoded = 0
        outputs = []
        for payloads, report in zip(sent, reports):
            ok = [r.decoded is not None and r.decoded.crc_ok for r in report.receptions]
            corrupt = any(
                o and r.decoded.payload != p
                for o, r, p in zip(ok, report.receptions, payloads)
            )
            failed += corrupt or not any(ok)
            decoded += sum(ok)
            outputs.append([[o, r.effective_snr_db, r.evm_db]
                            for o, r in zip(ok, report.receptions)])
        n = len(reports)
        receptions = n * N_AP
        if receptions - decoded >= MAX_LOSS_RATE * receptions:
            failed = n
        return Unit(
            elapsed_s=elapsed, ops=n, checked=n, failed=failed,
            digest=digest(outputs),
            info={"decoded": decoded, "receptions": receptions,
                  "payload_bytes": decoded * self.payload_bytes},
        )


# ---------------------------------------------------------------------------
# link-layer simulation (paper §9)
# ---------------------------------------------------------------------------


class Simulation:
    """``DownlinkSimulator(LinkLayerConfig(4 APs, 4 clients)).run()``.

    The seed picks a deployment whose first sounding selects 16-QAM or a
    faster MCS, tested with a 10-ms probe run of the same configuration.
    Unscreened, a deployment that starts below the MCS floor carries a
    fifth of the transmissions of a 16-QAM one in the same 0.5 s, and the
    backlog's fixed cost (6,000 enqueues) halves its transmissions per
    second.
    """

    modules = ("repro.mac.simulator",)
    nominal_checked = 1
    MIN_FIRST_MCS = 4  # 16QAM-1/2

    def __init__(self, duration_s: float, arrival_rate_pps: Optional[float]):
        self.duration_s = duration_s
        self.arrival_rate_pps = arrival_rate_pps

    def inputs(self, seed: int):
        import numpy as np
        from repro.mac.simulator import DownlinkSimulator, LinkLayerConfig
        from repro.phy.mcs import ALL_MCS

        fast_enough = {m.name for m in ALL_MCS if m.index >= self.MIN_FIRST_MCS}
        rng = np.random.default_rng(seed)
        for _ in range(SCREEN_ATTEMPTS):
            config = LinkLayerConfig(
                n_aps=N_AP, n_clients=N_AP, duration_s=self.duration_s,
                arrival_rate_pps=self.arrival_rate_pps, seed=int(rng.integers(1 << 31)))
            probe = DownlinkSimulator(dataclasses.replace(config, duration_s=0.01)).run()
            first = next(e.detail for e in probe.events if e.kind == "sound")
            if first in fast_enough:
                break
        return config

    def warmup(self, config) -> None:
        from repro.mac.simulator import DownlinkSimulator

        DownlinkSimulator(dataclasses.replace(config, duration_s=0.05)).run()

    def run(self, config) -> Unit:
        from repro.mac.simulator import DownlinkSimulator

        start = time.perf_counter()
        trace = DownlinkSimulator(config).run()
        elapsed = time.perf_counter() - start
        return self.check(trace, elapsed)

    @staticmethod
    def check(trace, elapsed: float) -> Unit:
        """The run returns, delivers something, and loses < 30% of streams."""
        goodput = trace.total_goodput_bps
        ok = goodput > 0 and trace.loss_rate < MAX_LOSS_RATE
        return Unit(
            elapsed_s=elapsed, ops=trace.n_transmissions, checked=1,
            failed=0 if ok else 1,
            digest=digest([trace.n_transmissions, trace.n_failures,
                           trace.n_soundings, trace.per_client_goodput_bps.tolist(),
                           sorted(trace.airtime.items())]),
            info={"goodput_mbps": goodput / 1e6, "loss_rate": trace.loss_rate,
                  "n_transmissions": trace.n_transmissions},
        )


# ---------------------------------------------------------------------------
# Monte-Carlo figure sweeps (paper Fig. 8, 9, 11)
# ---------------------------------------------------------------------------

#: Engine chunk modes -> the backend that produced them.
_MODE_BACKEND = {"pool": "process", "batched": "batched", "serial": "serial",
                 "thread": "thread"}


def sweep_accounting(overheads: Sequence[Dict[str, Any]]):
    """``(backend per sweep, trials in retried chunks)`` of a unit."""
    backends: Dict[str, str] = {}
    retried = 0
    for o in overheads:
        modes = o.get("modes", {})
        main = sorted(_MODE_BACKEND[m] for m in modes if m in _MODE_BACKEND)
        backends[o["sweep"]] = "+".join(main) or "retry"
        if modes.get("retry") and o.get("chunks"):
            retried += round(modes["retry"] * o["trials"] / o["chunks"])
    return backends, retried


class Sweep:
    """Base of the figure workloads: time the sweep, then account it."""

    modules = ("repro.sim.experiments",)

    def inputs(self, seed: int) -> int:
        return seed

    def run(self, seed: int) -> Unit:
        from repro.runtime import drain_overheads

        drain_overheads()
        start = time.perf_counter()
        results = self.sweep(seed)
        elapsed = time.perf_counter() - start
        overheads = drain_overheads()
        unit = self.check(results, elapsed)
        backends, retried = sweep_accounting(overheads)
        unit.failed = min(unit.checked, unit.failed + retried)
        unit.info["backends"] = backends
        unit.overheads = overheads
        return unit


class Fig9(Sweep):
    """``run_fig9`` with 20 topologies per cell, ``backend="auto"``.

    The grid keeps N = 2, 6 and 10 of EXPERIMENTS.md's 2..10 (180 of its
    540 trials, ~2.5 s on a 2-vCPU Xeon VM), so a 10-s run holds four
    units and the fastest of them escapes most slow phases of a shared
    machine; with the full grid a run holds two.  The cells, their chunking and the batched
    path are the full sweep's.  Most of the time is the placement screen's
    redraws, whose count varies by 7% between seeds (4% on the full grid).
    """

    N_APS = (2, 6, 10)
    nominal_checked = 3 * len(N_APS) * 20
    GAIN_RANGE = (7.0, 10.5)

    def warmup(self, seed: int) -> None:
        from repro.sim.experiments import run_fig9

        run_fig9(seed=seed, n_aps=(2,), n_topologies=2, backend="auto")

    def sweep(self, seed: int):
        from repro.sim.experiments import run_fig9

        return run_fig9(seed=seed, n_aps=self.N_APS, n_topologies=20, backend="auto")

    def check(self, fig9, elapsed: float) -> Unit:
        """The median gain at (high, N=10) lies in the paper's range."""
        gain = fig9.median_gain("high", 10)
        ok = self.GAIN_RANGE[0] <= gain <= self.GAIN_RANGE[1]
        trials = sum(len(c.megamimo_bps) for c in fig9.cells.values())
        outputs = {f"{b}/{n}": [c.megamimo_bps.tolist(), c.baseline_bps.tolist()]
                   for (b, n), c in sorted(fig9.cells.items())}
        return Unit(elapsed_s=elapsed, ops=trials, checked=trials,
                    failed=0 if ok else trials, digest=digest(outputs),
                    info={"median_gain_high_10": gain})


class Fig8And11(Sweep):
    """``run_fig8`` on a 2-worker pool, then ``run_fig11`` (auto: serial)."""

    FIG8_TRIALS = 3 * 9 * 20
    FIG11_TRIALS = 6 * 30
    nominal_checked = FIG8_TRIALS + FIG11_TRIALS
    MAX_INR_DB = 1.5
    MIN_REVIVAL = 10.0

    def warmup(self, seed: int) -> None:
        from repro.sim.experiments import run_fig8

        run_fig8(seed=seed, n_receivers=(2,), n_topologies=1, workers=2,
                 backend="auto")

    def sweep(self, seed: int):
        from repro.sim.experiments import run_fig8, run_fig11

        return (run_fig8(seed=seed, n_topologies=20, workers=2, backend="auto"),
                run_fig11(seed=seed, n_draws=30, workers=2, backend="auto"))

    def check(self, results, elapsed: float) -> Unit:
        """Fig. 8 INR at (high, N=10) < 1.5 dB; Fig. 11 at 0 dB: 10 APs
        deliver at least 10x the 1-AP baseline."""
        fig8, fig11 = results
        inr = float(fig8.inr_db["high"][list(fig8.n_receivers).index(10)])
        at_0db = list(fig11.snr_db).index(0.0)
        mbps_10 = float(fig11.throughput_mbps[10][at_0db])
        mbps_1 = float(fig11.throughput_mbps[1][at_0db])
        failed = (0 if inr < self.MAX_INR_DB else self.FIG8_TRIALS) + (
            0 if mbps_10 >= self.MIN_REVIVAL * mbps_1 else self.FIG11_TRIALS)
        outputs = {"fig8": {b: v.tolist() for b, v in sorted(fig8.inr_db.items())},
                   "fig11": {str(n): v.tolist()
                             for n, v in sorted(fig11.throughput_mbps.items())}}
        return Unit(elapsed_s=elapsed, ops=self.nominal_checked,
                    checked=self.nominal_checked, failed=failed,
                    digest=digest(outputs),
                    info={"fig8_inr_db_high_10": inr, "fig11_mbps_0db": [mbps_1, mbps_10]})


#: The benchmark's workloads; ``BENCHMARK.json`` gives the reason for each.
WORKLOADS = {
    "joint_phy_100b": JointPhy(100, (0, 1, 2, 3, 4) * 2, spacing_s=2e-3),
    "joint_phy_1500b": JointPhy(1500, (0, 2, 4), spacing_s=10e-3),
    "sim_backlog": Simulation(duration_s=0.5, arrival_rate_pps=None),
    "sim_poisson": Simulation(duration_s=1.0, arrival_rate_pps=300.0),
    "fig9_batched": Fig9(),
    "fig8_11_pool": Fig8And11(),
}


# ---------------------------------------------------------------------------
# the subprocess
# ---------------------------------------------------------------------------


def load(workload) -> float:
    """Import the workload's modules; returns the import time."""
    start = time.perf_counter()
    use_checkout_sources()
    for module in workload.modules:
        importlib.import_module(module)
    return time.perf_counter() - start


def run_unit(workload, inp, traced: bool) -> Unit:
    """One unit; an exception fails all of its nominal operations."""
    try:
        unit = workload.run(inp)
    except Exception:
        traceback.print_exc()
        unit = Unit(elapsed_s=float("nan"), ops=0,
                    checked=workload.nominal_checked,
                    failed=workload.nominal_checked, digest="raised")
    unit.traced = traced
    return unit


def describe(inp: Any) -> Any:
    """A workload's inputs as recorded in the result (payloads left out)."""
    if dataclasses.is_dataclass(inp):
        return dataclasses.asdict(inp)
    if isinstance(inp, dict):
        return {k: v for k, v in inp.items() if k != "payloads"}
    return inp


def consistency_failures(units: Sequence[Unit]) -> List[str]:
    """Repeats of a unit must give the same outputs, traced or not, and a
    traced unit's resolved backends must match the untraced ones; marks
    the units that differ as failed."""
    problems = []
    reference = next((u for u in units if not u.traced), units[0])
    for i, unit in enumerate(units):
        if unit.digest != reference.digest:
            problems.append(f"unit {i} digest {unit.digest} != {reference.digest}")
            unit.failed = unit.checked
        elif unit.info.get("backends") != reference.info.get("backends"):
            problems.append(f"unit {i} backends {unit.info.get('backends')}")
            unit.failed = unit.checked
    return problems


def fingerprint() -> Dict[str, Any]:
    """The machine and software a result was measured on."""
    import importlib.metadata as metadata

    import numpy as np

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next((line.split(":", 1)[1].strip() for line in f
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "usable_cpus": cpus,
        "cpu_model": cpu_model,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_sha": _git_sha(),
    }


def _blas_threads() -> Optional[int]:
    """The loaded OpenBLAS's thread count, or None if it cannot be read."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> Optional[str]:
    """HEAD of the checkout's own ``.git`` (None outside a git checkout)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def sweep_layer_metrics(units: Sequence[Unit]) -> Dict[str, float]:
    """``runtime.*`` per-layer metrics from the units' sweep overheads."""
    from layers import OVERHEAD_FIELDS, SWEEPS
    from repro.runtime import BACKENDS

    per = 1.0 / max(len(units), 1)
    out = {f"runtime.{k}": 0.0 for k in OVERHEAD_FIELDS}
    compute = capacity = retries = 0.0
    for unit in units:
        for o in unit.overheads:
            for k in OVERHEAD_FIELDS:
                out[f"runtime.{k}"] += o[k] * per
            compute += o["compute_s"]
            capacity += o["workers"] * o["wall_s"]
            retries += o.get("modes", {}).get("retry", 0)
    out["runtime.utilization"] = compute / capacity if capacity else 0.0
    out["runtime.chunk_failures"] = retries * per
    # a backend's position in BACKENDS; 0 ("auto") never resolves, so it
    # stands for a sweep that did not run
    backends = units[0].info.get("backends", {}) if units else {}
    for sweep in SWEEPS:
        backend = backends.get(sweep)
        out[f"runtime.backend.{sweep}"] = float(
            BACKENDS.index(backend) if backend in BACKENDS else 0)
    return out


def measure(name: str, seed: int, seconds: float, trace: bool,
            trace_dir: Optional[str]) -> Dict[str, Any]:
    workload = WORKLOADS[name]
    load(workload)
    inp = workload.inputs(seed)
    workload.warmup(inp)
    tracer = None
    if trace:
        import multiprocessing

        from layers import LayerTracer

        if multiprocessing.get_start_method() != "fork":
            raise SystemExit("error: traced runs need the 'fork' start method")
        os.makedirs(trace_dir, exist_ok=True)
        tracer = LayerTracer(trace_dir)
    from repro.obs import metrics

    stalls = metrics.counter("runtime.watchdog_stalls")
    stalls_before = stalls.value

    units: List[Unit] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(units) % 2 == 1
        if traced:
            tracer.install()
        try:
            units.append(run_unit(workload, inp, traced))
        finally:
            if tracer is not None:
                tracer.uninstall()
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or len(units) >= 2):
            break

    problems = consistency_failures(units)
    plain = [u for u in units if not u.traced and u.ops and u.elapsed_s > 0]
    result: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "attempted": sum(u.checked for u in units),
        "failed": sum(u.failed for u in units),
        "problems": problems,
        "ops_per_s": max((u.ops / u.elapsed_s for u in plain), default=0.0),
        "units": [{k: v for k, v in dataclasses.asdict(u).items() if k != "overheads"}
                  for u in units],
        "inputs": describe(inp),
        "peak_rss_mb": peak_rss_mb(),
        "watchdog_stalls": stalls.value - stalls_before,
        "fingerprint": fingerprint(),
    }
    if tracer is not None:
        traced_units = [u for u in units if u.traced]
        tracer.merge_workers()
        layer = tracer.layer_metrics(len(traced_units))
        layer.update(sweep_layer_metrics(traced_units))
        layer["runtime.watchdog_stalls"] = result["watchdog_stalls"] / len(traced_units)
        for sweep, backend in sorted(tracer.backends.items()):
            unit_backend = traced_units[0].info.get("backends", {}).get(sweep)
            if unit_backend is not None and backend != unit_backend:
                result["problems"].append(
                    f"{sweep}: resolve_backend -> {backend}, chunks ran {unit_backend}")
                result["failed"] += traced_units[0].checked
        timed = [u.elapsed_s for u in traced_units if u.ops and u.elapsed_s > 0]
        layer["trace.overhead_frac"] = (
            min(timed) / min(u.elapsed_s for u in plain) - 1.0
            if timed and plain else float("nan"))
        result["per_layer"] = layer
        result["resolved_backends"] = dict(sorted(tracer.backends.items()))
        result["spans"] = tracer.write_spans(os.path.join(trace_dir, "spans.jsonl"))
    return result


def setup(name: str, seed: int) -> Dict[str, float]:
    workload = WORKLOADS[name]
    import_s = load(workload)
    start = time.perf_counter()
    inp = workload.inputs(seed)
    inputs_s = time.perf_counter() - start
    start = time.perf_counter()
    workload.warmup(inp)
    warmup_s = time.perf_counter() - start
    return {"import_s": import_s, "inputs_s": inputs_s, "warmup_s": warmup_s}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        out = setup(args.workload, args.seed)
    else:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                      args.trace_dir)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
