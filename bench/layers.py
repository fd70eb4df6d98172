"""Outside-in per-layer tracing for the benchmark.

:class:`LayerTracer` times calls into the package's public functions from
outside the program.  :meth:`LayerTracer.install` swaps a timing wrapper in
for each function listed in :data:`LAYERS`: every attribute of a loaded
``repro.*`` module, or of a class defined there, that *is* the original
function is replaced, so copies made by ``from x import f`` are covered
too.  :meth:`LayerTracer.uninstall` puts the originals back.  Nothing under
``src/`` is edited, and the wrappers do not change which code path runs:

* sweep kernels are never wrapped.  ``batched_kernel_for`` looks a kernel
  up by function object, so a wrapped kernel would silently turn the
  ``auto`` backend into serial;
* pool workers are forked, so they inherit the wrappers.  After each
  ``run_chunk`` a worker writes its totals to a per-pid file in the trace
  directory, and :meth:`LayerTracer.merge_workers` adds those files up in
  the parent.

For each layer metric the tracer keeps ``calls`` and ``self_s``: the calls'
duration minus the time spent in wrapped children.  Calls made off the
main thread (the sweep watchdog's) run unwrapped.  Spans (id, name, start,
end, parent id, op id) are kept in memory, the first :data:`MAX_SPANS` of
them, and :meth:`LayerTracer.write_spans` writes them out when the run
ends.  An *op* is one call of a root layer (``joint_transmit``,
``DownlinkSimulator.run``, ``run_fig*``) made from benchmark code; the
share of the ops' wall time spent inside wrapped children is the trace
coverage.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Spans kept in memory per process; calls past it are still counted.
MAX_SPANS = 50_000

#: Sweeps whose resolved backend is reported.
SWEEPS = ("fig8", "fig9", "fig11")

#: Overhead fields summed from ``repro.runtime.drain_overheads()``.
OVERHEAD_FIELDS = ("compute_s", "dispatch_s", "serialization_s", "idle_s")

Hook = Callable[["LayerTracer", tuple, dict, Any], None]


@dataclass(frozen=True)
class Layer:
    """One layer metric and the public functions it wraps.

    Attributes:
        metric: Metric prefix, ``<layer>.<stage>``.
        paths: ``module:qualname`` of each wrapped function.
        root: Calls from benchmark code start an op.
        subclasses: Also wrap every subclass that overrides the method.
        before / after: Extra accounting run around each call, untimed.
        emit: Which of ``calls`` and ``self_s`` are reported.
    """

    metric: str
    paths: Tuple[str, ...]
    root: bool = False
    subclasses: bool = False
    before: Optional[Callable[["LayerTracer", tuple, dict], None]] = None
    after: Optional[Hook] = None
    emit: Tuple[str, ...] = ("calls", "self_s")


def _count_bits(tracer: "LayerTracer", args, kwargs, result) -> None:
    tracer.extras["phy.conv_decode.bits"] += float(result.size)


def _count_samples(tracer: "LayerTracer", args, kwargs, result) -> None:
    tracer.extras["channel.medium_receive.samples"] += float(result.size)


def _queue_depth(tracer: "LayerTracer", args, kwargs) -> None:
    # JointScheduler.next_group(self): the depth it is about to scan
    depth = float(len(args[0].queue))
    tracer.extras["mac.queue_depth.sum"] += depth
    tracer.extras["mac.queue_depth.n"] += 1.0
    if depth > tracer.extras["mac.queue_depth.max"]:
        tracer.extras["mac.queue_depth.max"] = depth


def _record_backend(tracer: "LayerTracer", args, kwargs, result) -> None:
    # resolve_backend(backend, kernel, workers, total_trials)
    kernel = args[1] if len(args) > 1 else kwargs["kernel"]
    sweep = getattr(kernel, "__name__", "?").replace("_kernel", "")
    tracer.backends[sweep] = str(result)


def _flush_worker(tracer: "LayerTracer", args, kwargs, result) -> None:
    if tracer.worker_path is not None:
        tracer.write_worker_file()


_OBS = ("calls",)

#: The wrapped public functions, layer by layer.  Kernels registered with
#: ``register_batched_kernel`` must never appear here (see module doc).
LAYERS: Tuple[Layer, ...] = (
    Layer("phy.conv_decode",
          ("repro.phy.coding.convolutional:ConvolutionalCode.decode",),
          after=_count_bits),
    Layer("phy.conv_encode",
          ("repro.phy.coding.convolutional:ConvolutionalCode.encode",)),
    Layer("phy.scramble", ("repro.phy.coding.scrambler:Scrambler.keystream",)),
    Layer("phy.soft_demap", ("repro.phy.modulation:Modulation.demodulate_soft",)),
    Layer("phy.ofdm_demod", ("repro.phy.ofdm:OfdmDemodulator.demodulate_symbol",)),
    Layer("phy.ofdm_mod", ("repro.phy.ofdm:OfdmModulator.modulate_grid",
                           "repro.phy.ofdm:OfdmModulator.symbol_grid")),
    Layer("phy.frame_decode", ("repro.phy.frame:PhyFrameDecoder.decode",)),
    Layer("phy.frame_encode", ("repro.phy.frame:PhyFrameEncoder.encode",)),
    Layer("phy.sync_rx", ("repro.phy.cfo:estimate_cfo_coarse",
                          "repro.phy.cfo:estimate_cfo_fine",
                          "repro.phy.cfo:apply_cfo",
                          "repro.phy.channel_est:estimate_channel_lts")),
    Layer("channel.medium_receive", ("repro.channel.medium:Medium.receive",),
          after=_count_samples),
    Layer("channel.medium_transmit", ("repro.channel.medium:Medium.transmit",)),
    Layer("channel.fractional_delay", ("repro.channel.medium:fractional_delay",)),
    Layer("channel.phase_at", ("repro.channel.oscillator:Oscillator.phase_at",)),
    Layer("channel.tv_snapshot",
          ("repro.channel.timevarying:TimeVaryingLinkChannel.snapshot",)),
    Layer("channel.realize_taps", ("repro.channel.models:ChannelModel.realize_taps",),
          subclasses=True),
    Layer("radio.prepare_transmit",
          ("repro.radio.frontend:RadioFrontend.prepare_transmit",)),
    Layer("core.observe_header",
          ("repro.core.phasesync:PhaseSynchronizer.observe_header",)),
    Layer("core.sync_correction",
          ("repro.core.phasesync:PhaseSynchronizer.correction",)),
    Layer("core.zf_precoder", ("repro.core.beamforming:zero_forcing_precoder",)),
    Layer("core.zf_wideband",
          ("repro.core.beamforming:zero_forcing_precoder_wideband",)),
    Layer("core.joint_transmit", ("repro.core.system:MegaMimoSystem.joint_transmit",),
          root=True),
    Layer("sim.joint_zf_sinr_db", ("repro.sim.fastsim:joint_zf_sinr_db",)),
    Layer("sim.build_channel_tensor", ("repro.sim.fastsim:build_channel_tensor",)),
    Layer("sim.sync_errors", ("repro.sim.fastsim:SyncErrorModel.phase_errors",
                              "repro.sim.fastsim:SyncErrorModel.corrupt_estimate")),
    Layer("sim.nulling_inr_db", ("repro.sim.fastsim:nulling_inr_db",)),
    Layer("sim.diversity_snr_db", ("repro.sim.fastsim:diversity_snr_db",)),
    Layer("sim.run_fig", ("repro.sim.experiments:run_fig8",
                          "repro.sim.experiments:run_fig9",
                          "repro.sim.experiments:run_fig11"), root=True),
    Layer("mac.run", ("repro.mac.simulator:DownlinkSimulator.run",), root=True),
    Layer("mac.next_group", ("repro.mac.scheduler:JointScheduler.next_group",),
          before=_queue_depth),
    Layer("mac.queue", ("repro.mac.queue:DownlinkQueue.enqueue",
                        "repro.mac.queue:DownlinkQueue.remove",
                        "repro.mac.queue:DownlinkQueue.requeue",
                        "repro.mac.queue:DownlinkQueue.head")),
    Layer("mac.rate", ("repro.mac.rate:EffectiveSnrRateSelector.select",
                       "repro.mac.rate:EffectiveSnrRateSelector.goodput",
                       "repro.mac.rate:EffectiveSnrRateSelector.goodput_batch")),
    Layer("runtime.run_chunk", ("repro.runtime.engine:run_chunk",),
          after=_flush_worker),
    Layer("runtime.run_chunk_batched", ("repro.runtime.engine:run_chunk_batched",)),
    Layer("runtime.resolve_backend", ("repro.runtime.engine:resolve_backend",),
          after=_record_backend, emit=()),
    Layer("obs.spans", ("repro.obs.tracer:Tracer.span",), emit=_OBS),
    Layer("obs.hist_observe", ("repro.obs.metrics:Histogram.observe",), emit=_OBS),
    Layer("obs.counter_inc", ("repro.obs.metrics:Counter.inc",), emit=_OBS),
    Layer("obs.series_record", ("repro.obs.timeseries:Series.record",), emit=_OBS),
    Layer("obs.flightrec", ("repro.obs.flightrec:FlightRecorder.record",), emit=_OBS),
)

_EXTRA_KEYS = ("phy.conv_decode.bits", "channel.medium_receive.samples",
               "mac.queue_depth.sum", "mac.queue_depth.n", "mac.queue_depth.max")


def declared_metrics() -> List[Dict[str, str]]:
    """Every per-layer metric a traced run reports, in report order.

    ``BENCHMARK.json``'s ``per_layer`` list is exactly this list.  Counts
    and times are per unit of work (the workload's repeated step).
    """
    out: List[Dict[str, str]] = []

    def add(name: str, unit: str, better: str) -> None:
        out.append({"name": name, "unit": unit, "better": better})

    for layer in LAYERS:
        if "calls" in layer.emit:
            add(f"{layer.metric}.calls", "calls/unit", "lower")
        if "self_s" in layer.emit:
            add(f"{layer.metric}.self_s", "s/unit", "lower")
        if layer.metric == "phy.conv_decode":
            add("phy.conv_decode.bits", "bits/unit", "lower")
        elif layer.metric == "channel.medium_receive":
            add("channel.medium_receive.samples", "samples/unit", "lower")
        elif layer.metric == "mac.next_group":
            add("mac.queue_depth.mean", "packets", "lower")
            add("mac.queue_depth.max", "packets", "lower")
    add("obs.self_s", "s/unit", "lower")
    for field in OVERHEAD_FIELDS:
        add(f"runtime.{field}", "s/unit", "lower")
    add("runtime.utilization", "ratio", "higher")
    add("runtime.chunk_failures", "chunks/unit", "lower")
    add("runtime.watchdog_stalls", "stalls/unit", "lower")
    for sweep in SWEEPS:
        add(f"runtime.backend.{sweep}", "code", "higher")
    for part in ("import_s", "inputs_s", "warmup_s"):
        add(f"setup.{part}", "s", "lower")
    add("trace.coverage", "ratio", "higher")
    add("trace.overhead_frac", "ratio", "lower")
    return out


def _resolve(path: str, subclasses: bool) -> List[Tuple[Any, str, Callable]]:
    """``(owner, attribute, function)`` slots a ``module:qualname`` names."""
    module_name, qualname = path.split(":")
    module = importlib.import_module(module_name)
    if "." not in qualname:
        return [(module, qualname, getattr(module, qualname))]
    class_name, attr = qualname.split(".")
    base = getattr(module, class_name)
    classes = [base]
    if subclasses:
        pending = list(base.__subclasses__())
        while pending:
            cls = pending.pop()
            classes.append(cls)
            pending.extend(cls.__subclasses__())
    slots = []
    for cls in classes:
        fn = vars(cls).get(attr)
        if fn is None:
            continue
        if not inspect.isfunction(fn):
            raise TypeError(f"{cls.__qualname__}.{attr} is not a plain function")
        slots.append((cls, attr, fn))
    return slots


def _swap(mapping: Dict[int, Tuple[Callable, Callable]]) -> None:
    """Replace, in every loaded ``repro.*`` module and the classes defined
    there, each attribute that *is* a mapped function."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            hit = mapping.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, key, hit[1])
            elif isinstance(value, type) and value.__module__ == name:
                for attr, member in list(vars(value).items()):
                    hit = mapping.get(id(member))
                    if hit is not None and hit[0] is member:
                        setattr(value, attr, hit[1])


class LayerTracer:
    """Per-process layer accounting; see the module docstring.

    Args:
        trace_dir: Directory for worker totals and the span file.
        clock: Time source (tests substitute a fake).
    """

    def __init__(self, trace_dir: str, clock: Callable[[], float] = time.perf_counter):
        self.trace_dir = trace_dir
        self._clock = clock
        self.stats: Dict[str, List[float]] = {layer.metric: [0, 0.0] for layer in LAYERS}
        self.extras: Dict[str, float] = dict.fromkeys(_EXTRA_KEYS, 0.0)
        self.backends: Dict[str, str] = {}
        self.spans: List[tuple] = []
        self.root_s = 0.0
        self.root_child_s = 0.0
        self.worker_path: Optional[str] = None
        self._stack: List[list] = []
        self._op = 0
        self._next_id = 1
        self._thread = threading.get_ident()
        self._swaps: Dict[int, Tuple[Callable, Callable]] = {}
        self._installed = False
        self._fork_hook = False

    # -- wrapping ------------------------------------------------------------

    def wrap(self, layer: Layer, fn: Callable) -> Callable:
        """A wrapper around ``fn`` that accounts its calls to ``layer``."""
        stats = self.stats.setdefault(layer.metric, [0, 0.0])
        stack, spans, clock = self._stack, self.spans, self._clock
        before, after, root = layer.before, layer.after, layer.root
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args, kwargs)
            parent = stack[-1] if stack else None
            if parent is not None:
                op = parent[2]
            elif root:
                tracer._op += 1
                op = tracer._op
            else:
                op = None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [0.0, span_id, op]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                elif root:
                    tracer.root_s += duration
                    tracer.root_child_s += frame[0]
                if len(spans) < MAX_SPANS:
                    spans.append((span_id, layer.metric, start, end,
                                  None if parent is None else parent[1], op))
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Swap the wrappers in (idempotent)."""
        if self._installed:
            return
        if not self._swaps:
            for layer in LAYERS:
                for path in layer.paths:
                    for _owner, _attr, fn in _resolve(path, layer.subclasses):
                        self._swaps[id(fn)] = (fn, self.wrap(layer, fn))
        if not self._fork_hook:
            os.register_at_fork(after_in_child=self._after_fork)
            self._fork_hook = True
        _swap(self._swaps)
        self._installed = True

    def uninstall(self) -> None:
        """Put the original functions back (idempotent)."""
        if not self._installed:
            return
        _swap({id(new): (new, old) for old, new in self._swaps.values()})
        self._installed = False

    # -- pool workers ----------------------------------------------------------

    def _after_fork(self) -> None:
        """In a forked worker: start from zero and report to a per-pid file."""
        self._thread = threading.get_ident()
        self._stack.clear()
        self.spans.clear()
        for stats in self.stats.values():
            stats[0], stats[1] = 0, 0.0
        for key in self.extras:
            self.extras[key] = 0.0
        self.backends.clear()
        self.root_s = self.root_child_s = 0.0
        self.worker_path = os.path.join(
            self.trace_dir, f"worker-{os.getpid()}-{time.time_ns()}.json"
        )

    def write_worker_file(self) -> None:
        tmp = self.worker_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump({"stats": self.stats, "extras": self.extras}, f)
        os.replace(tmp, self.worker_path)

    def merge_workers(self) -> int:
        """Add the workers' totals into this process's; returns files merged."""
        merged = 0
        for name in sorted(os.listdir(self.trace_dir)):
            if not (name.startswith("worker-") and name.endswith(".json")):
                continue
            path = os.path.join(self.trace_dir, name)
            with open(path) as f:
                data = json.load(f)
            for metric, (calls, self_s) in data["stats"].items():
                self.stats[metric][0] += calls
                self.stats[metric][1] += self_s
            for key, value in data["extras"].items():
                if key == "mac.queue_depth.max":
                    self.extras[key] = max(self.extras[key], value)
                else:
                    self.extras[key] += value
            os.remove(path)
            merged += 1
        return merged

    # -- reporting -------------------------------------------------------------

    def layer_metrics(self, units: int) -> Dict[str, float]:
        """Per-unit ``calls``/``self_s`` and the extras, plus ``obs.self_s``
        and ``trace.coverage``; the other declared metrics come from the
        workload runner."""
        per = 1.0 / max(units, 1)
        out: Dict[str, float] = {}
        obs_self = 0.0
        for layer in LAYERS:
            calls, self_s = self.stats[layer.metric]
            if "calls" in layer.emit:
                out[f"{layer.metric}.calls"] = calls * per
            if "self_s" in layer.emit:
                out[f"{layer.metric}.self_s"] = self_s * per
            if layer.metric.startswith("obs."):
                obs_self += self_s
        out["obs.self_s"] = obs_self * per
        out["phy.conv_decode.bits"] = self.extras["phy.conv_decode.bits"] * per
        out["channel.medium_receive.samples"] = (
            self.extras["channel.medium_receive.samples"] * per
        )
        n = self.extras["mac.queue_depth.n"]
        out["mac.queue_depth.mean"] = self.extras["mac.queue_depth.sum"] / n if n else 0.0
        out["mac.queue_depth.max"] = self.extras["mac.queue_depth.max"]
        out["trace.coverage"] = (
            self.root_child_s / self.root_s if self.root_s > 0 else 0.0
        )
        return out

    def write_spans(self, path: str) -> int:
        """Write the kept spans as JSON lines; returns the count."""
        with open(path, "w") as f:
            for span_id, name, start, end, parent, op in self.spans:
                f.write(json.dumps({"id": span_id, "name": name, "start": start,
                                    "end": end, "parent": parent, "op": op}))
                f.write("\n")
        return len(self.spans)
