"""Trace profiler: where a run's wall clock went.

``repro obs profile TRACE`` reads one JSONL trace (merged worker shards
included) and answers with two views of the same records:

**Hot spans.**  Per span name: count, total/self/mean/max wall time, CPU
time and errors, ranked by **self time** — a span's wall time minus its
direct children's wall time.  A ``joint_tx`` span is long, but the time
lives in its ``ofdm_mod``/``precoding``/``channel_apply`` children, so
self time is what ranks hot *stages*.  Every trace with span records gets
this table.

**Per-sweep attribution.**  The engine records one ``runtime.chunk``
event per completed work item (parented to its ``runtime.sweep`` span),
carrying the dispatch-overhead envelope: submit/receive/done timestamps,
worker wall/CPU compute, and task/result serialization bytes and seconds.
:func:`attribute_chunks` folds those into a per-worker decomposition

    wall = compute + dispatch + serialization + idle

that sums to the sweep's measured wall time *by construction* (idle is the
clamped remainder of the worker's window):

``compute``
    Kernel time inside :func:`repro.runtime.engine.run_chunk`.
``serialization``
    Parent-side task pickling plus worker-side result pickling.
``dispatch``
    Worker startup (sweep start to the worker's first chunk arrival) plus
    per-chunk envelope overhead (argument unpickling, accounting, IPC
    framing — worker busy time not explained by compute or result
    serialization).
``idle``
    The rest of the worker's window: waiting for work, straggler tail.

Queue wait (submit to worker receipt) overlaps other chunks' compute on a
busy pool, so it is reported alongside — not inside — the decomposition.

:func:`profile_trace` builds both views; :func:`folded_stacks` renders the
span tree as folded flamegraph lines (``a;b;c <self-time-us>``), ready for
``flamegraph.pl`` or any compatible viewer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs.events import read_events

#: Span name the engine wraps every sweep in.
SWEEP_SPAN = "runtime.sweep"

#: Event name carrying one chunk's dispatch-overhead envelope.
CHUNK_EVENT = "runtime.chunk"

#: The four components every attribution decomposes wall time into.
COMPONENTS = ("compute_s", "dispatch_s", "serialization_s", "idle_s")


@dataclass
class WorkerBreakdown:
    """One worker's share of a sweep's wall-clock window."""

    worker: str
    wall_s: float
    chunks: int = 0
    trials: int = 0
    compute_s: float = 0.0
    cpu_s: float = 0.0
    dispatch_s: float = 0.0
    serialization_s: float = 0.0
    idle_s: float = 0.0
    queue_wait_s: float = 0.0
    mem_peak_kb: Optional[float] = None

    @property
    def components_s(self) -> float:
        """Sum of the four attribution components (should ~equal wall_s)."""
        return self.compute_s + self.dispatch_s + self.serialization_s + self.idle_s

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "worker": self.worker,
            "chunks": self.chunks,
            "trials": self.trials,
            "compute_s": self.compute_s,
            "cpu_s": self.cpu_s,
            "dispatch_s": self.dispatch_s,
            "serialization_s": self.serialization_s,
            "idle_s": self.idle_s,
            "queue_wait_s": self.queue_wait_s,
        }
        if self.mem_peak_kb is not None:
            out["mem_peak_kb"] = self.mem_peak_kb
        return out


@dataclass
class SweepAttribution:
    """Top-down wall-time attribution of one sweep run."""

    sweep: str
    wall_s: float
    workers: int
    per_worker: List[WorkerBreakdown] = field(default_factory=list)
    modes: Dict[str, int] = field(default_factory=dict)

    def _total(self, attr: str) -> float:
        return float(sum(getattr(w, attr) for w in self.per_worker))

    @property
    def chunks(self) -> int:
        return sum(w.chunks for w in self.per_worker)

    @property
    def trials(self) -> int:
        return sum(w.trials for w in self.per_worker)

    @property
    def capacity_s(self) -> float:
        """Total worker-seconds available: ``workers * wall_s``."""
        return self.workers * self.wall_s

    @property
    def utilization(self) -> float:
        """Fraction of pool capacity spent in kernel compute."""
        return self._total("compute_s") / self.capacity_s if self.capacity_s else 0.0

    @property
    def dispatch_frac(self) -> float:
        return self._total("dispatch_s") / self.capacity_s if self.capacity_s else 0.0

    @property
    def serialization_frac(self) -> float:
        return (
            self._total("serialization_s") / self.capacity_s
            if self.capacity_s else 0.0
        )

    def to_dict(self) -> Dict[str, Any]:
        """The ``overhead`` breakdown stamped into results and BENCH entries."""
        return {
            "sweep": self.sweep,
            "wall_s": self.wall_s,
            "workers": self.workers,
            "chunks": self.chunks,
            "trials": self.trials,
            "modes": dict(self.modes),
            "compute_s": self._total("compute_s"),
            "cpu_s": self._total("cpu_s"),
            "dispatch_s": self._total("dispatch_s"),
            "serialization_s": self._total("serialization_s"),
            "idle_s": self._total("idle_s"),
            "queue_wait_s": self._total("queue_wait_s"),
            "utilization": self.utilization,
            "dispatch_frac": self.dispatch_frac,
            "serialization_frac": self.serialization_frac,
            "per_worker": [w.to_dict() for w in self.per_worker],
        }


def attribute_chunks(
    chunks: Sequence[Dict[str, Any]],
    wall_s: float,
    workers: int,
    start_ts: float,
    sweep: str = "?",
) -> SweepAttribution:
    """Decompose a sweep's wall time from its chunk envelope records.

    ``chunks`` are dicts shaped like the engine's ``runtime.chunk`` event
    attrs.  Each worker's window is the full sweep wall; compute, dispatch
    and serialization are summed from its chunks and idle is the clamped
    remainder, so per-worker components always reassemble the wall.
    """
    attribution = SweepAttribution(
        sweep=sweep, wall_s=float(wall_s), workers=int(workers)
    )
    groups: Dict[str, List[Dict[str, Any]]] = {}
    for rec in chunks:
        worker = str(rec.get("worker", "parent"))
        groups.setdefault(worker, []).append(rec)
        mode = str(rec.get("mode", "pool"))
        attribution.modes[mode] = attribution.modes.get(mode, 0) + 1

    for worker in sorted(groups):
        recs = groups[worker]
        compute = sum(float(r.get("wall_s", 0.0)) for r in recs)
        cpu = sum(float(r.get("cpu_s", 0.0)) for r in recs)
        ser_result = sum(float(r.get("ser_result_s", 0.0)) for r in recs)
        ser = ser_result + sum(float(r.get("ser_task_s", 0.0)) for r in recs)
        busy = sum(
            max(float(r.get("done_ts", 0.0)) - float(r.get("recv_ts", 0.0)), 0.0)
            for r in recs
        )
        envelope = max(busy - compute - ser_result, 0.0)
        # Startup latency only applies to pool workers: the parent runs
        # serial/retry chunks interleaved with its own bookkeeping, so its
        # first chunk's arrival time says nothing about spawn cost.
        if all(r.get("mode") == "pool" for r in recs):
            startup = max(
                min(float(r.get("recv_ts", start_ts)) for r in recs) - start_ts,
                0.0,
            )
        else:
            startup = 0.0
        dispatch = envelope + startup
        idle = max(float(wall_s) - compute - ser - dispatch, 0.0)
        peaks = [
            float(r["mem_peak_kb"]) for r in recs
            if r.get("mem_peak_kb") is not None
        ]
        attribution.per_worker.append(WorkerBreakdown(
            worker=worker,
            wall_s=float(wall_s),
            chunks=len(recs),
            trials=sum(int(r.get("trials", 0)) for r in recs),
            compute_s=compute,
            cpu_s=cpu,
            dispatch_s=dispatch,
            serialization_s=ser,
            idle_s=idle,
            queue_wait_s=sum(float(r.get("queue_wait_s", 0.0)) for r in recs),
            mem_peak_kb=max(peaks) if peaks else None,
        ))
    return attribution


@dataclass
class SpanStats:
    """Aggregated timings for one span name."""

    name: str
    count: int = 0
    total_wall_s: float = 0.0
    total_cpu_s: float = 0.0
    total_self_s: float = 0.0
    max_wall_s: float = 0.0
    errors: int = 0

    @property
    def mean_wall_s(self) -> float:
        return self.total_wall_s / self.count if self.count else float("nan")


@dataclass
class TraceProfile:
    """Everything the profiler extracts from one trace."""

    records: List[Dict[str, Any]]
    attributions: List[SweepAttribution]
    spans: Dict[str, SpanStats] = field(default_factory=dict)
    events: Dict[str, int] = field(default_factory=dict)
    root_wall_s: float = 0.0  # sum of root-span wall time


def _self_times(
    records: Iterable[Dict[str, Any]],
) -> List[Tuple[Dict[str, Any], float]]:
    """Each span record with its self time (wall minus direct children)."""
    spans = [r for r in records if r.get("type") == "span"]
    child_wall: Dict[Any, float] = {}
    for rec in spans:
        parent = rec.get("parent_id")
        if parent is not None:
            child_wall[parent] = (
                child_wall.get(parent, 0.0) + float(rec.get("wall_s", 0.0))
            )
    return [
        (rec, max(float(rec.get("wall_s", 0.0))
                  - child_wall.get(rec.get("span_id"), 0.0), 0.0))
        for rec in spans
    ]


def _sweep_attributions(records: List[Dict[str, Any]]) -> List[SweepAttribution]:
    chunk_events: Dict[Any, List[Dict[str, Any]]] = {}
    for rec in records:
        if rec.get("type") == "event" and rec.get("name") == CHUNK_EVENT:
            chunk_events.setdefault(rec.get("parent_id"), []).append(
                rec.get("attrs") or {}
            )
    attributions: List[SweepAttribution] = []
    for rec in records:
        if rec.get("type") != "span" or rec.get("name") != SWEEP_SPAN:
            continue
        chunks = chunk_events.get(rec.get("span_id"), [])
        attrs = rec.get("attrs") or {}
        if not chunks:
            # A sweep span without chunk envelopes is an instrumentation
            # regression — unless the span itself says every chunk was
            # loaded from the checkpoint (a fully-resumed run legitimately
            # dispatches nothing), which gets an empty attribution.
            resumed = attrs.get("resumed")
            if resumed is None or int(resumed) != int(attrs.get("chunks", -1)):
                continue
        # The span record's ts is its *entry* time; wall_s its duration.
        attributions.append(attribute_chunks(
            chunks,
            wall_s=float(rec.get("wall_s", 0.0)),
            workers=int(attrs.get("workers", 1)),
            start_ts=float(rec.get("ts", 0.0)),
            sweep=str(attrs.get("sweep", "?")),
        ))
    return attributions


def profile_trace(source: Union[str, Iterable[Dict[str, Any]]]) -> TraceProfile:
    """Profile a trace (path or records): hot spans plus sweep attribution.

    Raises ``OSError`` for an unreadable file and ``ValueError`` for a
    malformed one (a line that is not JSON, or a record that is not a
    JSON object).
    """
    records = read_events(source) if isinstance(source, str) else list(source)
    for i, rec in enumerate(records, start=1):
        if not isinstance(rec, dict):
            raise ValueError(f"record {i} is not a JSON object: {rec!r}")
    profile = TraceProfile(records=records,
                           attributions=_sweep_attributions(records))
    for rec in records:
        if rec.get("type") == "event":
            name = rec.get("name", "?")
            profile.events[name] = profile.events.get(name, 0) + 1
    for rec, self_s in _self_times(records):
        name = rec.get("name", "?")
        wall = float(rec.get("wall_s", 0.0))
        stats = profile.spans.get(name)
        if stats is None:
            stats = profile.spans[name] = SpanStats(name=name)
        stats.count += 1
        stats.total_wall_s += wall
        stats.total_cpu_s += float(rec.get("cpu_s", 0.0))
        stats.total_self_s += self_s
        stats.max_wall_s = max(stats.max_wall_s, wall)
        if "error" in rec:
            stats.errors += 1
        if rec.get("parent_id") is None:
            profile.root_wall_s += wall
    return profile


def folded_stacks(
    records: Iterable[Dict[str, Any]], scale: float = 1e6
) -> List[str]:
    """Render span self-times as folded flamegraph lines.

    One line per distinct root-to-span path, ``root;child;leaf <value>``,
    where the value is the path's aggregate *self* time in microseconds
    (integer, as flamegraph tooling expects).  Works on merged traces: the
    shard merger keeps ids unique and parent links intact, so worker spans
    fold under the sweep span that launched them.
    """
    timed = _self_times(records)
    spans = {rec.get("span_id"): rec for rec, _ in timed}
    agg: Dict[str, float] = {}
    for rec, self_s in timed:
        parts = [str(rec.get("name", "?"))]
        parent_id = rec.get("parent_id")
        hops = 0
        while parent_id is not None and parent_id in spans and hops < 512:
            parent = spans[parent_id]
            parts.append(str(parent.get("name", "?")))
            parent_id = parent.get("parent_id")
            hops += 1
        path = ";".join(reversed(parts))
        agg[path] = agg.get(path, 0.0) + self_s
    return [
        f"{path} {int(round(value * scale))}" for path, value in sorted(agg.items())
    ]


def _fmt_component(seconds: float, wall: float) -> str:
    pct = 100.0 * seconds / wall if wall > 0 else 0.0
    return f"{seconds:9.3f}s {pct:4.0f}%"


def format_attribution(attribution: SweepAttribution) -> str:
    """Render one sweep's attribution as an aligned text table."""
    a = attribution
    modes = ", ".join(f"{k} {v}" for k, v in sorted(a.modes.items())) or "resumed"
    lines = [
        f"sweep {a.sweep!r}: wall {a.wall_s:.3f}s, workers {a.workers}, "
        f"{a.chunks} chunks ({modes}), {a.trials} trials",
    ]
    has_mem = any(w.mem_peak_kb is not None for w in a.per_worker)
    header = (
        f"  {'worker':<12} {'chunks':>6} {'trials':>6} "
        f"{'compute':>15} {'dispatch':>15} {'serializ.':>15} {'idle':>15}"
    )
    if has_mem:
        header += f" {'mem peak':>10}"
    lines.append(header)
    for w in a.per_worker:
        row = (
            f"  {w.worker:<12} {w.chunks:>6} {w.trials:>6} "
            f"{_fmt_component(w.compute_s, w.wall_s)} "
            f"{_fmt_component(w.dispatch_s, w.wall_s)} "
            f"{_fmt_component(w.serialization_s, w.wall_s)} "
            f"{_fmt_component(w.idle_s, w.wall_s)}"
        )
        if has_mem:
            mem = f"{w.mem_peak_kb / 1024:.1f} MB" if w.mem_peak_kb else "-"
            row += f" {mem:>10}"
        lines.append(row)
    lines.append(
        f"  pool capacity {a.capacity_s:.3f}s: utilization "
        f"{100 * a.utilization:.0f}%, dispatch {100 * a.dispatch_frac:.1f}%, "
        f"serialization {100 * a.serialization_frac:.1f}%"
    )
    return "\n".join(lines)


def format_spans(profile: TraceProfile, top_k: Optional[int] = None) -> str:
    """The hot-span table (plus event counts), ranked by self time."""
    lines = [
        f"{'span':<28} {'count':>7} {'total(ms)':>10} {'self(ms)':>10} "
        f"{'mean(ms)':>9} {'max(ms)':>9} {'cpu(ms)':>9} {'err':>4}"
    ]
    ranked = sorted(profile.spans.values(), key=lambda s: s.total_self_s,
                    reverse=True)
    for s in ranked[:top_k]:
        lines.append(
            f"{s.name:<28} {s.count:>7d} {s.total_wall_s * 1e3:>10.2f} "
            f"{s.total_self_s * 1e3:>10.2f} {s.mean_wall_s * 1e3:>9.3f} "
            f"{s.max_wall_s * 1e3:>9.3f} {s.total_cpu_s * 1e3:>9.2f} "
            f"{s.errors:>4d}"
        )
    if profile.events:
        lines.append("")
        lines.append("events: " + ", ".join(
            f"{n} x{count}" for n, count in sorted(profile.events.items())
        ))
    lines.append(
        f"{len(profile.records)} records, root wall time "
        f"{profile.root_wall_s * 1e3:.1f} ms"
    )
    return "\n".join(lines)


def format_profile(profile: TraceProfile, top_k: Optional[int] = None) -> str:
    """Every sweep attribution, then the hot-span table (``top_k`` rows)."""
    blocks = [format_attribution(a) for a in profile.attributions]
    if not blocks:
        blocks.append("no runtime.chunk dispatch records in trace")
    blocks.append(format_spans(profile, top_k))
    return "\n\n".join(blocks)
