"""Deterministic sweep engine: in-parent or on a process pool.

Every figure reproduction and ablation is an embarrassingly parallel Monte
Carlo sweep: a grid of *cells* (one per parameter combination), each
running ``n_trials`` independent draws of a pure, batch-first kernel

    kernel(params, seeds) -> [result per seed]

where each seed is a ``numpy.random.SeedSequence`` derived from
``(master_seed, sweep_name, cell_index, trial_index)`` — see
:mod:`repro.runtime.seeding`.  A kernel call covers one chunk of trials
(a scalar call is a batch of one), and each trial's result depends only
on its own seed.  Because the stream is keyed on the task coordinate and
not on scheduling, the aggregated output is bit-identical across
backends, any pool size, any chunking, and checkpoint/resume.

Execution model:

* trials are sharded into ``(cell, trial-chunk)`` work items, and every
  work item is one :func:`run_chunk` call;
* the ``batched`` backend runs the chunks in the parent; ``process``
  dispatches them to a ``ProcessPoolExecutor`` (stdlib only, ``fork`` or
  ``spawn`` both fine: kernels are importable top-level functions and
  params are picklable);
* results are normalized through :func:`repro.obs.events.jsonable` and
  re-ordered by ``(cell, trial)`` before aggregation, so completion order
  cannot leak into the output;
* a chunk whose future fails — the kernel raised, or the worker died and
  the pool broke — is retried *serially in the parent process*, recorded
  through ``repro.obs`` (``runtime.chunk_failures`` /
  ``runtime.serial_retries`` counters and a ``runtime.chunk_failure``
  event);
* in-parent execution never touches multiprocessing at all;
* an optional JSONL checkpoint persists each completed chunk, and
  ``resume=True`` skips chunks already on disk (header-validated);
* every chunk completion feeds a :class:`repro.obs.progress.SweepProgress`
  tracker, which renders a live stderr status line (done/total, trials/s,
  ETA, retries) and publishes it as ``runtime.progress`` events —
  parent-process-only state that cannot affect results;
* every completed chunk carries a dispatch-overhead *envelope* (worker
  wall/CPU compute, receive/done timestamps, result-serialization cost)
  recorded in the parent as ``runtime.chunk`` events (flight recorder
  and trace: :func:`repro.obs.flightrec.emit`) and ``runtime.*``
  metrics; :func:`repro.obs.profile.attribute_chunks` folds
  these into the per-worker ``wall = compute + dispatch + serialization +
  idle`` breakdown stamped into :attr:`SweepResult.overhead`;
* a pool chunk's envelope also carries what its kernel call added to the
  worker's metrics registry (:meth:`repro.obs.metrics.MetricsRegistry
  .delta`) and, when the parent traces, the chunk's span/event records
  (:meth:`repro.obs.tracer.Tracer.drain`); the parent folds both into its
  own registry and trace, so the end-of-run alert judge and the profiler
  see pool runs exactly as in-parent ones.

All accounting is parent-side or envelope metadata riding alongside the
result payload — kernel results are untouched, so the bit-identical
guarantee across worker counts is preserved.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
import tracemalloc
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs import get_logger, metrics, trace
from repro.obs.events import jsonable
from repro.obs.flightrec import emit
from repro.obs.metrics import Timer
from repro.obs.profile import attribute_chunks
from repro.obs.progress import SweepProgress
from repro.runtime import faults
from repro.runtime.checkpoint import header_chunk_size, open_checkpoint, sweep_header
from repro.runtime.seeding import seed_sequence
from repro.runtime.watchdog import ChunkWatchdog
from repro.utils.validation import require

logger = get_logger(__name__)

#: Trials per work item on the process pool; small enough to load-balance
#: the workers, large enough to amortize task dispatch.
DEFAULT_CHUNK_SIZE = 4

#: Trials per work item on the in-parent ``batched`` backend.  A chunk is
#: one kernel call, so the python/dispatch cost is per *chunk* rather than
#: per trial and bigger chunks amortize it further (load balancing is moot
#: in-parent).
BATCHED_CHUNK_SIZE = 32

#: The selectable execution backends (see :func:`resolve_backend`).
SELECTABLE_BACKENDS = ("auto", "batched", "process")

#: Retired backend names -> the backend that replaced them.
RETIRED_BACKENDS = {"serial": "batched", "thread": "process"}

#: Every backend name, selectable or retired.  A name's position is its
#: code in benchmark records (``runtime.backend.<sweep>``: 3 process,
#: 4 batched), so the retired names keep their slots until those records
#: carry backend names instead.
BACKENDS = ("auto", "serial", "thread", "process", "batched")

#: ``auto``: minimum total trials before it picks the process pool over
#: in-parent execution.  Measured on a 2-vCPU VM (2 workers, min of 3):
#: the pool loses on small sweeps of stacked kernels (fig6, 100 trials:
#: 0.011 s in-parent vs 0.031 s) and ties near 200 trials (a 192-trial
#: fast-path SINR grid: 0.10 s vs 0.095 s), while at 540 trials it wins
#: 1.8-2x (fig8: 3.6 s vs 2.0 s; fig9: 7.5 s vs 3.7 s).  fig11's per-trial loop already
#: runs 2x faster on the pool at 180 trials (1.02 s vs 0.53 s), so the
#: threshold is conservative for loop kernels; recalibrating it per kernel
#: is separate work.
POOL_MIN_TRIALS = 512

#: Environment marker set in pool workers (via the pool initializer), so
#: kernels and tests can tell worker context from the parent process.
WORKER_ENV_FLAG = "REPRO_RUNTIME_WORKER"

#: Set to "1" to sample per-chunk peak memory via ``tracemalloc`` (in the
#: parent for in-parent runs, in every pool worker for pool runs).
MEMORY_ENV_FLAG = "REPRO_PROFILE_MEMORY"

#: A sweep kernel: ``(params, seeds) -> [result, ...]``, one result per
#: seed, in order, each depending only on its own seed.
Kernel = Callable[[Any, Sequence[Any]], Sequence[Any]]

#: One work item: ``(cell_index, chunk_index, start_trial, stop_trial)``.
Task = Tuple[int, int, int, int]

#: A chunk result plus its dispatch-overhead accounting fields.
Envelope = Dict[str, Any]

_CHUNKS_RUN = metrics.counter("runtime.chunks_run")
_CHUNKS_RESUMED = metrics.counter("runtime.chunks_resumed")
_CHUNK_FAILURES = metrics.counter("runtime.chunk_failures")
_SERIAL_RETRIES = metrics.counter("runtime.serial_retries")
_QUEUE_WAIT_S = metrics.histogram("runtime.queue_wait_s")
_WORKER_WALL_S = metrics.histogram("runtime.worker_wall_s")
_WORKER_CPU_S = metrics.histogram("runtime.worker_cpu_s")
_SER_TASK_S = metrics.counter("runtime.ser_task_s")
_SER_TASK_BYTES = metrics.counter("runtime.ser_task_bytes")
_SER_RESULT_S = metrics.counter("runtime.ser_result_s")
_SER_RESULT_BYTES = metrics.counter("runtime.ser_result_bytes")

#: Overhead breakdowns of completed sweeps, drained by benchmark tooling.
_SWEEP_OVERHEADS: List[Dict[str, Any]] = []


def drain_overheads() -> List[Dict[str, Any]]:
    """Return and clear the overhead breakdowns of sweeps run so far.

    Parent-process state: each :func:`run_sweep` that executed at least one
    chunk appends its :attr:`SweepResult.overhead` dict here, so callers
    that drive sweeps indirectly (benchmarks, experiments) can collect the
    breakdowns without threading the results through every layer.
    """
    out = list(_SWEEP_OVERHEADS)
    _SWEEP_OVERHEADS.clear()
    return out


class SweepError(RuntimeError):
    """A sweep could not produce a complete, consistent result."""


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def resolve_backend(
    backend: Optional[str],
    kernel: Kernel,
    workers: int,
    total_trials: int,
) -> str:
    """Map a requested backend to the concrete execution mode of this run.

    * ``None``: ``workers > 1`` means the process pool, otherwise
      ``batched`` (in-parent).
    * ``"auto"`` picks the process pool only when ``workers > 1``, there
      are at least two usable CPUs *and* the sweep has at least
      ``POOL_MIN_TRIALS`` trials to amortize the pool's start-up and
      dispatch; otherwise ``batched``.
    * ``"batched"`` and ``"process"`` are taken literally.
    * The retired ``"serial"`` and ``"thread"`` raise ``ValueError``
      naming their replacement.

    Every kernel runs on every backend, so ``kernel`` does not affect the
    choice; it is part of the signature for tools that report the
    resolved backend per sweep.
    """
    if backend is None:
        return "process" if workers > 1 else "batched"
    require(
        backend not in RETIRED_BACKENDS,
        f"backend {backend!r} was removed; use "
        f"{RETIRED_BACKENDS.get(backend)!r}",
    )
    require(
        backend in SELECTABLE_BACKENDS,
        f"unknown backend {backend!r}; expected one of {SELECTABLE_BACKENDS}",
    )
    if backend == "auto":
        if workers > 1 and _usable_cpus() >= 2 and total_trials >= POOL_MIN_TRIALS:
            return "process"
        return "batched"
    return backend


@dataclass(frozen=True)
class CellSpec:
    """One cell of a sweep grid.

    Attributes:
        key: JSON-able label of the cell (e.g. ``("high", 4)``).
        params: Picklable kernel parameters shared by the cell's trials.
        n_trials: Number of independent kernel draws in this cell.
    """

    key: Any
    params: Any
    n_trials: int


@dataclass
class SweepResult:
    """Aggregated output of one sweep run.

    Attributes:
        name: Sweep name (the seed-derivation key).
        master_seed: Master seed of the run.
        cells: The cell specs, in grid order.
        results: Per-cell kernel results, ordered by trial index.
        chunk_failures: Work items that needed a serial retry.
        resumed_chunks: Work items loaded from the checkpoint.
        watchdog_stalls: Stall declarations by the chunk watchdog (each
            one abandoned the in-flight work and drained it serially).
        overhead: Per-worker wall-time attribution of this run (see
            :meth:`repro.obs.profile.SweepAttribution.to_dict`), or None
            when every chunk came from the checkpoint.
    """

    name: str
    master_seed: int
    cells: Sequence[CellSpec]
    results: List[List[Any]]
    chunk_failures: int = 0
    resumed_chunks: int = 0
    watchdog_stalls: int = 0
    overhead: Optional[Dict[str, Any]] = None

    def cell_results(self, key: Any) -> List[Any]:
        """The trial-ordered results of the cell labelled ``key``."""
        normalized = jsonable(key)
        for cell, results in zip(self.cells, self.results):
            if jsonable(cell.key) == normalized:
                return results
        raise KeyError(key)


def iter_chunks(n_trials: int, chunk_size: int) -> Iterator[Tuple[int, int, int]]:
    """Yield ``(chunk_index, start, stop)`` covering every trial exactly once."""
    require(n_trials >= 0, "n_trials must be non-negative")
    require(chunk_size >= 1, "chunk_size must be >= 1")
    for chunk_index, start in enumerate(range(0, n_trials, chunk_size)):
        yield chunk_index, start, min(start + chunk_size, n_trials)


def run_chunk_batched(
    kernel: Kernel,
    sweep: str,
    master_seed: int,
    params: Any,
    cell_index: int,
    start: int,
    stop: int,
) -> List[list]:
    """Run one chunk's trials in one kernel call; ``[[trial, result], ...]``.

    Derives the chunk's per-trial seeds, calls ``kernel(params, seeds)``
    once, checks that it returned one result per seed (a mismatch raises
    :class:`SweepError` on every backend) and normalizes the results
    through ``jsonable``.

    The env-gated hang fault (:func:`repro.runtime.faults
    .maybe_hang_chunk`) sits before the kernel call: a cancelled hang
    raises before any trial runs, so a watchdog-killed chunk never
    produces a partial result.
    """
    faults.maybe_hang_chunk(cell_index, start, stop)
    seeds = [
        seed_sequence(master_seed, sweep, cell_index, t)
        for t in range(start, stop)
    ]
    results = kernel(params, seeds)
    if len(results) != stop - start:
        raise SweepError(
            f"kernel returned {len(results)} results for "
            f"{stop - start} seeds (cell {cell_index}, trials "
            f"[{start}, {stop}))"
        )
    return [[t, jsonable(r)] for t, r in zip(range(start, stop), results)]


def run_chunk(
    kernel: Kernel,
    sweep: str,
    master_seed: int,
    params: Any,
    cell_index: int,
    chunk_index: int,
    start: int,
    stop: int,
    measure_ser: bool = True,
) -> Envelope:
    """Run one chunk wrapped in dispatch-overhead accounting.

    This is the unit of work pool workers run, and also the exact code
    in-parent chunks and failure retries run — one implementation, three
    call sites, so the equivalence tests compare scheduling only.  The
    work is :func:`run_chunk_batched`.

    Records receive/done wall-clock timestamps (``time.time()``, comparable
    across processes on one machine), wall/CPU compute time, peak memory
    when tracemalloc is live, and — when ``measure_ser`` — the cost of
    pickling the result payload, measured once here so the parent sees the
    real transfer size.  ``measure_ser=False`` (in-parent and retry paths,
    where no pickling happens) skips that probe so in-process runs aren't
    charged for work they don't do.  Returns an *envelope* dict with the
    result under ``"pairs"`` plus the accounting fields.

    In a pool worker the envelope also carries ``"metrics"``, the
    registry delta of the kernel call (samples and counter increments
    the parent folds in), and ``"trace"``, the chunk's span/event records
    when the parent traces (an empty list otherwise).
    """
    recv_ts = time.time()
    in_worker = bool(os.environ.get(WORKER_ENV_FLAG))
    registry = metrics.get_registry()
    mark = registry.mark() if in_worker else {}
    sample_mem = tracemalloc.is_tracing()
    if sample_mem:
        tracemalloc.reset_peak()
    timer = Timer().start()
    with trace.span(
        "runtime.chunk", sweep=sweep, cell=cell_index, chunk=chunk_index,
        trials=stop - start,
    ):
        pairs = run_chunk_batched(
            kernel, sweep, master_seed, params, cell_index, start, stop
        )
    timer.stop()
    envelope: Envelope = {
        "pairs": pairs,
        "worker_pid": os.getpid(),
        "recv_ts": recv_ts,
        "wall_s": timer.wall_s,
        "cpu_s": timer.cpu_s,
        "ser_result_bytes": 0,
        "ser_result_s": 0.0,
    }
    if in_worker:
        envelope["metrics"] = registry.delta(mark)
        envelope["trace"] = trace.drain()
    if sample_mem:
        envelope["mem_peak_kb"] = tracemalloc.get_traced_memory()[1] / 1024.0
    if measure_ser:
        ser = Timer().start()
        blob = pickle.dumps(
            (pairs, envelope.get("metrics"), envelope.get("trace")),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        ser.stop()
        envelope["ser_result_bytes"] = len(blob)
        envelope["ser_result_s"] = ser.wall_s
    envelope["done_ts"] = time.time()
    return envelope


def _worker_init(capture_trace: bool) -> None:
    """Pool-worker initializer: mark the process, detach from the parent's sink.

    The forked child inherits the parent's tracer (and its open file); spans
    written from two processes would interleave mid-line, so the worker
    detaches from the inherited sink and — when the parent is tracing —
    captures into memory instead; :func:`run_chunk` ships each chunk's
    records and registry delta home in its envelope.
    """
    os.environ[WORKER_ENV_FLAG] = "1"
    # The watchdog terminates stalled workers with SIGTERM; a forked worker
    # must not run the parent's bundle-on-signal handler, since the parent
    # already writes the stall's crash bundle.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if capture_trace:
        trace.capture()
    else:
        trace.detach()
    if os.environ.get(MEMORY_ENV_FLAG) == "1" and not tracemalloc.is_tracing():
        tracemalloc.start()


def _account_chunk(
    acct: List[Dict[str, Any]],
    sweep: str,
    task: Task,
    mode: str,
    submit_ts: float,
    envelope: Envelope,
    ser_task: Tuple[int, float] = (0, 0.0),
) -> None:
    """Fold a completed chunk's envelope into metrics and a ``runtime.chunk`` event.

    Parent-side only.  ``mode`` is ``"pool"``, ``"batched"`` or
    ``"retry"``; pool chunks are attributed per worker process, and
    everything that ran inline in the parent to the synthetic worker
    ``"parent"``.  A pool envelope's registry delta and trace records are
    folded into the parent's registry and trace here.
    """
    if "metrics" in envelope:
        metrics.get_registry().merge(envelope["metrics"])
        trace.adopt(envelope["trace"], worker_pid=envelope["worker_pid"])
    worker = f"pid:{envelope['worker_pid']}" if mode == "pool" else "parent"
    recv_ts = float(envelope["recv_ts"])
    done_ts = float(envelope["done_ts"])
    rec: Dict[str, Any] = {
        "sweep": sweep,
        "cell": task[0],
        "chunk": task[1],
        "trials": task[3] - task[2],
        "mode": mode,
        "worker": worker,
        "submit_ts": submit_ts,
        "recv_ts": recv_ts,
        "done_ts": done_ts,
        "wall_s": float(envelope["wall_s"]),
        "cpu_s": float(envelope["cpu_s"]),
        "queue_wait_s": max(recv_ts - submit_ts, 0.0),
        "result_wait_s": max(time.time() - done_ts, 0.0),
        "ser_task_bytes": int(ser_task[0]),
        "ser_task_s": float(ser_task[1]),
        "ser_result_bytes": int(envelope["ser_result_bytes"]),
        "ser_result_s": float(envelope["ser_result_s"]),
    }
    if "mem_peak_kb" in envelope:
        rec["mem_peak_kb"] = float(envelope["mem_peak_kb"])
    acct.append(rec)
    _QUEUE_WAIT_S.observe(rec["queue_wait_s"])
    _WORKER_WALL_S.observe(rec["wall_s"])
    _WORKER_CPU_S.observe(rec["cpu_s"])
    _SER_TASK_S.inc(rec["ser_task_s"])
    _SER_TASK_BYTES.inc(rec["ser_task_bytes"])
    _SER_RESULT_S.inc(rec["ser_result_s"])
    _SER_RESULT_BYTES.inc(rec["ser_result_bytes"])
    # One event per envelope (minus the result payload): the profiler
    # reads it from the trace, and a crash bundle's flight recorder shows
    # which chunks completed in the final seconds.
    emit("runtime.chunk", rec, ts=done_ts)


def assemble_results(
    cells: Sequence[CellSpec],
    chunk_results: Dict[Tuple[int, int], List[list]],
) -> List[List[Any]]:
    """Re-order completed chunks into per-cell, trial-ordered result lists.

    Permutation-invariant in the completion/submission order of
    ``chunk_results`` (it sorts by trial index), and strict about coverage:
    every trial of every cell must appear exactly once.
    """
    per_cell: List[Dict[int, Any]] = [{} for _ in cells]
    for (cell_index, _chunk_index), pairs in chunk_results.items():
        bucket = per_cell[cell_index]
        for trial_index, result in pairs:
            if trial_index in bucket:
                raise SweepError(
                    f"trial {trial_index} of cell {cell_index} produced twice"
                )
            bucket[int(trial_index)] = result
    ordered: List[List[Any]] = []
    for cell_index, (cell, bucket) in enumerate(zip(cells, per_cell)):
        if len(bucket) != cell.n_trials:
            missing = sorted(set(range(cell.n_trials)) - set(bucket))[:5]
            raise SweepError(
                f"cell {cell_index} ({cell.key!r}): {len(bucket)} of "
                f"{cell.n_trials} trials completed (missing {missing}...)"
            )
        ordered.append([bucket[t] for t in range(cell.n_trials)])
    return ordered


def run_sweep(
    name: str,
    kernel: Kernel,
    cells: Sequence[CellSpec],
    master_seed: int,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    backend: Optional[str] = None,
) -> SweepResult:
    """Run a sweep grid on the selected execution backend.

    Args:
        name: Sweep name; part of every task's seed-derivation key, and
            stamped into the checkpoint header.
        kernel: Pure, picklable ``(params, seeds) -> [result, ...]``
            function returning one result per seed; each result must be
            JSON-serializable (floats/lists/dicts — it is normalized
            through ``jsonable`` either way, so numpy scalars and arrays
            are folded to plain Python).
        cells: The sweep grid.
        master_seed: Root of all derived seeds.
        workers: Pool size of the process backend; ignored in-parent.
        chunk_size: Trials per work item.  ``None`` resumes at the chunk
            size in the checkpoint's header (it is part of the header, so
            a checkpoint resumes on any backend and worker count), and
            otherwise picks the backend's default (``BATCHED_CHUNK_SIZE``
            in-parent, ``DEFAULT_CHUNK_SIZE`` on the pool).
        checkpoint: Optional JSONL progress-file path.
        resume: Skip chunks already present in ``checkpoint``.
        backend: One of :data:`SELECTABLE_BACKENDS`, or ``None``
            (``workers > 1`` -> process pool, else in-parent ``batched``).
            See :func:`resolve_backend`.

    Returns:
        A :class:`SweepResult` whose ``results`` are bit-identical for any
        ``workers``/chunking/resume/backend combination at the same master
        seed.
    """
    cells = list(cells)
    require(workers >= 1, "workers must be >= 1")
    total_trials = sum(cell.n_trials for cell in cells)
    mode = resolve_backend(backend, kernel, workers, total_trials)
    if chunk_size is None and resume and checkpoint is not None:
        chunk_size = header_chunk_size(checkpoint)
    if chunk_size is None:
        chunk_size = BATCHED_CHUNK_SIZE if mode == "batched" else DEFAULT_CHUNK_SIZE
    # batched chunks run inline in the parent; only the pool occupies
    # `workers` execution lanes
    effective_workers = workers if mode == "process" else 1
    header = sweep_header(name, master_seed, chunk_size, cells)
    completed, writer = open_checkpoint(checkpoint, resume, header)
    resumed = len(completed)
    if resumed:
        _CHUNKS_RESUMED.inc(resumed)

    tasks = [
        (cell_index, chunk_index, start, stop)
        for cell_index, cell in enumerate(cells)
        for chunk_index, start, stop in iter_chunks(cell.n_trials, chunk_size)
    ]
    pending = [t for t in tasks if (t[0], t[1]) not in completed]
    failures = 0
    progress = SweepProgress(
        name=name,
        total_chunks=len(tasks),
        total_trials=total_trials,
        workers=effective_workers,
        resumed_chunks=resumed,
        resumed_trials=sum(len(pairs) for pairs in completed.values()),
    )

    def finish(task: Task, results: List[list]) -> None:
        cell_index, chunk_index = task[0], task[1]
        completed[(cell_index, chunk_index)] = results
        _CHUNKS_RUN.inc()
        if writer is not None:
            writer.append_chunk(cell_index, chunk_index, results)
        progress.chunk_done(task[3] - task[2])

    acct: List[Dict[str, Any]] = []
    started_mem = False
    if os.environ.get(MEMORY_ENV_FLAG) == "1" and not tracemalloc.is_tracing():
        tracemalloc.start()
        started_mem = True
    watchdog = ChunkWatchdog.create(name, mode, effective_workers) if pending else None
    sweep_timer = Timer()
    with trace.span(
        "runtime.sweep", sweep=name, workers=effective_workers,
        chunks=len(tasks), resumed=resumed, backend=mode,
    ) as span:
        sweep_timer.start()
        start_ts = time.time()
        try:
            if not pending:
                pass
            elif mode == "batched":
                failures = _run_in_parent(
                    name, kernel, cells, master_seed, pending, finish,
                    progress, acct, watchdog,
                )
            else:
                failures = _run_pool(
                    name, kernel, cells, master_seed, workers, pending, finish,
                    progress, acct, watchdog,
                )
        finally:
            if watchdog is not None:
                watchdog.stop()
            if started_mem:
                tracemalloc.stop()
            if writer is not None:
                writer.close()
            progress.close()
        sweep_timer.stop()
        stalls = watchdog.stall_count if watchdog is not None else 0
        overhead: Optional[Dict[str, Any]] = None
        if acct:
            overhead = attribute_chunks(
                acct, sweep_timer.wall_s, effective_workers, start_ts, sweep=name
            ).to_dict()
            _SWEEP_OVERHEADS.append(overhead)
            span.record(
                chunk_failures=failures,
                watchdog_stalls=stalls,
                utilization=overhead["utilization"],
                dispatch_frac=overhead["dispatch_frac"],
                serialization_frac=overhead["serialization_frac"],
            )
        else:
            span.record(chunk_failures=failures, watchdog_stalls=stalls)

    results = assemble_results(cells, completed)
    return SweepResult(
        name=name,
        master_seed=int(master_seed),
        cells=cells,
        results=results,
        chunk_failures=failures,
        resumed_chunks=resumed,
        watchdog_stalls=stalls,
        overhead=overhead,
    )


def _retry_serially(
    name: str,
    kernel: Kernel,
    cells: Sequence[CellSpec],
    master_seed: int,
    task: Task,
    error: BaseException,
    where: str,
    finish: Callable[[Task, List[list]], None],
    progress: Optional[SweepProgress],
    acct_list: List[Dict[str, Any]],
    watchdog: Optional[ChunkWatchdog],
) -> None:
    """Account one failed chunk and re-run it serially in the parent.

    The single fault-tolerance funnel both backends share: in-parent
    kernel errors, dead pool workers and watchdog-abandoned stalls all
    land here, so a failed chunk costs its speedup rather than the sweep.
    A retry that fails again propagates.  ``where`` is prose for the log
    line ("in the pool", "after a watchdog stall", ...).
    """
    cell_index, chunk_index, start, stop = task
    _CHUNK_FAILURES.inc()
    if progress is not None:
        progress.chunk_failed()
    logger.warning(
        "chunk (cell=%d, chunk=%d) of sweep %r failed %s (%s: %s); "
        "retrying serially in-parent",
        cell_index, chunk_index, name, where, type(error).__name__, error,
    )
    emit("runtime.chunk_failure", {
        "sweep": name, "cell": cell_index, "chunk": chunk_index,
        "error": type(error).__name__,
    })
    retry_ts = time.time()
    envelope = run_chunk(
        kernel, name, master_seed, cells[cell_index].params,
        cell_index, chunk_index, start, stop, measure_ser=False,
    )
    _SERIAL_RETRIES.inc()
    if progress is not None:
        progress.retry_done()
    _account_chunk(acct_list, name, task, "retry", retry_ts, envelope)
    finish(task, envelope["pairs"])
    if watchdog is not None:
        watchdog.completed(task, float(envelope["wall_s"]))


def _drain_stalled(
    name: str,
    kernel: Kernel,
    cells: Sequence[CellSpec],
    master_seed: int,
    remaining: Dict["Future[Envelope]", Tuple[Task, float, Tuple[int, float]]],
    finish: Callable[[Task, List[list]], None],
    progress: Optional[SweepProgress],
    acct_list: List[Dict[str, Any]],
    watchdog: Optional[ChunkWatchdog],
) -> int:
    """Recover the futures a stalled pool abandoned; returns retries.

    Futures that did complete before (or while) the stall was declared
    are salvaged through the normal accounting path — their results are
    bit-identical to a retry's, but salvaging keeps their envelopes
    honest.  Everything else is cancelled and re-run serially through
    :func:`_retry_serially`; the watchdog has already released
    cooperative fault hangs, so retries of the stalled chunks run clean.
    """
    if watchdog is not None:
        watchdog.abandon_all()
    failures = 0
    for future, (task, submit_ts, ser_cost) in sorted(
        remaining.items(), key=lambda item: item[1][0]
    ):
        salvage_error: Optional[BaseException] = None
        if future.done():
            try:
                envelope = future.result()
                _account_chunk(
                    acct_list, name, task, "pool", submit_ts, envelope, ser_cost
                )
                finish(task, envelope["pairs"])
                continue
            except Exception as exc:
                salvage_error = exc
        else:
            future.cancel()
            salvage_error = TimeoutError(
                "chunk abandoned by the watchdog after a stall"
            )
        failures += 1
        _retry_serially(
            name, kernel, cells, master_seed, task, salvage_error,
            "after a watchdog stall", finish, progress, acct_list, watchdog,
        )
    return failures


def _run_in_parent(
    name: str,
    kernel: Kernel,
    cells: Sequence[CellSpec],
    master_seed: int,
    pending: Sequence[Task],
    finish: Callable[[Task, List[list]], None],
    progress: Optional[SweepProgress] = None,
    acct: Optional[List[Dict[str, Any]]] = None,
    watchdog: Optional[ChunkWatchdog] = None,
) -> int:
    """Run chunks inline in the parent; retry a failed chunk once.

    Returns the number of chunks that needed a retry.  A chunk hung in the
    parent by a cooperative fault (:mod:`repro.runtime.faults`) is
    cancelled by the watchdog mid-call and raises, so the in-parent loop
    owns the same retry funnel as the pool.
    """
    failures = 0
    acct_list: List[Dict[str, Any]] = [] if acct is None else acct
    for task in pending:
        cell_index, chunk_index, start, stop = task
        if watchdog is not None:
            watchdog.submitted(task)
        submit_ts = time.time()
        try:
            envelope = run_chunk(
                kernel, name, master_seed, cells[cell_index].params,
                cell_index, chunk_index, start, stop, measure_ser=False,
            )
            _account_chunk(acct_list, name, task, "batched", submit_ts, envelope)
            finish(task, envelope["pairs"])
            if watchdog is not None:
                watchdog.completed(task, float(envelope["wall_s"]))
        except Exception as exc:
            failures += 1
            _retry_serially(
                name, kernel, cells, master_seed, task, exc,
                "in the parent", finish, progress, acct_list, watchdog,
            )
    return failures


def _kill_pool_workers(pool: ProcessPoolExecutor) -> int:
    """Terminate every live worker of a stalled process pool; returns count.

    Required before a no-wait shutdown: ``concurrent.futures`` joins its
    workers at interpreter exit, so a hung worker left alive would block
    process exit long after the sweep itself recovered.
    """
    killed = 0
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            if proc.is_alive():
                proc.terminate()
                killed += 1
        except Exception as exc:
            logger.debug("terminating stalled pool worker failed: %s", exc)
    return killed


def _run_pool(
    name: str,
    kernel: Kernel,
    cells: Sequence[CellSpec],
    master_seed: int,
    workers: int,
    pending: Sequence[Task],
    finish: Callable[[Task, List[list]], None],
    progress: Optional[SweepProgress] = None,
    acct: Optional[List[Dict[str, Any]]] = None,
    watchdog: Optional[ChunkWatchdog] = None,
) -> int:
    """Dispatch chunks to a process pool; retry failures serially in-parent.

    Returns the number of chunks that needed a serial retry.  A dead worker
    breaks the whole pool (``BrokenProcessPool``); every not-yet-finished
    future then fails fast and each chunk is re-run serially, so the sweep
    degrades gracefully to in-process execution rather than aborting.

    A *hung* worker never breaks the pool on its own — the result loop
    therefore polls :func:`concurrent.futures.wait` with the watchdog's
    cadence, and on ``watchdog.stalled`` it breaks out, terminates every
    worker (a stuck process cannot be asked nicely, and an un-killed one
    would block interpreter exit), salvages the futures that did finish,
    and re-runs the rest serially through the shared retry funnel.

    When the parent traces, workers capture their spans in memory (see
    :func:`_worker_init`) and each envelope brings its chunk's records
    home; a killed worker loses only its in-flight chunk's records, and
    that chunk's serial retry is traced in the parent.
    """
    failures = 0
    acct_list: List[Dict[str, Any]] = [] if acct is None else acct
    ser_cache: Dict[int, Tuple[int, float]] = {}

    def task_ser_cost(task: Task) -> Tuple[int, float]:
        # Measured once per cell: chunks of a cell ship identical payloads
        # (same kernel/params, different trial bounds), so one probe prices
        # them all without re-pickling every submission.
        cached = ser_cache.get(task[0])
        if cached is None:
            probe = Timer().start()
            try:
                size = len(pickle.dumps(
                    (kernel, name, master_seed, cells[task[0]].params,
                     task[0], task[1], task[2], task[3]),
                    protocol=pickle.HIGHEST_PROTOCOL,
                ))
            except Exception:  # unpicklable probe: let the pool report it
                size = 0
            probe.stop()
            cached = ser_cache[task[0]] = (size, probe.wall_s)
        return cached

    stalled = False
    pool = ProcessPoolExecutor(
        max_workers=workers, initializer=_worker_init, initargs=(trace.enabled,),
    )
    try:
        futures: Dict[Future[Envelope], Tuple[Task, float, Tuple[int, float]]] = {}
        for task in pending:
            ser_cost = task_ser_cost(task)
            if watchdog is not None:
                watchdog.submitted(task)
            submit_ts = time.time()
            future = pool.submit(
                run_chunk, kernel, name, master_seed,
                cells[task[0]].params, task[0], task[1], task[2], task[3],
            )
            futures[future] = (task, submit_ts, ser_cost)
        not_done = set(futures)
        while not_done:
            if watchdog is not None and watchdog.stalled.is_set():
                stalled = True
                break
            timeout = (
                watchdog.poll_interval_s if watchdog is not None else None
            )
            done, not_done = wait(
                not_done, timeout=timeout, return_when=FIRST_COMPLETED
            )
            for future in done:
                task, submit_ts, ser_cost = futures[future]
                try:
                    envelope = future.result()
                    _account_chunk(
                        acct_list, name, task, "pool", submit_ts, envelope,
                        ser_cost,
                    )
                    finish(task, envelope["pairs"])
                    if watchdog is not None:
                        watchdog.completed(task, float(envelope["wall_s"]))
                except Exception as exc:  # kernel error or broken pool
                    failures += 1
                    _retry_serially(
                        name, kernel, cells, master_seed, task, exc,
                        "in the pool", finish, progress, acct_list, watchdog,
                    )
        if stalled:
            killed = _kill_pool_workers(pool)
            if killed:
                logger.warning(
                    "watchdog stall on sweep %r: terminated %d pool worker(s)",
                    name, killed,
                )
            failures += _drain_stalled(
                name, kernel, cells, master_seed,
                {f: futures[f] for f in not_done},
                finish, progress, acct_list, watchdog,
            )
    finally:
        pool.shutdown(wait=not stalled, cancel_futures=stalled)
    return failures
