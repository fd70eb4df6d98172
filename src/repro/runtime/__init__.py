"""Deterministic parallel sweep runtime.

Public surface:

* :func:`run_sweep` / :class:`CellSpec` / :class:`SweepResult` — the
  backend-selecting sweep engine (:mod:`repro.runtime.engine`).
* :data:`SELECTABLE_BACKENDS` / :func:`resolve_backend` — the
  execution-backend layer (in-parent ``batched`` / ``process`` pool /
  ``auto``); :data:`BACKENDS` also keeps the retired ``serial`` and
  ``thread`` names, whose positions benchmark records use as codes.  Every
  kernel is batch-first, ``kernel(params, seeds) -> [result per seed]``,
  and runs on every backend.
* :func:`run_chunk` / :func:`run_chunk_batched` — one work item: the
  instrumented unit every backend and the retry path run, and the single
  kernel call inside it.
* :func:`seed_sequence` / :func:`task_rng` / :func:`spawn_key` — per-task
  seed derivation (:mod:`repro.runtime.seeding`).
* Checkpoint plumbing (:mod:`repro.runtime.checkpoint`).
* :class:`ChunkWatchdog` — parent-side stall monitor that abandons hung
  workers and reroutes their chunks through the serial-retry path
  (:mod:`repro.runtime.watchdog`); env-gated fault injection for
  exercising it lives in :mod:`repro.runtime.faults`.

See ``docs/parallelism.md`` for the determinism guarantees, the backend
decision table and the checkpoint file format.
"""

from repro.runtime.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointMismatch,
    load_completed,
    sweep_header,
)
from repro.runtime.engine import (
    BACKENDS,
    BATCHED_CHUNK_SIZE,
    DEFAULT_CHUNK_SIZE,
    MEMORY_ENV_FLAG,
    POOL_MIN_TRIALS,
    SELECTABLE_BACKENDS,
    WORKER_ENV_FLAG,
    CellSpec,
    SweepError,
    SweepResult,
    assemble_results,
    drain_overheads,
    iter_chunks,
    resolve_backend,
    run_chunk,
    run_chunk_batched,
    run_sweep,
)
from repro.runtime.faults import HANG_CHUNK_ENV, HangCancelled
from repro.runtime.seeding import seed_sequence, spawn_key, task_rng
from repro.runtime.watchdog import (
    TIMEOUT_ENV,
    WATCHDOG_ENV,
    ChunkWatchdog,
    watchdog_enabled,
)

__all__ = [
    "BACKENDS",
    "BATCHED_CHUNK_SIZE",
    "CHECKPOINT_VERSION",
    "CheckpointMismatch",
    "CellSpec",
    "ChunkWatchdog",
    "DEFAULT_CHUNK_SIZE",
    "HANG_CHUNK_ENV",
    "HangCancelled",
    "MEMORY_ENV_FLAG",
    "POOL_MIN_TRIALS",
    "SELECTABLE_BACKENDS",
    "SweepError",
    "SweepResult",
    "TIMEOUT_ENV",
    "WATCHDOG_ENV",
    "WORKER_ENV_FLAG",
    "watchdog_enabled",
    "assemble_results",
    "drain_overheads",
    "iter_chunks",
    "load_completed",
    "resolve_backend",
    "run_chunk",
    "run_chunk_batched",
    "run_sweep",
    "seed_sequence",
    "spawn_key",
    "sweep_header",
    "task_rng",
]
