"""Worker watchdog: detect stalled sweep chunks instead of waiting forever.

A hung pool worker — a kernel stuck in a retry loop, a deadlocked BLAS,
an injected :mod:`repro.runtime.faults` hang — used to block the
engine's result loop indefinitely: ``as_completed`` has no deadline, so
an hours-long sweep died silently at whatever chunk stopped answering.

:class:`ChunkWatchdog` is the parent-side monitor the engine arms around
every backend.  The engine reports ``submitted``/``completed`` for each
work item; a daemon monitor thread checks, every
:data:`POLL_INTERVAL_S`, whether *any* completion has happened within
the current **deadline**:

* ``REPRO_WATCHDOG_TIMEOUT_S`` — explicit override, used verbatim;
* otherwise ``max(floor, MULTIPLIER x p95)`` of the chunk durations
  observed so far this sweep (the floor, :data:`DEFAULT_FLOOR_S`,
  covers the cold start before enough samples exist).

On a stall the watchdog — from its own thread, so a hung main thread
cannot stop it —

1. bumps the ``runtime.watchdog_stalls`` counter (which the builtin
   critical alert rule ``runtime.watchdog_stall`` watches),
2. emits one ``runtime.watchdog`` event (flight recorder and trace)
   and writes a ``runs/crash-<runid>/`` forensics bundle — including a
   ``faulthandler`` dump of every thread, hung ones included,
3. releases cooperative fault hangs (:func:`repro.runtime.faults
   .cancel_hangs`) and sets :attr:`stalled`, on which the engine's
   pool result loop breaks out, kills the abandoned workers, and re-runs
   the unfinished chunks serially through the existing retry path (a
   cancelled hang in the parent raises into the same retry path).

``REPRO_WATCHDOG=0`` disables the monitor entirely.
"""

from __future__ import annotations

import math
import os
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.obs import get_logger, metrics
from repro.obs.flightrec import emit

logger = get_logger(__name__)

#: Environment variable: "0" disables the watchdog.
WATCHDOG_ENV = "REPRO_WATCHDOG"

#: Environment variable: explicit stall deadline in seconds (overrides
#: the percentile-derived deadline entirely).
TIMEOUT_ENV = "REPRO_WATCHDOG_TIMEOUT_S"

#: Deadline floor while too few chunk durations have been observed (and
#: the minimum the derived deadline can ever shrink to).
DEFAULT_FLOOR_S = 30.0

#: Derived deadline = MULTIPLIER x p95 of observed chunk durations.
DEADLINE_MULTIPLIER = 10.0

#: Completed-chunk samples required before the percentile is trusted.
MIN_DURATION_SAMPLES = 5

#: Chunk-duration samples retained for the percentile (ring).
DURATION_WINDOW = 256

#: Seconds between monitor-thread checks.
POLL_INTERVAL_S = 0.25

#: One work item, as the engine keys it.
Task = Tuple[int, int, int, int]

_STALLS = metrics.counter("runtime.watchdog_stalls")


def watchdog_enabled() -> bool:
    """False when ``REPRO_WATCHDOG=0``."""
    return os.environ.get(WATCHDOG_ENV, "").strip() != "0"


def timeout_override_s() -> Optional[float]:
    """The ``REPRO_WATCHDOG_TIMEOUT_S`` deadline, or None."""
    raw = os.environ.get(TIMEOUT_ENV, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        logger.warning("ignoring invalid %s=%r", TIMEOUT_ENV, raw)
        return None
    return value if value > 0 else None


def duration_percentile(durations: List[float], q: float) -> float:
    """Linear-interpolated percentile of a small sample (stdlib only)."""
    if not durations:
        raise ValueError("no durations")
    ordered = sorted(durations)
    if len(ordered) == 1:
        return ordered[0]
    pos = (q / 100.0) * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class ChunkWatchdog:
    """Parent-side stall monitor for one sweep run.

    Create via :meth:`create` (returns None when disabled), arm with
    :meth:`start`, report work through :meth:`submitted` /
    :meth:`completed`, and always :meth:`stop` in a ``finally``.
    """

    def __init__(
        self,
        sweep: str,
        mode: str,
        workers: int = 1,
        floor_s: float = DEFAULT_FLOOR_S,
        poll_interval_s: float = POLL_INTERVAL_S,
    ):
        self.sweep = sweep
        self.mode = mode
        self.workers = int(workers)
        self.floor_s = float(floor_s)
        self.poll_interval_s = float(poll_interval_s)
        self.override_s = timeout_override_s()
        #: Set (once) when a stall has been declared.
        self.stalled = threading.Event()
        #: Snapshot of the stall, filled at fire time.
        self.stall_info: Dict[str, Any] = {}
        self.stall_count = 0
        self._durations: Deque[float] = deque(maxlen=DURATION_WINDOW)
        self._in_flight: Dict[Task, float] = {}
        self._last_progress = time.monotonic()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    @classmethod
    def create(
        cls, sweep: str, mode: str, workers: int = 1
    ) -> Optional["ChunkWatchdog"]:
        """A started watchdog, or None when ``REPRO_WATCHDOG=0``."""
        if not watchdog_enabled():
            return None
        return cls(sweep, mode, workers).start()

    # -- engine-facing accounting ----------------------------------------------

    def submitted(self, task: Task) -> None:
        """A work item entered the backend (queued or running)."""
        with self._lock:
            self._in_flight[task] = time.monotonic()

    def completed(self, task: Task, wall_s: Optional[float] = None) -> None:
        """A work item finished (successfully or via the retry path)."""
        with self._lock:
            self._in_flight.pop(task, None)
            self._last_progress = time.monotonic()
            if wall_s is not None and wall_s >= 0.0:
                self._durations.append(float(wall_s))

    def abandon_all(self) -> List[Task]:
        """Forget every in-flight item (stall recovery); returns them."""
        with self._lock:
            tasks = sorted(self._in_flight)
            self._in_flight.clear()
            self._last_progress = time.monotonic()
        return tasks

    # -- deadline --------------------------------------------------------------

    @property
    def deadline_s(self) -> float:
        """The current stall deadline (override, or derived percentile)."""
        if self.override_s is not None:
            return self.override_s
        with self._lock:
            durations = list(self._durations)
        if len(durations) < MIN_DURATION_SAMPLES:
            return self.floor_s
        p95 = duration_percentile(durations, 95.0)
        return max(self.floor_s, DEADLINE_MULTIPLIER * p95)

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "ChunkWatchdog":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._monitor, name=f"repro-watchdog-{self.sweep}",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=2.0)

    # -- monitoring ------------------------------------------------------------

    def _monitor(self) -> None:
        while not self._stop.wait(self.poll_interval_s):
            if self.stalled.is_set():
                continue  # one declaration per sweep; engine recovery owns it
            with self._lock:
                in_flight = sorted(self._in_flight)
                waited = time.monotonic() - self._last_progress
            if not in_flight:
                continue
            deadline = self.deadline_s
            if waited <= deadline:
                continue
            self._fire(in_flight, waited, deadline)

    def _fire(
        self, in_flight: List[Task], waited: float, deadline: float
    ) -> None:
        """Declare the stall: telemetry, forensics, cooperative cancel."""
        from repro.obs import blackbox
        from repro.runtime import faults

        self.stall_count += 1
        _STALLS.inc()
        info: Dict[str, Any] = {
            "sweep": self.sweep,
            "mode": self.mode,
            "workers": self.workers,
            "waited_s": round(waited, 3),
            "deadline_s": round(deadline, 3),
            "stalled_chunks": len(in_flight),
            "tasks": [list(t) for t in in_flight[:8]],
        }
        self.stall_info = info
        logger.error(
            "watchdog: sweep %r stalled — no chunk completion in %.1fs "
            "(deadline %.1fs, %d chunk(s) in flight on the %s backend); "
            "dumping forensics and recovering serially",
            self.sweep, waited, deadline, len(in_flight), self.mode,
        )
        emit("runtime.watchdog", info)
        bundle = blackbox.write_crash_bundle("watchdog_stall", detail=info)
        if bundle is not None:
            info["bundle"] = str(bundle)
        # Release cooperative hangs *before* waking the engine: a hung
        # pool thread can now unwind instead of blocking interpreter
        # exit, and the serial retry of the same chunk runs through.
        faults.cancel_hangs()
        self.stalled.set()
