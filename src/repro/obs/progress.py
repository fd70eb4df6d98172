"""Live sweep telemetry: a stderr status line + ``runtime.progress`` events.

A 30-minute fig9 sweep used to be silent until it returned.  The engine
(:mod:`repro.runtime.engine`) now drives a :class:`SweepProgress` tracker
with chunk-granular completions; the tracker renders

    fig9 [####------] 67/135 chunks  268/540 trials  41.2 trials/s  eta 7s  workers 4  retries 1

to stderr and publishes every rendered update as one ``runtime.progress``
event (flight recorder and trace, see :func:`repro.obs.flightrec.emit`),
so live state and post-hoc analysis see the same numbers.

Rendering adapts to the sink:

* **TTY stderr** — a single carriage-return status line, repainted at
  most every ``min_interval_s``; a final newline on close.
* **non-TTY stderr** (CI logs, piped output) — plain progress lines,
  throttled to one per ``noninteractive_interval_s`` plus start/finish,
  so logs stay readable but long sweeps are never silent.
* ``REPRO_PROGRESS=0`` disables rendering entirely (events are still
  emitted); ``REPRO_PROGRESS=1`` forces the TTY-style line.

The tracker is parent-process-only state — workers never touch it — so it
cannot perturb the engine's bit-identical scheduling guarantees.
"""

from __future__ import annotations

import math
import os
import sys
import time
from typing import Optional, TextIO

from repro.obs import metrics
from repro.obs.flightrec import emit

#: Environment variable: "0" disables the status line, "1" forces TTY mode.
PROGRESS_ENV = "REPRO_PROGRESS"

#: Minimum seconds between TTY repaints.
DEFAULT_MIN_INTERVAL_S = 0.2

#: Minimum seconds between non-TTY progress lines.
DEFAULT_NONINTERACTIVE_INTERVAL_S = 5.0

_BAR_WIDTH = 20


def _progress_mode(stream: TextIO) -> str:
    """``"tty"``, ``"plain"`` or ``"off"`` for the given sink."""
    env = os.environ.get(PROGRESS_ENV, "").strip()
    if env == "0":
        return "off"
    if env == "1":
        return "tty"
    try:
        interactive = stream.isatty()
    except (AttributeError, ValueError):
        interactive = False
    return "tty" if interactive else "plain"


class SweepProgress:
    """Chunk-granular progress accounting for one sweep run.

    The engine calls :meth:`chunk_done` for every finished work item (with
    its trial count), :meth:`chunk_failed` / :meth:`retry_done` around the
    serial-retry fault path, and :meth:`close` when the sweep exits.  All
    updates happen in the parent process.

    Args:
        name: Sweep name (shown in the status line and trace events).
        total_chunks: Work items in the whole grid (including resumed).
        total_trials: Trials in the whole grid.
        workers: Requested pool size.
        resumed_chunks / resumed_trials: Work already loaded from a
            checkpoint; counted as done from the start.
        stream: Output sink (default ``sys.stderr``).
        min_interval_s: TTY repaint throttle.
        noninteractive_interval_s: Plain-line throttle.
    """

    def __init__(
        self,
        name: str,
        total_chunks: int,
        total_trials: int,
        workers: int = 1,
        resumed_chunks: int = 0,
        resumed_trials: int = 0,
        stream: Optional[TextIO] = None,
        min_interval_s: float = DEFAULT_MIN_INTERVAL_S,
        noninteractive_interval_s: float = DEFAULT_NONINTERACTIVE_INTERVAL_S,
    ):
        self.name = name
        self.total_chunks = int(total_chunks)
        self.total_trials = int(total_trials)
        self.workers = int(workers)
        self.done_chunks = int(resumed_chunks)
        self.done_trials = int(resumed_trials)
        self.resumed_chunks = int(resumed_chunks)
        self.resumed_trials = int(resumed_trials)
        self.failures = 0
        self.retries = 0
        self.stream = stream if stream is not None else sys.stderr
        self.mode = _progress_mode(self.stream)
        self._min_interval = (
            min_interval_s if self.mode == "tty" else noninteractive_interval_s
        )
        self._t0 = time.monotonic()
        self._last_render = -float("inf")
        self._line_open = False
        self._closed = False
        self._m_trials = metrics.counter("runtime.trials_done")
        self._m_rate = metrics.gauge("runtime.trials_per_s")
        self._m_busy = metrics.gauge("runtime.workers_busy")
        self._m_utilization = metrics.histogram("runtime.worker_utilization")
        if self.total_chunks > 0:
            self._emit(force=True)  # announce the sweep immediately

    # -- engine-facing updates -----------------------------------------------

    def chunk_done(self, n_trials: int) -> None:
        """One work item finished (pool, serial, or serial-retry path)."""
        self.done_chunks += 1
        self.done_trials += int(n_trials)
        self._m_trials.inc(int(n_trials))
        self._emit(force=self.done_chunks >= self.total_chunks)

    def chunk_failed(self) -> None:
        """A pool future failed (kernel raised or the pool broke)."""
        self.failures += 1
        self._emit(force=True)

    def retry_done(self) -> None:
        """A failed chunk's serial in-parent retry succeeded."""
        self.retries += 1

    def close(self) -> None:
        """Final render + newline; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._emit(force=True, final=True)
        if self._line_open:
            self.stream.write("\n")
            self.stream.flush()
            self._line_open = False

    # -- derived quantities ----------------------------------------------------

    @property
    def elapsed_s(self) -> float:
        return time.monotonic() - self._t0

    @property
    def trials_per_s(self) -> float:
        """Fresh-trial throughput (checkpoint-resumed work excluded).

        Guarded against the zero-elapsed / zero-trial corner: a sweep
        that finishes (or renders) within one clock tick reports 0.0
        rather than an absurd or non-finite rate.
        """
        fresh = self.done_trials - self.resumed_trials
        elapsed = self.elapsed_s
        if fresh <= 0 or elapsed <= 1e-6:
            return 0.0
        rate = fresh / elapsed
        return rate if math.isfinite(rate) else 0.0

    @property
    def eta_s(self) -> Optional[float]:
        """Seconds to completion: 0.0 when done, None when unknowable."""
        remaining = self.total_trials - self.done_trials
        if remaining <= 0:
            return 0.0
        rate = self.trials_per_s
        if rate <= 0:
            return None
        eta = remaining / rate
        return eta if math.isfinite(eta) else None

    @property
    def workers_busy(self) -> int:
        """Workers with work left to do right now (tail-drain aware)."""
        remaining = self.total_chunks - self.done_chunks
        return max(min(remaining, self.workers), 0)

    @property
    def worker_utilization(self) -> float:
        """Busy fraction of the requested pool (0.0 when workers == 0)."""
        if self.workers <= 0:
            return 0.0
        return self.workers_busy / self.workers

    # -- rendering -------------------------------------------------------------

    def _emit(self, force: bool = False, final: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last_render < self._min_interval:
            return
        self._last_render = now
        eta = self.eta_s
        payload = dict(
            sweep=self.name,
            done_chunks=self.done_chunks,
            total_chunks=self.total_chunks,
            done_trials=self.done_trials,
            total_trials=self.total_trials,
            trials_per_s=round(self.trials_per_s, 3),
            eta_s=None if eta is None else round(eta, 3),
            workers=self.workers,
            workers_busy=self.workers_busy,
            failures=self.failures,
            retries=self.retries,
            final=final,
        )
        self._m_rate.set(self.trials_per_s)
        self._m_busy.set(self.workers_busy)
        self._m_utilization.observe(self.worker_utilization)
        # the last tick on the flight recorder becomes a crash bundle's
        # progress.json: how far the sweep got
        emit("runtime.progress", payload)
        if self.mode == "off":
            return
        line = self._format_line(final=final)
        if self.mode == "tty":
            self.stream.write("\r\x1b[2K" + line)
            self._line_open = True
        else:
            self.stream.write(line + "\n")
        self.stream.flush()

    def _format_line(self, final: bool = False) -> str:
        frac = self.done_chunks / self.total_chunks if self.total_chunks else 1.0
        filled = int(round(frac * _BAR_WIDTH))
        bar = "#" * filled + "-" * (_BAR_WIDTH - filled)
        eta = self.eta_s
        if final:
            tail = f"done in {self.elapsed_s:.1f}s"
        elif eta is None:
            tail = "eta --"
        else:
            tail = f"eta {eta:.0f}s"
        parts = [
            f"{self.name} [{bar}] {self.done_chunks}/{self.total_chunks} chunks",
            f"{self.done_trials}/{self.total_trials} trials",
            f"{self.trials_per_s:.1f} trials/s",
            tail,
            f"workers {self.workers_busy}/{self.workers}",
        ]
        if self.resumed_chunks:
            parts.append(f"resumed {self.resumed_chunks}")
        if self.failures or self.retries:
            parts.append(f"retries {self.retries}/{self.failures}")
        return "  ".join(parts)
