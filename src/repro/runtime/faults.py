"""Env-gated fault injection for the sweep runtime.

Mirrors the ``REPRO_PHASE_SIGMA_SCALE`` convention from
:mod:`repro.sim.fastsim`: a production code path reads one environment
variable and, when set, degrades on purpose — so the recovery machinery
(watchdog, serial retry, crash bundles) can be exercised end-to-end by
tests and the CI ``blackbox`` smoke job without bespoke test kernels.

``REPRO_FAULT_HANG_CHUNK`` hangs one chunk per matching process:

* ``"30"`` — hang the first chunk seen (any cell) for up to 30 s;
* ``"0:1:30"`` — hang only the chunk of cell 0 containing trial 1.

The hang is *cooperative*: it sleeps in short increments on a cancel
event that :func:`cancel_hangs` (called by the watchdog when it declares
the stall) releases.  A cancelled hang makes the chunk raise
:class:`HangCancelled` — the chunk was declared dead, so it must *not*
produce a result; the engine's serial-retry path re-runs it in the
parent, where the already-set cancel event keeps the fault from
re-triggering.  A hang that times out naturally (watchdog disabled)
just resumes: the chunk was merely slow.  Hung pool **processes** never
see the parent's cancel event and are killed outright by the watchdog;
the serial retry covers their chunks the same way.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Optional, Tuple

#: Environment variable arming the hanging-chunk fault.
HANG_CHUNK_ENV = "REPRO_FAULT_HANG_CHUNK"

#: Sleep increment of the cooperative hang loop, seconds.
HANG_POLL_S = 0.05

#: Set by the watchdog (or tests) to release every cooperative hang.
_CANCEL = threading.Event()

#: One hang per process: armed state, cleared after the fault triggers.
_TRIGGERED = threading.Event()


class HangCancelled(RuntimeError):
    """An injected hang was cancelled by the watchdog mid-chunk."""


def parse_hang_spec(raw: str) -> Optional[Tuple[Optional[int], Optional[int], float]]:
    """``(cell, trial, seconds)`` from a spec string, or None when invalid.

    Accepts ``"SECONDS"`` (first chunk anywhere) or
    ``"CELL:TRIAL:SECONDS"`` (the chunk of ``CELL`` containing
    ``TRIAL``).
    """
    raw = raw.strip()
    if not raw:
        return None
    parts = raw.split(":")
    try:
        if len(parts) == 1:
            return None, None, float(parts[0])
        if len(parts) == 3:
            return int(parts[0]), int(parts[1]), float(parts[2])
    except ValueError:
        return None
    return None


def cancel_hangs() -> None:
    """Release every cooperative hang in this process (watchdog / tests)."""
    _CANCEL.set()


def reset() -> None:
    """Re-arm the fault and clear the cancel event (tests)."""
    _CANCEL.clear()
    _TRIGGERED.clear()


def maybe_hang_chunk(cell_index: int, start: int, stop: int) -> None:
    """Hang here when ``REPRO_FAULT_HANG_CHUNK`` targets this chunk.

    Called by the engine's chunk runners before the trial loop.  Raises
    :class:`HangCancelled` when the hang was released by the watchdog
    (the chunk was declared dead and its serial retry owns the result);
    returns normally when the fault does not apply or the hang timed out
    on its own.  At most one hang per process, and never once the cancel
    event is set — so the retry of a stalled chunk runs through clean.
    """
    raw = os.environ.get(HANG_CHUNK_ENV)
    if not raw or _TRIGGERED.is_set() or _CANCEL.is_set():
        return
    spec = parse_hang_spec(raw)
    if spec is None:
        return
    cell, trial, seconds = spec
    if cell is not None and cell != cell_index:
        return
    if trial is not None and not (start <= trial < stop):
        return
    _TRIGGERED.set()
    deadline = time.monotonic() + max(seconds, 0.0)
    while time.monotonic() < deadline:
        if _CANCEL.wait(timeout=HANG_POLL_S):
            raise HangCancelled(
                f"injected hang on chunk (cell={cell_index}, trials "
                f"[{start}, {stop})) cancelled by the watchdog"
            )
