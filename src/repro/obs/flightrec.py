"""The event ring: one call that feeds the flight recorder and the trace.

Numbers live in the metrics registry (:mod:`repro.obs.metrics`); *events*
— a finished chunk, a progress tick, a watchdog stall, an alert
transition — live here.  :meth:`FlightRecorder.record` (module-level
:func:`emit`) is the only way in, and that one call

* appends ``{"ts", "kind", "data"}`` to a bounded, always-on ring (the
  black-box flight recorder that crash bundles dump to
  ``runs/crash-<runid>/flightrec.json``, see :mod:`repro.obs.blackbox`);
* writes the same event as a JSONL ``event`` record while a trace sink
  is open (:mod:`repro.obs.tracer`).

Appends are a lock + ``deque.append`` — the same "negligible until you
need it" bar the null tracer holds (<5% overhead, enforced by
``tests/obs/test_flightrec.py``).  ``REPRO_FLIGHTREC=0`` switches the
ring off; the trace still gets its events.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Union

from repro.obs.tracer import Tracer, trace

#: Records retained in the ring (oldest evicted first).
DEFAULT_CAPACITY = 4096

#: Environment variable: "0" disables the ring.
ENABLE_ENV = "REPRO_FLIGHTREC"

#: Version stamped into dumps; bump on breaking record-shape changes.
DUMP_SCHEMA = 1


def _env_enabled() -> bool:
    return os.environ.get(ENABLE_ENV, "").strip() != "0"


class FlightRecorder:
    """Bounded ring of recent ``(ts, kind, data)`` events.

    Thread-safe: producers record from the engine, watchdog and evaluator
    threads concurrently.  ``total`` counts every record the ring ever
    accepted (the dump's ``dropped = total - len(ring)``).  ``tracer`` is
    the trace each event is also written to (the global recorder uses the
    global tracer).
    """

    __slots__ = ("capacity", "enabled", "tracer", "total", "_ring", "_lock")

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        enabled: Optional[bool] = None,
        tracer: Optional[Tracer] = None,
    ):
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = int(capacity)
        self.enabled = enabled if enabled is not None else _env_enabled()
        self.tracer = tracer
        self.total = 0
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=self.capacity)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._ring)

    # -- recording -------------------------------------------------------------

    def record(
        self,
        kind: str,
        data: Optional[dict] = None,
        ts: Optional[float] = None,
    ) -> None:
        """Publish one event to the ring and the open trace."""
        if ts is None:
            ts = time.time()
        if self.enabled:
            rec: Dict[str, Any] = {"ts": ts, "kind": kind}
            if data:
                rec["data"] = data
            with self._lock:
                self._ring.append(rec)
                self.total += 1
        if self.tracer is not None:
            self.tracer.write_event(kind, data, ts=ts)

    # -- reading ---------------------------------------------------------------

    def snapshot(self, kind: Optional[str] = None) -> List[Dict[str, Any]]:
        """Copies of the retained records, oldest first."""
        with self._lock:
            records = list(self._ring)
        if kind is not None:
            records = [r for r in records if r["kind"] == kind]
        return records

    def last(self, kind: Optional[str] = None) -> Optional[Dict[str, Any]]:
        """The newest retained record (of ``kind``, when given), or None."""
        records = self.snapshot(kind=kind)
        return records[-1] if records else None

    def dump(self) -> Dict[str, Any]:
        """JSON-ready dump: meta header + the retained records."""
        with self._lock:
            records = list(self._ring)
            total = self.total
        return {
            "schema": DUMP_SCHEMA,
            "ts": time.time(),
            "pid": os.getpid(),
            "capacity": self.capacity,
            "enabled": self.enabled,
            "total": total,
            "dropped": total - len(records),
            "records": records,
        }

    def dump_json(self, path: Union[str, Path]) -> Path:
        """Write :meth:`dump` to ``path`` as indented JSON; returns the path."""
        from repro.obs.events import jsonable

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump(jsonable(self.dump()), f, indent=2, sort_keys=True)
            f.write("\n")
        return path

    def clear(self) -> None:
        """Drop all retained records and reset the counters."""
        with self._lock:
            self._ring.clear()
            self.total = 0


#: The process-global recorder every event goes through.
_RECORDER = FlightRecorder(tracer=trace)


def get_recorder() -> FlightRecorder:
    """The process-global flight recorder."""
    return _RECORDER


def emit(kind: str, data: Optional[dict] = None, ts: Optional[float] = None) -> None:
    """Publish one event through the process-global recorder."""
    _RECORDER.record(kind, data, ts=ts)
