"""The event ring: one call that feeds the flight recorder, the trace and SSE.

Numbers live in the metrics registry (:mod:`repro.obs.metrics`); *events*
— a finished chunk, a progress tick, a watchdog stall, an alert
transition — live here.  :meth:`FlightRecorder.record` (module-level
:func:`emit`) is the only way in, and that one call

* appends ``{"ts", "kind", "data"}`` to a bounded, always-on ring (the
  black-box flight recorder that crash bundles dump to
  ``runs/crash-<runid>/flightrec.json``, see :mod:`repro.obs.blackbox`);
* writes the same event as a JSONL ``event`` record while a trace sink
  is open (:mod:`repro.obs.tracer`);
* hands ``(kind, data)`` to the SSE subscribers of ``/events``
  (:mod:`repro.obs.serve`) when any exist.

Appends are a lock + ``deque.append`` — the same "negligible until you
need it" bar the null tracer holds (<5% overhead, enforced by
``tests/obs/test_flightrec.py``).  ``REPRO_FLIGHTREC=0`` switches the
ring off; the trace and SSE still get their events.
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from repro.obs.metrics import counter
from repro.obs.tracer import Tracer, trace

#: Records retained in the ring (oldest evicted first).
DEFAULT_CAPACITY = 4096

#: Environment variable: "0" disables the ring.
ENABLE_ENV = "REPRO_FLIGHTREC"

#: Version stamped into dumps; bump on breaking record-shape changes.
DUMP_SCHEMA = 1

#: Frames one SSE subscriber may fall behind before its frames are dropped.
SUBSCRIBER_QUEUE_SIZE = 256

#: Counter of frames dropped because a subscriber queue was full, so a
#: slow SSE client is *visible* on ``/metrics`` and ``/timeseries``.
EVENTS_DROPPED = "obs.events.dropped"

Frame = Tuple[str, dict]


def _env_enabled() -> bool:
    return os.environ.get(ENABLE_ENV, "").strip() != "0"


class FlightRecorder:
    """Bounded ring of recent ``(ts, kind, data)`` events, plus their fan-out.

    Thread-safe: producers record from the engine, watchdog, evaluator
    and HTTP threads concurrently.  ``total`` counts every record the ring
    ever accepted (``dropped = total - len(ring)``).  ``tracer`` is the
    trace each event is also written to (the global recorder uses the
    global tracer).
    """

    __slots__ = ("capacity", "enabled", "tracer", "total", "_ring", "_lock",
                 "_subscribers")

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
        self._subscribers: List["queue.Queue[Frame]"] = []

    def __len__(self) -> int:
        return len(self._ring)

    # -- recording -------------------------------------------------------------

    def record(
        self,
        kind: str,
        data: Optional[dict] = None,
        ts: Optional[float] = None,
    ) -> None:
        """Publish one event to the ring, the open trace and SSE subscribers."""
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
        if self._subscribers:
            self._publish(kind, data or {})

    def _publish(self, kind: str, data: dict) -> None:
        with self._lock:
            subscribers = list(self._subscribers)
        dropped = 0
        for q in subscribers:
            try:
                q.put_nowait((kind, dict(data)))
            except queue.Full:
                dropped += 1
        if dropped:
            counter(EVENTS_DROPPED).inc(dropped)

    # -- SSE subscriptions -----------------------------------------------------

    def subscribe(self, maxsize: int = SUBSCRIBER_QUEUE_SIZE) -> "queue.Queue[Frame]":
        """A bounded queue receiving every later event as ``(kind, data)``.

        A full queue drops the frame for that subscriber (a slow SSE
        client must not stall the sweep) and counts it on the
        :data:`EVENTS_DROPPED` counter.
        """
        q: "queue.Queue[Frame]" = queue.Queue(maxsize=maxsize)
        with self._lock:
            self._subscribers.append(q)
        return q

    def unsubscribe(self, q: "queue.Queue[Frame]") -> None:
        with self._lock:
            if q in self._subscribers:
                self._subscribers.remove(q)

    # -- reading ---------------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Records evicted from the ring so far."""
        return self.total - len(self._ring)

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
