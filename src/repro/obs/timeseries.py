"""Bounded ``(timestamp, value)`` ring: the history inside every histogram.

A :class:`Series` keeps the most recent :data:`DEFAULT_CAPACITY` points of
one quantity with their wall-clock timestamps.  Each
:class:`repro.obs.metrics.Histogram` owns one, so the same samples answer
both "what is the distribution" (percentiles at exit, ``--metrics``) and
"what did it look like over the last *N* seconds" (windowed rollups for
``/timeseries`` and the alert rules in :mod:`repro.obs.alerts`).

* **Cheap appends.**  ``Series.record`` is a lock, two indexed numpy
  stores and a counter bump — safe on per-packet paths.
* **Bounded memory.**  Old points are overwritten, never reallocated;
  ``total`` counts every point ever recorded so loss is detectable.
* **Handles stay valid.**  ``reset()`` clears the ring *in place*.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional, Tuple

import numpy as np

#: Default ring capacity (points retained per series).
DEFAULT_CAPACITY = 4096

#: Rollup statistics rendered by :meth:`Series.rollup`.
ROLLUP_STATS = ("count", "first_ts", "last_ts", "last", "min", "max",
                "mean", "p50", "p95")


class Series:
    """One named ring buffer of ``(timestamp, value)`` points.

    Appends past ``capacity`` overwrite the oldest point; ``total``
    counts every point ever recorded so consumers can detect loss.
    All methods are thread-safe (producers append from the engine /
    simulator threads while the HTTP server reads).
    """

    __slots__ = ("name", "capacity", "total", "_ts", "_values", "_n",
                 "_head", "_lock")

    def __init__(self, name: str, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("series capacity must be >= 1")
        self.name = name
        self.capacity = int(capacity)
        self.total = 0
        self._ts = np.empty(self.capacity, dtype=float)
        self._values = np.empty(self.capacity, dtype=float)
        self._n = 0
        self._head = 0  # next write slot
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self._n

    def record(self, value: float, ts: Optional[float] = None) -> None:
        """Append one point (wall-clock ``time.time()`` unless given)."""
        if ts is None:
            ts = time.time()
        with self._lock:
            self._ts[self._head] = ts
            self._values[self._head] = value
            self._head = (self._head + 1) % self.capacity
            if self._n < self.capacity:
                self._n += 1
            self.total += 1

    def values(self) -> np.ndarray:
        """The retained values in storage order (a view; order-free uses)."""
        return self._values[: self._n]

    def _window(self, since: Optional[float]) -> Tuple[np.ndarray, np.ndarray]:
        """Copies of (ts, values) oldest-first, optionally from ``since``."""
        with self._lock:
            idx = (self._head - self._n + np.arange(self._n)) % self.capacity
            ts, values = self._ts[idx], self._values[idx]
        if since is not None:
            keep = ts >= since
            ts, values = ts[keep], values[keep]
        return ts, values

    def points(self, since: Optional[float] = None) -> List[Tuple[float, float]]:
        """``(ts, value)`` pairs oldest-first, optionally from ``since``."""
        ts, values = self._window(since)
        return [(float(t), float(v)) for t, v in zip(ts, values)]

    def rollup(self, since: Optional[float] = None) -> dict:
        """Window statistics: :data:`ROLLUP_STATS` (``{"count": 0}`` when empty)."""
        ts, values = self._window(since)
        if ts.size == 0:
            return {"count": 0}
        p50, p95 = (float(x) for x in np.percentile(values, [50, 95]))
        return {
            "count": int(ts.size),
            "first_ts": float(ts[0]),
            "last_ts": float(ts[-1]),
            "last": float(values[-1]),
            "min": float(values.min()),
            "max": float(values.max()),
            "mean": float(values.mean()),
            "p50": p50,
            "p95": p95,
        }

    def reset(self) -> None:
        """Drop all points in place (the handle stays valid)."""
        with self._lock:
            self._n = 0
            self._head = 0
            self.total = 0
