"""Bounded value ring: the sample history inside every histogram.

A :class:`Series` keeps the most recent :data:`DEFAULT_CAPACITY` values of
one quantity.  Each :class:`repro.obs.metrics.Histogram` owns one, so the
same samples answer "what is the distribution" (percentiles at exit,
``--metrics``) and the end-of-run alert judge in :mod:`repro.obs.alerts`
(:meth:`Series.rollup`), and a pool worker ships a chunk's new samples
home with :meth:`Series.latest`.

* **Cheap appends.**  ``Series.record`` is a lock, one indexed numpy
  store and a counter bump — safe on per-packet paths.
* **Bounded memory.**  Old values are overwritten, never reallocated;
  ``total`` counts every value ever recorded so loss is detectable.
* **Handles stay valid.**  ``reset()`` clears the ring *in place*.
"""

from __future__ import annotations

import threading

import numpy as np

#: Default ring capacity (values retained per series).
DEFAULT_CAPACITY = 4096


class Series:
    """One named ring buffer of float values.

    Appends past ``capacity`` overwrite the oldest value; ``total``
    counts every value ever recorded so consumers can detect loss.
    Appends are thread-safe (the watchdog and the engine may record
    from different threads).
    """

    __slots__ = ("name", "capacity", "total", "_values", "_n", "_head", "_lock")

    def __init__(self, name: str, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("series capacity must be >= 1")
        self.name = name
        self.capacity = int(capacity)
        self.total = 0
        self._values = np.empty(self.capacity, dtype=float)
        self._n = 0
        self._head = 0  # next write slot
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self._n

    def record(self, value: float) -> None:
        """Append one value."""
        with self._lock:
            self._values[self._head] = value
            self._head = (self._head + 1) % self.capacity
            if self._n < self.capacity:
                self._n += 1
            self.total += 1

    def values(self) -> np.ndarray:
        """The retained values in storage order (a view; order-free uses)."""
        return self._values[: self._n]

    def latest(self, n: int) -> np.ndarray:
        """A copy of the most recent ``n`` retained values, oldest first."""
        with self._lock:
            n = min(int(n), self._n)
            idx = (self._head - n + np.arange(n)) % self.capacity
            return self._values[idx]

    def rollup(self) -> dict:
        """count/last/min/max/mean/p50/p95 of the ring (``{"count": 0}`` when empty)."""
        values = self.latest(self._n)
        if values.size == 0:
            return {"count": 0}
        p50, p95 = (float(x) for x in np.percentile(values, [50, 95]))
        return {
            "count": int(values.size),
            "last": float(values[-1]),
            "min": float(values.min()),
            "max": float(values.max()),
            "mean": float(values.mean()),
            "p50": p50,
            "p95": p95,
        }

    def reset(self) -> None:
        """Drop all values in place (the handle stays valid)."""
        with self._lock:
            self._n = 0
            self._head = 0
            self.total = 0
